"""Problem-statement data types and hypothesis validation.

A bundle spec describes the base product M_1 x ... x M_r of Fano
Kaehler-Einstein factors (complex dimension n_i, Fano index p_i, circle
bundle twisting q_i), the finite quasi-Einstein parameter m > 1, the Einstein
sign epsilon (fixed to -1 by the construction), and how each end of the
interval compactifies: a smooth collapse of the circle fiber, or a
blowdown where a complex-projective factor collapses together with it.

Validation checks the structural rules (blowdown factors must be
CP^n: p = n + 1 and |q| = 1) and the twisting inequalities under which
existence is asserted (0 < |q_i| < p_i for all-collapse configurations;
|q_i|(n_1 + 1) < p_i for i >= 2 under a left blowdown, and the mirror
condition under a right blowdown). Violations are returned as data, not
raised, so a caller can report all of them at once.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class EndpointType(enum.Enum):
    """How the metric closes up at an interval endpoint."""

    SMOOTH_COLLAPSE = "collapse"
    BLOWDOWN = "blowdown"


@dataclass(frozen=True)
class FactorSpec:
    """One Fano Kaehler-Einstein factor of the base product.

    Parameters
    ----------
    n : int
        Complex dimension of the factor (n >= 1).
    p : int
        Fano index: c_1 = p * a for the indivisible class a (p >= 1).
    q : int
        Twisting of the circle bundle over this factor (q != 0).
        Only q**2 enters the profile formulas; the sign is kept so
        input specs round-trip unchanged.
    """

    n: int
    p: int
    q: int


@dataclass(frozen=True)
class BundleSpec:
    """Full problem statement for one quasi-Einstein profile.

    Parameters
    ----------
    factors : tuple of FactorSpec
        Ordered base factors M_1 ... M_r, r >= 1.
    m : float
        Quasi-Einstein parameter, m > 1.
    left, right : EndpointType
        Endpoint behavior at s = 0 and s = s_*.
    epsilon : float
        Einstein sign of the quasi-Einstein equation; the whole
        endpoint algebra assumes -1 and validation rejects anything
        else. Stored explicitly so sign conventions stay visible in
        formulas.
    """

    factors: tuple
    m: float
    left: EndpointType = EndpointType.SMOOTH_COLLAPSE
    right: EndpointType = EndpointType.SMOOTH_COLLAPSE
    epsilon: float = -1.0

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))

    @property
    def r(self):
        return len(self.factors)

    @property
    def n_left(self):
        """Dimension parameter n_L of the left-end quadratic."""
        return self.factors[0].n if self.left is EndpointType.BLOWDOWN else 0

    @property
    def n_right(self):
        """Dimension parameter n_R of the right-end quadratic."""
        return self.factors[-1].n if self.right is EndpointType.BLOWDOWN else 0


def validate_spec(spec: BundleSpec) -> list:
    """Check a spec against the structural and existence hypotheses.

    Returns
    -------
    list of str
        One entry per violated rule, naming the factor index and the
        clause that failed. Empty list <=> the spec is valid.
    """
    violations = []

    if spec.r < 1:
        violations.append("factors: at least one base factor is required")
        return violations

    def integer(x):
        # bool is an int subclass, but True is not a dimension
        return isinstance(x, int) and not isinstance(x, bool)

    for i, fac in enumerate(spec.factors, start=1):
        if not integer(fac.n) or fac.n < 1:
            violations.append(f"factor {i}: n must be a positive integer, got {fac.n!r}")
        if not integer(fac.p) or fac.p < 1:
            violations.append(f"factor {i}: p must be a positive integer, got {fac.p!r}")
        if not integer(fac.q) or fac.q == 0:
            violations.append(f"factor {i}: q must be a nonzero integer, got {fac.q!r}")

    if not math.isfinite(spec.m):
        violations.append(f"m must be finite, got {spec.m!r}")
    elif not (spec.m > 1.0):
        violations.append(f"m must exceed 1, got {spec.m!r}")
    if spec.epsilon != -1.0:
        violations.append(f"epsilon is fixed to -1 by the construction, got {spec.epsilon!r}")

    left_blow = spec.left is EndpointType.BLOWDOWN
    right_blow = spec.right is EndpointType.BLOWDOWN

    # Blowdown structural rules: the collapsing factor must be CP^n with
    # the Fubini-Study metric, i.e. p = n + 1, and unit twisting.
    if left_blow:
        f1 = spec.factors[0]
        if f1.p != f1.n + 1:
            violations.append(
                f"left blowdown: factor 1 must satisfy p = n + 1 (CP^n), got p={f1.p}, n={f1.n}"
            )
        if abs(f1.q) != 1:
            violations.append(f"left blowdown: factor 1 must satisfy |q| = 1, got q={f1.q}")
    if right_blow:
        fr = spec.factors[-1]
        if fr.p != fr.n + 1:
            violations.append(
                f"right blowdown: factor {spec.r} must satisfy p = n + 1 (CP^n), "
                f"got p={fr.p}, n={fr.n}"
            )
        if abs(fr.q) != 1:
            violations.append(
                f"right blowdown: factor {spec.r} must satisfy |q| = 1, got q={fr.q}"
            )
    if left_blow and right_blow and spec.r == 1:
        violations.append(
            "both-ends blowdown needs r >= 2: a single quadratic beta_1 cannot "
            "vanish at both endpoints (A_1 = 1/(2*kappa0) and A_1 = -1/(2*sigma) conflict)"
        )

    # Twisting inequalities: exactly the conditions under which every
    # interior-factor beta stays positive on the whole interval.
    if not left_blow and not right_blow:
        for i, fac in enumerate(spec.factors, start=1):
            if fac.q != 0 and not (abs(fac.q) < fac.p):
                violations.append(
                    f"factor {i}: all-collapse clause needs 0 < |q| < p, "
                    f"got |q|={abs(fac.q)}, p={fac.p}"
                )
    # A factor blown down at its own end has its quadratic coefficient
    # forced (A_1 = 1/(2 kappa0), A_r = -1/(2 sigma)) and stays positive
    # automatically, so the opposite end's twisting clause skips it.
    if left_blow:
        n1 = spec.factors[0].n
        for i, fac in enumerate(spec.factors[1:], start=2):
            if right_blow and i == spec.r:
                continue
            if not (abs(fac.q) * (n1 + 1) < fac.p):
                violations.append(
                    f"factor {i}: left-blowdown clause needs |q|(n_1 + 1) < p, "
                    f"got {abs(fac.q)}*({n1}+1) = {abs(fac.q) * (n1 + 1)} >= {fac.p}"
                )
    if right_blow:
        nr = spec.factors[-1].n
        for i, fac in enumerate(spec.factors[:-1], start=1):
            if left_blow and i == 1:
                continue
            if not (abs(fac.q) * (nr + 1) < fac.p):
                violations.append(
                    f"factor {i}: right-blowdown clause (mirror) needs |q|(n_r + 1) < p, "
                    f"got {abs(fac.q)}*({nr}+1) = {abs(fac.q) * (nr + 1)} >= {fac.p}"
                )

    return violations


# ---------------------------------------------------------------------------
# JSON ingestion / emission
# ---------------------------------------------------------------------------

_ENDPOINT_NAMES = {e.value: e for e in EndpointType}


def _reject_unknown(d, allowed, where):
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ValueError(f"{where}: unknown keys {unknown} (allowed: {sorted(allowed)})")


def spec_from_dict(doc: dict) -> BundleSpec:
    """Build a BundleSpec from its JSON document form.

    The document shape is::

        {"factors": [{"n": ..., "p": ..., "q": ...}, ...],
         "m": ..., "left": "collapse"|"blowdown", "right": ...}

    Unknown keys anywhere in the document are rejected, so typos fail
    loudly instead of silently configuring nothing.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"spec document must be a JSON object, got {type(doc).__name__}")
    _reject_unknown(doc, {"factors", "m", "left", "right"}, "spec")
    if "factors" not in doc or "m" not in doc:
        raise ValueError("spec: required keys 'factors' and 'm'")

    raw_factors = doc["factors"]
    if not isinstance(raw_factors, list) or not raw_factors:
        raise ValueError("spec: 'factors' must be a non-empty list")
    factors = []
    for k, fd in enumerate(raw_factors, start=1):
        if not isinstance(fd, dict):
            raise ValueError(f"spec: factor {k} must be an object")
        _reject_unknown(fd, {"n", "p", "q"}, f"factor {k}")
        for key in ("n", "p", "q"):
            if key not in fd:
                raise ValueError(f"spec: factor {k} missing key '{key}'")
        factors.append(FactorSpec(n=fd["n"], p=fd["p"], q=fd["q"]))

    def endpoint(key):
        name = doc.get(key, "collapse")
        if name not in _ENDPOINT_NAMES:
            raise ValueError(
                f"spec: '{key}' must be one of {sorted(_ENDPOINT_NAMES)}, got {name!r}"
            )
        return _ENDPOINT_NAMES[name]

    return BundleSpec(
        factors=tuple(factors),
        m=float(doc["m"]),
        left=endpoint("left"),
        right=endpoint("right"),
    )


def spec_to_dict(spec: BundleSpec) -> dict:
    """Inverse of spec_from_dict: emit the JSON document form."""
    return {
        "factors": [{"n": f.n, "p": f.p, "q": f.q} for f in spec.factors],
        "m": spec.m,
        "left": spec.left.value,
        "right": spec.right.value,
    }
