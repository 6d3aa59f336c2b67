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

    # The rules after the type checks read n, p, q as integers (with an
    # exact float: at most 2**53): they skip a factor with other data,
    # and an end blown down on one.
    typed = set()
    for i, fac in enumerate(spec.factors, start=1):
        found = len(violations)
        if not integer(fac.n) or fac.n < 1:
            violations.append(f"factor {i}: n must be a positive integer, got {fac.n!r}")
        if not integer(fac.p) or fac.p < 1:
            violations.append(f"factor {i}: p must be a positive integer, got {fac.p!r}")
        if not integer(fac.q) or fac.q == 0:
            violations.append(f"factor {i}: q must be a nonzero integer, got {fac.q!r}")
        if len(violations) == found and max(fac.n, fac.p, abs(fac.q)) > 2**53:
            violations.append(f"factor {i}: n, p and |q| must be at most 2**53")
        elif integer(fac.n) and integer(fac.p) and integer(fac.q):
            typed.add(i)

    if not math.isfinite(spec.m):
        violations.append(f"m must be finite, got {spec.m!r}")
    elif not (spec.m > 1.0):
        violations.append(f"m must exceed 1, got {spec.m!r}")
    if spec.epsilon != -1.0:
        violations.append(f"epsilon is fixed to -1 by the construction, got {spec.epsilon!r}")

    # The blown-down ends: (side, 1-based index of the factor collapsing
    # there, the twisting clause's name and its symbol for that n).
    ends = []
    if spec.left is EndpointType.BLOWDOWN:
        ends.append(("left", 1, "left-blowdown clause", "n_1"))
    if spec.right is EndpointType.BLOWDOWN:
        ends.append(("right", spec.r, "right-blowdown clause (mirror)", "n_r"))

    # Blowdown structural rules: the collapsing factor must be CP^n with
    # the Fubini-Study metric, i.e. p = n + 1, and unit twisting.
    checked = [end for end in ends if end[1] in typed]
    for side, k, _, _ in checked:
        fac = spec.factors[k - 1]
        if fac.p != fac.n + 1:
            violations.append(
                f"{side} blowdown: factor {k} must satisfy p = n + 1 (CP^n), "
                f"got p={fac.p}, n={fac.n}"
            )
        if abs(fac.q) != 1:
            violations.append(f"{side} blowdown: factor {k} must satisfy |q| = 1, got q={fac.q}")
    if len(ends) == 2 and spec.r == 1:
        violations.append(
            "both-ends blowdown needs r >= 2: a single quadratic beta_1 cannot "
            "vanish at both endpoints (A_1 = 1/(2*kappa0) and A_1 = -1/(2*sigma) conflict)"
        )

    # Twisting inequalities: exactly the conditions under which every
    # interior-factor beta stays positive on the whole interval.
    if not ends:
        for i, fac in enumerate(spec.factors, start=1):
            if i in typed and fac.q != 0 and not (abs(fac.q) < fac.p):
                violations.append(
                    f"factor {i}: all-collapse clause needs 0 < |q| < p, "
                    f"got |q|={abs(fac.q)}, p={fac.p}"
                )
    # A factor blown down at either end has its quadratic coefficient
    # forced (A_1 = 1/(2 kappa0), A_r = -1/(2 sigma)) and stays positive
    # automatically, so each end's twisting clause skips every such factor.
    blown = {k for _, k, _, _ in ends}
    for _, k, clause, n_sym in checked:
        nk = spec.factors[k - 1].n
        for i, fac in enumerate(spec.factors, start=1):
            if i in typed and i not in blown and not (abs(fac.q) * (nk + 1) < fac.p):
                violations.append(
                    f"factor {i}: {clause} needs |q|({n_sym} + 1) < p, "
                    f"got {abs(fac.q)}*({nk}+1) = {abs(fac.q) * (nk + 1)} >= {fac.p}"
                )

    return violations


def require_valid_spec(spec: BundleSpec):
    """Raise ValueError("invalid spec: ...") listing validate_spec's violations, if any."""
    violations = validate_spec(spec)
    if violations:
        raise ValueError("invalid spec: " + "; ".join(violations))


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

    m = doc["m"]
    if isinstance(m, bool) or not isinstance(m, (int, float, str)):
        raise ValueError(f"spec: 'm' must be a number, got {m!r}")
    try:
        m = float(m)
    except OverflowError:  # an int past the largest float, about 1.8e308
        raise ValueError("spec: 'm' must be finite, got an integer past the float range") from None

    return BundleSpec(
        factors=tuple(factors),
        m=m,
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
