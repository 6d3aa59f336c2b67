"""Seeded spec generator for the benchmark workloads.

The family is every spec the package's validator accepts with

- r in {1, 2, 3} base factors, each of complex dimension n in 1..4;
- each end a smooth collapse or a blowdown (right blowdowns included;
  both ends blown down only when r >= 2);
- m log-uniform on [1.2, 32].

Specs come in rounds. A round holds one spec per stratum (r, left,
right), always in the same stratum order, so every seed loads the
solver with the same mix of shapes and only the draws inside a stratum
change. Nothing is filtered by outcome: a spec that has no root or
does not certify stays in the batch, and its outcome is recorded by
the run.

The generator draws the twisting data so that the validator's
inequalities hold by construction, then asserts that the validator
agrees; a disagreement is a bug here, not a reason to drop the spec.
"""

import math
import random

COLLAPSE, BLOWDOWN = "collapse", "blowdown"

STRATA = tuple(
    (r, left, right)
    for r in (1, 2, 3)
    for left, right in (
        (COLLAPSE, COLLAPSE),
        (BLOWDOWN, COLLAPSE),
        (COLLAPSE, BLOWDOWN),
        (BLOWDOWN, BLOWDOWN),
    )
    if not (r == 1 and left == right == BLOWDOWN)
)

M_RANGE = (1.2, 32.0)

# Fixed specs that open every batch: the reference and blowdown
# instances whose roots tests/oracles.py freezes, and the 3-factor
# instance.
REFERENCE = {
    "factors": [{"n": 2, "p": 3, "q": 1}],
    "m": 2.0,
    "left": COLLAPSE,
    "right": COLLAPSE,
}
BLOWDOWN_REF = {
    "factors": [{"n": 1, "p": 2, "q": 1}, {"n": 1, "p": 3, "q": 1}],
    "m": 2.0,
    "left": BLOWDOWN,
    "right": COLLAPSE,
}
THREE_FACTOR = {
    "factors": [{"n": 4, "p": 5, "q": 1}, {"n": 3, "p": 7, "q": 2}, {"n": 2, "p": 3, "q": 1}],
    "m": 5.5,
    "left": COLLAPSE,
    "right": COLLAPSE,
}
FIXED = (("ref", REFERENCE), ("blow", BLOWDOWN_REF), ("three", THREE_FACTOR))


def _draw(rng, r, left, right):
    ns = [rng.randint(1, 4) for _ in range(r)]
    # A factor off its own blowdown end must satisfy |q|(n_end + 1) < p
    # for each blown-down end, and 0 < |q| < p when both ends collapse.
    k = 1
    if left == BLOWDOWN:
        k = max(k, ns[0] + 1)
    if right == BLOWDOWN:
        k = max(k, ns[-1] + 1)
    factors = []
    for i, n in enumerate(ns):
        own_end = (i == 0 and left == BLOWDOWN) or (i == r - 1 and right == BLOWDOWN)
        sign = rng.choice((-1, 1))
        if own_end:
            p, q = n + 1, sign
        else:
            aq = rng.randint(1, 3)
            p, q = aq * k + 1 + rng.randint(0, 4), sign * aq
        factors.append({"n": n, "p": p, "q": q})
    lo, hi = M_RANGE
    m = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    return {"factors": factors, "m": m, "left": left, "right": right}


def stratum_name(doc):
    """Short label such as 'r2-bc' (left blowdown, right collapse)."""
    ends = doc["left"][0] + doc["right"][0]
    return f"r{len(doc['factors'])}-{ends}"


def batch(seed, rounds, validate):
    """The fixed specs, then `rounds` rounds of one spec per stratum.

    Returns a list of (label, spec document). `validate` maps a spec
    document to the validator's list of violations.
    """
    rng = random.Random(seed)
    out = list(FIXED)
    for k in range(rounds):
        for r, left, right in STRATA:
            doc = _draw(rng, r, left, right)
            out.append((f"{stratum_name(doc)}.{k}", doc))
    for label, doc in out:
        violations = validate(doc)
        if violations:
            raise AssertionError(f"generator produced an invalid spec {label}: {violations}")
    return out
