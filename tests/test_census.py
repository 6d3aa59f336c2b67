"""The pipeline's contract on two spec families.

The census is every distinct spec that the benchmark's generator
(perfbench/specgen.py, loaded by path and never changed here) draws for
seeds 1-6: 135 specs. It is solved once per session, and every gate
below reads that one solve.

The wide family reaches past the census (n up to 39, m up to 500), where
not every spec solves or certifies. Each spec ends in a named class and
the count of each class is pinned, so a change that moves one shows as a
count move here.
"""

import collections
import importlib.util
import json
import math
import random
import warnings
from pathlib import Path

import numpy as np
import pytest

from qebundle import (
    BundleSpec,
    EndpointType,
    FactorSpec,
    NoSignChangeError,
    PositivityError,
    SolverConfig,
    reconstruct_t,
    solve,
    spec_from_dict,
    validate_spec,
    verify,
)
from qebundle import solver as sv

SPECGEN = Path(__file__).resolve().parents[1] / "perfbench" / "specgen.py"


# One census spec after its solve: the profile (None without a root), the
# solve's boundary_defect calls and alpha table builds, and the
# RuntimeWarnings it emitted.
Solved = collections.namedtuple("Solved", "spec profile defect_calls table_builds warned")


@pytest.fixture(scope="session")
def census():
    """Every distinct census spec by its sorted JSON key, each solved once."""
    module_spec = importlib.util.spec_from_file_location("specgen", SPECGEN)
    specgen = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(specgen)
    docs = {}
    for seed in range(1, 7):
        for _, doc in specgen.batch(seed, 2, lambda d: validate_spec(spec_from_dict(d))):
            docs.setdefault(json.dumps(doc, sort_keys=True), doc)
    calls, defect = [], sv.boundary_defect

    def counted_defect(*args):
        calls.append(args[0])
        return defect(*args)

    solved = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sv, "boundary_defect", counted_defect)
        for key, doc in docs.items():
            spec = spec_from_dict(doc)
            calls.clear()
            # a table cached by an earlier test is not a build of this solve
            sv._alpha_table.cache_clear()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    profile = solve(spec)
                except NoSignChangeError:
                    profile = None
            builds = sv._alpha_table.cache_info().misses
            warned = [w for w in caught if issubclass(w.category, RuntimeWarning)]
            solved[key] = Solved(spec, profile, len(calls), builds, warned)
    return solved


def test_census_counts_and_every_root_certifies(census):
    # 135 specs: 99 solve and every one certifies, 36 raise
    # NoSignChangeError; no check of a certified report uses a tenth of
    # its tolerance (value/tol over the checks with tol > 0, positivity aside)
    with_root = {key: c for key, c in census.items() if c.profile is not None}
    uncertified, worst = [], (0.0, None, None)
    for key, c in with_root.items():
        report = verify(c.profile, c.spec)
        if not report.certified:
            uncertified.append(key)
        for name, check in report.checks.items():
            if name != "positivity" and check["tol"] > 0.0:
                worst = max(worst, (abs(check["value"]) / check["tol"], name, key))
    assert (len(census), len(with_root), len(census) - len(with_root)) == (135, 99, 36)
    assert uncertified == []
    assert worst[0] < 0.1, worst


def test_census_solves_build_one_table_per_defect_call(census):
    # the alpha check at the root reads the table Brent's method built there
    one_build = [
        c.table_builds == c.defect_calls for c in census.values() if c.profile is not None
    ]
    assert one_build.count(True) == len(one_build) == 99


def test_census_arclength_rebuilds_on_every_root(census):
    # t starts at 0 and strictly rises, every f and g_i is finite, and
    # neither the solve nor reconstruct_t warns of an overflow or a NaN
    assert [key for key, c in census.items() if c.warned] == []
    rebuilt = 0
    for key, c in census.items():
        if c.profile is None:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            mp = reconstruct_t(c.profile.params, c.spec)
        assert mp.t[0] == 0.0 and np.all(np.diff(mp.t) > 0.0), key
        assert np.all(np.isfinite(mp.f)) and np.all(np.isfinite(mp.g)), key
        rebuilt += 1
    assert rebuilt == 99


def test_census_scan_rows_are_the_scalar_defect(census):
    # Brent's method takes f(a) and f(b) from the scan rows, so every row
    # of the default 64-row scan is boundary_defect at its kappa0 to the
    # bit, or NaN where that call raises; no row warns of an overflow or a NaN
    cfg = SolverConfig()
    grid = np.geomspace(*cfg.bracket, cfg.scan_points)
    rows = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for key, c in census.items():
            defects, checked = sv._defects(grid, c.spec)
            for k, kappa0 in enumerate(grid.tolist()):
                try:
                    want = sv.boundary_defect(kappa0, c.spec).hex()
                except PositivityError:
                    want = None
                got = float(defects[k]).hex() if checked[k] else None
                assert got == want, (key, k, kappa0)
                assert want is not None or np.isnan(defects[k]), (key, k, kappa0)
                rows += 1
    assert rows == 135 * 64


# ---------------------------------------------------------------------------
# The wide family
# ---------------------------------------------------------------------------

COLLAPSE, BLOWDOWN = EndpointType.SMOOTH_COLLAPSE, EndpointType.BLOWDOWN


def wide_family(seed, count=600):
    """The first `count` specs that validate_spec accepts from random.Random(seed).

    Per draw: r in 1..3, then each end a collapse or a blowdown (an
    r = 1 draw with both ends blown down gets a collapse right end);
    per factor n = int(exp(uniform(0, log 40))), then a blown-down
    factor's q = +-1 (with p = n + 1) or a free factor's p in 1..3n+3;
    then per free factor a sign and |q| in 1..(p - 1) // (n_b + 1), with
    n_b the largest blown-down n (or 0); then m log-uniform on
    [1.01, 500]. A draw with no admissible |q| is skipped, after its m.
    """
    rng = random.Random(seed)
    specs = []
    while len(specs) < count:
        r = rng.randint(1, 3)
        left, right = rng.choice((COLLAPSE, BLOWDOWN)), rng.choice((COLLAPSE, BLOWDOWN))
        if r == 1 and left is right is BLOWDOWN:
            right = COLLAPSE
        blown = [(i == 0 and left is BLOWDOWN) or (i == r - 1 and right is BLOWDOWN)
                 for i in range(r)]
        n, p, q = [], [], []
        for i in range(r):
            n.append(int(math.exp(rng.uniform(0.0, math.log(40.0)))))
            if blown[i]:
                p.append(n[i] + 1)
                q.append(rng.choice((-1, 1)))
            else:
                p.append(rng.randint(1, 3 * n[i] + 3))
                q.append(None)
        n_b = max((n[i] for i in range(r) if blown[i]), default=0)
        admissible = True
        for i in range(r):
            if blown[i]:
                continue
            top = (p[i] - 1) // (n_b + 1)
            if top < 1:
                admissible = False
                break
            sign = rng.choice((-1, 1))
            q[i] = sign * rng.randint(1, top)
        m = math.exp(rng.uniform(math.log(1.01), math.log(500.0)))
        if not admissible:
            continue
        spec = BundleSpec(
            factors=tuple(map(FactorSpec, n, p, q)), m=m, left=left, right=right
        )
        if not validate_spec(spec):
            specs.append(spec)
    return specs


def outcome(spec):
    """The class a spec ends in; any other exception propagates."""
    try:
        report = verify(solve(spec), spec)
    except NoSignChangeError as err:
        for kind in ("single-signed", "overflowed"):
            if kind in str(err):
                return kind
        raise
    except PositivityError:
        return "positivity"
    if report.certified:
        return "certified"
    return "uncertified: " + ", ".join(k for k, c in report.checks.items() if not c["passed"])


@pytest.mark.parametrize(
    "seed, counts",
    [
        (1, dict(certified=222, single_signed=200, overflowed=134, positivity=11,
                 uncertified=33, warned=168)),
        (2, dict(certified=206, single_signed=208, overflowed=146, positivity=5,
                 uncertified=35, warned=167)),
    ],
)
def test_wide_family_outcome_counts(seed, counts):
    outcomes, warned = collections.Counter(), 0
    for spec in wide_family(seed):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcomes[outcome(spec)] += 1
        warned += any(issubclass(w.category, RuntimeWarning) for w in caught)
    got = dict(
        certified=outcomes["certified"],
        single_signed=outcomes["single-signed"],
        overflowed=outcomes["overflowed"],
        positivity=outcomes["positivity"],
        uncertified=sum(v for k, v in outcomes.items() if k.startswith("uncertified")),
        warned=warned,
    )
    assert got == counts, outcomes
