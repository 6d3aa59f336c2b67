"""Validation rules and JSON round-tripping of the problem statement."""

import pytest

from qebundle import (
    BundleSpec,
    EndpointType,
    FactorSpec,
    spec_from_dict,
    spec_to_dict,
    validate_spec,
)

COLLAPSE = EndpointType.SMOOTH_COLLAPSE
BLOWDOWN = EndpointType.BLOWDOWN


def make(factors, m=2.0, left=COLLAPSE, right=COLLAPSE):
    return BundleSpec(factors=tuple(FactorSpec(*f) for f in factors), m=m, left=left, right=right)


# ---------------------------------------------------------------------------
# validate_spec
# ---------------------------------------------------------------------------


def test_reference_instance_is_valid(ref_spec):
    assert validate_spec(ref_spec) == []


def test_blowdown_instance_is_valid(blow_spec):
    assert validate_spec(blow_spec) == []


def test_validation_is_pure_and_deterministic(ref_spec):
    assert validate_spec(ref_spec) == validate_spec(ref_spec)


def test_twisting_equal_to_fano_index_is_rejected():
    # all-collapse clause requires |q| < p strictly
    out = validate_spec(make([(1, 2, 2)]))
    assert len(out) == 1 and "|q|" in out[0]


def test_twisting_above_fano_index_is_rejected():
    assert validate_spec(make([(2, 3, 5)]))


def test_negative_twisting_enters_through_magnitude():
    # only q^2 enters the profile; q = -1 is as valid as q = 1
    assert validate_spec(make([(2, 3, -1)])) == []
    assert validate_spec(make([(1, 2, -2)]))


def test_m_at_most_one_is_rejected():
    out = validate_spec(make([(2, 3, 1)], m=1.0))
    assert len(out) == 1 and "m" in out[0]
    assert validate_spec(make([(2, 3, 1)], m=0.5))


@pytest.mark.parametrize("m", [float("inf"), float("-inf")])
def test_non_finite_m_is_rejected(m):
    out = validate_spec(make([(2, 3, 1)], m=m))
    assert len(out) == 1 and "m must be finite" in out[0]


@pytest.mark.parametrize("key", ["n", "p", "q"])
def test_boolean_dimension_data_is_rejected(key):
    # bool is an int subclass; True must not pass as the integer 1
    factor = {"n": 2, "p": 3, "q": 1, key: True}
    out = validate_spec(make([(factor["n"], factor["p"], factor["q"])]))
    assert any(f"{key} must be" in v for v in out)


def test_epsilon_other_than_minus_one_is_rejected():
    spec = BundleSpec(factors=(FactorSpec(2, 3, 1),), m=2.0, epsilon=1.0)
    out = validate_spec(spec)
    assert len(out) == 1 and "epsilon" in out[0]


def test_non_integer_dimension_is_rejected():
    out = validate_spec(make([(1.5, 3, 1)]))
    assert any("n must be" in v for v in out)


def test_zero_twisting_is_rejected():
    out = validate_spec(make([(2, 3, 0)]))
    assert any("q must be" in v for v in out)


def test_left_blowdown_requires_projective_space():
    # p = n + 1 with |q| = 1 is the blowdown structural rule
    out = validate_spec(make([(1, 3, 1), (1, 3, 1)], left=BLOWDOWN))
    assert any("p = n + 1" in v for v in out)
    out = validate_spec(make([(1, 2, 2), (1, 3, 1)], left=BLOWDOWN))
    assert any("|q| = 1" in v for v in out)


def test_right_blowdown_mirrors_left_rules():
    out = validate_spec(make([(1, 3, 1), (1, 3, 1)], right=BLOWDOWN))
    assert any("p = n + 1" in v for v in out)
    assert validate_spec(make([(1, 3, 1), (1, 2, 1)], right=BLOWDOWN)) == []


def test_left_blowdown_twisting_clause_on_other_factors():
    # under a left blowdown, each later factor needs |q|(n_1 + 1) < p
    assert validate_spec(make([(1, 2, 1), (1, 2, 1)], left=BLOWDOWN))
    assert validate_spec(make([(1, 2, 1), (1, 3, 1)], left=BLOWDOWN)) == []
    # larger collapsing factor tightens the clause: n_1 = 2 needs p > 3
    assert validate_spec(make([(2, 3, 1), (1, 3, 1)], left=BLOWDOWN))
    assert validate_spec(make([(2, 3, 1), (1, 4, 1)], left=BLOWDOWN)) == []


def test_both_end_blowdown_needs_two_factors():
    out = validate_spec(make([(1, 2, 1)], left=BLOWDOWN, right=BLOWDOWN))
    assert any("r >= 2" in v for v in out)
    assert validate_spec(make([(1, 2, 1), (1, 2, 1)], left=BLOWDOWN, right=BLOWDOWN)) == []


def test_multiple_violations_are_all_reported():
    out = validate_spec(make([(0, 0, 0)], m=1.0))
    assert len(out) >= 4  # n, p, q, and m all fail


def test_endpoint_dimension_parameters():
    spec = make([(3, 4, 1), (1, 2, 1)], left=BLOWDOWN)
    assert spec.n_left == 3 and spec.n_right == 0
    spec = make([(2, 4, 1), (1, 2, 1)], right=BLOWDOWN)
    assert spec.n_left == 0 and spec.n_right == 1
    assert make([(2, 3, 1)]).r == 1


# ---------------------------------------------------------------------------
# JSON document form
# ---------------------------------------------------------------------------

REF_DOC = {
    "factors": [{"n": 2, "p": 3, "q": 1}],
    "m": 2.0,
    "left": "collapse",
    "right": "collapse",
}


def test_document_round_trip():
    spec = spec_from_dict(REF_DOC)
    assert spec_to_dict(spec) == REF_DOC
    assert spec_from_dict(spec_to_dict(spec)) == spec


def test_document_round_trip_blowdown(blow_spec):
    assert spec_from_dict(spec_to_dict(blow_spec)) == blow_spec


def test_endpoints_default_to_collapse():
    spec = spec_from_dict({"factors": [{"n": 2, "p": 3, "q": 1}], "m": 2.0})
    assert spec.left is COLLAPSE and spec.right is COLLAPSE


def test_unknown_top_level_key_rejected():
    doc = dict(REF_DOC, kappa0=3.0)
    with pytest.raises(ValueError, match="unknown keys"):
        spec_from_dict(doc)


def test_unknown_factor_key_rejected():
    doc = dict(REF_DOC, factors=[{"n": 2, "p": 3, "q": 1, "dim": 4}])
    with pytest.raises(ValueError, match="unknown keys"):
        spec_from_dict(doc)


def test_missing_required_keys_rejected():
    with pytest.raises(ValueError, match="factors"):
        spec_from_dict({"m": 2.0})
    with pytest.raises(ValueError, match="missing key"):
        spec_from_dict({"factors": [{"n": 2, "p": 3}], "m": 2.0})


def test_bad_endpoint_name_rejected():
    with pytest.raises(ValueError, match="left"):
        spec_from_dict(dict(REF_DOC, left="smooth"))


def test_empty_factor_list_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        spec_from_dict({"factors": [], "m": 2.0})


def test_non_object_document_rejected():
    with pytest.raises(ValueError):
        spec_from_dict([1, 2, 3])
