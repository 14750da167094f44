import numpy as np
import pytest
from numpy.testing import assert_allclose

from mssvar.patterns import (
    PatternSet,
    apply_pattern,
    build_pattern_set,
    cofactor_gather,
    lower_triangular_pattern,
    parse_pattern,
)

# the six-variable candidate rows used by the monetary-policy example
POLICY_ROWS = {
    "unrestricted": "******",
    "baseline": "***000",
    "with_ts": "***0*0",
    "with_m": "**0*00",
    "only_m": "00*0*0",
}


# the selection matrix V of a pattern has its unit entries at (i, free_idx[i])


def test_selection_matrix_baseline_row():
    pat = parse_pattern(POLICY_ROWS["baseline"])
    assert pat.r == 3 and pat.N == 6
    assert pat.free_idx.tolist() == [0, 1, 2]


def test_selection_matrix_only_m_row():
    pat = parse_pattern(POLICY_ROWS["only_m"])
    assert pat.r == 2 and pat.N == 6
    assert pat.free_idx.tolist() == [2, 4]


def test_single_free_entry():
    pat = parse_pattern("*")
    assert pat.r == 1
    assert pat.free_idx.tolist() == [0]


def test_apply_pattern_places_free_entries():
    pat = parse_pattern("*0*")
    assert_allclose(apply_pattern(np.array([2.0, 3.0]), pat), [2.0, 0.0, 3.0])


def test_apply_extract_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(100):
        N = int(rng.integers(1, 7))
        mask = rng.random(N) < 0.5
        if not mask.any():
            mask[int(rng.integers(N))] = True
        pat = parse_pattern("".join("*" if m else "0" for m in mask))
        b = rng.normal(size=pat.r)
        assert_allclose(apply_pattern(b, pat)[pat.free_idx], b)


def test_all_zero_pattern_rejected():
    with pytest.raises(ValueError):
        parse_pattern("000")
    with pytest.raises(ValueError):
        apply_pattern(np.array([]), parse_pattern("*"))


def test_parse_rejects_garbage():
    for bad in ("", "*1*", "* *", "x"):
        with pytest.raises(ValueError):
            parse_pattern(bad)


def test_lower_triangular_default():
    pset = build_pattern_set(None, 3)
    assert [eq[0].spec for eq in pset.equations] == ["*00", "**0", "***"]
    assert pset.tvi_equations == ()


def test_pattern_set_policy_equation():
    # four candidates on equation 1, defaults elsewhere
    decls = {0: [POLICY_ROWS[k] for k in ("baseline", "with_ts", "with_m", "only_m")]}
    pset = build_pattern_set(decls, 6)
    assert pset.K(0) == 4
    assert pset.tvi_equations == (0,)


def test_pattern_set_validation():
    with pytest.raises(ValueError, match="duplicate"):
        build_pattern_set({0: ["**", "**"]}, 2)
    with pytest.raises(ValueError, match="length"):
        PatternSet(equations=((parse_pattern("***"),), (parse_pattern("**"),)))
    with pytest.raises(ValueError, match="out of range"):
        build_pattern_set({5: ["**"]}, 2)


def test_lower_triangular_rows():
    assert lower_triangular_pattern(0, 4).spec == "*000"
    assert lower_triangular_pattern(3, 4).spec == "****"


def test_pattern_indices_are_computed_once_and_read_only():
    pat = parse_pattern("*0**")
    assert pat.free_idx is pat.free_idx
    assert pat.r == 3
    with pytest.raises(ValueError):
        pat.free_idx[0] = 1
    pats = build_pattern_set({0: ["*0**", "**0*"]}, 4)
    assert pats.cofactor_gathers is pats.cofactor_gathers
    for n, (rows, cols, signs) in enumerate(pats.cofactor_gathers):
        want = cofactor_gather(4, n)
        assert all(np.array_equal(a, b) for a, b in zip((rows, cols, signs), want))
        assert not signs.flags.writeable
