import math

import numpy as np
import pytest

from loopstar.modes import (LAMBDA, VACUUM, ModeIndex, MultiIndex, h_weight,
                            mode_profile, mode_range, norm_const, profile_table)


def test_mode_index_validation():
    with pytest.raises(ValueError):
        ModeIndex(0, 1)
    with pytest.raises(ValueError):
        ModeIndex(-2, 1)
    m = ModeIndex(1, -3)
    assert not m.dual
    assert m.as_dual.dual and m.as_dual.freq == -3
    assert repr(ModeIndex(1, 2, dual=True)) == "e(1,2)*"


def test_multi_index_merge_and_degree():
    m = ModeIndex(1, 1)
    n = ModeIndex(2, -2)
    mu = MultiIndex(((m, 2), (n, 1), (m, 1)))
    assert mu.degree == 4
    assert mu.multiplicity(m) == 3
    assert mu.multiplicity(ModeIndex(1, 5)) == 0
    assert dict(mu) == {m: 3, n: 1}
    assert VACUUM.degree == 0
    assert len(tuple(VACUUM)) == 0


def test_multi_index_union_remove():
    m = ModeIndex(1, 1)
    n = ModeIndex(1, 2)
    a = MultiIndex.single(m)
    b = MultiIndex(((m, 1), (n, 2)))
    u = a.union(b)
    assert u.multiplicity(m) == 2 and u.multiplicity(n) == 2
    r = b.remove(n)
    assert r.multiplicity(n) == 1 and r.degree == 2
    with pytest.raises(KeyError):
        a.remove(n)
    assert MultiIndex.single(m).remove(m) == VACUUM


def test_multi_index_validation():
    m = ModeIndex(1, 1)
    with pytest.raises(ValueError):
        MultiIndex(((m, 0),))
    with pytest.raises(TypeError):
        MultiIndex((("not a mode", 1),))


def test_sort_key_orders_by_degree_first():
    m = ModeIndex(1, 3)
    n = ModeIndex(2, -1)
    lo = MultiIndex.single(n)
    hi = MultiIndex(((m, 2),))
    assert sorted([hi, lo], key=lambda x: x.sort_key()) == [lo, hi]


def test_profile_normalization_constants():
    assert norm_const(0) == 1.0
    k = 3
    assert norm_const(k) == pytest.approx(math.sqrt(2.0) / math.sqrt(1.0 + LAMBDA * k * k))
    assert h_weight(k) == pytest.approx(1.0 + LAMBDA * k * k)
    assert h_weight(-k) == h_weight(k)


@pytest.mark.parametrize("order", [0, 2])
@pytest.mark.parametrize("K", [0, 1, 64, 600])
@pytest.mark.parametrize("s", [0.37, np.linspace(-0.5, 1.5, 33),
                               np.random.default_rng(4).uniform(0.0, 1.0, (5, 7))],
                         ids=["scalar", "1d", "2d"])
def test_profile_table_rows_are_mode_profiles(order, K, s):
    table = profile_table(K, s, order)
    assert table.shape == (2 * K + 1,) + np.shape(s)
    for k in range(-K, K + 1):
        assert np.array_equal(table[k + K], mode_profile(k, s, order)), k


def test_profile_table_scales_with_python_float_powers():
    # numpy's array power rounds (2 pi k)^2 differently from Python's float
    # power at k = 2207, and (2 pi k)^3 at k = 31; the rows must follow
    # mode_profile, which uses the latter.
    for K, order in ((2207, 2), (31, 3)):
        table = profile_table(K, 0.3, order)
        assert table[-1] == mode_profile(K, 0.3, order)
        assert table[0] == mode_profile(-K, 0.3, order)


def test_profile_table_rejects_negative_cutoff():
    with pytest.raises(ValueError, match="K must be >= 0, got -1"):
        profile_table(-1, np.array([0.1, 0.2]))


def test_profiles_orthonormal_in_derivative_inner_product():
    # <f, g> = mean(f g) + mean(f' g') on a grid fine enough to be exact
    # for these band-limited products.
    grid = np.arange(512) / 512.0
    K = 4
    freqs = range(-K, K + 1)
    for j in freqs:
        for k in freqs:
            val = float(np.mean(mode_profile(j, grid) * mode_profile(k, grid))
                        + np.mean(mode_profile(j, grid, order=1) * mode_profile(k, grid, order=1)))
            assert val == pytest.approx(1.0 if j == k else 0.0, abs=1e-12)


def test_second_derivative_is_minus_lambda_ksq():
    grid = np.arange(64) / 64.0
    for k in (-3, -1, 0, 2, 5):
        got = mode_profile(k, grid, order=2)
        want = -LAMBDA * k * k * mode_profile(k, grid)
        assert np.allclose(got, want, atol=1e-12)


def test_mode_range_counts():
    modes = mode_range(2, 3)
    assert len(modes) == 2 * 7
    assert all(not m.dual for m in modes)
