import json
import math

import numpy as np
import pytest

from loopstar.gaussian import (GREEN_ALPHA, GREEN_BETA, basis_matrix, batch_shape,
                               export_loop_csv, green_diagonal,
                               green_exponential_form, green_kernel, holder_moment_check,
                               increment_variance, loop_eval, sample_loop, sample_xi_batch,
                               spectral_green_sum, uniform_grid)
from loopstar.modes import ModeIndex, mode_profile
from loopstar.rand import instance_rng


def test_kernel_closed_form_shape():
    assert green_kernel(0.3, 0.3) == pytest.approx(green_diagonal())
    assert green_kernel(0.1, 0.4) == pytest.approx(green_kernel(0.4, 0.1))
    assert green_kernel(0.1, 0.4) == pytest.approx(green_kernel(1.1, 0.4))
    # minimum at antipodal separation, maximum on the diagonal
    assert green_kernel(0.0, 0.5) < green_kernel(0.0, 0.25) < green_diagonal()


def test_exponential_coefficients():
    assert GREEN_ALPHA == pytest.approx(1.0 / (2.0 * (1.0 - math.exp(-1.0))))
    assert GREEN_BETA == pytest.approx(1.0 / (2.0 * (math.e - 1.0)))
    assert GREEN_ALPHA + GREEN_BETA == pytest.approx(green_diagonal())
    for x in (0.0, 0.2, 0.7, 1.0):
        assert green_exponential_form(x) == pytest.approx(green_kernel(x, 0.0), abs=1e-14)


def test_spectral_sum_converges_to_closed_form():
    err = lambda K: abs(green_kernel(0.1, 0.35) - spectral_green_sum(0.1, 0.35, K))
    assert err(200) <= 1e-4
    assert err(400) < err(100)


def test_spectral_sum_vectorized():
    s = np.array([0.1, 0.2])
    out = spectral_green_sum(s, 0.0, 32)
    assert out.shape == (2,)
    assert out[0] == spectral_green_sum(0.1, 0.0, 32)


def _per_frequency_green_sum(s, t, K):
    # The per-frequency loop the vectorized sum must reproduce bit for bit.
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    total = np.zeros(np.broadcast(s, t).shape)
    for k in range(-K, K + 1):
        total = total + mode_profile(k, s) * mode_profile(k, t)
    return float(total) if total.ndim == 0 else total


@pytest.mark.parametrize("K", [0, 1, 64, 200])
def test_spectral_sum_equals_per_frequency_loop(K):
    rng = np.random.default_rng(K)
    s = rng.uniform(0.0, 1.0, 9)
    cases = [(0.1, 0.35), (0.0, 0.0), (s, 0.25), (0.6, s),
             (s.reshape(9, 1), rng.uniform(0.0, 1.0, (1, 4))),
             (s[:4], rng.uniform(0.0, 1.0, 4))]
    for a, b in cases:
        got = spectral_green_sum(a, b, K)
        want = _per_frequency_green_sum(a, b, K)
        assert np.shape(got) == np.shape(want)
        assert type(got) is type(want)
        assert np.array_equal(got, want), (np.shape(a), np.shape(b))


def test_negative_cutoff_raises():
    with pytest.raises(ValueError, match="K must be >= 0, got -1"):
        spectral_green_sum(0.1, 0.2, -1)
    with pytest.raises(ValueError, match="K must be >= 0, got -1"):
        basis_matrix(-1, np.array([0.1, 0.2]))


def test_sampler_shapes_and_determinism():
    xi = sample_xi_batch(5, 7, 8, 2)
    assert xi.shape == (7, 2, 17)
    assert np.array_equal(xi, sample_xi_batch(5, 7, 8, 2))
    assert not np.array_equal(xi, sample_xi_batch(6, 7, 8, 2))
    assert np.array_equal(xi[:3], sample_xi_batch(5, 3, 8, 2))


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1, -3])
def test_rekeyed_streams_match_fresh_philox(seed):
    # Every column is draw for draw the stream of a newly built Philox keyed
    # by (seed, mode), and a batch of 1 is the prefix of a batch of 20000.
    # The key goes in as a uint64 array: numpy reads a plain list holding a
    # word of 2**63 or more as floats, so 2**64 - 1 and -3 would both become 0.
    K, d, n = 4, 2, 20000
    big = sample_xi_batch(seed, n, K, d)
    one = sample_xi_batch(seed, 1, K, d)
    assert big.flags.c_contiguous and one.flags.c_contiguous
    assert big.shape == (n, d, 2 * K + 1)
    for c in range(1, d + 1):
        for k in range(-K, K + 1):
            key = [seed & (2 ** 64 - 1), (c << 32) | (k & 0xFFFFFFFF)]
            bits = np.random.Philox(key=np.array(key, dtype=np.uint64))
            fresh = np.random.Generator(bits).standard_normal(n)
            assert np.array_equal(big[:, c - 1, k + K], fresh), (c, k)
            assert one[0, c - 1, k + K] == fresh[0]
            if key[0] < 2 ** 63:        # a list key is exact here
                listed = np.random.Generator(np.random.Philox(key=key)).standard_normal(n)
                assert np.array_equal(listed, fresh)
    assert np.array_equal(one, big[:1])


def test_high_seeds_draw_distinct_streams():
    # 2**64 - 2 and 2**64 - 1 (and 2**63 + 1, 2**63 + 2) round to one float.
    for seed in (2 ** 64 - 2, 2 ** 63 + 1):
        a, b = sample_xi_batch(seed, 3, 2, 1), sample_xi_batch(seed + 1, 3, 2, 1)
        assert not np.array_equal(a, b), seed
        x, y = instance_rng(seed, "label"), instance_rng(seed + 1, "label")
        assert x.random() != y.random(), seed


def test_sample_loop_values_are_spectral():
    sample = sample_loop(3, 8, 64, d=2)
    E = basis_matrix(8, sample.grid)
    assert np.allclose(sample.values, (sample.xi @ E).T)
    assert sample.M == 64
    assert (sample.d, sample.K_mc) == (2, 8)
    with pytest.raises(ValueError):
        sample_loop(3, 0, 64, d=2)
    with pytest.raises(ValueError):
        sample_loop(3, 8, 1, d=2)


def test_sample_loop_shared_basis_is_bit_identical():
    table = basis_matrix(8, uniform_grid(64))
    for seed in (3, 4, 2 ** 64 - 1):
        plain = sample_loop(seed, 8, 64, d=2)
        shared = sample_loop(seed, 8, 64, d=2, basis=table)
        assert np.array_equal(shared.xi, plain.xi)
        assert np.array_equal(shared.grid, plain.grid)
        assert np.array_equal(shared.values, plain.values)
    with pytest.raises(ValueError, match="basis of shape"):
        sample_loop(3, 8, 32, d=2, basis=table)
    with pytest.raises(ValueError, match="basis of shape"):
        sample_loop(3, 4, 64, d=2, basis=table)


def test_xi_value_and_map_guards():
    sample = sample_loop(3, 8, 64, d=2)
    mode = ModeIndex(1, 2)
    assert sample.xi_value(mode) == sample.xi[0, 2 + 8]
    with pytest.raises(ValueError):
        sample.xi_value(mode.as_dual)
    with pytest.raises(ValueError):
        sample.xi_value(ModeIndex(3, 0))
    with pytest.raises(ValueError):
        sample.xi_value(ModeIndex(1, 9))
    xi_map = sample.xi_map(2)
    assert len(xi_map) == 2 * 5
    with pytest.raises(ValueError):
        sample.xi_map(9)


def test_loop_eval_grid_and_off_grid():
    sample = sample_loop(9, 8, 32, d=2)
    assert np.array_equal(loop_eval(sample, 3 / 32), sample.values[3])
    s = 0.123456
    direct = sample.xi @ basis_matrix(8, np.array([s]))[:, 0]
    assert np.allclose(loop_eval(sample, s), direct)
    out = loop_eval(sample, np.array([0.0, s]))
    assert out.shape == (2, 2)


def test_loop_eval_points_match_per_point_route():
    # Each off-grid point is the spectral dot with its own profile column,
    # exactly; each grid hit is the stored row.
    sample = sample_loop(9, 8, 32, d=2)
    pts = np.array([0.123456, 3 / 32, 0.9, 1.0, 0.5, 0.77])
    out = loop_eval(sample, pts)
    for j, s in enumerate(pts):
        hit = abs(s * 32 - round(s * 32)) < 1e-12
        want = (sample.values[round(s * 32) % 32] if hit
                else sample.xi @ basis_matrix(8, np.array([s]))[:, 0])
        assert np.array_equal(out[j], want), s


def test_increment_variance_and_moments():
    assert increment_variance(0.2, 0.2, 16) == pytest.approx(0.0, abs=1e-12)
    assert increment_variance(0.1, 0.3, 16) > 0


def test_holder_moment_check_contract():
    xi = sample_xi_batch(1, 500, 16, 2)
    assert batch_shape(xi) == (500, 2, 16)
    with pytest.raises(ValueError):
        holder_moment_check(xi, [(0.0, 0.7)])
    table = holder_moment_check(xi, [(0.1, 0.1), (0.1, 0.3)])
    assert len(table["rows"]) == 2 and table["rows"][0]["ratio"] == 0.0
    row = table["rows"][1]
    assert table["max_ratio"] == row["ratio"]
    assert abs(row["ratio"] - row["analytic"]) <= 4 * row["stderr"]
    gap = abs(0.3 - 0.1)
    # E|Z|^2 = d Var for Z ~ N(0, Var I_d), here d = 2.
    assert row["analytic"] == increment_variance(0.1, 0.3, 16) * 2 / gap


def test_export_loop_csv_round_trip(tmp_path):
    sample = sample_loop(4, 4, 8, d=2)
    meta_path = export_loop_csv(sample, tmp_path / "loop.csv")
    meta = json.loads(meta_path.read_text())
    assert meta == {"seed": 4, "K_mc": 4, "M": 8, "d": 2}
    lines = (tmp_path / "loop.csv").read_text().strip().splitlines()
    assert lines[0] == "s,B_1,B_2"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(sample.values[0, 0])
