import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from loopstar import gaussian
from loopstar.chaos import quadrature_map
from loopstar.gaussian import (GREEN_ALPHA, GREEN_BETA, THREADED_DRAW_FLOOR, basis_matrix,
                               batch_shape, green_diagonal,
                               green_exponential_form, green_kernel, holder_moment_check,
                               increment_variance, loop_eval, sample_loop, sample_xi_batch,
                               spectral_green_sum, uniform_grid)
from loopstar.modes import ModeIndex, mode_profile
from loopstar.rand import instance_rng, philox_key


# Largest |sample_loop values - table product| allowed.  The gaps measured
# at the shapes of `test_sample_loop_values_are_the_table_product`, over 20
# seeds each, were at most 1.4e-14, on fields of standard deviation about 1.
FIELD_ABS_TOL = 5e-14


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
    assert xi.shape == (2, 17, 7)
    assert np.array_equal(xi, sample_xi_batch(5, 7, 8, 2))
    assert not np.array_equal(xi, sample_xi_batch(6, 7, 8, 2))
    assert np.array_equal(xi[:, :, :3], sample_xi_batch(5, 3, 8, 2))


@pytest.mark.parametrize("seed", [0, 2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1, -3])
def test_rekeyed_streams_match_fresh_philox(seed):
    # Every row is draw for draw the stream of a newly built Philox keyed
    # by (seed, mode), and a batch of 1 is the prefix of a batch of 20000.
    # The reference key goes in as `philox_key`'s uint64 array: numpy reads a
    # plain list holding a word of 2**63 or more as floats, so 2**64 - 1 and
    # -3 would both become 0, and 2**63 - 1 and 2**63 would meet.  The
    # sampler's states carry the key as plain ints, on both sides of 2**63.
    K, d, n = 4, 2, 20000
    big = sample_xi_batch(seed, n, K, d)
    one = sample_xi_batch(seed, 1, K, d)
    assert big.flags.c_contiguous and one.flags.c_contiguous
    assert big.shape == (d, 2 * K + 1, n)
    for c in range(1, d + 1):
        for k in range(-K, K + 1):
            key = [seed & (2 ** 64 - 1), (c << 32) | (k & 0xFFFFFFFF)]
            bits = np.random.Philox(key=philox_key(seed, key[1]))
            fresh = np.random.Generator(bits).standard_normal(n)
            assert np.array_equal(big[c - 1, k + K], fresh), (c, k)
            assert one[c - 1, k + K, 0] == fresh[0]
            if key[0] < 2 ** 63:        # a list key is exact here
                listed = np.random.Generator(np.random.Philox(key=key)).standard_normal(n)
                assert np.array_equal(listed, fresh)
    assert np.array_equal(one, big[:, :, :1])


def _fresh_streams(seed, n, K, d):
    """The reference batch: every mode from a newly built Philox of its own."""
    out = np.empty((d, 2 * K + 1, n))
    for c in range(1, d + 1):
        for k in range(-K, K + 1):
            key = np.array([seed & (2 ** 64 - 1), (c << 32) | (k & 0xFFFFFFFF)], dtype=np.uint64)
            out[c - 1, k + K] = np.random.Generator(np.random.Philox(key=key)).standard_normal(n)
    return out


@pytest.mark.parametrize("cores", [1, 2, 3, 5, 9])
def test_threaded_draw_matches_fresh_philox(monkeypatch, cores):
    # Above the floor the 9 streams of a coordinate split into `cores`
    # contiguous ranges (5 gives 1, 2, 2, 2, 2), each drawn on its own
    # thread; with a short switch interval the threads interleave often.
    K, d, n = 4, 2, THREADED_DRAW_FLOOR
    calls = []
    draw = gaussian._draw_rows

    def recording(seed, out, lo, hi):
        calls.append((lo, hi, threading.get_ident()))
        draw(seed, out, lo, hi)
    monkeypatch.setattr(gaussian, "_usable_cores", lambda: cores)
    monkeypatch.setattr(gaussian, "_draw_rows", recording)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        xi = sample_xi_batch(11, n, K, d)
    finally:
        sys.setswitchinterval(interval)
    assert xi.flags.c_contiguous
    assert np.array_equal(xi, _fresh_streams(11, n, K, d))
    ranges = sorted((lo, hi) for lo, hi, _ in calls)
    assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]]
    assert ranges[-1][1] == 2 * K + 1 and len(ranges) == cores
    # The calling thread draws the first range; each other range is a worker's.
    here = threading.get_ident()
    assert [(lo, ident == here) for lo, _, ident in sorted(calls)] == \
        [(lo, lo == 0) for lo, _ in ranges]


@pytest.mark.parametrize("m", [1, 100, THREADED_DRAW_FLOOR - 1])
def test_threaded_batch_prefix_is_the_unthreaded_batch(monkeypatch, m):
    monkeypatch.setattr(gaussian, "_usable_cores", lambda: 2)
    K, d = 3, 2
    assert np.array_equal(sample_xi_batch(5, THREADED_DRAW_FLOOR, K, d)[:, :, :m],
                          sample_xi_batch(5, m, K, d))


@pytest.mark.parametrize("failing_lo", [0, 3])
def test_draw_exception_reaches_caller_after_join(monkeypatch, failing_lo):
    # The range at 0 is the calling thread's own; the one at 3 a worker's.
    # A failure in either is raised in the caller once every thread is joined.
    draw = gaussian._draw_rows

    def failing(seed, out, lo, hi):
        if lo == failing_lo:
            raise RuntimeError(f"range at {lo}")
        draw(seed, out, lo, hi)
    monkeypatch.setattr(gaussian, "_usable_cores", lambda: 3)
    monkeypatch.setattr(gaussian, "_draw_rows", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"range at {failing_lo}"):
        sample_xi_batch(2, THREADED_DRAW_FLOOR, 4, 1)
    assert threading.active_count() == before


@pytest.mark.parametrize("args, name", [((0, 4, 2), "n_samples"), ((-1, 4, 2), "n_samples"),
                                        ((3, -1, 2), "K_mc"), ((3, 4, 0), "d")])
def test_sample_xi_batch_rejects_empty_shapes(monkeypatch, args, name):
    def no_draw(*_):
        raise AssertionError("drew before checking its arguments")
    monkeypatch.setattr(gaussian, "_draw_rows", no_draw)
    with pytest.raises(ValueError, match=name):
        sample_xi_batch(1, *args)


def test_threaded_draw_needs_no_memory_beyond_its_result(monkeypatch):
    # Each stream draws straight into its own row of the result, and each
    # state is built as its row is drawn, so the traced peak is the result
    # and a few small objects: no buffer, no copy, no table of states.
    monkeypatch.setattr(gaussian, "_usable_cores", lambda: 2)
    sample_xi_batch(1, THREADED_DRAW_FLOOR, 1, 1)     # imports and thread machinery warm
    tracemalloc.start()
    try:
        xi = sample_xi_batch(3, THREADED_DRAW_FLOOR, 64, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.01 * xi.nbytes, peak / xi.nbytes


@pytest.mark.parametrize("shape", [(2, 17), (1, 2, 17, 5), (2, 8, 5), (2, 0, 5)],
                         ids=["2-D", "4-D", "even-width", "no-width"])
def test_batch_shape_refuses_what_is_not_a_batch(shape):
    with pytest.raises(ValueError, match=r"\(d, 2 K_mc \+ 1, n_samples\), got shape"):
        batch_shape(np.zeros(shape))


@pytest.mark.parametrize("args, message", [((0, 64, 2), "K_mc >= 1, got 0"),
                                           ((8, 1, 2), "M >= 2, got 1"),
                                           ((8, 64, 0), "d >= 1, got 0")],
                         ids=["K_mc", "M", "d"])
def test_sample_loop_names_the_argument_it_refuses(args, message):
    with pytest.raises(ValueError, match=f"sample_loop needs {message}"):
        sample_loop(3, *args)


def test_quadrature_field_on_2048_points_is_every_other_of_4096():
    # `quadrature.order` draws its field on its finest grid, 2048 points; the
    # values are those a 4096-point field holds at its even points.  Inverse
    # FFTs of two sizes round differently, so they agree to FIELD_ABS_TOL.
    fine, half = sample_loop(26, 600, 4096, 2), sample_loop(26, 600, 2048, 2)
    assert np.array_equal(half.grid, fine.grid[::2])
    assert np.max(np.abs(half.values - fine.values[::2])) <= FIELD_ABS_TOL
    for n in (256, 512, 1024, 2048):
        assert np.max(np.abs(half.coarse(n).values - fine.coarse(n).values)) <= FIELD_ABS_TOL


def test_high_seeds_draw_distinct_streams():
    # 2**64 - 2 and 2**64 - 1 (and 2**63 + 1, 2**63 + 2) round to one float.
    for seed in (2 ** 64 - 2, 2 ** 63 + 1):
        a, b = sample_xi_batch(seed, 3, 2, 1), sample_xi_batch(seed + 1, 3, 2, 1)
        assert not np.array_equal(a, b), seed
        x, y = instance_rng(seed, "label"), instance_rng(seed + 1, "label")
        assert x.random() != y.random(), seed


@pytest.mark.parametrize("K_mc, M", [(8, 64), (8, 17), (8, 16), (8, 10), (8, 2), (1, 2),
                                     (64, 4096), (600, 2048), (600, 1000)])
def test_sample_loop_values_are_the_table_product(K_mc, M):
    # M <= 2 K_mc aliases frequencies onto one bin; the sum must still be the table's.
    for seed in (3, 2 ** 64 - 1):
        sample = sample_loop(seed, K_mc, M, d=2)
        assert np.array_equal(sample.grid, uniform_grid(M))
        assert np.array_equal(sample.xi, sample_xi_batch(seed, 1, K_mc, 2)[:, :, 0])
        want = (sample.xi @ basis_matrix(K_mc, sample.grid)).T
        assert sample.values.shape == want.shape == (M, 2)
        assert np.max(np.abs(sample.values - want)) <= FIELD_ABS_TOL, seed
        assert (sample.M, sample.d, sample.K_mc) == (M, 2, K_mc)


def test_sample_loop_values_are_spectral():
    sample = sample_loop(3, 8, 64, d=2)
    E = basis_matrix(8, sample.grid)
    assert np.max(np.abs(sample.values - (sample.xi @ E).T)) <= FIELD_ABS_TOL
    assert sample.M == 64
    assert (sample.d, sample.K_mc) == (2, 8)
    with pytest.raises(ValueError):
        sample_loop(3, 0, 64, d=2)
    with pytest.raises(ValueError):
        sample_loop(3, 8, 1, d=2)


def test_xi_map_guards():
    sample = sample_loop(3, 8, 64, d=2)
    xi_map = sample.xi_map(2)
    assert len(xi_map) == 2 * 5
    assert xi_map[ModeIndex(1, 2)] == sample.xi[0, 2 + 8]
    # A dual mode, a coordinate past d and a frequency past K have no entry.
    for refused in (ModeIndex(1, 2, True), ModeIndex(3, 0), ModeIndex(1, 3)):
        assert refused not in xi_map
    with pytest.raises(ValueError):
        sample.xi_map(9)                            # past the sampled cutoff
    # A negative cutoff is refused as `quadrature_map` refuses it, not read as no mode.
    for build in (sample.xi_map, lambda K: quadrature_map(sample, K)):
        with pytest.raises(ValueError, match="cutoff K must be >= 0, got -1"):
            build(-1)


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


def test_holder_pairs_are_checked_before_any_product(monkeypatch):
    def no_table(*_):
        raise AssertionError("built a table before checking the pairs")
    monkeypatch.setattr(gaussian, "basis_matrix", no_table)
    xi = np.zeros((2, 17, 4))
    with pytest.raises(ValueError, match="pair separation"):
        holder_moment_check(xi, [(0.1, 0.2), (0.15, 0.4), (0.1, 0.1)])


def test_holder_moment_check_contract():
    xi = sample_xi_batch(1, 500, 16, 2)
    assert batch_shape(xi) == (500, 2, 16)
    for pair in ((0.0, 0.7), (0.1, 0.1)):
        with pytest.raises(ValueError):
            holder_moment_check(xi, [pair])
    table = holder_moment_check(xi, [(0.1, 0.3)])
    [row] = table["rows"]
    assert table["max_ratio"] == row["ratio"]
    assert abs(row["ratio"] - row["analytic"]) <= 4 * row["stderr"]
    gap = abs(0.3 - 0.1)
    # E|Z|^2 = d Var for Z ~ N(0, Var I_d), here d = 2.
    assert row["analytic"] == increment_variance(0.1, 0.3, 16) * 2 / gap

