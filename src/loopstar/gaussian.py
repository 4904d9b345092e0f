"""Spectral sampler and diagnostics for the stationary Gaussian loop field.

The field B on the unit circle has independent coordinates with covariance
E[B_i(s) B_j(t)] = delta_ij G(s, t), where G is the positive-definite
periodic kernel inverting (-d^2/ds^2 + 1).  Sampling is spectral: each
retained trigonometric mode carries one standard normal coefficient drawn
from its own counter-based stream, so any subset of modes, any batch size,
and any thread layout reproduce bit-identical numbers for a given seed.
A batch is mode-major: each mode's stream draws straight into its own
contiguous row of the result, with no buffer and no copy.  A batch of at
least `THREADED_DRAW_FLOOR` samples is drawn on every usable core, each
thread filling the rows of its own range of modes.
The Monte-Carlo diagnostics take an already drawn batch `xi` as their
only sample input and read its size, dimension and cutoff from its shape
(`batch_shape`), so one verification run draws each Monte-Carlo batch once
and hands it to every check that reads it.  A sampled field's grid values
are its spectral sum computed by one inverse FFT, equal to the product of
its coefficients with the profile table to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .modes import ModeIndex, norm_const, profile_table

# Coefficients of e^{-x} and e^{x} in the closed-form kernel on one period.
GREEN_ALPHA = 1.0 / (2.0 * (1.0 - math.exp(-1.0)))
GREEN_BETA = 1.0 / (2.0 * (math.e - 1.0))


def green_kernel(s, t):
    """Closed-form covariance kernel cosh(dist - 1/2) / (2 sinh(1/2)).

    dist is the fractional part of s - t; the cosh form is symmetric under
    dist -> 1 - dist, so the kernel depends only on circle distance.
    Vectorized over s and t.
    """
    x = np.mod(np.asarray(s, dtype=float) - np.asarray(t, dtype=float), 1.0)
    out = np.cosh(x - 0.5) / (2.0 * math.sinh(0.5))
    return float(out) if out.ndim == 0 else out


def green_diagonal() -> float:
    """Constant variance G(s, s) = cosh(1/2) / (2 sinh(1/2))."""
    return math.cosh(0.5) / (2.0 * math.sinh(0.5))


def spectral_green_sum(s, t, K: int):
    """Truncated eigenfunction sum of the kernel over frequencies |k| <= K.

    This is the covariance the sampler actually realizes at cutoff K, and
    an independent oracle for the closed form as K grows.  Vectorized over
    s and t, which broadcast against each other; the frequency terms are
    added in order from -K up, as a per-frequency loop adds them.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    ndim = max(s.ndim, t.ndim)
    terms = (basis_matrix(K, s.reshape((1,) * (ndim - s.ndim) + s.shape))
             * basis_matrix(K, t.reshape((1,) * (ndim - t.ndim) + t.shape)))
    total = np.cumsum(terms, axis=0)[-1]
    return float(total) if total.ndim == 0 else total


def green_exponential_form(x):
    """GREEN_ALPHA e^{-x} + GREEN_BETA e^{x}; equal to green_kernel(x, 0) on x in [0, 1]."""
    x = np.asarray(x, dtype=float)
    out = GREEN_ALPHA * np.exp(-x) + GREEN_BETA * np.exp(x)
    return float(out) if out.ndim == 0 else out


# Samples per stream from which `sample_xi_batch` draws on every usable
# core.  Re-keying a generator holds the GIL and the fill does not, so a
# short stream leaves a second thread too little fill to pay for its start.
# On 2 vCPUs at K_mc = 64, d = 2 (mode-major rows, medians of 21 draws), a
# threaded draw took 3.3 ms against 1.5 ms one-threaded at 256 samples,
# 4.1 ms against 4.6 ms at 1024, and 11.5 ms against 17.1 ms at 4096; the
# 2402 one-draw streams of `sample_loop(seed, 600, M, 2)` took 9.4-10.4 ms
# against 4.7-8.1 ms.  Threads break even just under 1024 samples; the
# floor sits a factor 4 above, where the gain is clear.
THREADED_DRAW_FLOOR = 4096


def _fresh_state(seed: int, coord: int, freq: int) -> dict:
    """State of a newly built Philox for one mode's stream: counter 0, buffer empty.

    The key is (seed mod 2**64, word), the word packing the mode so streams
    never collide across coordinates or frequencies.  It is built from
    plain ints, which the state setter reads as uint64 words exactly.
    """
    key = (seed & 0xFFFFFFFFFFFFFFFF, (coord << 32) | (freq & 0xFFFFFFFF))
    return {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": key},
            "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _usable_cores() -> int:
    """Cores this process may run on (its affinity mask where the OS has one)."""
    import os
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _draw_rows(seed: int, out: np.ndarray, lo: int, hi: int) -> None:
    """Fill rows lo..hi-1 of `out[c]` for every coordinate c, each from its stream.

    Row `out[c, i]` draws the stream `_fresh_state(seed, c + 1, i - K_mc)`.
    It calls numpy and `_fresh_state` only, so any thread may run it.
    """
    K_mc = (out.shape[1] - 1) // 2
    bits = np.random.Philox(key=[0, 0])
    gen = np.random.Generator(bits)
    for c in range(len(out)):
        for i in range(lo, hi):
            bits.state = _fresh_state(seed, c + 1, i - K_mc)
            gen.standard_normal(out=out[c, i])


def sample_xi_batch(seed: int, n_samples: int, K_mc: int, d: int) -> np.ndarray:
    """Spectral coefficients for n_samples independent fields.

    A C-contiguous array of shape (d, 2 K_mc + 1, n_samples): row
    (c - 1, k + K_mc) holds the n_samples draws of mode (c, k).  Entry j
    of a row is draw j of the mode's stream, a `Philox` with the key of
    `_fresh_state(seed, coord, freq)`, so batches of different sizes agree
    on their common prefix along the last axis.  A generator is re-keyed
    to each mode's stream in turn and draws what a newly built `Philox`
    would: building one from a key also draws OS entropy for a seed it
    never uses, which costs several times the re-keying.  Each stream
    draws straight into its own row of the result, so the draw needs no
    memory beyond the result.

    From `THREADED_DRAW_FLOOR` samples on, the 2 K_mc + 1 streams of a
    coordinate are split into contiguous ranges, one per usable core; the
    calling thread draws the first range and one thread each the others,
    each with a generator of its own, filling its own rows of the result.
    Every mode keeps its own stream, so the numbers do not depend on the
    layout.  A worker's exception is raised here after every thread has
    been joined.
    """
    for name, value, least in (("n_samples", n_samples, 1), ("K_mc", K_mc, 0), ("d", d, 1)):
        if value < least:
            raise ValueError(f"sample_xi_batch needs {name} >= {least}, got {value}")
    width = 2 * K_mc + 1
    out = np.empty((d, width, n_samples))
    parts = min(width, _usable_cores()) if n_samples >= THREADED_DRAW_FLOOR else 1
    bounds = [width * p // parts for p in range(parts + 1)]
    import threading
    errors: list[BaseException] = []

    def worker(lo: int, hi: int) -> None:
        try:
            _draw_rows(seed, out, lo, hi)
        except BaseException as exc:
            errors.append(exc)

    threads = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            thread = threading.Thread(target=worker, args=(lo, hi))
            thread.start()
            threads.append(thread)
        _draw_rows(seed, out, 0, bounds[1])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return out


def batch_shape(xi: np.ndarray) -> tuple[int, int, int]:
    """(n_samples, d, K_mc) of a batch laid out as `sample_xi_batch` draws it, else ValueError."""
    if xi.ndim != 3 or xi.shape[1] % 2 == 0:
        raise ValueError(f"a batch is laid out (d, 2 K_mc + 1, n_samples), got shape {xi.shape}")
    d, width, n_samples = xi.shape
    return n_samples, d, (width - 1) // 2


def basis_matrix(K: int, s_points: np.ndarray) -> np.ndarray:
    """Profiles of frequencies -K..K at the given points, shape (2K+1,) + s_points.shape.

    `modes.profile_table`.  Every table of the sampler and of the checks in
    `suites` is built under this name, and the demos use it.
    """
    return profile_table(K, s_points)


def uniform_grid(M: int) -> np.ndarray:
    """The M points m / M, m = 0..M-1, a sampled field's grid."""
    return np.arange(M, dtype=float) / M


@dataclass
class LoopSample:
    """One realized field: spectral coefficients plus derived grid values.

    values[m] is the spectral recombination at grid point m / M, summed by
    one inverse FFT (`sample_loop`), so it equals the product of xi with
    the profile table to rounding; the grid is never sampled independently
    of xi.
    """

    xi: np.ndarray                      # (d, 2 K_mc + 1)
    grid: np.ndarray = field(repr=False)     # (M,)
    values: np.ndarray = field(repr=False)   # (M, d)

    @property
    def M(self) -> int:
        return len(self.grid)

    @property
    def d(self) -> int:
        return self.xi.shape[0]

    @property
    def K_mc(self) -> int:
        return (self.xi.shape[1] - 1) // 2

    def xi_map(self, K: int) -> dict[ModeIndex, float]:
        """Coefficients of all primal modes with |freq| <= K, as a plain map."""
        if K < 0:
            raise ValueError(f"cutoff K must be >= 0, got {K}")
        if K > self.K_mc:
            raise ValueError(f"requested cutoff {K} exceeds sampled cutoff {self.K_mc}")
        return {ModeIndex(c, k): float(self.xi[c - 1, k + self.K_mc])
                for c in range(1, self.d + 1) for k in range(-K, K + 1)}

    def coarse(self, n: int) -> "LoopSample":
        """The same field on n of its points, every (M/n)-th stored one.

        n must divide M, so the values are the stored ones exactly, never
        re-interpolated.
        """
        if n < 1 or self.M % n:
            raise ValueError(f"grid size {n} must divide the sample resolution M={self.M}")
        step = self.M // n
        return LoopSample(xi=self.xi, grid=self.grid[::step], values=self.values[::step])


def sample_loop(seed: int, K_mc: int, M: int, d: int) -> LoopSample:
    """Draw one field and materialize it on the uniform M-point grid.

    The values are the spectral sum by one inverse FFT.  With c_k =
    norm_const(k), the profiles c_k cos(2 pi k s) and c_k sin(2 pi k s)
    of frequencies k and -k give e^{2 pi i k s} the coefficient
    a_k = c_k (xi_k - i xi_{-k}) / 2 and e^{-2 pi i k s} its conjugate;
    a_0 = xi_0.  On the grid, e^{2 pi i k m / M} depends on k mod M only,
    so each a_k is added into bin k mod M (any M >= 2, aliased or not),
    and the half spectrum goes through an unscaled inverse real FFT.  The
    values equal `(xi @ basis_matrix(K_mc, grid)).T` to rounding, without
    building that (2 K_mc + 1, M) table.
    """
    for name, value, least in (("K_mc", K_mc, 1), ("M", M, 2), ("d", d, 1)):
        if value < least:
            raise ValueError(f"sample_loop needs {name} >= {least}, got {value}")
    xi = sample_xi_batch(seed, 1, K_mc, d)[:, :, 0]
    half = 0.5 * np.array([norm_const(k) for k in range(1, K_mc + 1)])
    positive = (xi[:, K_mc + 1:] - 1j * xi[:, K_mc - 1::-1]) * half    # a_1..a_K_mc
    # Frequencies -K_mc..K_mc in order, padded to whole periods of M bins.
    width = 2 * K_mc + 1
    spectrum = np.zeros((d, -(-width // M) * M), dtype=complex)
    spectrum[:, K_mc] = xi[:, K_mc]
    spectrum[:, K_mc + 1:width] = positive
    spectrum[:, K_mc - 1::-1] = positive.conj()
    # Entry j holds frequency j - K_mc, so bin b sums the column (b + K_mc) mod M.
    bins = np.roll(spectrum.reshape(d, -1, M).sum(axis=1), -K_mc, axis=1)
    values = np.fft.irfft(bins[:, :M // 2 + 1], n=M, axis=1, norm="forward").T
    return LoopSample(xi=xi, grid=uniform_grid(M), values=values)


def loop_eval(sample: LoopSample, s) -> np.ndarray:
    """Field value(s) at arbitrary parameters.

    Points that hit the stored grid exactly return the stored row; all
    others are spectral recombinations, so both paths agree to rounding.
    Scalar s gives shape (d,), a length-P array gives (P, d).
    """
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    out = np.empty((len(s_arr), sample.d))
    M = sample.M
    idx = np.mod(s_arr, 1.0) * M
    near = np.rint(idx)
    on_grid = np.abs(idx - near) < 1e-12
    hits = np.flatnonzero(on_grid)
    out[hits] = sample.values[near[hits].astype(int) % M]
    off = np.flatnonzero(~on_grid)
    # One contiguous profile row per off-grid point, as a one-point table gives it.
    profiles = np.ascontiguousarray(basis_matrix(sample.K_mc, s_arr[off]).T)
    for j, profile in zip(off, profiles):
        out[j] = sample.xi @ profile
    return out[0] if np.isscalar(s) or np.asarray(s).ndim == 0 else out


def increment_variance(s, t, K: int):
    """Per-coordinate variance of B(t) - B(s) at spectral cutoff K; vectorized over s and t."""
    return 2.0 * (spectral_green_sum(0.0, 0.0, K) - spectral_green_sum(s, t, K))


def holder_moment_check(xi: np.ndarray, pairs: Sequence[tuple[float, float]]) -> dict:
    """Monte-Carlo increment moments E|B(t) - B(s)|^2 / |t - s| over the batch `xi`.

    Every pair must satisfy 0 < |t - s| <= 1/2; any other pair raises
    ValueError before anything is computed.  Returns the rows and the
    largest ratio; each row carries its standard error and the analytic
    value d Var / |t - s| implied by the truncated spectral covariance.
    The increments of all pairs come from one product of the transposed
    (2 K_mc + 1, P) table of profile differences with the batch's rows.
    """
    gaps = [abs(t - s) for s, t in pairs]
    for gap in gaps:
        if not 0.0 < gap <= 0.5:
            raise ValueError(f"pair separation {gap} is not in (0, 1/2]")
    n_samples, d, K_mc = batch_shape(xi)
    s_pts = np.array([s for s, _ in pairs], dtype=float)
    t_pts = np.array([t for _, t in pairs], dtype=float)
    delta = basis_matrix(K_mc, t_pts) - basis_matrix(K_mc, s_pts)
    incr = delta.T @ xi                                   # (d, P, n_samples)
    power = np.sum(incr * incr, axis=0)
    means = np.mean(power, axis=1)
    stds = np.std(power, axis=1, ddof=1)
    variances = increment_variance(s_pts, t_pts, K_mc)
    rows = []
    max_ratio = 0.0
    for (s, t), gap, mean, std, variance in zip(pairs, gaps, means, stds, variances):
        est = float(mean) / gap
        stderr = float(std) / math.sqrt(n_samples) / gap
        analytic = float(variance) * d / gap
        rows.append({"s": s, "t": t, "ratio": est, "stderr": stderr, "analytic": analytic})
        max_ratio = max(max_ratio, est)
    return {"rows": rows, "max_ratio": max_ratio}
