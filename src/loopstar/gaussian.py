"""Spectral sampler and diagnostics for the stationary Gaussian loop field.

The field B on the unit circle has independent coordinates with covariance
E[B_i(s) B_j(t)] = delta_ij G(s, t), where G is the positive-definite
periodic kernel inverting (-d^2/ds^2 + 1).  Sampling is spectral: each
retained trigonometric mode carries one standard normal coefficient drawn
from its own counter-based stream, so any subset of modes, any batch size,
and any thread layout reproduce bit-identical numbers for a given seed.
The Monte-Carlo diagnostics take an already drawn batch `xi` as their
only sample input and read its size, dimension and cutoff from its shape
(`batch_shape`), so one verification run draws each Monte-Carlo batch once
and hands it to every check that reads it.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .modes import ModeIndex, profile_table

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


def _mode_key(seed: int, coord: int, freq: int) -> np.ndarray:
    # The second key word packs the mode so streams never collide across
    # coordinates or frequencies.  An explicit uint64 array keeps the key
    # exact: numpy reads a list holding a word of 2**63 or more as floats.
    return np.array([seed & 0xFFFFFFFFFFFFFFFF, (coord << 32) | (freq & 0xFFFFFFFF)],
                    dtype=np.uint64)


def _fresh_philox_state(key: np.ndarray) -> dict:
    """State of a newly built `Philox(key=key)`: counter 0, buffer empty."""
    return {"bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
            "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0}


def sample_xi_batch(seed: int, n_samples: int, K_mc: int, d: int) -> np.ndarray:
    """Spectral coefficients for n_samples independent fields.

    Shape (n_samples, d, 2 K_mc + 1); frequency k sits in column k + K_mc.
    Sample j of any batch equals draw j of the mode's stream, a `Philox`
    keyed by `_mode_key(seed, coord, freq)`, so batches of different sizes
    agree on their common prefix.  One generator is re-keyed to each mode's
    stream in turn and draws what a newly built `Philox` would: building
    one from a key also draws OS entropy for a seed it never uses, which
    costs several times the re-keying.  Each mode's draws fill one
    contiguous row of a buffer holding one coordinate, which is copied
    transposed into the C-contiguous result, so the extra memory is 1/d of
    the result's.
    """
    out = np.empty((n_samples, d, 2 * K_mc + 1))
    rows = np.empty((2 * K_mc + 1, n_samples))
    bits = np.random.Philox(key=[0, 0])
    gen = np.random.Generator(bits)
    for c in range(1, d + 1):
        for k in range(-K_mc, K_mc + 1):
            bits.state = _fresh_philox_state(_mode_key(seed, c, k))
            gen.standard_normal(out=rows[k + K_mc])
        out[:, c - 1] = rows.T
    return out


def batch_shape(xi: np.ndarray) -> tuple[int, int, int]:
    """(n_samples, d, K_mc) of a batch laid out as `sample_xi_batch` draws it."""
    n_samples, d, width = xi.shape
    return n_samples, d, (width - 1) // 2


def basis_matrix(K: int, s_points: np.ndarray) -> np.ndarray:
    """Profiles of frequencies -K..K at the given points, shape (2K+1,) + s_points.shape.

    `modes.profile_table` at order 0.  Every table of the sampler and of the
    checks in `suites` is built under this name, and the demos use it;
    `profile_table` is the builder, which also gives derivative orders.
    """
    return profile_table(K, s_points)


def uniform_grid(M: int) -> np.ndarray:
    """The M points m / M, m = 0..M-1, a sampled field's grid."""
    return np.arange(M, dtype=float) / M


@dataclass
class LoopSample:
    """One realized field: spectral coefficients plus derived grid values.

    values[m] is exactly the spectral recombination at grid point m / M;
    the grid is never sampled independently of xi.
    """

    seed: int
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

    def xi_value(self, mode: ModeIndex) -> float:
        """Coefficient of one primal mode; duals carry no sampled coefficient."""
        if mode.dual:
            raise ValueError(f"sampled fields have primal modes only, got {mode!r}")
        if not (1 <= mode.coord <= self.d) or abs(mode.freq) > self.K_mc:
            raise ValueError(f"mode {mode!r} outside sampled range d={self.d}, K_mc={self.K_mc}")
        return float(self.xi[mode.coord - 1, mode.freq + self.K_mc])

    def xi_map(self, K: int) -> dict[ModeIndex, float]:
        """Coefficients of all primal modes with |freq| <= K, as a plain map."""
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
        return LoopSample(seed=self.seed, xi=self.xi, grid=self.grid[::step],
                          values=self.values[::step])


def sample_loop(seed: int, K_mc: int, M: int, d: int, *,
                basis: Optional[np.ndarray] = None) -> LoopSample:
    """Draw one field and materialize it on the uniform M-point grid.

    `basis`, if given, is `basis_matrix(K_mc, uniform_grid(M))` already
    built, so that several fields on one grid share one table.
    """
    if K_mc < 1 or M < 2 or d < 1:
        raise ValueError("need K_mc >= 1, M >= 2, d >= 1")
    xi = sample_xi_batch(seed, 1, K_mc, d)[0]
    grid = uniform_grid(M)
    if basis is None:
        basis = basis_matrix(K_mc, grid)
    elif basis.shape != (2 * K_mc + 1, M):
        raise ValueError(f"basis of shape {basis.shape} is not the ({2 * K_mc + 1}, {M}) "
                         f"table of K_mc={K_mc} on {M} points")
    values = (xi @ basis).T
    return LoopSample(seed=seed, xi=xi, grid=grid, values=values)


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

    Pairs must satisfy 0 < |t - s| <= 1/2 (a coincident pair contributes
    ratio 0 by convention).  Returns the rows and the largest ratio; each
    row carries its standard error and the analytic value d Var / |t - s|
    implied by the truncated spectral covariance.
    """
    n_samples, d, K_mc = batch_shape(xi)
    s_pts = np.array([s for s, _ in pairs], dtype=float)
    t_pts = np.array([t for _, t in pairs], dtype=float)
    E_s, E_t = basis_matrix(K_mc, s_pts), basis_matrix(K_mc, t_pts)
    variances = increment_variance(s_pts, t_pts, K_mc)
    rows = []
    max_ratio = 0.0
    for j, (s, t) in enumerate(pairs):
        gap = abs(t - s)
        if gap == 0.0:
            rows.append({"s": s, "t": t, "ratio": 0.0, "stderr": 0.0, "analytic": 0.0})
            continue
        if gap > 0.5:
            raise ValueError(f"pair separation {gap} exceeds 1/2")
        delta = E_t[:, j] - E_s[:, j]
        incr = xi @ delta                      # (n_samples, d)
        power = np.sum(incr * incr, axis=1)
        est = float(np.mean(power)) / gap
        stderr = float(np.std(power, ddof=1)) / math.sqrt(n_samples) / gap
        analytic = float(variances[j]) * d / gap
        rows.append({"s": s, "t": t, "ratio": est, "stderr": stderr, "analytic": analytic})
        max_ratio = max(max_ratio, est)
    return {"rows": rows, "max_ratio": max_ratio}


def export_loop_csv(sample: LoopSample, csv_path: Union[str, Path]) -> Path:
    """Write the grid values as CSV (s, B_1..B_d) plus a JSON sidecar.

    The sidecar (same stem, .json suffix) records seed, K_mc and M, which
    is everything needed to regenerate the sample exactly.
    """
    csv_path = Path(csv_path)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s"] + [f"B_{c}" for c in range(1, sample.d + 1)])
        for m in range(sample.M):
            writer.writerow([repr(float(sample.grid[m]))] +
                            [repr(float(v)) for v in sample.values[m]])
    meta_path = csv_path.with_suffix(".json")
    with open(meta_path, "w") as fh:
        json.dump({"seed": sample.seed, "K_mc": sample.K_mc, "M": sample.M, "d": sample.d},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    return meta_path
