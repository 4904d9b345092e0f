"""Deterministic random instances for property checks.

Every generator is fed from a counter-based stream keyed by (seed, label),
so any check can be re-run in isolation and still see the same instances,
independent of execution order.  Scalar draws call the bit generator's own
C functions (`_draws`) and give exactly the values, and leave exactly the
state, that the `Generator` methods would.
"""

from __future__ import annotations

import math
import zlib
from fractions import Fraction
from functools import partial

import numpy as np

from .fock import FockVector, _encode
from .modes import ModeIndex


def philox_key(seed: int, word: int) -> np.ndarray:
    """The Philox key (seed mod 2**64, word) as an explicit uint64 array.

    numpy reads a list holding a word of 2**63 or more as floats, which
    rounds neighbouring seeds to one key and near 2**64 overflows the cast
    back to uint64.
    """
    return np.array([seed & 0xFFFFFFFFFFFFFFFF, word], dtype=np.uint64)


def instance_rng(seed: int, label: str) -> np.random.Generator:
    """One stream per (seed, check label); stable across runs and platforms."""
    key = philox_key(seed, zlib.crc32(label.encode("utf-8")))
    return np.random.Generator(np.random.Philox(key=key))


def _draws(rng: np.random.Generator):
    """(below, uniform) on `rng`'s own state, valid while `rng` lives.

    `below(n)` is `rng.integers(0, n)` for 1 <= n <= 2**32 and `uniform()`
    is `rng.random()`: the same numbers and the same final state, without
    numpy's per-call dispatch.  `below` is numpy's Lemire multiply-and-reject
    on `next_uint32`, which shares the bit generator's buffered half-word.
    """
    iface = rng.bit_generator.ctypes
    state, next32, next_double = iface.state, iface.next_uint32, iface.next_double

    def below(n: int) -> int:
        if n == 1:
            return 0
        m = next32(state) * n
        if m & 0xFFFFFFFF < n:
            floor = 0x100000000 % n
            while m & 0xFFFFFFFF < floor:
                m = next32(state) * n
        return m >> 32

    return below, partial(next_double, state)


def _mode_count(d: int, K: int, dual_fraction: float) -> int:
    """How many distinct modes a draw can reach; both dualities only strictly inside (0, 1)."""
    if d < 1 or K < 0:
        raise ValueError(f"no mode to draw with d={d}, K={K}")
    return d * (2 * K + 1) * (2 if 0 < dual_fraction < 1 else 1)


def _coefficient(below) -> tuple[int, int]:
    """Reduced (num, den): draws num in [-9, 9], read as 1 when 0, then den in [1, 5]."""
    num = below(19) - 9 or 1
    den = below(5) + 1
    g = math.gcd(num, den)
    return num // g, den // g


def random_mode(rng: np.random.Generator, d: int, K: int, dual_fraction: float = 0.0) -> ModeIndex:
    """Draws coord, then freq, then dual; built past `ModeIndex`'s checks, which it passes."""
    below, uniform = _draws(rng)
    return tuple.__new__(ModeIndex, (below(d) + 1, below(2 * K + 1) - K, uniform() < dual_fraction))


def random_fraction(rng: np.random.Generator) -> Fraction:
    return Fraction(*_coefficient(_draws(rng)[0]))


def random_fock(rng: np.random.Generator, d: int, K: int, max_degree: int,
                n_terms: int = 4, dual_fraction: float = 0.0) -> FockVector:
    """Random rational vector with small coefficients; never the zero vector.

    Each term draws its degree, then that many modes (as `random_mode`),
    then its coefficient; a monomial drawn again takes the later
    coefficient.  Each monomial is packed straight from its counts and the
    vector built through its fast path, from values valid by construction.
    Raises ValueError, before any draw, unless 1 <= `n_terms` <= the number
    of distinct monomials of degree at most `max_degree`.
    """
    modes = _mode_count(d, K, dual_fraction)
    if max_degree < 0 or not 1 <= n_terms <= math.comb(modes + max_degree, max_degree):
        raise ValueError(f"cannot draw {n_terms} distinct monomials of degree at most "
                         f"{max_degree} on {modes} modes")
    below, uniform = _draws(rng)
    freqs = 2 * K + 1
    terms: dict[int, tuple[int, int]] = {}
    while len(terms) < n_terms:
        counts: dict[ModeIndex, int] = {}
        for _ in range(below(max_degree + 1)):
            mode = tuple.__new__(ModeIndex, (below(d) + 1, below(freqs) - K,
                                             uniform() < dual_fraction))
            counts[mode] = counts.get(mode, 0) + 1
        terms[_encode(counts.items())] = _coefficient(below)
    den = math.lcm(*(q for _, q in terms.values()))
    return FockVector._raw({mu: p * (den // q) for mu, (p, q) in terms.items()}, den)


def random_xi(rng: np.random.Generator, d: int, K: int,
              include_dual: bool = False) -> dict[ModeIndex, float]:
    """One standard normal per mode, drawn as one block in (coord, freq, primal-then-dual) order."""
    duals = (False, True) if include_dual else (False,)
    modes = [ModeIndex(c, k, dual)
             for c in range(1, d + 1) for k in range(-K, K + 1) for dual in duals]
    return dict(zip(modes, rng.standard_normal(len(modes)).tolist()))


def random_gamma(rng: np.random.Generator, d: int, K: int, size: int,
                 dual: bool) -> dict[ModeIndex, Fraction]:
    """Sparse rational coefficient map on `size` distinct modes of one duality; at most d(2K+1)."""
    if size > _mode_count(d, K, 0.0):
        raise ValueError(f"cannot draw {size} distinct modes with d={d}, K={K}")
    below, _ = _draws(rng)
    out: dict[ModeIndex, Fraction] = {}
    while len(out) < size:
        mode = ModeIndex(below(d) + 1, below(2 * K + 1) - K, dual)
        out[mode] = Fraction(*_coefficient(below))
    return out
