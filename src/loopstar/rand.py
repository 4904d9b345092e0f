"""Deterministic random instances for property checks.

Every generator is fed from a counter-based stream keyed by (seed, label),
so any check can be re-run in isolation and still see the same instances,
independent of execution order.
"""

from __future__ import annotations

import zlib
from fractions import Fraction

import numpy as np

from .fock import FockVector, _common_denominator, _encode
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


def random_mode(rng: np.random.Generator, d: int, K: int, dual_fraction: float = 0.0) -> ModeIndex:
    """Draws coord, then freq, then dual; built past `ModeIndex`'s checks, which it passes."""
    return tuple.__new__(ModeIndex, (int(rng.integers(1, d + 1)), int(rng.integers(-K, K + 1)),
                                     bool(rng.random() < dual_fraction)))


def random_fraction(rng: np.random.Generator) -> Fraction:
    num = int(rng.integers(-9, 10))
    if num == 0:
        num = 1
    den = int(rng.integers(1, 6))
    return Fraction(num, den)


def random_fock(rng: np.random.Generator, d: int, K: int, max_degree: int,
                n_terms: int = 4, dual_fraction: float = 0.0) -> FockVector:
    """Random rational vector with small coefficients; never the zero vector.

    Each term draws its degree, then that many modes (`random_mode`), then
    its coefficient (`random_fraction`); a monomial drawn again takes the
    later coefficient.  Each monomial is packed straight from its counts and
    the vector built through its fast path, from values that are valid by
    construction.
    """
    terms: dict[int, Fraction] = {}
    while len(terms) < n_terms:
        counts: dict[ModeIndex, int] = {}
        for _ in range(int(rng.integers(0, max_degree + 1))):
            mode = random_mode(rng, d, K, dual_fraction)
            counts[mode] = counts.get(mode, 0) + 1
        terms[_encode(counts.items())] = random_fraction(rng)
    return FockVector._raw(*_common_denominator(terms))


def random_xi(rng: np.random.Generator, d: int, K: int,
              include_dual: bool = False) -> dict[ModeIndex, float]:
    out = {}
    for c in range(1, d + 1):
        for k in range(-K, K + 1):
            out[ModeIndex(c, k)] = float(rng.standard_normal())
            if include_dual:
                out[ModeIndex(c, k, dual=True)] = float(rng.standard_normal())
    return out


def random_gamma(rng: np.random.Generator, d: int, K: int, size: int,
                 dual: bool) -> dict[ModeIndex, Fraction]:
    """Sparse rational coefficient map on `size` distinct modes of one duality."""
    out: dict[ModeIndex, Fraction] = {}
    while len(out) < size:
        mode = ModeIndex(int(rng.integers(1, d + 1)), int(rng.integers(-K, K + 1)), dual)
        out[mode] = random_fraction(rng)
    return out
