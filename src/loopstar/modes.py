"""Fourier modes of the loop space and multisets of them.

The ambient space is the Sobolev space of d-valued loops on the unit circle
with inner product <f, g> = int f.g ds + int f'.g' ds.  Its orthonormal
basis is trigonometric: a signed frequency k labels a cosine profile for
k >= 0 and a sine profile at |k| for k < 0, normalized so that the Gram
matrix is exactly the identity.  A ModeIndex names one such basis vector on
one coordinate axis (with an optional dual flag used by the symplectic
layer); a MultiIndex is a sorted multiset of ModeIndexes and labels a
symmetrized monomial of the Fock algebra.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Iterable

import numpy as np

# Derivative weight in the loop inner product.  This value makes the
# normalized trigonometric family orthonormal rather than merely orthogonal.
LAMBDA = 4.0 * math.pi ** 2

TWO_PI = 2.0 * math.pi


class ModeIndex(namedtuple("ModeIndex", ["coord", "freq", "dual"])):
    """Label of one basis direction: coordinate axis, signed frequency, dual flag.

    Ordering is lexicographic in (coord, freq, dual), which fixes the
    canonical sort used everywhere (serialization, term order).
    """

    __slots__ = ()

    def __new__(cls, coord: int, freq: int, dual: bool = False):
        if coord < 1:
            raise ValueError(f"coordinate index must be >= 1, got {coord}")
        return super().__new__(cls, int(coord), int(freq), bool(dual))

    @property
    def as_dual(self) -> "ModeIndex":
        return self if self.dual else ModeIndex(self.coord, self.freq, True)

    def __repr__(self) -> str:
        tag = "*" if self.dual else ""
        return f"e({self.coord},{self.freq}){tag}"


class MultiIndex(tuple):
    """Sorted multiset of modes with positive multiplicities.

    Stored as a tuple of (ModeIndex, multiplicity) pairs, strictly
    increasing in the mode, so tuple equality/hashing give canonical-form
    semantics for free.  The empty multiset is the vacuum label.
    """

    __slots__ = ()

    def __new__(cls, entries: Iterable[tuple[ModeIndex, int]] = ()):
        acc: dict[ModeIndex, int] = {}
        for mode, mult in entries:
            if not isinstance(mode, ModeIndex):
                mode = ModeIndex(*mode)
            mult = int(mult)
            if mult <= 0:
                raise ValueError(f"multiplicity must be positive, got {mult} for {mode}")
            acc[mode] = acc.get(mode, 0) + mult
        return tuple.__new__(cls, sorted(acc.items()))

    @classmethod
    def _raw(cls, sorted_entries) -> "MultiIndex":
        # Fast path: caller guarantees sorted, merged, positive entries.
        return tuple.__new__(cls, sorted_entries)

    @classmethod
    def single(cls, mode: ModeIndex) -> "MultiIndex":
        return cls._raw(((mode, 1),))

    @property
    def degree(self) -> int:
        return sum(m for _, m in self)

    def multiplicity(self, mode: ModeIndex) -> int:
        for m, c in self:
            if m == mode:
                return c
            if m > mode:
                return 0
        return 0

    def union(self, other: "MultiIndex") -> "MultiIndex":
        if not other:
            return self
        if not self:
            return other
        out = []
        i = j = 0
        na, nb = len(self), len(other)
        while i < na and j < nb:
            ma, ca = self[i]
            mb, cb = other[j]
            if ma == mb:
                out.append((ma, ca + cb))
                i += 1
                j += 1
            elif ma < mb:
                out.append(self[i])
                i += 1
            else:
                out.append(other[j])
                j += 1
        out.extend(self[i:])
        out.extend(other[j:])
        return MultiIndex._raw(tuple(out))

    def remove(self, mode: ModeIndex) -> "MultiIndex":
        """One unit less of `mode`; KeyError if absent."""
        for i, (m, c) in enumerate(self):
            if m == mode:
                if c == 1:
                    return MultiIndex._raw(self[:i] + self[i + 1:])
                return MultiIndex._raw(self[:i] + ((m, c - 1),) + self[i + 1:])
        raise KeyError(mode)

    def sort_key(self):
        """Degree-major canonical order for serialization."""
        return (self.degree, tuple(self))

    def __repr__(self) -> str:
        if not self:
            return "<vacuum>"
        return " ".join(f"{m!r}^{c}" if c > 1 else repr(m) for m, c in self)


VACUUM = MultiIndex()


def norm_const(freq: int) -> float:
    """Normalization of the frequency-freq profile; 1 at frequency zero."""
    if freq == 0:
        return 1.0
    return math.sqrt(2.0 / (1.0 + LAMBDA * freq * freq))


def h_weight(freq: int) -> float:
    """Ratio between the loop-space pairing and the plain L2 pairing."""
    return 1.0 + LAMBDA * freq * freq


def mode_profile(freq: int, s, order: int = 0) -> np.ndarray:
    """Scalar profile of one frequency at parameter(s) s, differentiated `order` times.

    Vectorized over s.  Frequency zero is the constant loop (derivatives
    vanish); positive frequencies are cosines, negative ones sines at |freq|.
    """
    s = np.asarray(s, dtype=float)
    if freq == 0:
        return np.ones_like(s) if order == 0 else np.zeros_like(s)
    w = TWO_PI * abs(freq)
    phase = w * s + order * (math.pi / 2.0)
    base = np.cos(phase) if freq > 0 else np.sin(phase)
    return norm_const(freq) * (w ** order) * base


def profile_table(K: int, s, order: int = 0) -> np.ndarray:
    """Profiles of frequencies -K..K at parameter(s) s, shape (2K+1,) + s.shape.

    Row k + K is bit-identical to `mode_profile(k, s, order)`: every element
    goes through the same floating-point operations, only broadcast over
    the frequency axis.  Frequencies +k and -k share one phase array, whose
    cosine gives row K + k and whose sine gives row K - k.
    """
    if K < 0:
        raise ValueError(f"cutoff K must be >= 0, got {K}")
    s = np.asarray(s, dtype=float)
    w = TWO_PI * np.arange(1, K + 1, dtype=float)
    # Python floats per frequency, as mode_profile computes its scale; numpy's
    # array power takes other routes (w * w for order 2).
    scale = np.array([norm_const(k) * x ** order for k, x in enumerate(w.tolist(), 1)])
    axis = (K,) + (1,) * s.ndim
    scale = scale.reshape(axis)
    out = np.empty((2 * K + 1,) + s.shape)
    out[K] = 1.0 if order == 0 else 0.0
    # In place, so that one (K,) + s.shape temporary is alive at a time.
    phase = w.reshape(axis) * s
    phase += order * (math.pi / 2.0)
    cos = np.cos(phase, out=out[K + 1:])
    cos *= scale
    sin = np.sin(phase, out=phase)
    sin *= scale
    out[:K] = sin[::-1]
    return out


def mode_range(d: int, K: int) -> list[ModeIndex]:
    """All retained primal modes: coordinates 1..d, frequencies -K..K."""
    if d < 1 or K < 0:
        raise ValueError("need d >= 1 and K >= 0")
    return [ModeIndex(c, k) for c in range(1, d + 1) for k in range(-K, K + 1)]
