"""Upper bounds for weighted sup-derivative norms on the Fock algebra.

The norm family indexed by (k, C) weighs the degree-n kernel of a vector by
C^n times the largest sup-norm over all ways of hitting the kernel with up
to k parameter derivatives distributed over blocks of its argument slots.
For a monomial built from trigonometric modes every such derivative is
explicit, so a per-monomial envelope can be computed in closed form:
a block count times a product of per-slot derivative maxima.  The result
is an upper bound (ordered block assignments majorize unordered ones), and
it is monotone in both C and k by construction, which is what the
downstream continuity checks need.

The bound reads a vector's packed fields (`fock._fields`) and decodes no
key, and it takes each mode's slot envelope once per call.  The block
count is cached per (n, k), keyed by type as well as value, so a float k
never meets an int one.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .fock import MASK, FockVector, _fields
from .modes import TWO_PI, norm_const


@lru_cache(maxsize=None)
def _stirling2_row(n: int) -> tuple[int, ...]:
    """Stirling set numbers S(n, l) for l = 0..n."""
    if n == 0:
        return (1,)
    prev = _stirling2_row(n - 1)
    row = [0] * (n + 1)
    for l in range(1, n + 1):
        below = prev[l] if l < n else 0
        row[l] = l * below + prev[l - 1]
    return tuple(row)


def _check_order(k: int) -> None:
    if not isinstance(k, int):
        raise TypeError(f"derivative order must be an int, not {type(k).__name__} {k!r}")
    if k < 0:
        raise ValueError("derivative order must be >= 0")


@lru_cache(maxsize=None, typed=True)
def partition_block_count(n: int, k: int) -> int:
    """Number of ordered assignments of n slots into labelled derivative blocks.

    Blocks partition the n slots (S(n, l) ways into l blocks), blocks are
    ordered (l!), and each block independently either receives one of the k
    derivative labels or none (k + 1 choices).
    """
    _check_order(k)
    if n < 0:
        raise ValueError("need n >= 0")
    row = _stirling2_row(n)
    return sum(s * math.factorial(l) * (k + 1) ** l for l, s in enumerate(row))


def slot_envelope(freq: int, k: int) -> float:
    """Largest sup-norm of the frequency-freq profile under at most k derivatives."""
    _check_order(k)
    if freq == 0:
        return 1.0
    # The profile's o-th derivative has sup norm_const * w^o, largest at o = k
    # since w = 2 pi |freq| > 1.
    return norm_const(freq) * (TWO_PI * abs(freq)) ** k


def connes_norm_upper(F: FockVector, k: int, C: float) -> float:
    """Upper bound for the (k, C)-weighted sup-derivative norm of F.

    Triangle inequality over monomials; each monomial of degree n is
    bounded by C^n * partition_block_count(n, k) * product of per-slot
    envelopes.  The vacuum contributes exactly |coefficient|, so the unit
    has norm bound 1 for every (k, C).  The bound reads F's packed keys
    (`fock._fields`) and decodes none: each term is |numerator| over F's
    denominator, times C^n and the block count, times the envelope powers
    in ascending mode order, and terms add in term order.  A non-int `k`
    raises TypeError; a negative `k`, or a `C` that is not finite and
    positive, raises ValueError.
    """
    _check_order(k)
    if not (math.isfinite(C) and C > 0):
        raise ValueError(f"weight C must be finite and positive, got {C!r}")
    envelopes = [(off, slot_envelope(mode.freq, k)) for mode, off in _fields(F._num)]
    den = F._den
    total = 0.0
    for key, n in F._num.items():
        degree = key & MASK
        bound = abs(n) / den * C ** degree * partition_block_count(degree, k)
        for off, env in envelopes:
            if mult := (key >> off) & MASK:
                bound *= env ** mult
        total += bound
    return total
