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
"""

from __future__ import annotations

import math
from functools import lru_cache

from .fock import FockVector
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


def partition_block_count(n: int, k: int) -> int:
    """Number of ordered assignments of n slots into labelled derivative blocks.

    Blocks partition the n slots (S(n, l) ways into l blocks), blocks are
    ordered (l!), and each block independently either receives one of the k
    derivative labels or none (k + 1 choices).
    """
    if n < 0 or k < 0:
        raise ValueError("need n >= 0 and k >= 0")
    row = _stirling2_row(n)
    return sum(s * math.factorial(l) * (k + 1) ** l for l, s in enumerate(row))


def slot_envelope(freq: int, k: int) -> float:
    """Largest sup-norm of the frequency-freq profile under at most k derivatives."""
    if k < 0:
        raise ValueError("derivative order must be >= 0")
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
    has norm bound 1 for every (k, C).
    """
    if k < 0:
        raise ValueError("derivative order must be >= 0")
    if C <= 0:
        raise ValueError("weight C must be positive")
    total = 0.0
    for mu, c in F.terms.items():
        n = mu.degree
        bound = float(abs(c)) * C ** n * partition_block_count(n, k)
        for mode, mult in mu:
            bound *= slot_envelope(mode.freq, k) ** mult
        total += bound
    return total
