"""Weighted symplectic Poisson bracket and the truncated Moyal star-product.

The phase space is the doubled mode set: every (coord, freq) pair has a
primal and a dual copy.  A SymplecticForm fixes the exact block pairing
between them and a frequency weight (weight_c * k^2 + 1).  The bracket is
the weighted single contraction across the form; its r-fold iterates are
the bidifferential coefficients of the star-product.  One engine in
`fock` computes all of it: it returns the star orders 0..R of a pair for a
channel table, so the bracket, its powers and every deformed product
differ only in their tables.  `star_series` is that engine's
Cauchy-product extension to truncated series; it takes the channel table
of the product it extends.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .fock import Channel, FockVector, HbarSeries, _star_orders, _Sum, contract_channels
from .modes import ModeIndex

Matrix = tuple[tuple[Fraction, ...], ...]


def _invert_rational(mat: Sequence[Sequence[Fraction]]) -> Matrix:
    """Exact Gauss-Jordan inverse; raises on a singular matrix."""
    n = len(mat)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise ValueError("form matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


class SymplecticForm:
    """Exact antisymmetric pairing on the doubled modes plus a frequency weight.

    Doubled indices 0..d-1 are the primal coordinates, d..2d-1 their duals.
    omega_upper is always computed from omega_lower by exact inversion, so
    sign conventions are a consequence of the stated lower form, not a
    second hand-coded table.  weight_c is a Fraction or an int; a float
    raises TypeError here.  The bracket's channel table is built once,
    here, and every product over the form shares it.
    """

    __slots__ = ("d", "K", "weight_c", "omega_lower", "omega_upper", "_channels")

    def __init__(self, d: int, K: int, weight_c=Fraction(1),
                 omega_lower: Optional[Sequence[Sequence[Fraction]]] = None):
        if d < 1 or K < 0:
            raise ValueError("need d >= 1 and K >= 0")
        # Checked here rather than by fock.coerce_scalar, so that the engine's
        # call counts in a run do not depend on whether a cached form
        # (equivalence._unit_form) was built earlier in the process.
        if isinstance(weight_c, int):
            weight_c = Fraction(weight_c)
        elif not isinstance(weight_c, Fraction):
            raise TypeError(f"weight_c must be a Fraction or an int, not {weight_c!r}")
        if weight_c < 0:
            raise ValueError("weight_c must be nonnegative")
        self.d = d
        self.K = K
        self.weight_c = weight_c
        if omega_lower is None:
            omega_lower = [[Fraction(0)] * (2 * d) for _ in range(2 * d)]
            for i in range(d):
                omega_lower[i][d + i] = Fraction(1)      # primal-dual block
                omega_lower[d + i][i] = Fraction(-1)
        lower = tuple(tuple(Fraction(x) for x in row) for row in omega_lower)
        if len(lower) != 2 * d or any(len(row) != 2 * d for row in lower):
            raise ValueError(f"form matrix must be {2 * d} x {2 * d}")
        for i in range(2 * d):
            for j in range(2 * d):
                if lower[i][j] != -lower[j][i]:
                    raise ValueError("form matrix must be antisymmetric")
        self.omega_lower = lower
        self.omega_upper = _invert_rational(lower)
        self._channels = tuple(
            (self.mode_of_index(i, k), self.mode_of_index(j, k), self.weight(k) * entry)
            for k in range(-K, K + 1) for i in range(2 * d) for j in range(2 * d)
            if (entry := self.omega_upper[i][j]))

    @classmethod
    def unit_pairing(cls, d: int, K: int) -> "SymplecticForm":
        """Weight-1 form with {primal, dual} = +1: the deformation layer's pairing.

        Obtained by flipping the orientation of the standard blocks and
        dropping the frequency weight, so the single contraction weighs
        every retained frequency by exactly 1.
        """
        lower = [[Fraction(0)] * (2 * d) for _ in range(2 * d)]
        for i in range(d):
            lower[i][d + i] = Fraction(-1)
            lower[d + i][i] = Fraction(1)
        return cls(d, K, Fraction(0), lower)

    def weight(self, freq: int):
        """Frequency weight weight_c * k^2 + 1, exactly."""
        return self.weight_c * freq * freq + 1

    def mode_of_index(self, idx: int, freq: int) -> ModeIndex:
        if not 0 <= idx < 2 * self.d:
            raise ValueError(f"doubled index {idx} out of range for d={self.d}")
        return ModeIndex(idx % self.d + 1, freq, dual=idx >= self.d)

    def channels(self) -> tuple[Channel, ...]:
        """Contraction channels (mode on F, mode on G, weight) for the bracket.

        One entry per frequency k and nonzero omega_upper[i][j], in that
        loop order, weighted weight(k) * omega_upper[i][j].  The same tuple
        is returned on every call.
        """
        return self._channels

    def __repr__(self) -> str:
        return f"SymplecticForm(d={self.d}, K={self.K}, weight_c={self.weight_c})"


def poisson_bracket(F: FockVector, G: FockVector, form: SymplecticForm) -> FockVector:
    """Weighted single contraction across the form; antisymmetric and bilinear."""
    return contract_channels(F, G, form.channels(), 1)


def poisson_power(r: int, F: FockVector, G: FockVector, form: SymplecticForm) -> FockVector:
    """r-fold iterate of the bracket's channel sum; r = 0 is the plain product."""
    return contract_channels(F, G, form.channels(), r)


def moyal_star(F: FockVector, G: FockVector, form: SymplecticForm, R: int,
               max_degree: Optional[int] = None) -> HbarSeries:
    """Deformed product: order-r coefficient is the r-fold contraction over r!."""
    return HbarSeries(_star_orders(F, G, form.channels(), R, max_degree))


def star_series(FS: HbarSeries, GS: HbarSeries, channels: Sequence[Channel],
                max_degree: Optional[int] = None) -> HbarSeries:
    """Bilinear extension of the channel star-product to truncated series.

    Order r collects order c of the star-product of FS_a and GS_b over
    a + b + c = r, each formed at cap `max_degree`.  `channels` is the
    product's channel table, such as `form.channels()` for the Moyal product.
    """
    FS._check_compatible(GS)
    R = FS.order
    out = [_Sum() for _ in range(R + 1)]
    for a in range(R + 1):
        for b in range(R + 1 - a):
            F, G = FS.coefficient(a), GS.coefficient(b)
            if F.is_zero() or G.is_zero():
                continue
            for c, part in enumerate(_star_orders(F, G, channels, R - a - b, max_degree)):
                out[a + b + c].add(part)
    return HbarSeries(total.vector() for total in out)
