"""Weighted symplectic Poisson bracket and the truncated Moyal star-product.

The phase space is the doubled mode set: every (coord, freq) pair has a
primal and a dual copy.  A SymplecticForm pairs each primal mode with its
own dual at the same frequency, with a frequency weight (weight_c * k^2 +
1), and is nothing but that channel table.  The bracket is the weighted
single contraction across the form; its r-fold iterates are the
bidifferential coefficients of the star-product.  One engine in `fock`
computes all of it: it returns the star orders 0..R of a pair for a
channel table, so the bracket, its powers and every deformed product
differ only in their tables.  `star_series` is that engine's
Cauchy-product extension to truncated series; it takes the channel table
of the product it extends.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .fock import (Channel, FockVector, HbarSeries, _star_orders, _Sum, coerce_scalar,
                   contract_channels)
from .modes import ModeIndex


class SymplecticForm:
    """The primal/dual pairing at each retained frequency, with its weight.

    For each k = -K..K the table holds (primal c, dual c, sign * w(k)) for
    c = 1..d, then (dual c, primal c, -sign * w(k)), with w(k) = weight_c
    k^2 + 1.  The bracket has sign -1, so {p, p*} = -w(k); the unit pairing
    has weight 1 and sign +1.  The orientation is written out here, so
    exact checks pin it: `bracket.pairs` states the bracket's value and
    `star.zero_is_moyal` the unit pairing's, and `tests/test_mutants.py`
    shows that negating either table is caught.  weight_c is a Fraction or
    an int; a float raises TypeError here.  Every product over the form
    shares its table.
    """

    __slots__ = ("d", "K", "weight_c", "_channels")

    def __init__(self, d: int, K: int, weight_c, sign: int = -1):
        if d < 1 or K < 0:
            raise ValueError("need d >= 1 and K >= 0")
        weight_c = coerce_scalar(weight_c)
        if weight_c < 0:
            raise ValueError("weight_c must be nonnegative")
        self.d = d
        self.K = K
        self.weight_c = weight_c
        table = []
        for k in range(-K, K + 1):
            w = self.weight(k)
            primal = [ModeIndex(c, k) for c in range(1, d + 1)]
            table += [(p, p.as_dual, sign * w) for p in primal]
            table += [(p.as_dual, p, -sign * w) for p in primal]
        self._channels = tuple(table)

    @classmethod
    def unit_pairing(cls, d: int, K: int) -> "SymplecticForm":
        """Weight-1 form with {primal, dual} = +1: the deformation layer's pairing.

        The bracket's table with the opposite sign and no frequency weight,
        so the single contraction weighs every retained frequency by exactly 1.
        """
        return cls(d, K, 0, sign=1)

    def weight(self, freq: int):
        """Frequency weight weight_c * k^2 + 1, exactly."""
        return self.weight_c * freq * freq + 1

    def channels(self) -> tuple[Channel, ...]:
        """Contraction channels (mode on F, mode on G, weight); one tuple for every call."""
        return self._channels

    def __repr__(self) -> str:
        return f"SymplecticForm(d={self.d}, K={self.K}, weight_c={self.weight_c})"


def poisson_bracket(F: FockVector, G: FockVector, form: SymplecticForm) -> FockVector:
    """Weighted single contraction across the form; antisymmetric and bilinear."""
    return contract_channels(F, G, form.channels(), 1)


def poisson_power(r: int, F: FockVector, G: FockVector, form: SymplecticForm) -> FockVector:
    """r-fold iterate of the bracket's channel sum; r = 0 is the plain product."""
    return contract_channels(F, G, form.channels(), r)


def moyal_star(F: FockVector, G: FockVector, form: SymplecticForm, R: int) -> HbarSeries:
    """Deformed product: order-r coefficient is the r-fold contraction over r!."""
    return HbarSeries(_star_orders(F, G, form.channels(), R))


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
