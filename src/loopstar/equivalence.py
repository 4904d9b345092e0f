"""Deformed products from a diagonal operator and their equivalence transform.

A diagonal operator A rescales each frequency by a rational alpha_k.  It
perturbs the unit-pairing contraction into channels weighted (alpha_k + 1)
on primal-first terms and (alpha_k - 1) on dual-first terms, giving a
family of star-products: alpha = 0 is the Moyal member, alpha = 1 the
normal product with one-sided contractions.  The operator carries the loop
dimension d and the cutoff K, so each function here reads A alone, and A
builds its channel tables once.  The transform T = exp of
(hbar times a second-order contraction) intertwines any member with the
Moyal one; the checks here verify that, plus the closed product formula on
Wick exponentials, degree window by degree window in exact arithmetic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .fock import (FockVector, HbarSeries, Scalar, _star_orders, _Sum, annihilate,
                   coerce_scalar, contract_channels, wick_exponential)
from .modes import ModeIndex
from .poisson import SymplecticForm, poisson_bracket

FAMILIES = ("zero", "one", "ksq")


@dataclass(frozen=True, eq=False)
class DiagonalOperatorA:
    """Frequency-diagonal rescaling of d-valued loops by rational eigenvalues.

    alpha maps each retained frequency |k| <= K to its eigenvalue; a
    frequency it omits has eigenvalue 0.  The operator alone fixes its
    deformed product: it walks the (primal, dual, alpha_k) triples of its
    d coordinates once, and builds its deformed and symmetric channel
    tables from that walk on first use.
    """

    alpha: Mapping[int, Fraction]
    d: int
    K: int
    name: str = "table"

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("loop dimension must be >= 1")
        if self.K < 0:
            raise ValueError("frequency cutoff must be >= 0")
        for k, a in self.alpha.items():
            if abs(k) > self.K:
                raise ValueError(f"alpha entry at frequency {k} outside cutoff {self.K}")
            if not isinstance(a, Fraction):
                raise TypeError(f"alpha values must be Fraction, got {type(a).__name__}")

    @classmethod
    def from_table(cls, table: Mapping[int, Fraction], d: int, K: int) -> "DiagonalOperatorA":
        """Build from an explicit table of frequency -> eigenvalue, a Fraction or an int."""
        return cls(alpha={int(k): coerce_scalar(v) for k, v in table.items()}, d=d, K=K)

    @classmethod
    def family(cls, name: str, d: int, K: int) -> "DiagonalOperatorA":
        """Named families: zero (identity transform), one (normal product), ksq."""
        if name == "zero":
            return cls(alpha={}, d=d, K=K, name=name)
        if name == "one":
            return cls(alpha={k: Fraction(1) for k in range(-K, K + 1)}, d=d, K=K, name=name)
        if name == "ksq":
            return cls(alpha={k: Fraction(k * k) for k in range(-K, K + 1) if k}, d=d, K=K,
                       name=name)
        raise ValueError(f"unknown family {name!r}; known: {FAMILIES}")

    def alpha_of(self, k: int) -> Fraction:
        return self.alpha.get(k, Fraction(0))

    def negated(self) -> "DiagonalOperatorA":
        """Opposite eigenvalues; generates the inverse transform."""
        return DiagonalOperatorA(alpha={k: -a for k, a in self.alpha.items()}, d=self.d,
                                 K=self.K, name=f"-{self.name}")

    @functools.cached_property
    def pairs(self) -> tuple[tuple[ModeIndex, ModeIndex, Fraction], ...]:
        """(primal p, dual q, alpha_k) per coordinate c = 1..d, then frequency |k| <= K."""
        return tuple((ModeIndex(c, k, False), ModeIndex(c, k, True), self.alpha_of(k))
                     for c in range(1, self.d + 1) for k in range(-self.K, self.K + 1))

    @functools.cached_property
    def channels(self) -> tuple:
        """The deformed contraction table, `deformed_channels(self)`, built once."""
        return deformed_channels(self)

    @functools.cached_property
    def symmetric_channels(self) -> tuple:
        """Channels of the symmetric perturbation: weight alpha_k both ways, built once."""
        return tuple(ch for p, q, a in self.pairs if a for ch in ((p, q, a), (q, p, a)))

    @functools.cached_property
    def unit_form(self) -> SymplecticForm:
        """The unit pairing on the operator's d and K, the bracket of `cA1`, built once."""
        return SymplecticForm.unit_pairing(self.d, self.K)


def deformed_channels(A: DiagonalOperatorA) -> tuple:
    """Channels of the deformed contraction: (alpha+1) primal-first, (alpha-1) dual-first."""
    out = []
    for p, q, a in A.pairs:
        if a + 1:
            out.append((p, q, a + 1))
        if a - 1:
            out.append((q, p, a - 1))
    return tuple(out)


def apply_EA(F: FockVector, G: FockVector, A: DiagonalOperatorA) -> FockVector:
    """Symmetric first-order perturbation: both contraction orders, weight alpha_k."""
    return contract_channels(F, G, A.symmetric_channels, 1)


def cA1(F: FockVector, G: FockVector, A: DiagonalOperatorA) -> FockVector:
    """First deformed cochain: unit-pairing bracket plus the symmetric perturbation."""
    return poisson_bracket(F, G, A.unit_form) + apply_EA(F, G, A)


def cAr(r: int, F: FockVector, G: FockVector, A: DiagonalOperatorA) -> FockVector:
    """r-fold deformed contraction with the (alpha_k +- 1) channel weights."""
    return contract_channels(F, G, A.channels, r)


def star_A(F: FockVector, G: FockVector, A: DiagonalOperatorA, R: int,
           max_degree: Optional[int] = None) -> HbarSeries:
    """Deformed star-product: order-r coefficient cAr / r!."""
    return HbarSeries(_star_orders(F, G, A.channels, R, max_degree))


def apply_T1(F: FockVector, A: DiagonalOperatorA) -> FockVector:
    """Transform generator: minus the alpha-weighted primal-dual double contraction."""
    support = F.support_modes()
    total = _Sum()
    for p, q, a in A.pairs:
        if not a or p not in support or q not in support:
            continue
        part = annihilate(p, annihilate(q, F))
        if not part.is_zero():
            total.add(part.scale(-a))
    return total.vector()


def apply_T(FS: HbarSeries, A: DiagonalOperatorA) -> HbarSeries:
    """Order-R truncation of the exponential of the generator, applied to a series.

    Order r of the result collects generator powers b applied to input
    order r - b, weighted 1/b!.  Applying the negated operator inverts it
    modulo the truncation order.  Each generator power lowers degree by
    exactly 2 and no term is dropped.
    """
    R = FS.order
    out = [_Sum() for _ in range(R + 1)]
    for a in range(R + 1):
        term = FS.coefficient(a)
        out[a].add(term)
        for b in range(1, R - a + 1):
            term = apply_T1(term, A)
            if term.is_zero():
                break
            out[a + b].add(term.scale(Fraction(1, math.factorial(b))))
    return HbarSeries(total.vector() for total in out)


def _shifted_pairing(gamma: Mapping[ModeIndex, Scalar], other: Mapping[ModeIndex, Scalar],
                     A: DiagonalOperatorA, shift: int) -> Fraction:
    """Each primal mode of gamma, weighted alpha_k + shift, against its dual in other."""
    total = Fraction(0)
    for mode, c in gamma.items():
        partner = None if mode.dual else other.get(mode.as_dual)
        if partner is not None:
            total += coerce_scalar(c) * (A.alpha_of(mode.freq) + shift) * coerce_scalar(partner)
    return total


def exp_product_formula_rhs(gamma1: Mapping[ModeIndex, Scalar],
                            gamma2: Mapping[ModeIndex, Scalar],
                            A: DiagonalOperatorA, R: int, N: int) -> HbarSeries:
    """Closed form for the deformed product of two Wick exponentials.

    Each map holds primal and dual modes.  The scalar exponent pairs the
    primal modes of the first map with their duals in the second through
    A + I, and those of the second with their duals in the first through
    A - I; the result is that exponential's order-R truncation times the
    Wick exponential of the summed maps at degree cap N.  Power n of that
    Wick exponential has degree n and is built from the powers below it,
    so the result at a cap n <= N is the cap-N result truncated to degree
    n: a check compared on a degree window passes the window as N.
    """
    lam = _shifted_pairing(gamma1, gamma2, A, +1) + _shifted_pairing(gamma2, gamma1, A, -1)
    summed = {mode: gamma1.get(mode, 0) + gamma2.get(mode, 0) for mode in {**gamma1, **gamma2}}
    phi = wick_exponential(summed, N)
    coeffs = []
    power = Fraction(1)
    for r in range(R + 1):
        coeffs.append(phi.scale(power))
        power = power * lam / (r + 1)
    return HbarSeries(coeffs)
