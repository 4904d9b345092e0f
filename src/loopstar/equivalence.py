"""Deformed products from a diagonal operator and their equivalence transform.

A diagonal operator A rescales each frequency by a rational alpha_k.  It
perturbs the unit-pairing contraction into channels weighted (alpha_k + 1)
on primal-first terms and (alpha_k - 1) on dual-first terms, giving a
family of star-products: alpha = 0 is the Moyal member, alpha = 1 the
normal product with one-sided contractions.  The transform T = exp of
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

from .fock import (FockVector, HbarSeries, _accumulate, _star_orders, annihilate,
                   contract_channels, wick_exponential)
from .modes import ModeIndex
from .poisson import SymplecticForm, poisson_bracket

FAMILIES = ("zero", "one", "ksq")


@dataclass(frozen=True, eq=False)
class DiagonalOperatorA:
    """Frequency-diagonal rescaling with a recorded polynomial growth witness.

    alpha maps each retained frequency to its rational eigenvalue; the
    witness (K_bound, mu) certifies |alpha_k| <= K_bound * |k|^mu for all
    retained k (with 0^0 = 1), and is checked at construction.
    """

    alpha: Mapping[int, Fraction]
    K: int
    K_bound: Fraction
    mu: int
    name: str = "table"

    def __post_init__(self):
        if self.K < 0:
            raise ValueError("frequency cutoff must be >= 0")
        if self.mu < 0:
            raise ValueError("growth exponent must be >= 0")
        for k, a in self.alpha.items():
            if abs(k) > self.K:
                raise ValueError(f"alpha entry at frequency {k} outside cutoff {self.K}")
            if not isinstance(a, Fraction):
                raise TypeError(f"alpha values must be Fraction, got {type(a).__name__}")
        for k in range(-self.K, self.K + 1):
            growth = Fraction(1) if (k == 0 and self.mu == 0) else Fraction(abs(k)) ** self.mu
            if abs(self.alpha_of(k)) > self.K_bound * growth:
                raise ValueError(f"growth witness ({self.K_bound}, {self.mu}) fails at k={k}")

    @classmethod
    def from_table(cls, table: Mapping[int, Fraction], K: int) -> "DiagonalOperatorA":
        """Build from an explicit table, deriving the tightest simple witness.

        mu is 0 when the zero frequency is rescaled (any polynomial bound
        must then be constant there) and 2 otherwise.
        """
        clean = {int(k): Fraction(v) for k, v in table.items()}
        mu = 0 if clean.get(0) else 2
        bound = Fraction(0)
        for k in range(-K, K + 1):
            a = abs(clean.get(k, Fraction(0)))
            growth = Fraction(1) if (k == 0 and mu == 0) else Fraction(abs(k)) ** mu
            if growth:
                bound = max(bound, a / growth)
        return cls(alpha=dict(clean), K=K, K_bound=bound, mu=mu)

    @classmethod
    def family(cls, name: str, K: int) -> "DiagonalOperatorA":
        """Named families: zero (identity transform), one (normal product), ksq."""
        if name == "zero":
            return cls(alpha={}, K=K, K_bound=Fraction(0), mu=0, name=name)
        if name == "one":
            return cls(alpha={k: Fraction(1) for k in range(-K, K + 1)},
                       K=K, K_bound=Fraction(1), mu=0, name=name)
        if name == "ksq":
            return cls(alpha={k: Fraction(k * k) for k in range(-K, K + 1) if k},
                       K=K, K_bound=Fraction(1), mu=2, name=name)
        raise ValueError(f"unknown family {name!r}; known: {FAMILIES}")

    def alpha_of(self, k: int) -> Fraction:
        return self.alpha.get(k, Fraction(0))

    def negated(self) -> "DiagonalOperatorA":
        """Same witness, opposite eigenvalues; generates the inverse transform."""
        return DiagonalOperatorA(alpha={k: -a for k, a in self.alpha.items()},
                                 K=self.K, K_bound=self.K_bound, mu=self.mu,
                                 name=f"-{self.name}")


def _symmetric_channels(A: DiagonalOperatorA, form: SymplecticForm):
    """Channels of the symmetric perturbation: weight alpha_k both ways."""
    out = []
    for c in range(1, form.d + 1):
        for k in range(-form.K, form.K + 1):
            a = A.alpha_of(k)
            if not a:
                continue
            p = ModeIndex(c, k, False)
            q = ModeIndex(c, k, True)
            out.append((p, q, a))
            out.append((q, p, a))
    return out


def deformed_channels(A: DiagonalOperatorA, form: SymplecticForm):
    """Channels of the deformed contraction: (alpha+1) primal-first, (alpha-1) dual-first."""
    out = []
    for c in range(1, form.d + 1):
        for k in range(-form.K, form.K + 1):
            a = A.alpha_of(k)
            p = ModeIndex(c, k, False)
            q = ModeIndex(c, k, True)
            if a + 1:
                out.append((p, q, a + 1))
            if a - 1:
                out.append((q, p, a - 1))
    return out


def apply_EA(F: FockVector, G: FockVector, A: DiagonalOperatorA,
             form: SymplecticForm) -> FockVector:
    """Symmetric first-order perturbation: both contraction orders, weight alpha_k."""
    return contract_channels(F, G, _symmetric_channels(A, form), 1)


@functools.lru_cache(maxsize=16)
def _unit_form(d: int, K: int) -> SymplecticForm:
    # A form is fixed at construction, so one instance per (d, K) serves every call.
    return SymplecticForm.unit_pairing(d, K)


def cA1(F: FockVector, G: FockVector, A: DiagonalOperatorA,
        form: SymplecticForm) -> FockVector:
    """First deformed cochain: unit-pairing bracket plus the symmetric perturbation."""
    return poisson_bracket(F, G, _unit_form(form.d, form.K)) + apply_EA(F, G, A, form)


def cAr(r: int, F: FockVector, G: FockVector, A: DiagonalOperatorA,
        form: SymplecticForm) -> FockVector:
    """r-fold deformed contraction with the (alpha_k +- 1) channel weights."""
    return contract_channels(F, G, deformed_channels(A, form), r)


def star_A(F: FockVector, G: FockVector, A: DiagonalOperatorA, form: SymplecticForm,
           R: int, max_degree: Optional[int] = None) -> HbarSeries:
    """Deformed star-product: order-r coefficient cAr / r!."""
    return HbarSeries(_star_orders(F, G, deformed_channels(A, form), R, max_degree))


def apply_T1(F: FockVector, A: DiagonalOperatorA, form: SymplecticForm) -> FockVector:
    """Transform generator: minus the alpha-weighted primal-dual double contraction."""
    support = F.support_modes()
    total: dict = {}
    for c in range(1, form.d + 1):
        for k in range(-form.K, form.K + 1):
            a = A.alpha_of(k)
            if not a:
                continue
            p = ModeIndex(c, k, False)
            q = ModeIndex(c, k, True)
            if p not in support or q not in support:
                continue
            part = annihilate(p, annihilate(q, F))
            if not part.is_zero():
                _accumulate(total, part.scale(-a).terms)
    return FockVector._from_terms(total, F.scalar_mode)


def apply_T(FS: HbarSeries, A: DiagonalOperatorA, form: SymplecticForm) -> HbarSeries:
    """Order-R truncation of the exponential of the generator, applied to a series.

    Order r of the result collects generator powers b applied to input
    order r - b, weighted 1/b!.  Applying the negated operator inverts it
    modulo the truncation order.  Each generator power lowers degree by
    exactly 2 and no term is dropped.
    """
    R = FS.order
    out: list[dict] = [{} for _ in range(R + 1)]
    for a in range(R + 1):
        term = FS.coefficient(a)
        _accumulate(out[a], term.terms)
        for b in range(1, R - a + 1):
            term = apply_T1(term, A, form)
            if term.is_zero():
                break
            _accumulate(out[a + b], term.scale(Fraction(1, math.factorial(b))).terms)
    return HbarSeries(FockVector._from_terms(terms, FS.scalar_mode) for terms in out)


def canonical_pairing(gamma: Mapping[ModeIndex, Fraction],
                      gamma_star: Mapping[ModeIndex, Fraction]) -> Fraction:
    """Coefficientwise dot product between a primal map and a dual map."""
    total = Fraction(0)
    for mode, c in gamma.items():
        if mode.dual:
            raise ValueError(f"first argument must be primal, got {mode!r}")
        partner = gamma_star.get(mode.as_dual)
        if partner is not None:
            total += Fraction(c) * Fraction(partner)
    return total


def _rescaled(gamma: Mapping[ModeIndex, Fraction], A: DiagonalOperatorA,
              shift: int) -> dict[ModeIndex, Fraction]:
    """(A + shift * identity) applied to a coefficient map."""
    return {mode: Fraction(c) * (A.alpha_of(mode.freq) + shift) for mode, c in gamma.items()}


def _merged(a: Mapping[ModeIndex, Fraction], b: Mapping[ModeIndex, Fraction]) -> dict:
    out = {mode: Fraction(c) for mode, c in a.items()}
    for mode, c in b.items():
        out[mode] = out.get(mode, Fraction(0)) + Fraction(c)
    return out


def exp_product_formula_rhs(gamma1: Mapping[ModeIndex, Fraction],
                            gamma1_star: Mapping[ModeIndex, Fraction],
                            gamma2: Mapping[ModeIndex, Fraction],
                            gamma2_star: Mapping[ModeIndex, Fraction],
                            A: DiagonalOperatorA, R: int, N: int) -> HbarSeries:
    """Closed form for the deformed product of two Wick exponentials.

    The scalar exponent is the (A + I) pairing of the first primal map
    with the second dual map plus the (A - I) pairing the other way
    around; the result is that exponential's order-R truncation times the
    Wick exponential of the summed maps at degree cap N.  Power n of that
    Wick exponential has degree n and is built from the powers below it,
    so the result at a cap n <= N is the cap-N result truncated to degree
    n: a check compared on a degree window passes the window as N.
    """
    lam = canonical_pairing(_rescaled(gamma1, A, +1), gamma2_star) \
        + canonical_pairing(_rescaled(gamma2, A, -1), gamma1_star)
    phi = wick_exponential(_merged(gamma1, gamma2), _merged(gamma1_star, gamma2_star), N)
    coeffs = []
    power = Fraction(1)
    for r in range(R + 1):
        coeffs.append(phi.scale(power))
        power = power * lam / (r + 1)
    return HbarSeries(coeffs)
