"""Truncated symmetric Fock algebra over the loop modes.

Elements are finite linear combinations of symmetrized monomials, each
labelled by a MultiIndex over ModeIndexes.  In this basis the Wick product
is multiset union of labels with coefficient 1, and the annihilation
operator against a basis mode removes one unit of that mode scaled by its
multiplicity.  Coefficients live in exactly one of two scalar modes:
"rational" (stdlib Fraction, exact) or "float".  Mixing modes raises.

A degree cap belongs to a multiplication, not to a vector: a product
formed with `max_degree=n` is the product of the quotient algebra where
all monomials of degree above n are identified with zero, so dropping
terms above the cap is the correct multiplication in that quotient, not
an approximation.  Vectors carry no cap; `truncate(n)` is the plain
projection onto degrees <= n.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from .modes import VACUUM, ModeIndex, MultiIndex

RATIONAL = "rational"
FLOAT = "float"

Scalar = Union[Fraction, int, float]
Channel = tuple[ModeIndex, ModeIndex, Scalar]     # (mode on F, mode on G, weight)


def coerce_scalar(value: Scalar, scalar_mode: str):
    """Bring a coefficient into the given scalar mode.

    Rational mode accepts Fraction and int only: floats are refused rather
    than silently converted, so exact computations cannot be contaminated.
    """
    if scalar_mode == RATIONAL:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise TypeError(f"rational mode cannot accept {type(value).__name__} coefficient {value!r}")
    if scalar_mode == FLOAT:
        if isinstance(value, (int, float, Fraction)):
            return float(value)
        raise TypeError(f"float mode cannot accept {type(value).__name__} coefficient {value!r}")
    raise ValueError(f"unknown scalar mode {scalar_mode!r}")


# Longest digit run accepted in rational text: the interpreter's default
# integer-string limit, so every coefficient `serialize_fock` writes reads back.
MAX_RATIONAL_DIGITS = 4300
_RATIONAL_TEXT = re.compile(r"-?[0-9]{1,%d}(?:[./][0-9]{1,%d})?" % ((MAX_RATIONAL_DIGITS,) * 2))


def rational_from_text(text: str) -> Fraction:
    """Exact value of `[-]digits`, `[-]digits.digits` or `[-]digits/digits`.

    Digits are ASCII.  Anything else raises ValueError, as does a digit run
    longer than MAX_RATIONAL_DIGITS; a zero denominator raises ZeroDivisionError.
    `Fraction` alone also takes underscores, a leading "+" and exponents: the
    11 bytes "1e10000000" build a 33-million-bit numerator.
    """
    if not _RATIONAL_TEXT.fullmatch(text):
        raise ValueError(f"not a bounded rational: {text[:40]!r}")
    return Fraction(text)


def _accumulate(acc: dict, terms: Mapping[MultiIndex, Scalar]) -> None:
    """Add `terms` into `acc` in place, dropping coefficients that cancel."""
    for mu, c in terms.items():
        v = acc.get(mu)
        v = c if v is None else v + c
        if v:
            acc[mu] = v
        elif mu in acc:
            del acc[mu]


class FockVector:
    """Sparse element of the symmetric algebra: its terms and their scalar mode.

    A vector carries no degree cap; products take one as an argument.
    """

    __slots__ = ("terms", "scalar_mode")

    def __init__(self, terms: Optional[Mapping[MultiIndex, Scalar]] = None,
                 scalar_mode: str = RATIONAL):
        if scalar_mode not in (RATIONAL, FLOAT):
            raise ValueError(f"unknown scalar mode {scalar_mode!r}")
        clean: dict[MultiIndex, Scalar] = {}
        for mu, c in (terms or {}).items():
            if not isinstance(mu, MultiIndex):
                mu = MultiIndex(mu)
            c = coerce_scalar(c, scalar_mode)
            if c:
                clean[mu] = c
        self.terms = clean
        self.scalar_mode = scalar_mode

    @classmethod
    def _from_terms(cls, terms: dict, scalar_mode: str) -> "FockVector":
        # Fast path: caller guarantees canonical keys, coerced nonzero coefficients.
        out = object.__new__(cls)
        out.terms = terms
        out.scalar_mode = scalar_mode
        return out

    @classmethod
    def zero(cls, scalar_mode: str = RATIONAL) -> "FockVector":
        return cls._from_terms({}, scalar_mode)

    @classmethod
    def unit(cls) -> "FockVector":
        """The vacuum monomial with rational coefficient 1: the algebra unit."""
        return cls._from_terms({VACUUM: Fraction(1)}, RATIONAL)

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Largest monomial degree present; 0 for the zero vector."""
        return max((mu.degree for mu in self.terms), default=0)

    def support_modes(self) -> set[ModeIndex]:
        out: set[ModeIndex] = set()
        for mu in self.terms:
            for m, _ in mu:
                out.add(m)
        return out

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FockVector):
            return NotImplemented
        return self.scalar_mode == other.scalar_mode and self.terms == other.terms

    def __hash__(self):
        raise TypeError("FockVector is mutable bookkeeping; not hashable")

    def __repr__(self) -> str:
        if not self.terms:
            return "FockVector(0)"
        items = sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())
        shown = " + ".join(f"{c}*{mu!r}" for mu, c in items[:6])
        more = "" if len(items) <= 6 else f" + ... ({len(items)} terms)"
        return f"FockVector({shown}{more})"

    # -- linear structure ------------------------------------------------

    def _check_mode(self, other: "FockVector"):
        if self.scalar_mode != other.scalar_mode:
            raise TypeError(f"scalar mode mismatch: {self.scalar_mode} vs {other.scalar_mode}")

    def __add__(self, other: "FockVector") -> "FockVector":
        self._check_mode(other)
        out = dict(self.terms)
        _accumulate(out, other.terms)
        return FockVector._from_terms(out, self.scalar_mode)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + (-other)

    def __neg__(self) -> "FockVector":
        return FockVector._from_terms({mu: -c for mu, c in self.terms.items()}, self.scalar_mode)

    def scale(self, scalar: Scalar) -> "FockVector":
        s = coerce_scalar(scalar, self.scalar_mode)
        if not s:
            return FockVector.zero(self.scalar_mode)
        return FockVector._from_terms({mu: c * s for mu, c in self.terms.items()}, self.scalar_mode)

    def __mul__(self, scalar: Scalar) -> "FockVector":
        return self.scale(scalar)

    __rmul__ = __mul__

    def truncate(self, n: int) -> "FockVector":
        """Project onto degrees <= n."""
        kept = {mu: c for mu, c in self.terms.items() if mu.degree <= n}
        return FockVector._from_terms(kept, self.scalar_mode)

    def to_float(self) -> "FockVector":
        if self.scalar_mode == FLOAT:
            return self
        return FockVector._from_terms({mu: float(c) for mu, c in self.terms.items()}, FLOAT)


# -- products and contractions ------------------------------------------


def wick_product(F: FockVector, G: FockVector, max_degree: Optional[int] = None) -> FockVector:
    """Symmetrized product: multiset union of monomial labels, coefficient 1.

    With `max_degree` this is the product of the algebra truncated above
    that degree: pairs whose degrees sum past it are skipped before any
    union is built.
    """
    F._check_mode(G)
    acc: dict[MultiIndex, Scalar] = {}
    fitems = [(mu.degree, mu, c) for mu, c in F.terms.items()]
    gitems = sorted(((mu.degree, mu, c) for mu, c in G.terms.items()), key=lambda t: t[0])
    for dF, muF, cF in fitems:
        for dG, muG, cG in gitems:
            if max_degree is not None and dF + dG > max_degree:
                break       # gitems sorted by degree
            key = muF.union(muG)
            v = acc.get(key)
            v = cF * cG if v is None else v + cF * cG
            if v:
                acc[key] = v
            elif key in acc:
                del acc[key]
    return FockVector._from_terms(acc, F.scalar_mode)


def annihilate(mode: ModeIndex, F: FockVector) -> FockVector:
    """Contraction against one basis mode: mu -> mult(mode) * (mu minus one unit)."""
    out: dict[MultiIndex, Scalar] = {}
    for mu, c in F.terms.items():
        m = mu.multiplicity(mode)
        if not m:
            continue
        key = mu.remove(mode)
        v = out.get(key)
        v = m * c if v is None else v + m * c
        if v:
            out[key] = v
        elif key in out:
            del out[key]
    return FockVector._from_terms(out, F.scalar_mode)


def annihilate_general(h: Mapping[ModeIndex, Scalar], F: FockVector) -> FockVector:
    """Contraction against a finite combination of modes: sum of h[mode] * a_mode."""
    out: dict[MultiIndex, Scalar] = {}
    for mode, coeff in h.items():
        part = annihilate(mode, F)
        if not part.is_zero():
            _accumulate(out, part.scale(coeff).terms)
    return FockVector._from_terms(out, F.scalar_mode)


def _star_orders(F: FockVector, G: FockVector, channels: Iterable[Channel], R: int,
                 max_degree: Optional[int] = None, lowest: int = 0,
                 order_caps: Optional[Sequence[int]] = None) -> list[FockVector]:
    """Orders lowest..R of the channel star-product of F and G: the one contraction engine.

    A channel (m_F, m_G, w) contributes w * :a_{m_F}F . a_{m_G}G:.  Order r
    sums, over the multisets of r channels, prod w^c / c! times the Wick
    product of the slotwise-annihilated operands; that is the r-fold
    channel contraction over r!, since a multiset stands for r! / prod c!
    ordered r-tuples and slotwise contractions commute.  The multisets are
    walked depth first as nondecreasing channel sequences: each extends its
    parent's contracted operands by one annihilation per side, and a branch
    whose operand vanishes is dropped with everything below it.

    Every order is formed at cap `max_degree`, or, if `order_caps` is
    given, order r at cap `order_caps[r]` instead (one cap per order
    0..R).  Order r then equals the uncapped order truncated to its cap,
    since each Wick product adds degrees.
    """
    F._check_mode(G)
    if R < 0:
        raise ValueError("contraction order must be >= 0")
    mode = F.scalar_mode
    if order_caps is None:
        caps = [max_degree] * (R + 1)
    elif len(order_caps) == R + 1:
        caps = order_caps
    else:
        raise ValueError(f"need one cap per order 0..{R}, got {len(order_caps)}")
    suppF, suppG = F.support_modes(), G.support_modes()
    live = [(fm, gm, coerce_scalar(w, mode)) for fm, gm, w in channels
            if fm in suppF and gm in suppG]
    orders: list[dict] = [{} for _ in range(R + 1)]

    def walk(aF, aG, weight, depth, last, run):
        # `last` is the channel that reached this node and `run` how often
        # it occurs in the multiset, so a repeat divides the weight by c.
        if depth >= lowest:
            if len(aF) <= len(aG):
                product = wick_product(aF.scale(weight), aG, caps[depth])
            else:
                product = wick_product(aF, aG.scale(weight), caps[depth])
            _accumulate(orders[depth], product.terms)
        if depth == R:
            return
        for i in range(last, len(live)):
            fm, gm, w = live[i]
            bF = annihilate(fm, aF)
            if bF.is_zero():
                continue
            bG = annihilate(gm, aG)
            if bG.is_zero():
                continue
            c = run + 1 if i == last else 1
            walk(bF, bG, weight * w / c, depth + 1, i, c)

    walk(F, G, 1, 0, 0, 0)
    return [FockVector._from_terms(orders[r], mode) for r in range(lowest, R + 1)]


def contract_channels(F: FockVector, G: FockVector, channels: Iterable[Channel],
                      r: int) -> FockVector:
    """r-fold channel contraction: the sum over ordered r-tuples of channels.

    Each tuple contributes the product of its weights times the Wick
    product of the slotwise-annihilated operands, i.e. the r-th power of
    the channel sum as a bidifferential operator, without any 1/r!
    normalization.  It is r! times order r of the shared engine.
    """
    return _star_orders(F, G, channels, r, lowest=r)[0].scale(math.factorial(r))


def wick_exponential(gamma: Mapping[ModeIndex, Scalar], gamma_star: Mapping[ModeIndex, Scalar],
                     N: int) -> FockVector:
    """Degree-capped rational exponential of a degree-one element on the doubled modes.

    gamma feeds primal slots and gamma_star dual slots; the result is
    sum_{n <= N} (gamma + gamma_star)^{wick n} / n!.  Keys must carry the
    matching dual flag so the two halves cannot be confused.
    """
    if N < 0:
        raise ValueError("degree cap must be nonnegative")
    gen_terms: dict[MultiIndex, Scalar] = {}
    for mode, c in gamma.items():
        if mode.dual:
            raise ValueError(f"gamma must have primal support, got {mode!r}")
        gen_terms[MultiIndex.single(mode)] = c
    for mode, c in gamma_star.items():
        if not mode.dual:
            raise ValueError(f"gamma_star must have dual support, got {mode!r}")
        gen_terms[MultiIndex.single(mode)] = c
    gen = FockVector(gen_terms)
    power = FockVector.unit()
    out = dict(power.terms)
    for n in range(1, N + 1):
        power = wick_product(power, gen, max_degree=N).scale(Fraction(1, n))
        if power.is_zero():
            break
        _accumulate(out, power.terms)
    return FockVector._from_terms(out, RATIONAL)


# -- formal power series in the deformation parameter --------------------


class HbarSeries:
    """Truncated formal series: one FockVector per order of the parameter.

    coeffs[r] is the order-r coefficient; the truncation order is fixed at
    construction and all arithmetic demands matching orders and scalar modes.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[FockVector]):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("series needs at least the order-0 coefficient")
        mode = coeffs[0].scalar_mode
        for c in coeffs:
            if c.scalar_mode != mode:
                raise TypeError("all series coefficients must share one scalar mode")
        self.coeffs = coeffs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def scalar_mode(self) -> str:
        return self.coeffs[0].scalar_mode

    @classmethod
    def from_vector(cls, F: FockVector, R: int) -> "HbarSeries":
        """The constant series F + 0*hbar + ... up to order R."""
        zeros = [FockVector.zero(F.scalar_mode) for _ in range(R)]
        return cls([F] + zeros)

    def coefficient(self, r: int) -> FockVector:
        return self.coeffs[r]

    def _check_compatible(self, other: "HbarSeries"):
        if self.order != other.order:
            raise ValueError(f"series order mismatch: {self.order} vs {other.order}")
        if self.scalar_mode != other.scalar_mode:
            raise TypeError("scalar mode mismatch between series")

    def __add__(self, other: "HbarSeries") -> "HbarSeries":
        self._check_compatible(other)
        return HbarSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def wick_mul(self, other: "HbarSeries") -> "HbarSeries":
        """Cauchy product with the Wick product on coefficients."""
        self._check_compatible(other)
        out = []
        for r in range(self.order + 1):
            acc: dict[MultiIndex, Scalar] = {}
            for a in range(r + 1):
                _accumulate(acc, wick_product(self.coeffs[a], other.coeffs[r - a]).terms)
            out.append(FockVector._from_terms(acc, self.scalar_mode))
        return HbarSeries(out)

    def truncate_degree(self, n: int) -> "HbarSeries":
        return HbarSeries([c.truncate(n) for c in self.coeffs])

    def __eq__(self, other) -> bool:
        if not isinstance(other, HbarSeries):
            return NotImplemented
        return self.order == other.order and all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __repr__(self) -> str:
        return f"HbarSeries(order={self.order}, terms={[len(c) for c in self.coeffs]})"
