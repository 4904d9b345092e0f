"""Truncated symmetric Fock algebra over the loop modes.

Elements are finite linear combinations of symmetrized monomials, each
labelled by a MultiIndex over ModeIndexes.  In this basis the Wick product
is multiset union of labels with coefficient 1, and the annihilation
operator against a basis mode removes one unit of that mode scaled by its
multiplicity.  Coefficients are exact rationals and there is no other
scalar type: a float coefficient, scale, direction or channel weight (or
anything but a Fraction or an int) raises TypeError where it would enter
the arithmetic, so this layer never rounds.  Floats enter only where a
vector is evaluated on a sampled field (`chaos`).

A vector stores integer numerators over one positive denominator, as
FLINT's fmpq_poly does.  Every operation reduces its result once, by
gcd(D, *numerators), so equal vectors have equal storage, and the kernels
below run on plain int multiply and add.  `.terms` is the read path: a
mapping from monomial to reduced Fraction, in the order the terms were
formed.  Its keys and length come from the numerators; the Fractions are
built once per vector, on the first read of a value.

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
from collections.abc import Mapping
from typing import Iterable, Optional, Sequence, Union

from .modes import VACUUM, ModeIndex, MultiIndex

Scalar = Union[Fraction, int]
Channel = tuple[ModeIndex, ModeIndex, Scalar]     # (mode on F, mode on G, weight)


def coerce_scalar(value: Scalar) -> Fraction:
    """A coefficient as a Fraction.

    Fraction and int only: a float is refused rather than converted, so
    exact computations cannot be contaminated.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"the exact layer takes Fraction or int, not {type(value).__name__} {value!r}")


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


class _Terms(Mapping):
    """Read-only coefficients of one vector, keyed by monomial in term order.

    Length, keys and membership read the numerators.  The values are
    `values` if given (the Fractions a vector was built from); otherwise
    the reduced Fractions num / D, built on the first value read and kept.
    Every other method comes from `Mapping`.
    """

    __slots__ = ("_num", "_den", "_values")

    def __init__(self, num: dict, den: int, values: Optional[dict]):
        self._num = num
        self._den = den
        self._values = values

    def _dict(self) -> dict:
        if self._values is None:
            den = self._den
            self._values = {mu: Fraction(n, den) for mu, n in self._num.items()}
        return self._values

    def __len__(self) -> int:
        return len(self._num)

    def __iter__(self):
        return iter(self._num)

    def __contains__(self, mu) -> bool:
        return mu in self._num

    def __getitem__(self, mu):
        return self._dict()[mu]

    def items(self):
        return self._dict().items()

    def __repr__(self) -> str:
        return repr(self._dict())


def _common_denominator(terms: dict[MultiIndex, Fraction]) -> tuple[dict, int]:
    """(numerators, denominator) of nonzero reduced `terms` over the lcm of their denominators.

    Over that lcm the numerators share no factor with it, so the pair is
    already the canonical storage of `FockVector`.
    """
    den = math.lcm(*(c.denominator for c in terms.values()))
    return {mu: c.numerator * (den // c.denominator) for mu, c in terms.items()}, den


class FockVector:
    """Sparse element of the symmetric algebra: numerators over one denominator.

    `_num` maps each monomial to a nonzero numerator and `_den` is the
    positive shared denominator, with gcd(_den, *numerators) == 1.
    `terms` is the public view of the coefficients (see `_Terms`).  A
    vector carries no degree cap; products take one as an argument.
    """

    __slots__ = ("_num", "_den", "_terms")

    def __init__(self, terms: Mapping[MultiIndex, Scalar]):
        clean: dict[MultiIndex, Fraction] = {}
        for mu, c in terms.items():
            if not isinstance(mu, MultiIndex):
                mu = MultiIndex(mu)
            c = coerce_scalar(c)
            if c:
                clean[mu] = c
        self._num, self._den = _common_denominator(clean)
        self._terms = _Terms(self._num, self._den, clean)

    @classmethod
    def _raw(cls, num: dict, den: int) -> "FockVector":
        # Fast path: caller guarantees canonical keys, nonzero reduced numerators.
        out = object.__new__(cls)
        out._num = num
        out._den = den
        out._terms = None
        return out

    @classmethod
    def zero(cls) -> "FockVector":
        return cls._raw({}, 1)

    @classmethod
    def unit(cls) -> "FockVector":
        """The vacuum monomial with coefficient 1: the algebra unit."""
        return cls._raw({VACUUM: 1}, 1)

    # -- queries ---------------------------------------------------------

    @property
    def terms(self) -> Mapping[MultiIndex, Fraction]:
        """Coefficient by monomial, as reduced Fractions."""
        if self._terms is None:
            self._terms = _Terms(self._num, self._den, None)
        return self._terms

    def is_zero(self) -> bool:
        return not self._num

    def degree(self) -> int:
        """Largest monomial degree present; 0 for the zero vector."""
        return max((mu.degree for mu in self._num), default=0)

    def support_modes(self) -> set[ModeIndex]:
        out: set[ModeIndex] = set()
        for mu in self._num:
            for m, _ in mu:
                out.add(m)
        return out

    def __len__(self) -> int:
        return len(self._num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FockVector):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        raise TypeError("FockVector is mutable bookkeeping; not hashable")

    def __repr__(self) -> str:
        if not self._num:
            return "FockVector(0)"
        items = sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())
        shown = " + ".join(f"{c}*{mu!r}" for mu, c in items[:6])
        more = "" if len(items) <= 6 else f" + ... ({len(items)} terms)"
        return f"FockVector({shown}{more})"

    # -- linear structure ------------------------------------------------

    def __add__(self, other: "FockVector") -> "FockVector":
        total = _Sum(dict(self._num), self._den)
        total.add(other)
        return total.vector()

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + (-other)

    def __neg__(self) -> "FockVector":
        return FockVector._raw({mu: -c for mu, c in self._num.items()}, self._den)

    def scale(self, scalar: Scalar) -> "FockVector":
        """The vector times `scalar`; the vector itself for 1, as vectors are never mutated."""
        s = coerce_scalar(scalar)
        if s == 1:
            return self
        if not s:
            return FockVector.zero()
        p, q = s.numerator, s.denominator
        return _reduced({mu: c * p for mu, c in self._num.items()}, self._den * q)

    def __mul__(self, scalar: Scalar) -> "FockVector":
        return self.scale(scalar)

    __rmul__ = __mul__

    def truncate(self, n: int) -> "FockVector":
        """Project onto degrees <= n."""
        kept = {mu: c for mu, c in self._num.items() if mu.degree <= n}
        return _reduced(kept, self._den)


def _reduced(num: dict, den: int) -> FockVector:
    """The vector num / den, with numerators and denominator divided by their gcd."""
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            den //= g
            for mu in num:
                num[mu] //= g
    return FockVector._raw(num, den)


class _Sum:
    """Running sum of vectors, as numerators over one denominator.

    A summand whose denominator differs is brought to the lcm of the two;
    terms that cancel are dropped.  `vector()` reduces once and hands over
    the storage, so the sum is not used after it.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Optional[dict] = None, den: int = 1):
        self.num = {} if num is None else num
        self.den = den

    def add(self, F: FockVector) -> None:
        acc, den = self.num, self.den
        items = F._num.items()
        if F._den != den:
            lcm = den // math.gcd(den, F._den) * F._den
            if lcm != den:
                up = lcm // den
                for mu in acc:
                    acc[mu] *= up
                self.den = lcm
            if lcm != F._den:
                up = lcm // F._den
                items = [(mu, c * up) for mu, c in items]
        for mu, c in items:
            v = acc.get(mu)
            v = c if v is None else v + c
            if v:
                acc[mu] = v
            elif mu in acc:
                del acc[mu]

    def vector(self) -> FockVector:
        return _reduced(self.num, self.den)


# -- products and contractions ------------------------------------------


def wick_product(F: FockVector, G: FockVector, max_degree: Optional[int] = None) -> FockVector:
    """Symmetrized product: multiset union of monomial labels, coefficient 1.

    With `max_degree` this is the product of the algebra truncated above
    that degree: pairs whose degrees sum past it are skipped before any
    union is built.
    """
    acc: dict[MultiIndex, int] = {}
    fitems = [(mu.degree, mu, c) for mu, c in F._num.items()]
    gitems = sorted(((mu.degree, mu, c) for mu, c in G._num.items()), key=lambda t: t[0])
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
    return _reduced(acc, F._den * G._den)


def annihilate(mode: ModeIndex, F: FockVector) -> FockVector:
    """Contraction against one basis mode: mu -> mult(mode) * (mu minus one unit).

    Removing one unit of the mode is one-to-one on the monomials that hold
    it, so no two terms meet and every numerator stays nonzero.
    """
    return _reduced({mu.remove(mode): m * c for mu, c in F._num.items()
                     if (m := mu.multiplicity(mode))}, F._den)


def annihilate_general(h: Mapping[ModeIndex, Scalar], F: FockVector) -> FockVector:
    """Contraction against a finite combination of modes: sum of h[mode] * a_mode."""
    out = _Sum()
    for mode, coeff in h.items():
        part = annihilate(mode, F)
        if not part.is_zero():
            out.add(part.scale(coeff))
    return out.vector()


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
    if R < 0:
        raise ValueError("contraction order must be >= 0")
    if order_caps is None:
        caps = [max_degree] * (R + 1)
    elif len(order_caps) == R + 1:
        caps = order_caps
    else:
        raise ValueError(f"need one cap per order 0..{R}, got {len(order_caps)}")
    suppF, suppG = F.support_modes(), G.support_modes()
    live = [(fm, gm, coerce_scalar(w)) for fm, gm, w in channels
            if fm in suppF and gm in suppG]
    orders = [_Sum() for _ in range(R + 1)]

    def walk(aF, aG, weight, depth, last, run):
        # `last` is the channel that reached this node and `run` how often
        # it occurs in the multiset, so a repeat divides the weight by c.
        if depth >= lowest:
            if len(aF) <= len(aG):
                product = wick_product(aF.scale(weight), aG, caps[depth])
            else:
                product = wick_product(aF, aG.scale(weight), caps[depth])
            orders[depth].add(product)
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
    return [orders[r].vector() for r in range(lowest, R + 1)]


def contract_channels(F: FockVector, G: FockVector, channels: Iterable[Channel],
                      r: int) -> FockVector:
    """r-fold channel contraction: the sum over ordered r-tuples of channels.

    Each tuple contributes the product of its weights times the Wick
    product of the slotwise-annihilated operands, i.e. the r-th power of
    the channel sum as a bidifferential operator, without any 1/r!
    normalization.  It is r! times order r of the shared engine.
    """
    return _star_orders(F, G, channels, r, lowest=r)[0].scale(math.factorial(r))


def wick_exponential(gamma: Mapping[ModeIndex, Scalar], N: int) -> FockVector:
    """Degree-capped exponential of a degree-one element on the doubled modes.

    gamma maps primal and dual modes alike to their coefficients (each key
    carries its own dual flag); the result is sum_{n <= N} gamma^{wick n} / n!.
    """
    if N < 0:
        raise ValueError("degree cap must be nonnegative")
    gen = FockVector({MultiIndex.single(mode): c for mode, c in gamma.items()})
    power = FockVector.unit()
    out = _Sum(dict(power._num))
    for n in range(1, N + 1):
        power = wick_product(power, gen, max_degree=N).scale(Fraction(1, n))
        if power.is_zero():
            break
        out.add(power)
    return out.vector()


# -- formal power series in the deformation parameter --------------------


class HbarSeries:
    """Truncated formal series: one FockVector per order of the parameter.

    coeffs[r] is the order-r coefficient; the truncation order is fixed at
    construction and all arithmetic demands matching orders.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[FockVector]):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("series needs at least the order-0 coefficient")
        self.coeffs = coeffs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def from_vector(cls, F: FockVector, R: int) -> "HbarSeries":
        """The constant series F + 0*hbar + ... up to order R."""
        zeros = [FockVector.zero() for _ in range(R)]
        return cls([F] + zeros)

    def coefficient(self, r: int) -> FockVector:
        return self.coeffs[r]

    def _check_compatible(self, other: "HbarSeries"):
        if self.order != other.order:
            raise ValueError(f"series order mismatch: {self.order} vs {other.order}")

    def __add__(self, other: "HbarSeries") -> "HbarSeries":
        self._check_compatible(other)
        return HbarSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def wick_mul(self, other: "HbarSeries") -> "HbarSeries":
        """Cauchy product with the Wick product on coefficients."""
        self._check_compatible(other)
        out = []
        for r in range(self.order + 1):
            acc = _Sum()
            for a in range(r + 1):
                acc.add(wick_product(self.coeffs[a], other.coeffs[r - a]))
            out.append(acc.vector())
        return HbarSeries(out)

    def truncate_degree(self, n: int) -> "HbarSeries":
        return HbarSeries([c.truncate(n) for c in self.coeffs])

    def __eq__(self, other) -> bool:
        if not isinstance(other, HbarSeries):
            return NotImplemented
        return self.order == other.order and all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __repr__(self) -> str:
        return f"HbarSeries(order={self.order}, terms={[len(c) for c in self.coeffs]})"
