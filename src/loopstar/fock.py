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
below run on plain int multiply and add.  The multi-step kernels build no
vector between their steps, as fraction-free elimination does (Bareiss,
Math. Comp. 1968): the contraction walk of `_star_orders` carries
numerators over its operands' fixed denominators and reduces each order
once; `_contract_pairs` (the transform generator) adds each row's
numerators over D times the row's weight denominator and reduces once;
`wick_exponential` carries each power's numerators over a growing
denominator and reduces the sum once.

Each monomial is stored as one packed int, as in Monagan & Pearce's packed
exponent vectors (CASC 2007): the low WIDTH bits hold its degree, and each
mode owns the next WIDTH-bit field, which holds its multiplicity.  A Wick
union is then one integer addition, and removing one unit of a mode is one
subtraction.  A mode gets its field the first time this module meets it,
from the table `_OFFSET` and its inverse `_MODES`; the tables grow only with
the distinct modes the process meets.  Offsets therefore depend on the
order in which a process meets the modes, so packed keys never leave the
process: the public API takes and gives MultiIndexes, and a pickled vector
carries its decoded terms.  A monomial or a formed product pair of degree
above MASK raises OverflowError rather than spilling into the next field.

Chaos evaluation (`chaos`) reads the packed fields through `_fields`, the
(mode, offset) of each mode a vector holds, and decodes no key.  `.terms`
is the boundary view: a mapping from MultiIndex to reduced Fraction, in
the order the terms were formed, for the wire format (`serialize_fock`
and its parser), the norm bound, repr and pickling.  Its length reads the
numerators; the keys are decoded and the Fractions built once per vector,
on the first read of a key or value.

A channel table is packed once: a `ChannelTable` coerces its weights and
keeps, beside its (mode, mode, weight) triples, one row per channel of
field offsets, units and the weight as an integer pair, which the kernels
read on every call.  Like packed keys, its rows never leave the process:
a pickled table carries its triples.

A degree cap belongs to a multiplication, not to a vector: a product
formed at cap n (an order of `_star_orders`) is the product of the
quotient algebra where all monomials of degree above n are identified
with zero, so dropping terms above the cap is the correct multiplication
in that quotient, not an approximation.  Vectors carry no cap;
`truncate(n)` is the plain projection onto degrees <= n.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from collections.abc import Mapping
from typing import Iterable, Optional, Sequence, Union

from .modes import ModeIndex, MultiIndex

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


# -- packed monomial keys -------------------------------------------------

WIDTH = 16                          # bits per field: the degree, then one per mode
MASK = (1 << WIDTH) - 1
_OFFSET: dict[ModeIndex, int] = {}  # mode -> bit offset of its field
_MODES: list[ModeIndex] = []        # the mode of the field at offset WIDTH * (i + 1)


def _field(mode: ModeIndex) -> int:
    """Bit offset of the mode's field, assigned the first time this module meets the mode."""
    off = _OFFSET.get(mode)
    if off is None:
        _MODES.append(mode)
        off = _OFFSET[mode] = WIDTH * len(_MODES)
    return off


def _encode(entries: Iterable[tuple[ModeIndex, int]]) -> int:
    """Packed key of (mode, multiplicity) pairs with distinct modes."""
    key = degree = 0
    for mode, mult in entries:
        off = _OFFSET.get(mode) or _field(mode)     # no field sits at offset 0
        key += mult << off
        degree += mult
    if degree > MASK:
        raise OverflowError(f"monomial degree {degree} exceeds the packed limit {MASK}")
    return key + degree


def _decode(key: int) -> MultiIndex:
    """The MultiIndex of a packed key, read from its highest nonzero field down."""
    entries = []
    key >>= WIDTH
    while key:
        slot = (key.bit_length() - 1) // WIDTH
        off = slot * WIDTH
        mult = key >> off                   # no field is left above this one
        entries.append((_MODES[slot], mult))
        key -= mult << off
    entries.sort()
    return MultiIndex._raw(tuple(entries))


def _joined(num: dict) -> int:
    """OR of the keys: a mode's field is nonzero in it iff some monomial holds the mode."""
    out = 0
    for key in num:
        out |= key
    return out


def _fields(num: dict) -> list[tuple[ModeIndex, int]]:
    """(mode, bit offset) of every mode some key of `num` holds, in ModeIndex order."""
    out = []
    key = _joined(num) >> WIDTH
    while key:
        slot = (key.bit_length() - 1) // WIDTH
        out.append((_MODES[slot], WIDTH * (slot + 1)))
        key &= (1 << WIDTH * slot) - 1     # drop this field, the top one
    out.sort()
    return out


class _Terms(Mapping):
    """Read-only coefficients of one vector, keyed by monomial in term order.

    Length reads the numerators.  The mapping is the decoded monomials with
    the reduced Fractions num / D, built on the first key or value read and
    kept.  Every other method comes from `Mapping`.
    """

    __slots__ = ("_num", "_den", "_values")

    def __init__(self, num: dict, den: int):
        self._num = num
        self._den = den
        self._values = None

    def _dict(self) -> dict:
        if self._values is None:
            den = self._den
            self._values = {_decode(k): Fraction(n, den) for k, n in self._num.items()}
        return self._values

    def __len__(self) -> int:
        return len(self._num)

    def __iter__(self):
        return iter(self._dict())

    def __getitem__(self, mu):
        return self._dict()[mu]

    def items(self):
        return self._dict().items()

    def __repr__(self) -> str:
        return repr(self._dict())


def _common_denominator(terms: dict[int, Fraction]) -> tuple[dict, int]:
    """(numerators, denominator) of nonzero reduced `terms` over the lcm of their denominators.

    Over that lcm the numerators share no factor with it, so the pair is
    already the canonical storage of `FockVector`.
    """
    den = math.lcm(*(c.denominator for c in terms.values()))
    return {mu: c.numerator * (den // c.denominator) for mu, c in terms.items()}, den


class FockVector:
    """Sparse element of the symmetric algebra: numerators over one denominator.

    `_num` maps each packed monomial key to a nonzero numerator and `_den`
    is the positive shared denominator, with gcd(_den, *numerators) == 1.
    `terms` is the public view of the coefficients (see `_Terms`).  A
    vector carries no degree cap; products take one as an argument.
    """

    __slots__ = ("_num", "_den", "_terms")

    def __init__(self, terms: Mapping[MultiIndex, Scalar]):
        clean: dict[int, Fraction] = {}
        for mu, c in terms.items():
            if not isinstance(mu, MultiIndex):
                mu = MultiIndex(mu)
            c = coerce_scalar(c)
            if c:
                clean[_encode(mu)] = c
        self._num, self._den = _common_denominator(clean)
        self._terms = None

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
        return cls._raw({0: 1}, 1)

    # -- queries ---------------------------------------------------------

    @property
    def terms(self) -> Mapping[MultiIndex, Fraction]:
        """Coefficient by monomial, as reduced Fractions."""
        if self._terms is None:
            self._terms = _Terms(self._num, self._den)
        return self._terms

    def is_zero(self) -> bool:
        return not self._num

    def degree(self) -> int:
        """Largest monomial degree present; 0 for the zero vector."""
        return max((k & MASK for k in self._num), default=0)

    def support_modes(self) -> set[ModeIndex]:
        return {mode for mode, _ in _fields(self._num)}

    def __len__(self) -> int:
        return len(self._num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FockVector):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        raise TypeError("FockVector is mutable bookkeeping; not hashable")

    def __reduce__(self):
        # Packed keys mean nothing in another process: pickle the decoded terms.
        return FockVector, (dict(self.terms),)

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

    def truncate(self, n: int) -> "FockVector":
        """Project onto degrees <= n."""
        kept = {k: c for k, c in self._num.items() if (k & MASK) <= n}
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
        self.add_terms(F._num, F._den)

    def add_terms(self, num: dict, den: int) -> None:
        """Add num / den: numerators by packed key over a positive denominator, not reduced."""
        if not num:
            return
        acc = self.num
        items = num.items()
        if den != self.den:
            lcm = self.den // math.gcd(self.den, den) * den
            if lcm != self.den:
                up = lcm // self.den
                for mu in acc:
                    acc[mu] *= up
                self.den = lcm
            if lcm != den:
                up = lcm // den
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


def _pairs(f_items: Iterable[tuple[int, int]], g_items: Sequence[tuple[int, int]], scale: int,
           cap: Optional[int]) -> dict:
    """Numerators of the Wick product of two term lists, each F numerator times `scale`.

    `g_items` is sorted by degree.  Pairs are formed F term by F term, each
    over the G terms in that order, and a key whose sum cancels is dropped.
    Pairs whose degrees sum past `cap` are skipped before any union is
    built; a formed pair of degree above MASK raises OverflowError.
    """
    acc: dict[int, int] = {}
    gdeg = [k & MASK for k, _ in g_items]
    top = MASK if cap is None else min(cap, MASK)
    for kF, cF in f_items:
        dF = kF & MASK
        n = bisect_right(gdeg, top - dF)        # the G terms that fit
        if n < len(gdeg) and (cap is None or dF + gdeg[n] <= cap):
            raise OverflowError(f"product degree {dF + gdeg[n]} exceeds the packed limit {MASK}")
        cF *= scale
        for kG, cG in g_items[:n]:
            key = kF + kG
            v = acc.get(key)
            v = cF * cG if v is None else v + cF * cG
            if v:
                acc[key] = v
            elif key in acc:
                del acc[key]
    return acc


def wick_product(F: FockVector, G: FockVector) -> FockVector:
    """Symmetrized product: multiset union of monomial labels, coefficient 1.

    A pair whose degree exceeds MASK raises OverflowError.  The product of
    the algebra truncated above a degree n is order 0 of `_star_orders` at
    cap n.
    """
    gitems = sorted(G._num.items(), key=lambda kc: kc[0] & MASK)
    return _reduced(_pairs(F._num.items(), gitems, 1, None), F._den * G._den)


def annihilate(mode: ModeIndex, F: FockVector) -> FockVector:
    """Contraction against one basis mode: mu -> mult(mode) * (mu minus one unit).

    Removing one unit of the mode is one-to-one on the monomials that hold
    it, so no two terms meet and every numerator stays nonzero.
    """
    off = _OFFSET.get(mode)
    if off is None:
        return FockVector.zero()
    unit = (1 << off) + 1                   # one unit of the mode and of the degree
    return _reduced({k - unit: m * c for k, c in F._num.items()
                     if (m := (k >> off) & MASK)}, F._den)


def annihilate_general(h: Mapping[ModeIndex, Scalar], F: FockVector) -> FockVector:
    """Contraction against a finite combination of modes: sum of h[mode] * a_mode."""
    out = _Sum()
    for mode, coeff in h.items():
        part = annihilate(mode, F)
        if not part.is_zero():
            out.add(part.scale(coeff))
    return out.vector()


class ChannelTable(tuple):
    """A channel table, packed once: (mode on F, mode on G, weight) triples.

    Construction coerces every weight (a float raises TypeError) and drops
    the zero ones.  `rows` holds each channel as the kernels read it,
    (f, unitF, g, unitG, wp, wq): the bit offset of each mode's field, its
    unit (one unit of the mode and of the degree), and the weight as the
    integer pair wp / wq.  Building the rows meets the table's modes.
    Offsets belong to the process, so a pickled table carries its triples
    only and packs its rows again where it is loaded.
    """

    def __new__(cls, channels: Iterable[Channel]):
        table = super().__new__(cls, [(fm, gm, w) for fm, gm, weight in channels
                                      if (w := coerce_scalar(weight))])
        table.rows = tuple((f, (1 << f) + 1, g, (1 << g) + 1, *w.as_integer_ratio())
                           for fm, gm, w in table for f, g in [(_field(fm), _field(gm))])
        return table

    def __reduce__(self):
        return ChannelTable, (tuple(self),)


def _contract_pairs(F: FockVector, rows: Sequence[tuple]) -> FockVector:
    """The sum over `rows` of wp / wq * a_f a_g F: both modes of a row contract F.

    One pass over F's terms per row whose two fields F holds.  The
    multiplicity of f is read after one unit of g is removed, so a row
    whose two modes are one mode m contributes m(m - 1).  Each row adds its
    numerators over F._den * wq, and the sum is reduced once.
    """
    join = _joined(F._num)
    total = _Sum()
    for f, unitF, g, unitG, wp, wq in rows:
        if not ((join >> f) & MASK and (join >> g) & MASK):
            continue
        part = {}
        for k, n in F._num.items():
            if mg := (k >> g) & MASK:
                k -= unitG
                if mf := (k >> f) & MASK:
                    part[k - unitF] = mf * mg * wp * n
        total.add_terms(part, F._den * wq)
    return total.vector()


def _star_orders(F: FockVector, G: FockVector, channels: Iterable[Channel],
                 caps: Sequence[Optional[int]], lowest: int = 0) -> list[FockVector]:
    """Orders lowest..R of the channel star-product of F and G: the one contraction engine.

    A channel (m_F, m_G, w) contributes w * :a_{m_F}F . a_{m_G}G:.  Order r
    sums, over the multisets of r channels, prod w^c / c! times the Wick
    product of the slotwise-annihilated operands; that is the r-fold
    channel contraction over r!, since a multiset stands for r! / prod c!
    ordered r-tuples and slotwise contractions commute.  The multisets are
    walked depth first as nondecreasing channel sequences: each extends its
    parent's contracted operands by one annihilation per side, and a branch
    whose operand vanishes is dropped with everything below it.

    The walk runs on integers, as fraction-free elimination does (Bareiss,
    Math. Comp. 22, 1968): a node holds the (key, numerator) pairs of its
    operands over their fixed denominators F._den and G._den, G's sorted by
    degree once at the root (an annihilation lowers every degree by 1, so
    they stay sorted), and its weight as an integer pair p / q.  Its Wick
    product goes into its order as numerators over F._den * G._den * q,
    and each order is reduced once, when the walk is done.

    `caps` holds one cap per order 0..R, so R = len(caps) - 1; order r is
    formed at cap `caps[r]`, None for no cap.  Order r then equals the
    uncapped order truncated to its cap, since each Wick product adds
    degrees; with an empty table, order 0 at cap n is the product of the
    algebra truncated above degree n.

    The walk reads the packed `rows` of a `ChannelTable`; any other
    iterable of triples is packed into one on entry.  A row is live if F
    holds its F-mode and G its G-mode.
    """
    R = len(caps) - 1
    if R < 0:
        raise ValueError("contraction order must be >= 0")
    if not isinstance(channels, ChannelTable):
        channels = ChannelTable(channels)
    joinF, joinG = _joined(F._num), _joined(G._num)
    live = [row for row in channels.rows if (joinF >> row[0]) & MASK and (joinG >> row[2]) & MASK]
    orders = [_Sum() for _ in range(R + 1)]
    den = F._den * G._den

    def walk(nF, nG, p, q, depth, last, run):
        # `last` is the channel that reached this node and `run` how often
        # it occurs in the multiset, so a repeat divides the weight by c.
        if depth >= lowest:
            orders[depth].add_terms(_pairs(nF, nG, p, caps[depth]), den * q)
        if depth == R:
            return
        for i in range(last, len(live)):
            f, unitF, g, unitG, wp, wq = live[i]
            bF = [(k - unitF, m * n) for k, n in nF if (m := (k >> f) & MASK)]
            if not bF:
                continue
            bG = [(k - unitG, m * n) for k, n in nG if (m := (k >> g) & MASK)]
            if not bG:
                continue
            c = run + 1 if i == last else 1
            walk(bF, bG, p * wp, q * wq * c, depth + 1, i, c)

    walk(list(F._num.items()), sorted(G._num.items(), key=lambda kc: kc[0] & MASK), 1, 1, 0, 0, 0)
    return [orders[r].vector() for r in range(lowest, R + 1)]


def contract_channels(F: FockVector, G: FockVector, channels: Iterable[Channel],
                      r: int) -> FockVector:
    """r-fold channel contraction: the sum over ordered r-tuples of channels.

    Each tuple contributes the product of its weights times the Wick
    product of the slotwise-annihilated operands, i.e. the r-th power of
    the channel sum as a bidifferential operator, without any 1/r!
    normalization.  It is r! times order r of the shared engine.
    """
    return _star_orders(F, G, channels, [None] * (r + 1), lowest=r)[0].scale(math.factorial(r))


def wick_exponential(gamma: Mapping[ModeIndex, Scalar], N: int) -> FockVector:
    """Degree-capped exponential of a degree-one element on the doubled modes.

    gamma maps primal and dual modes alike to their coefficients (each key
    carries its own dual flag); the result is sum_{n <= N} gamma^{wick n} / n!.
    Power n is carried as numerators over gen._den^n * n!, unreduced, and
    the sum is reduced once.
    """
    if N < 0:
        raise ValueError("degree cap must be nonnegative")
    gen = FockVector({MultiIndex.single(mode): c for mode, c in gamma.items()})
    gitems = list(gen._num.items())             # all of degree 1, so sorted by degree
    power, den = {0: 1}, 1
    out = _Sum(dict(power))
    for n in range(1, N + 1):
        power = _pairs(power.items(), gitems, 1, N)
        if not power:
            break
        den *= gen._den * n
        out.add_terms(power, den)
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
