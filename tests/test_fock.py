import math
import pickle
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopstar import fock
from loopstar.equivalence import (DiagonalOperatorA, _shifted_pairing, apply_T1,
                                  exp_product_formula_rhs)
from loopstar.fock import (ChannelTable, FockVector, HbarSeries, _star_orders, annihilate,
                           annihilate_general, contract_channels, wick_exponential, wick_product)
from loopstar.modes import VACUUM, ModeIndex, MultiIndex
from loopstar.poisson import SymplecticForm
from loopstar.serialization import serialize_fock

M0 = ModeIndex(1, 0)
M1 = ModeIndex(1, 1)
M2 = ModeIndex(1, 2)
D1 = ModeIndex(1, 1, dual=True)
ONE_A = DiagonalOperatorA.family("one", 1, 1)


def mono(pairs, coeff=Fraction(1)):
    return FockVector({MultiIndex(tuple(pairs)): coeff})


def capped_product(F, G, cap):
    """The product of the algebra truncated above degree `cap`: order 0 of the engine."""
    return _star_orders(F, G, ChannelTable(()), [cap])[0]


def test_constructor_validates_and_caps():
    with pytest.raises(TypeError):
        FockVector({MultiIndex.single(M1): 0.5})          # a float coefficient
    capped = FockVector({MultiIndex(((M1, 3),)): Fraction(1),
                         MultiIndex.single(M2): Fraction(2)}).truncate(2)
    assert capped.degree() == 1
    assert len(capped) == 1


@pytest.mark.parametrize("enter", [
    lambda x: FockVector({MultiIndex.single(M1): x}),
    lambda x: FockVector.unit().scale(x),
    lambda x: annihilate_general({M1: x}, mono([(M1, 1)])),
    lambda x: wick_exponential({M1: x}, 2),               # a primal key of gamma
    lambda x: wick_exponential({D1: x}, 2),               # a dual (starred) key of gamma
    lambda x: _star_orders(mono([(M1, 1)]), mono([(D1, 1)]), [(M1, D1, x)], [None, None]),
    # The equivalence layer's entrances: an operator table, the exponent's
    # pairing, and both maps of the closed product formula: a key of the
    # first map rescaled by A + I in the exponent, and a key of the second
    # map that is only summed into the Wick exponential.
    lambda x: DiagonalOperatorA.from_table({0: x}, 1, 1),
    lambda x: _shifted_pairing({M1: x}, {D1: Fraction(1)}, ONE_A, 1),
    lambda x: exp_product_formula_rhs({M1: x}, {D1: Fraction(1)}, ONE_A, 1, 2),
    lambda x: exp_product_formula_rhs({M0: Fraction(1)}, {D1: x}, ONE_A, 1, 2),
], ids=["vector", "scale", "direction", "gamma", "gamma_star", "channel_weight",
        "alpha_table", "pairing", "rescaled_gamma", "merged_gamma_star"])
def test_float_is_refused_at_every_entrance(enter):
    # 0.5 is exact as a double; the exact layer refuses the type, not the value.
    enter(Fraction(1, 2))
    with pytest.raises(TypeError):
        enter(0.5)


def test_zero_unit_monomial():
    assert FockVector.zero().is_zero()
    assert FockVector.unit().terms[VACUUM] == Fraction(1)
    m = FockVector({MultiIndex.single(M1): Fraction(2, 3)})
    assert m.degree() == 1
    assert not m.is_zero()


def test_equality_ignores_cap():
    a = FockVector({MultiIndex.single(M1): Fraction(1)})
    b = a.truncate(7)
    assert a == b
    with pytest.raises(TypeError):
        hash(a)


def test_vector_space_operations():
    a = mono([(M1, 1)], Fraction(1, 2))
    b = mono([(M1, 1)], Fraction(1, 3))
    assert (a + b) == mono([(M1, 1)], Fraction(5, 6))
    assert (a - a).is_zero()
    assert (-a) == a.scale(-1)
    assert a.scale(Fraction(2)) == mono([(M1, 1)], Fraction(1))


def test_wick_product_is_union_of_exponents():
    a = mono([(M1, 1)], Fraction(2))
    b = mono([(M1, 2), (M2, 1)], Fraction(3))
    p = wick_product(a, b)
    assert p == mono([(M1, 3), (M2, 1)], Fraction(6))
    unit = FockVector.unit()
    assert wick_product(unit, b) == b
    assert wick_product(a, FockVector.zero()).is_zero()


def test_product_respects_quotient_cap():
    a = mono([(M1, 2)])
    b = mono([(M1, 2)])
    full = wick_product(a, b)
    capped = capped_product(a, b, 3)
    assert capped.is_zero()
    assert full.truncate(3) == capped


def test_annihilate_falling_factorial():
    f = mono([(M1, 3)])
    assert annihilate(M1, f) == mono([(M1, 2)], Fraction(3))
    assert annihilate(M2, f).is_zero()
    f3 = annihilate(M1, annihilate(M1, annihilate(M1, f)))
    assert f3 == FockVector.unit().scale(Fraction(6))
    assert annihilate(M1, f3).is_zero()
    # duals are independent slots
    g = mono([(M1, 1), (D1, 2)])
    assert annihilate(D1, g) == mono([(M1, 1), (D1, 1)], Fraction(2))


def test_annihilate_general_is_linear():
    f = mono([(M1, 2), (M2, 1)])
    h = {M1: Fraction(2), M2: Fraction(-1)}
    got = annihilate_general(h, f)
    want = annihilate(M1, f).scale(2) + annihilate(M2, f).scale(-1)
    assert got == want


def test_contract_channels_matches_brute_force_r2():
    F = mono([(M1, 2), (M2, 1)], Fraction(1, 2))
    G = mono([(D1, 3)], Fraction(4))
    ch = [(M1, D1, Fraction(5))]
    got = contract_channels(F, G, ch, 2)
    # one channel taken twice: weight 2!/2! * 5^2, two annihilations each side
    want = wick_product(annihilate(M1, annihilate(M1, F)),
                        annihilate(D1, annihilate(D1, G))).scale(Fraction(25))
    assert got == want


def test_contract_channels_multinomial_weight():
    F = mono([(M1, 1), (M2, 1)])
    G = mono([(D1, 1), (ModeIndex(1, 2, dual=True), 1)])
    D2 = ModeIndex(1, 2, dual=True)
    ch = [(M1, D1, Fraction(2)), (M2, D2, Fraction(3))]
    got = contract_channels(F, G, ch, 2)
    # distinct channels once each: weight 2!/(1!1!) * 2 * 3 = 12, fully contracted
    assert got == FockVector.unit().scale(Fraction(12))


D2 = ModeIndex(1, 2, dual=True)
# Two channels share the F-mode M1, (M1, D1) and (D1, M1) are an asymmetric
# pair like the deformed table's, and the last never meets a coordinate-2
# mode.
CHANNELS = [(M1, D1, Fraction(3, 2)), (M1, D2, Fraction(-3, 4)),
            (D1, M1, Fraction(3, 8)), (ModeIndex(2, 0), D1, Fraction(3))]
ENGINE_F = FockVector({MultiIndex(((M1, 3), (D1, 1))): Fraction(1, 2),
                       MultiIndex(((M1, 2), (D1, 2), (M2, 1))): Fraction(-3, 4),
                       MultiIndex(((D1, 3),)): Fraction(1, 4),
                       MultiIndex.single(M1): Fraction(2), MultiIndex(): Fraction(1)})
ENGINE_G = FockVector({MultiIndex(((D1, 3), (M1, 1))): Fraction(1, 4),
                       MultiIndex(((D1, 1), (D2, 1), (M1, 2))): Fraction(-1, 2),
                       MultiIndex(((M1, 3),)): Fraction(3, 8),
                       MultiIndex(((D2, 2),)): Fraction(1), MultiIndex.single(D1): Fraction(-2)})


def ordered_tuple_contraction(F, G, channels, r):
    """Sum over ordered r-tuples of channels of prod w times the Wick product."""
    total = FockVector.zero()
    for tup in product(channels, repeat=r):
        aF, aG, weight = F, G, Fraction(1)
        for fm, gm, w in tup:
            aF, aG, weight = annihilate(fm, aF), annihilate(gm, aG), weight * w
        total = total + wick_product(aF, aG).scale(weight)
    return total


def test_contract_channels_matches_ordered_tuples():
    F, G = ENGINE_F, ENGINE_G
    orders = _star_orders(F, G, CHANNELS, [None] * 4)
    for r in range(4):
        want = ordered_tuple_contraction(F, G, CHANNELS, r)
        assert not want.is_zero()
        assert contract_channels(F, G, CHANNELS, r) == want
        assert orders[r].scale(math.factorial(r)) == want


def test_wick_exponential_coefficients_and_validation():
    gamma = {M1: Fraction(1, 2)}
    phi = wick_exponential(gamma, 4)
    for n in range(5):
        key = MultiIndex(((M1, n),)) if n else MultiIndex()
        assert phi.terms.get(key, Fraction(0)) == Fraction(1, 2) ** n / math.factorial(n)
    with pytest.raises(ValueError):
        wick_exponential(gamma, -1)                     # a negative degree cap


def test_exponential_carries_no_cap_into_products():
    # The cap of wick_exponential bounds its own terms; a later product is
    # capped only by its own argument.
    phi = wick_exponential({M1: Fraction(1, 2), D1: Fraction(3)}, 2)
    square = wick_product(phi, phi)
    assert phi.degree() == 2 and square.degree() == 4
    assert capped_product(phi, phi, 2) == square.truncate(2)
    assert square.truncate(2) != square


def test_wick_exponential_two_modes_cross_terms():
    gamma = {M1: Fraction(1), M2: Fraction(2)}
    phi = wick_exponential(gamma, 2)
    assert phi.terms[MultiIndex(((M1, 1), (M2, 1)))] == Fraction(2)
    assert phi.terms[MultiIndex(((M2, 2),))] == Fraction(2)


def test_series_cauchy_product():
    a0, a1 = mono([(M1, 1)]), mono([(M2, 1)], Fraction(2))
    b0, b1 = mono([(M1, 1)], Fraction(3)), FockVector.unit()
    S = HbarSeries([a0, a1])
    T = HbarSeries([b0, b1])
    P = S.wick_mul(T)
    assert P.coefficient(0) == wick_product(a0, b0)
    assert P.coefficient(1) == wick_product(a0, b1) + wick_product(a1, b0)
    assert P.order == 1


def test_series_helpers():
    F = mono([(M1, 2)])
    S = HbarSeries.from_vector(F, 2)
    assert S.coefficient(0) == F
    assert S.coefficient(1).is_zero() and S.coefficient(2).is_zero()
    assert S.truncate_degree(1).coefficient(0).is_zero()
    Z = HbarSeries.from_vector(FockVector.zero(), 2)
    assert S + Z == S
    with pytest.raises(ValueError):
        S._check_compatible(HbarSeries.from_vector(FockVector.zero(), 3))


# -- the kernels against their Fraction-dict form ------------------------


def merge_union(a, b):
    """Multiset union of two sorted labels by a merge walk, never through packed keys."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        (ma, ca), (mb, cb) = a[i], b[j]
        if ma == mb:
            out.append((ma, ca + cb))
            i += 1
            j += 1
        elif ma < mb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    return MultiIndex._raw(tuple(out) + a[i:] + b[j:])


def remove_unit(mu, mode):
    """The label with one unit less of `mode`, which it holds."""
    i = next(i for i, (m, _) in enumerate(mu) if m == mode)
    m, c = mu[i]
    return MultiIndex._raw(mu[:i] + (((m, c - 1),) if c > 1 else ()) + mu[i + 1:])


def reference_wick_product(F_terms, G_terms, max_degree):
    """The product on plain coefficient dicts, in the kernel's loop order."""
    acc = {}
    gitems = sorted(((mu.degree, mu, c) for mu, c in G_terms.items()), key=lambda t: t[0])
    for muF, cF in F_terms.items():
        for dG, muG, cG in gitems:
            if max_degree is not None and muF.degree + dG > max_degree:
                break
            key = merge_union(muF, muG)
            v = acc.get(key)
            v = cF * cG if v is None else v + cF * cG
            if v:
                acc[key] = v
            elif key in acc:
                del acc[key]
    return acc


def reference_annihilate(mode, F_terms):
    """The contraction on a plain coefficient dict, in the kernel's loop order."""
    out = {}
    for mu, c in F_terms.items():
        m = mu.multiplicity(mode)
        if not m:
            continue
        key = remove_unit(mu, mode)
        v = out.get(key)
        v = m * c if v is None else v + m * c
        if v:
            out[key] = v
        elif key in out:
            del out[key]
    return out


_MODES = [M1, M2, D1, ModeIndex(2, 0)]
_monomial = st.lists(st.tuples(st.sampled_from(_MODES), st.integers(1, 3)),
                     max_size=3).map(MultiIndex)
# Few values over shared denominators, so that terms cancel and gcds reduce.
_coeff = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6]))
_operand = st.lists(st.tuples(_monomial, _coeff), max_size=6).map(dict)


def _no_fraction(*args):
    raise AssertionError("the length of a vector's terms built a Fraction")


def _as_read(terms):
    # Keys, key order and values.
    for c in terms.values():
        assert type(c) is Fraction and c.denominator > 0
        assert math.gcd(c.numerator, c.denominator) == 1
    return list(terms.items())


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_operand, _operand, st.one_of(st.none(), st.integers(0, 7)))
def test_kernels_match_fraction_reference(f, g, cap):
    f = {mu: c for mu, c in f.items() if c}
    g = {mu: c for mu, c in g.items() if c}
    F, G = FockVector(f), FockVector(g)
    for out, at in ((wick_product(F, G), None), (capped_product(F, G, cap), cap)):
        with mock.patch.object(fock, "Fraction", _no_fraction):
            sizes = len(F.terms), len(G.terms), len(out.terms)
        want = reference_wick_product(f, g, at)
        assert sizes == (len(f), len(g), len(want))
        assert _as_read(out.terms) == _as_read(want)
    assert _as_read(F.terms) == _as_read(f)
    for mode in _MODES:
        got = annihilate(mode, F)
        with mock.patch.object(fock, "Fraction", _no_fraction):
            size = len(got.terms)
        want = reference_annihilate(mode, f)
        assert size == len(want)
        assert _as_read(got.terms) == _as_read(want)


# -- the contraction engine against its FockVector-level walk --------------


def reference_star_orders(F, G, channels, caps, lowest=0):
    """The engine's walk on vectors: annihilated operands, a scaled operand
    and a reduced Wick product, truncated to its order's cap, at every node,
    added into its order's sum."""
    R = len(caps) - 1
    orders = [fock._Sum() for _ in range(R + 1)]

    def walk(aF, aG, weight, depth, last, run):
        if depth >= lowest:
            if len(aF) <= len(aG):
                product = wick_product(aF.scale(weight), aG)
            else:
                product = wick_product(aF, aG.scale(weight))
            if caps[depth] is not None:
                product = product.truncate(caps[depth])
            orders[depth].add(product)
        if depth == R:
            return
        for i in range(last, len(channels)):
            fm, gm, w = channels[i]
            bF, bG = annihilate(fm, aF), annihilate(gm, aG)
            if not (bF.is_zero() or bG.is_zero()):
                c = run + 1 if i == last else 1
                walk(bF, bG, weight * w / c, depth + 1, i, c)

    walk(F, G, Fraction(1), 0, 0, 0)
    return [orders[r].vector() for r in range(lowest, R + 1)]


def _storage(F):
    # Keys in term order, numerators and the denominator; canonical storage.
    assert F._den > 0 and math.gcd(F._den, *F._num.values()) == 1
    return list(F._num.items()), F._den


# The tables' modes at frequencies 0 and 1, M2 and D2, which only the hand
# table contracts, and a coordinate-3 mode, which no table does.
_STAR_MODES = [M0, M0.as_dual, M1, D1, M2, D2, ModeIndex(2, 0), ModeIndex(3, 0)]
_star_monomial = st.lists(st.tuples(st.sampled_from(_STAR_MODES), st.integers(1, 3)),
                          max_size=4).map(MultiIndex)
_star_operand = st.lists(st.tuples(_star_monomial, _coeff), min_size=1, max_size=6).map(
    lambda terms: FockVector({mu: c for mu, c in terms if c}))
_A = {name: DiagonalOperatorA.family(name, 1, 1) for name in ("zero", "one", "ksq")}
# Repeated modes: M1 on F in three channels, (M1, D1) twice with two weights.
HAND_CHANNELS = CHANNELS + [(M1, D1, Fraction(5, 6)), (M2, D2, Fraction(-7, 2))]
STAR_TABLES = {
    **{f"moyal_{c}": SymplecticForm(1, 1, c).channels for c in (0, 1, Fraction(7, 3))},
    **{f"deformed_{n}": A.channels for n, A in _A.items()},
    **{f"symmetric_{n}": A.symmetric_channels for n, A in _A.items()},
    "hand": HAND_CHANNELS,
}


def partners(F):
    """F with each mode traded for its primal or dual partner."""
    return FockVector({MultiIndex([(ModeIndex(m.coord, m.freq, not m.dual), n) for m, n in mu]): c
                       for mu, c in F.terms.items()})


# (caps, lowest) run on every example, besides one drawn: one cap per order 0..R.
_STAR_ARGS = [([None] * 5, 0), ([7] * 5, 2), ([12, 9, 6, 3], 1)]


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_star_operand, _star_operand, st.sampled_from(sorted(STAR_TABLES)), st.integers(0, 4),
       st.data())
def test_star_orders_match_the_vector_walk(F, G, table, R, data):
    channels = STAR_TABLES[table]
    if data.draw(st.booleans()):        # G also holds the partners of F's modes
        G = G + partners(F)
    drawn = (data.draw(st.lists(st.none() | st.integers(0, 12), min_size=R + 1, max_size=R + 1)),
             data.draw(st.integers(0, R)))
    for caps, lowest in _STAR_ARGS + [drawn]:
        got = _star_orders(F, G, channels, caps, lowest)
        want = reference_star_orders(F, G, channels, caps, lowest)
        assert len(got) == len(caps) - lowest
        assert [_storage(V) for V in got] == [_storage(V) for V in want]


def test_a_key_cancelled_in_a_product_is_added_again_at_the_end():
    # At order 1 the pair (b, a) cancels the ab of (a, b), and (ab, 1)
    # forms ab again, so it is inserted after b^2; order 0 does the same.
    a, b, m, dm = ModeIndex(2, 1), ModeIndex(2, 2), ModeIndex(1, 0), ModeIndex(1, 0, dual=True)
    F = FockVector({MultiIndex(((m, 1), (a, 1))): 1, MultiIndex(((m, 1), (b, 1))): -1,
                    MultiIndex(((m, 1), (a, 1), (b, 1))): 1})
    G = FockVector({MultiIndex.single(dm): 1, MultiIndex(((dm, 1), (a, 1))): 1,
                    MultiIndex(((dm, 1), (b, 1))): 1})
    channels = [(m, dm, Fraction(1, 3))]
    got = _star_orders(F, G, channels, [None, None])
    assert [_storage(V) for V in got] == [_storage(V) for V in
                                          reference_star_orders(F, G, channels, [None, None])]
    assert list(got[1].terms) == [MultiIndex(e) for e in (
        ((a, 1),), ((a, 2),), ((b, 1),), ((b, 2),), ((a, 1), (b, 1)), ((a, 2), (b, 1)),
        ((a, 1), (b, 2)))]


# -- the equivalence kernels against their vector-level form ---------------


def reference_contract_pairs(F, table):
    """Each row's double contraction, g's mode first, scaled and added into one sum."""
    total = fock._Sum()
    for fm, gm, w in table:
        part = annihilate(fm, annihilate(gm, F))
        if not part.is_zero():
            total.add(part.scale(w))
    return total.vector()


def _read(F):
    # Value, storage and the term order of the boundary view.
    return _storage(F), list(F.terms.items())


_pair_row = st.tuples(st.sampled_from(_STAR_MODES), st.sampled_from(_STAR_MODES), _coeff)
# alpha tables of d = 2, K = 2 with fractional and zero eigenvalues.
_alpha = st.dictionaries(st.integers(-2, 2), _coeff)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_star_operand, st.lists(_pair_row, max_size=6), st.sampled_from(_STAR_MODES), _coeff,
       _alpha)
def test_contract_pairs_matches_the_annihilation_sum(F, rows, m, w, alpha):
    F = F + partners(F)                               # F holds primal-dual pairs
    table = ChannelTable(rows + [(m, m, w)])          # one row contracts one mode twice
    assert _read(fock._contract_pairs(F, table.rows)) == _read(reference_contract_pairs(F, table))
    A = DiagonalOperatorA.from_table(alpha, 2, 2)
    want = reference_contract_pairs(F, [(p, q, -a) for p, q, a in A.pairs if a])
    assert _read(apply_T1(F, A)) == _read(want)


def test_contract_pairs_reads_a_repeated_mode_as_a_falling_factorial():
    F = mono([(M1, 3), (D1, 1)], Fraction(1, 2)) + mono([(M1, 1)], Fraction(5))
    got = fock._contract_pairs(F, ChannelTable([(M1, M1, Fraction(2, 3))]).rows)
    assert got == mono([(M1, 1), (D1, 1)], Fraction(2))     # 3 * 2 * 1/2 * 2/3


def reference_wick_exponential(gamma, N):
    """Power by power: a reduced Wick product with the generator, scaled by 1/n."""
    gen = FockVector({MultiIndex.single(mode): c for mode, c in gamma.items()})
    power = out = FockVector.unit()
    for n in range(1, N + 1):
        power = wick_product(power, gen).scale(Fraction(1, n))
        if power.is_zero():
            break
        out = out + power
    return out


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.dictionaries(st.sampled_from(_STAR_MODES), _coeff, max_size=6), st.integers(0, 6))
def test_wick_exponential_matches_the_power_by_power_sum(gamma, N):
    assert _read(wick_exponential(gamma, N)) == _read(reference_wick_exponential(gamma, N))


def test_sum_drops_a_cancelled_key_and_appends_it_again():
    # Numerators over unreduced denominators, as the walk adds them.
    total = fock._Sum()
    total.add_terms({1: 2, 2: 2}, 4)                # 1/2 each
    total.add_terms({}, 7)                          # nothing, and no new denominator
    assert total.den == 4
    total.add_terms({1: -3, 3: 3}, 6)               # cancels key 1
    assert list(total.num) == [2, 3]
    total.add(FockVector._raw({1: 1}, 3))           # key 1 again, now last
    F = total.vector()
    assert (list(F._num.items()), F._den) == ([(2, 3), (3, 3), (1, 2)], 6)


# -- packed keys: overflow, the order modes are met in, pickling -----------


def fresh_modes(n):
    """`n` modes this process has not met yet, on a coordinate no other test uses."""
    coord = 1000 + len(fock._MODES)
    return [ModeIndex(coord, k) for k in range(n)]


def test_monomial_above_the_degree_field_overflows():
    FockVector({MultiIndex(((M1, 2 ** 16 - 1),)): 1})
    with pytest.raises(OverflowError):
        FockVector({MultiIndex(((M1, 2 ** 16),)): 1})
    with pytest.raises(OverflowError):
        FockVector({MultiIndex(((M1, 2 ** 15), (M2, 2 ** 15))): 1})


def test_product_pair_above_the_degree_field_overflows_unless_capped():
    a, b = mono([(M1, 2 ** 15)]), mono([(M2, 2 ** 15)])
    with pytest.raises(OverflowError):
        wick_product(a, b)
    with pytest.raises(OverflowError):
        capped_product(a, b, 2 ** 16)               # a cap above the field forms the pair
    assert capped_product(a, b, 6).is_zero()
    assert wick_product(a, mono([(M2, 2 ** 15 - 1)])).degree() == 2 ** 16 - 1


def test_vectors_agree_across_a_newly_met_mode():
    x, y, z = fresh_modes(3)
    terms = {MultiIndex(((y, 2),)): Fraction(1, 2), MultiIndex(((x, 1), (y, 1))): Fraction(-3)}
    before = FockVector(terms)
    mono([(z, 1)])                                  # z takes the next field
    after = FockVector(dict(reversed(terms.items())))
    assert before == after
    assert serialize_fock(before) == serialize_fock(after)
    built = wick_product(FockVector({MultiIndex.single(y): 1}),
                         FockVector({MultiIndex.single(y): Fraction(1, 2),
                                     MultiIndex.single(x): -3}))
    assert built == before
    assert wick_product(before, mono([(z, 1)])) == wick_product(mono([(z, 1)]), after)


def test_key_fields_above_64_bits():
    modes = fresh_modes(6)
    FockVector({MultiIndex.single(m): 1 for m in modes})
    low, high = modes[-2:]
    assert fock._OFFSET[high] >= 64
    F = FockVector({MultiIndex(((low, 1), (high, 3))): 2, MultiIndex.single(low): 5,
                    MultiIndex(): 1})
    assert F.support_modes() == {low, high}
    assert F.degree() == 4
    assert F.truncate(3) == FockVector({MultiIndex.single(low): 5, MultiIndex(): 1})
    assert annihilate(high, F) == FockVector({MultiIndex(((low, 1), (high, 2))): 6})


UNPICKLE_CHILD = """\
import sys
sys.path.insert(0, sys.argv[1])
import pickle
from loopstar.fock import FockVector, _OFFSET, wick_product
from loopstar.modes import ModeIndex, MultiIndex
modes = [ModeIndex(*m) for m in eval(sys.argv[2])]
FockVector({MultiIndex.single(m): 1 for m in modes})      # meet them in this order
F = pickle.loads(sys.stdin.buffer.read())
print(repr(list(F.terms.items())))
print(repr(list(wick_product(F, FockVector.unit()).terms.items())))   # read through the keys
print(repr([_OFFSET[m] for m in modes]))
"""


def test_pickled_vector_reads_the_same_in_another_process():
    modes = fresh_modes(3)
    F = wick_product(FockVector({MultiIndex(((modes[0], 2),)): Fraction(3, 4),
                                 MultiIndex.single(modes[1]): -2, MultiIndex(): Fraction(1, 7)}),
                     FockVector({MultiIndex.single(modes[2]): 1, MultiIndex(): 1}))
    data = pickle.dumps(F)                          # before any read of F.terms
    assert pickle.loads(data) == F
    # The child meets the modes in the reverse order, after others of its own.
    met = [(999, 0)] + [tuple(m) for m in reversed(modes)]
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", UNPICKLE_CHILD, str(src), repr(met)],
                          input=data, capture_output=True, timeout=60, check=True)
    terms, product_terms, offsets = proc.stdout.decode().splitlines()
    assert terms == product_terms == repr(list(F.terms.items()))
    # The child packed these modes into other fields than this process did.
    assert offsets != repr([fock._OFFSET.get(ModeIndex(*m)) for m in met])


TABLE_CHILD = """\
import sys
sys.path.insert(0, sys.argv[1])
import pickle
from loopstar.fock import FockVector, _OFFSET, contract_channels
from loopstar.modes import ModeIndex, MultiIndex
modes = [ModeIndex(*m) for m in eval(sys.argv[2])]
FockVector({MultiIndex.single(m): 1 for m in modes})      # meet them in this order
table, F, G = pickle.loads(sys.stdin.buffer.read())
print(repr(list(table)))
print(repr(list(contract_channels(F, G, table, 1).terms.items())))
print(repr(table.rows == tuple((_OFFSET[f], (1 << _OFFSET[f]) + 1, _OFFSET[g], (1 << _OFFSET[g]) + 1,
                                *w.as_integer_ratio()) for f, g, w in table)))
print(repr(table.rows))
"""


def test_pickled_table_rebuilds_its_rows_in_another_process():
    modes = fresh_modes(4)
    duals = [m.as_dual for m in modes]
    table = ChannelTable([(modes[0], duals[0], Fraction(3, 2)), (duals[1], modes[1], -2),
                          (modes[2], duals[2], 0), (modes[3], modes[3], Fraction(-1, 5))])
    F = FockVector({MultiIndex(((modes[0], 2), (duals[1], 1))): Fraction(1, 3),
                    MultiIndex(((modes[3], 2),)): 1})
    G = FockVector({MultiIndex(((duals[0], 1), (modes[1], 2))): Fraction(-3, 4),
                    MultiIndex(((modes[3], 1), (modes[2], 1))): 2})
    data = pickle.dumps((table, F, G))
    copy = pickle.loads(data)[0]
    assert type(copy) is ChannelTable and copy == table and copy.rows == table.rows
    bracket = contract_channels(F, G, table, 1)
    assert not bracket.is_zero()
    met = [(999, 1)] + [tuple(m) for m in reversed(modes + duals)]
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", TABLE_CHILD, str(src), repr(met)],
                          input=data, capture_output=True, timeout=60, check=True)
    triples, terms, packed, rows = proc.stdout.decode().splitlines()
    assert triples == repr(list(table)) and len(table) == 3      # the zero weight is dropped
    assert terms == repr(list(bracket.terms.items()))
    # The child packed the rows from its own fields, which are not this process's.
    assert packed == "True" and rows != repr(table.rows)


def test_a_float_weight_anywhere_in_a_table_is_refused():
    ChannelTable([(M1, D1, Fraction(1, 2)), (M2, D2, 3)])
    for at in range(3):
        rows = [(M1, D1, Fraction(1, 2)), (M2, D2, 3), (D1, M1, -1)]
        rows[at] = rows[at][:2] + (0.5,)
        with pytest.raises(TypeError):
            ChannelTable(rows)
    with pytest.raises(TypeError):
        ChannelTable([(M1, D1, 1), (M2, D2, 0.0)])      # a float zero is refused, not dropped


def test_tables_compare_as_plain_tuples():
    A = DiagonalOperatorA.from_table({-1: 1, 0: Fraction(1, 2)}, 1, 1)
    form = SymplecticForm(1, 1, Fraction(7, 3))
    for table in (A.channels, A.symmetric_channels, A.generator, form.channels):
        assert type(table) is ChannelTable
        assert table == tuple(table) and tuple(table) == table
        assert table == ChannelTable(tuple(table)) and table.rows == ChannelTable(table).rows
    Mm1 = ModeIndex(1, -1)
    # alpha_-1 = 1 drops the (alpha - 1) channel at k = -1, and alpha_1 = 0 the
    # generator's row at k = 1.
    assert A.channels == ((Mm1, Mm1.as_dual, 2), (M0, M0.as_dual, Fraction(3, 2)),
                          (M0.as_dual, M0, Fraction(-1, 2)), (M1, D1, 1), (D1, M1, -1))
    assert A.generator == ((Mm1, Mm1.as_dual, -1), (M0, M0.as_dual, Fraction(-1, 2)))


def test_annihilating_a_mode_never_met_gives_zero_and_meets_no_mode():
    (mode,) = fresh_modes(1)
    F = mono([(M1, 2)], Fraction(3, 4)) + mono([(D1, 1)])
    assert annihilate(mode, F) == FockVector.zero()
    assert mode not in fock._OFFSET
