import math
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopstar import fock
from loopstar.equivalence import DiagonalOperatorA, _shifted_pairing, exp_product_formula_rhs
from loopstar.fock import (FockVector, HbarSeries, _star_orders, annihilate, annihilate_general,
                           contract_channels, wick_exponential, wick_product)
from loopstar.modes import VACUUM, ModeIndex, MultiIndex

M0 = ModeIndex(1, 0)
M1 = ModeIndex(1, 1)
M2 = ModeIndex(1, 2)
D1 = ModeIndex(1, 1, dual=True)
ONE_A = DiagonalOperatorA.family("one", 1, 1)


def mono(pairs, coeff=Fraction(1)):
    return FockVector({MultiIndex(tuple(pairs)): coeff})


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
    lambda x: _star_orders(mono([(M1, 1)]), mono([(D1, 1)]), [(M1, D1, x)], 1),
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
    capped = wick_product(a, b, max_degree=3)
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
    orders = _star_orders(F, G, CHANNELS, 3)
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
    assert wick_product(phi, phi, max_degree=2) == square.truncate(2)
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


def reference_wick_product(F_terms, G_terms, max_degree):
    """The product on plain coefficient dicts, in the kernel's loop order."""
    acc = {}
    gitems = sorted(((mu.degree, mu, c) for mu, c in G_terms.items()), key=lambda t: t[0])
    for muF, cF in F_terms.items():
        for dG, muG, cG in gitems:
            if max_degree is not None and muF.degree + dG > max_degree:
                break
            key = muF.union(muG)
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
        key = mu.remove(mode)
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
    out = wick_product(F, G, cap)
    with mock.patch.object(fock, "Fraction", _no_fraction):
        sizes = len(F.terms), len(G.terms), len(out.terms)
    want = reference_wick_product(f, g, cap)
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
