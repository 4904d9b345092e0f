import math
from fractions import Fraction
from itertools import product

import pytest

from loopstar.fock import (FLOAT, RATIONAL, FockVector, HbarSeries, _star_orders, annihilate,
                           annihilate_general, contract_channels, wick_exponential,
                           wick_product)
from loopstar.modes import VACUUM, ModeIndex, MultiIndex

M1 = ModeIndex(1, 1)
M2 = ModeIndex(1, 2)
D1 = ModeIndex(1, 1, dual=True)


def mono(pairs, coeff=Fraction(1)):
    return FockVector({MultiIndex(tuple(pairs)): coeff})


def test_constructor_validates_and_caps():
    with pytest.raises(TypeError):
        FockVector({MultiIndex.single(M1): 0.5})          # float into rational mode
    capped = FockVector({MultiIndex(((M1, 3),)): Fraction(1),
                         MultiIndex.single(M2): Fraction(2)}).truncate(2)
    assert capped.degree() == 1
    assert len(capped) == 1


def test_zero_unit_monomial():
    assert FockVector.zero().is_zero()
    assert FockVector.unit().terms[VACUUM] == Fraction(1)
    m = FockVector({MultiIndex.single(M1): Fraction(2, 3)})
    assert m.degree() == 1
    assert not m.is_zero()


def test_equality_ignores_cap_but_not_scalar_mode():
    a = FockVector({MultiIndex.single(M1): Fraction(1)})
    b = a.truncate(7)
    assert a == b
    assert a != a.to_float()
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
# mode.  Weights are 3 times a power of two, so w^3 / 3! stays dyadic.
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
    total = FockVector.zero(F.scalar_mode)
    for tup in product(channels, repeat=r):
        aF, aG, weight = F, G, Fraction(1)
        for fm, gm, w in tup:
            aF, aG, weight = annihilate(fm, aF), annihilate(gm, aG), weight * w
        total = total + wick_product(aF, aG).scale(weight)
    return total


@pytest.mark.parametrize("scalar_mode", [RATIONAL, FLOAT])
def test_contract_channels_matches_ordered_tuples(scalar_mode):
    F, G = ENGINE_F, ENGINE_G
    if scalar_mode == FLOAT:
        F, G = F.to_float(), G.to_float()     # dyadic values: float sums stay exact
    orders = _star_orders(F, G, CHANNELS, 3)
    for r in range(4):
        want = ordered_tuple_contraction(F, G, CHANNELS, r)
        assert not want.is_zero()
        assert contract_channels(F, G, CHANNELS, r) == want
        assert orders[r].scale(math.factorial(r)) == want


def test_wick_exponential_coefficients_and_validation():
    gamma = {M1: Fraction(1, 2)}
    phi = wick_exponential(gamma, {}, 4)
    for n in range(5):
        key = MultiIndex(((M1, n),)) if n else MultiIndex()
        assert phi.terms.get(key, Fraction(0)) == Fraction(1, 2) ** n / math.factorial(n)
    with pytest.raises(ValueError):
        wick_exponential({D1: Fraction(1)}, {}, 3)      # dual key on the primal side
    with pytest.raises(ValueError):
        wick_exponential({}, {M1: Fraction(1)}, 3)      # primal key on the dual side


def test_exponential_carries_no_cap_into_products():
    # The cap of wick_exponential bounds its own terms; a later product is
    # capped only by its own argument.
    phi = wick_exponential({M1: Fraction(1, 2)}, {D1: Fraction(3)}, 2)
    square = wick_product(phi, phi)
    assert phi.degree() == 2 and square.degree() == 4
    assert wick_product(phi, phi, max_degree=2) == square.truncate(2)
    assert square.truncate(2) != square


def test_wick_exponential_two_modes_cross_terms():
    gamma = {M1: Fraction(1), M2: Fraction(2)}
    phi = wick_exponential(gamma, {}, 2)
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
