from fractions import Fraction

import pytest

from loopstar.fock import FockVector, HbarSeries, wick_product
from loopstar.modes import LAMBDA, VACUUM, ModeIndex, MultiIndex
from loopstar.poisson import (SymplecticForm, moyal_star, poisson_bracket,
                              poisson_power, star_series)
from loopstar.suites import (bracket_pair_example_failures, chaos_compatibility_residual,
                             poisson_axiom_failures, power_law_failures,
                             star_assoc_failures, star_series_failures)

P1 = ModeIndex(1, 1)
D1 = ModeIndex(1, 1, dual=True)


def mono(pairs, coeff=Fraction(1)):
    return FockVector({MultiIndex(tuple(pairs)): coeff})


def test_form_constructor_guards():
    with pytest.raises(ValueError):
        SymplecticForm(1, 2, weight_c=Fraction(-1))
    with pytest.raises(TypeError):
        SymplecticForm(1, 2, weight_c=float(LAMBDA))     # refused when built, not at a product


def test_form_weights():
    form = SymplecticForm(2, 3, 1)
    assert form.weight(2) == Fraction(5)
    assert form.weight(-2) == Fraction(5)
    assert form.weight(0) == Fraction(1)


def test_unit_pairing_form():
    assert SymplecticForm.unit_pairing(2, 3).weight(3) == Fraction(1)


P0, D0 = ModeIndex(1, 0), ModeIndex(1, 0, dual=True)
Q0, E0 = ModeIndex(2, 0), ModeIndex(2, 0, dual=True)
PM, DM = ModeIndex(1, -1), ModeIndex(1, -1, dual=True)

# Tables written out by hand: at each frequency, the primal-first channels
# of every coordinate, then the dual-first ones; the bracket weighs
# primal-first by -(weight_c k^2 + 1), the unit pairing by +1.
HAND_TABLES = {
    "d1-K1-c3/2": ((1, 1, Fraction(3, 2)), (
        (PM, DM, Fraction(-5, 2)), (DM, PM, Fraction(5, 2)),
        (P0, D0, Fraction(-1)), (D0, P0, Fraction(1)),
        (P1, D1, Fraction(-5, 2)), (D1, P1, Fraction(5, 2)))),
    "d2-K0": ((2, 0, Fraction(1)), (
        (P0, D0, Fraction(-1)), (Q0, E0, Fraction(-1)),
        (D0, P0, Fraction(1)), (E0, Q0, Fraction(1)))),
    "unit-d1-K1": ((1, 1, None), (
        (PM, DM, Fraction(1)), (DM, PM, Fraction(-1)),
        (P0, D0, Fraction(1)), (D0, P0, Fraction(-1)),
        (P1, D1, Fraction(1)), (D1, P1, Fraction(-1)))),
}


def _form(d, K, weight_c):
    return SymplecticForm.unit_pairing(d, K) if weight_c is None else SymplecticForm(d, K, weight_c)


@pytest.mark.parametrize("name", HAND_TABLES)
def test_channel_table_by_hand(name):
    (d, K, weight_c), expected = HAND_TABLES[name]
    table = _form(d, K, weight_c).channels
    assert table == expected
    assert all(type(w) is Fraction for _, _, w in table)


@pytest.mark.parametrize("d, K, weight_c", [
    *((d, K, c) for d in (1, 2) for K in (0, 3) for c in (0, 1, Fraction(3, 2), Fraction(LAMBDA))),
    (2, 3, None),       # the unit pairing
], ids=lambda v: repr(LAMBDA) if v == LAMBDA else None)    # the double 4 pi^2, held exactly
def test_channel_table_is_a_value(d, K, weight_c):
    form = _form(d, K, weight_c)
    table = form.channels
    assert isinstance(table, tuple)
    assert all(type(w) is Fraction for _, _, w in table)
    assert len(table) == 2 * form.d * (2 * form.K + 1)


def test_bracket_on_matched_pair():
    form = SymplecticForm(1, 2, weight_c=Fraction(3))
    F = mono([(P1, 1)])
    G = mono([(D1, 1)])
    assert poisson_bracket(F, G, form) == FockVector.unit().scale(Fraction(-4))  # -(3*1+1)
    assert poisson_bracket(G, F, form) == FockVector.unit().scale(Fraction(4))
    assert poisson_bracket(F, F, form).is_zero()
    # primal-only pairs commute
    other = mono([(ModeIndex(1, 2), 1)])
    assert poisson_bracket(F, other, form).is_zero()


def test_bracket_examples_all_frequencies():
    assert bracket_pair_example_failures(SymplecticForm(2, 3, 1))["failures"] == 0


def test_bracket_axioms_small():
    out = poisson_axiom_failures(3, 25, SymplecticForm(2, 2, 1))
    assert out["failures"] == 0
    assert out["nonzero"] >= 5


def test_bracket_degree_drop():
    form = SymplecticForm(1, 2, 1)
    F = mono([(P1, 2), (D1, 1)])
    G = mono([(D1, 2)])
    got = poisson_bracket(F, G, form)
    assert not got.is_zero()
    assert all(key.degree == 3 for key in got.terms)


def test_chaos_compatibility_small():
    out = chaos_compatibility_residual(5, 10, 2, 2)
    assert out["residual"] <= 1e-10


def test_power_zero_and_one():
    form = SymplecticForm(1, 2, 1)
    F = mono([(P1, 1), (D1, 1)])
    G = mono([(P1, 2)])
    assert poisson_power(0, F, G, form) == wick_product(F, G)
    anti = poisson_power(1, F, G, form) - poisson_power(1, G, F, form)
    assert anti == poisson_bracket(F, G, form).scale(2)
    assert poisson_power(3, F, G, form).is_zero()      # exceeds min degree
    assert power_law_failures(1, 10, SymplecticForm(2, 2, 1))["failures"] == 0


def test_moyal_star_structure():
    form = SymplecticForm(1, 1, 1)
    F = mono([(P1, 1)])
    G = mono([(D1, 1)])
    S = moyal_star(F, G, form, R=2)
    assert S.order == 2
    assert S.coefficient(0) == wick_product(F, G)
    assert S.coefficient(1) == FockVector.unit().scale(poisson_bracket(F, G, form).terms[VACUUM])
    assert S.coefficient(2).is_zero()


def test_moyal_associativity_small():
    form = SymplecticForm(2, 2, 1)
    assert star_assoc_failures(2, "moyal-assoc", 5, form.channels, 2, 2, 3)["failures"] == 0


def test_star_series_reduction_and_assoc():
    assert star_series_failures(4, 4, SymplecticForm(2, 2, 1), 2)["failures"] == 0


def test_star_series_respects_cap():
    form = SymplecticForm(1, 1, 1)
    F = mono([(P1, 2)])
    S = HbarSeries.from_vector(F, 1)
    capped = star_series(S, S, form.channels, max_degree=2)
    full = star_series(S, S, form.channels)
    assert capped.coefficient(0) == full.coefficient(0).truncate(2)
    assert capped.coefficient(1) == full.coefficient(1).truncate(2)
