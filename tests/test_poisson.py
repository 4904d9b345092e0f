from fractions import Fraction

import pytest

from loopstar.fock import FockVector, HbarSeries, wick_product
from loopstar.modes import LAMBDA, VACUUM, ModeIndex, MultiIndex
from loopstar.poisson import (SymplecticForm, moyal_star, poisson_bracket,
                              poisson_power, star_series)
from loopstar.suites import (bracket_pair_example_failures, chaos_compatibility_residual,
                             moyal_assoc_failures, poisson_axiom_failures,
                             power_law_failures, star_series_failures)

P1 = ModeIndex(1, 1)
D1 = ModeIndex(1, 1, dual=True)


def mono(pairs, coeff=Fraction(1)):
    return FockVector({MultiIndex(tuple(pairs)): coeff})


def test_form_constructor_guards():
    with pytest.raises(ValueError):
        SymplecticForm(1, 2, weight_c=Fraction(-1))
    with pytest.raises(TypeError):
        SymplecticForm(1, 2, weight_c=float(LAMBDA))     # refused when built, not at a product
    bad = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    with pytest.raises(ValueError):
        SymplecticForm(1, 2, omega_lower=bad)            # not antisymmetric
    singular = [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]
    with pytest.raises(ValueError):
        SymplecticForm(1, 2, omega_lower=singular)
    with pytest.raises(ValueError):
        SymplecticForm(1, 2, omega_lower=[[Fraction(0)]])  # wrong size


def test_standard_form_inverse_blocks():
    form = SymplecticForm(2, 3)
    d = 2
    for i in range(d):
        for j in range(2 * d):
            assert form.omega_upper[i][j] == (Fraction(-1) if j == d + i else Fraction(0))
            assert form.omega_upper[d + i][j] == (Fraction(1) if j == i else Fraction(0))
    assert form.weight(2) == Fraction(5)
    assert form.weight(-2) == Fraction(5)
    assert form.weight(0) == Fraction(1)


def test_unit_pairing_form():
    unit = SymplecticForm.unit_pairing(2, 3)
    assert unit.weight(3) == Fraction(1)
    d = 2
    for i in range(d):
        assert unit.omega_upper[i][d + i] == Fraction(1)
        assert unit.omega_upper[d + i][i] == Fraction(-1)


def test_mode_of_index():
    form = SymplecticForm(2, 3)
    assert form.mode_of_index(0, 2) == ModeIndex(1, 2)
    assert form.mode_of_index(1, -1) == ModeIndex(2, -1)
    assert form.mode_of_index(2, 2) == ModeIndex(1, 2, dual=True)
    assert form.mode_of_index(3, 0) == ModeIndex(2, 0, dual=True)


def _reference_channels(form):
    # The table as a fresh loop over omega_upper and mode_of_index builds it.
    out = []
    for k in range(-form.K, form.K + 1):
        w = form.weight(k)
        for i in range(2 * form.d):
            for j in range(2 * form.d):
                entry = form.omega_upper[i][j]
                if entry:
                    out.append((form.mode_of_index(i, k), form.mode_of_index(j, k), w * entry))
    return out


@pytest.mark.parametrize("d, K, weight_c", [
    *((d, K, c) for d in (1, 2) for K in (0, 3) for c in (0, 1, Fraction(3, 2), Fraction(LAMBDA))),
    (2, 3, None),       # the unit pairing
], ids=lambda v: repr(LAMBDA) if v == LAMBDA else None)    # the double 4 pi^2, held exactly
def test_channel_table_is_a_value(d, K, weight_c):
    if weight_c is None:
        form = SymplecticForm.unit_pairing(d, K)
    else:
        form = SymplecticForm(d, K, weight_c)
    table = form.channels()
    assert table is form.channels()
    assert isinstance(table, tuple)
    reference = _reference_channels(form)
    assert list(table) == reference
    assert [type(w) for _, _, w in table] == [type(w) for _, _, w in reference]
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
    assert bracket_pair_example_failures(2, 3, Fraction(1))["failures"] == 0


def test_bracket_axioms_small():
    out = poisson_axiom_failures(3, 25, 2, 2, Fraction(1))
    assert out["failures"] == 0
    assert out["nonzero"] >= 5


def test_bracket_degree_drop():
    form = SymplecticForm(1, 2)
    F = mono([(P1, 2), (D1, 1)])
    G = mono([(D1, 2)])
    got = poisson_bracket(F, G, form)
    assert not got.is_zero()
    assert all(key.degree == 3 for key in got.terms)


def test_chaos_compatibility_small():
    out = chaos_compatibility_residual(5, 10, 2, 2)
    assert out["residual"] <= 1e-10


def test_power_zero_and_one():
    form = SymplecticForm(1, 2)
    F = mono([(P1, 1), (D1, 1)])
    G = mono([(P1, 2)])
    assert poisson_power(0, F, G, form) == wick_product(F, G)
    anti = poisson_power(1, F, G, form) - poisson_power(1, G, F, form)
    assert anti == poisson_bracket(F, G, form).scale(2)
    assert poisson_power(3, F, G, form).is_zero()      # exceeds min degree
    assert power_law_failures(1, 10, 2, 2, Fraction(1))["failures"] == 0


def test_moyal_star_structure():
    form = SymplecticForm(1, 1)
    F = mono([(P1, 1)])
    G = mono([(D1, 1)])
    S = moyal_star(F, G, form, R=2)
    assert S.order == 2
    assert S.coefficient(0) == wick_product(F, G)
    assert S.coefficient(1) == FockVector.unit().scale(poisson_bracket(F, G, form).terms[VACUUM])
    assert S.coefficient(2).is_zero()


def test_moyal_associativity_small():
    assert moyal_assoc_failures(2, 5, 2, 2, Fraction(1), 3)["failures"] == 0


def test_star_series_reduction_and_assoc():
    assert star_series_failures(4, 4, 2, 2, Fraction(1), 2)["failures"] == 0


def test_star_series_respects_cap():
    form = SymplecticForm(1, 1)
    F = mono([(P1, 2)])
    S = HbarSeries.from_vector(F, 1)
    capped = star_series(S, S, form.channels(), max_degree=2)
    full = star_series(S, S, form.channels())
    assert capped.coefficient(0) == full.coefficient(0).truncate(2)
    assert capped.coefficient(1) == full.coefficient(1).truncate(2)
