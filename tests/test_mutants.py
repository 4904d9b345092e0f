"""Semantic mutants of the engine must be caught by the exact checks.

Each mutant is monkeypatched into every module or class binding the
suites reach it through, and the suite its entry names runs on the light
config of `test_suites.py`.  A mutant that no exact check notices would
show that the failure counting no longer counts (DeMillo, Lipton &
Sayward, *Hints on test data selection*, Computer 1978).
"""

import pytest

import loopstar.equivalence as equivalence
import loopstar.fock as fock
import loopstar.poisson as poisson
import loopstar.suites as suites
from loopstar.config import parse_config
from test_suites import LIGHT_DOC, _assert_no_child_left, _counting_forks


def _negated_T1(original):
    return lambda F, A: original(F, A).scale(-1)


def _doubled_order_2(original):
    def orders(F, G, channels, R, max_degree=None, lowest=0, order_caps=None):
        out = original(F, G, channels, R, max_degree, lowest, order_caps)
        if lowest <= 2 <= R:
            out[2 - lowest] = out[2 - lowest].scale(2)
        return out
    return orders


def _flipped_dual_first_sign(original):
    # The (alpha - 1) channels run dual-first; flip the sign of their weight.
    # `A.channels` calls the module's builder, so patching `equivalence` alone
    # reaches every deformed product.
    def channels(A):
        return tuple((fm, gm, -w if fm.dual else w) for fm, gm, w in original(A))
    return channels


def _swapped_shifts(original):
    # (A + I) on the first pairing and (A - I) on the second trade places.
    return lambda gamma, other, A, shift: original(gamma, other, A, -shift)


def _negated(table):
    return tuple((fm, gm, -w) for fm, gm, w in table)


def _negated_form_weights(original):
    # Every form's table with each weight negated.  A form writes its
    # orientation out by hand, so an exact check must pin it.
    return lambda form: _negated(original(form))


def _negated_unit_pairing(original):
    # Only the unit pairing negated: it takes the bracket's orientation.
    def unit_pairing(d, K):
        form = original(d, K)
        form._channels = _negated(form._channels)
        return form
    return staticmethod(unit_pairing)


# name -> (mutant factory, patched attribute, its bindings, suite run, exact checks that catch it)
MUTANTS = {
    "apply_T1 negated": (_negated_T1, "apply_T1", (equivalence, suites), "equivalence",
                         ("intertwine.poly", "intertwine.exp")),
    "star order 2 doubled": (_doubled_order_2, "_star_orders",
                             (fock, poisson, equivalence, suites), "equivalence",
                             ("star.associative", "intertwine.poly", "product.formula")),
    "(alpha - 1) channel sign flipped": (_flipped_dual_first_sign, "deformed_channels",
                                         (equivalence,), "equivalence",
                                         ("cochain.displays", "star.zero_is_moyal")),
    "(A + I) and (A - I) swapped": (_swapped_shifts, "_shifted_pairing", (equivalence,),
                                    "equivalence", ("product.formula",)),
    "every form weight negated": (_negated_form_weights, "channels",
                                  (poisson.SymplecticForm,), "poisson", ("bracket.pairs",)),
    "unit pairing negated": (_negated_unit_pairing, "unit_pairing", (poisson.SymplecticForm,),
                             "equivalence", ("cochain.displays", "star.zero_is_moyal",
                                             "intertwine.poly", "intertwine.exp")),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_exact_checks_catch_mutant(name, monkeypatch):
    make, attr, modules, suite, catchers = MUTANTS[name]
    mutant = make(getattr(modules[0], attr))
    for module in modules:
        monkeypatch.setattr(module, attr, mutant)
    records = suites.run_checks(suite, parse_config(LIGHT_DOC))
    failures = {r.check_id: r.residual for r in records if r.precision is None}
    assert set(catchers) <= set(failures)
    assert all(failures[c] > 0 for c in catchers), failures


def test_mutant_patched_here_is_caught_in_a_forked_child(monkeypatch):
    """A mutant patched in this process reaches the copy of the engine a child runs."""
    make, attr, modules, suite, catchers = MUTANTS["every form weight negated"]
    ids = [group[0].id for group in suites._groups(suites.CHECKS[suite])]
    # On two processes group k runs in process k mod 2; process 1 is the child.
    assert all(ids.index(c) % 2 == 1 for c in catchers)
    mutant = make(getattr(modules[0], attr))
    for module in modules:
        monkeypatch.setattr(module, attr, mutant)
    forks = _counting_forks(monkeypatch)
    records = suites.run_checks(suite, parse_config(LIGHT_DOC), 2)
    _assert_no_child_left()
    assert len(forks) == 1
    failures = {r.check_id: r.residual for r in records if r.precision is None}
    assert all(failures[c] > 0 for c in catchers), failures
