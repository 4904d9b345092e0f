"""Semantic mutants of the engine must be caught by the exact checks.

Each mutant is monkeypatched into every module or class binding the
suites reach it through, and the suite its entry names runs on the light
config of `test_suites.py`.  A mutant that no exact check notices would
show that the failure counting no longer counts (DeMillo, Lipton &
Sayward, *Hints on test data selection*, Computer 1978).
"""

import math

import pytest

import loopstar.chaos as chaos
import loopstar.equivalence as equivalence
import loopstar.fock as fock
import loopstar.poisson as poisson
import loopstar.suites as suites
from loopstar.config import parse_config
from loopstar.fock import FockVector
from loopstar.modes import ModeIndex
from test_suites import LIGHT_DOC


def _negated_T1(original):
    return lambda F, A: original(F, A).scale(-1)


def _doubled_order_2(original):
    def orders(F, G, channels, caps, lowest=0):
        out = original(F, G, channels, caps, lowest)
        if lowest <= 2 < len(caps):
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


def _exponential_without_factorials(original):
    # Power n of the generator enters with weight 1, not 1/n!.
    def wick_exponential(gamma, N):
        phi = original(gamma, N)
        return FockVector({mu: c * math.factorial(mu.degree) for mu, c in phi.terms.items()})
    return wick_exponential


def _swapped_shifts(original):
    # (A + I) on the first pairing and (A - I) on the second trade places.
    return lambda gamma, other, A, shift: original(gamma, other, A, -shift)


def _negated(table):
    return tuple((fm, gm, -w) for fm, gm, w in table)


def _negated_form_weights(original):
    # Every form built with each weight of its table negated.  A form writes
    # its orientation out by hand, so an exact check must pin it.
    def init(form, *args, **kwargs):
        original(form, *args, **kwargs)
        form.channels = _negated(form.channels)
    return init


def _negated_unit_pairing(original):
    # Only the unit pairing negated: it takes the bracket's orientation.
    def unit_pairing(d, K):
        form = original(d, K)
        form.channels = _negated(form.channels)
        return form
    return staticmethod(unit_pairing)


def _mirrored_quadrature(original):
    # Each mode reads its pairing off the row of its negated frequency, so
    # cosine and sine profiles trade places in every quadrature evaluation.
    def quadrature_map(sample, K):
        qmap = original(sample, K)
        return {mode: qmap[ModeIndex(mode.coord, -mode.freq)] for mode in qmap}
    return quadrature_map


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
    "Wick exponential without its 1/n!": (_exponential_without_factorials, "wick_exponential",
                                          (fock, equivalence, suites), "equivalence",
                                          ("product.formula",)),
    "(A + I) and (A - I) swapped": (_swapped_shifts, "_shifted_pairing", (equivalence,),
                                    "equivalence", ("product.formula",)),
    "every form weight negated": (_negated_form_weights, "__init__",
                                  (poisson.SymplecticForm,), "poisson", ("bracket.pairs",)),
    "unit pairing negated": (_negated_unit_pairing, "unit_pairing", (poisson.SymplecticForm,),
                             "equivalence", ("cochain.displays", "star.zero_is_moyal",
                                             "intertwine.poly", "intertwine.exp")),
    "quadrature rows mirrored": (_mirrored_quadrature, "quadrature_map", (chaos, suites),
                                 "chaos", ("quadrature.order",)),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_exact_checks_catch_mutant(name, monkeypatch):
    make, attr, modules, suite, catchers = MUTANTS[name]
    mutant = make(getattr(modules[0], attr))
    for module in modules:
        monkeypatch.setattr(module, attr, mutant)
    records = suites.run_checks(suite, parse_config(LIGHT_DOC))
    exact = {check.id for check in suites.CHECKS[suite] if isinstance(check.gate, suites.Exact)}
    failures = {r.check_id: r.residual for r in records if r.check_id in exact}
    assert set(catchers) <= set(failures)
    assert all(failures[c] > 0 for c in catchers), failures
