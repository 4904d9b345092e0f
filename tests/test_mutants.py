"""Semantic mutants of the engine must be caught by the exact checks.

Each mutant is monkeypatched into every module binding the suites reach
it through, and the one suite it needs runs on the light config of
`test_suites.py`.  A mutant that no exact check notices would show that
the failure counting no longer counts (DeMillo, Lipton & Sayward, *Hints
on test data selection*, Computer 1978).
"""

import pytest

import loopstar.equivalence as equivalence
import loopstar.fock as fock
import loopstar.poisson as poisson
import loopstar.suites as suites
from loopstar.config import parse_config
from test_suites import LIGHT_DOC


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
    return lambda gamma, A, shift: original(gamma, A, -shift)


MUTANTS = {
    "apply_T1 negated": (_negated_T1, "apply_T1", (equivalence, suites),
                         ("intertwine.poly", "intertwine.exp")),
    "star order 2 doubled": (_doubled_order_2, "_star_orders",
                             (fock, poisson, equivalence, suites),
                             ("star.associative", "intertwine.poly", "product.formula")),
    "(alpha - 1) channel sign flipped": (_flipped_dual_first_sign, "deformed_channels",
                                         (equivalence,),
                                         ("cochain.displays", "star.zero_is_moyal")),
    "(A + I) and (A - I) swapped": (_swapped_shifts, "_rescaled", (equivalence,),
                                    ("product.formula",)),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_exact_checks_catch_mutant(name, monkeypatch):
    make, attr, modules, catchers = MUTANTS[name]
    mutant = make(getattr(modules[0], attr))
    for module in modules:
        monkeypatch.setattr(module, attr, mutant)
    records = suites.run_checks("equivalence", parse_config(LIGHT_DOC))
    failures = {r.check_id: r.residual for r in records if r.precision is None}
    assert set(catchers) <= set(failures)
    assert all(failures[c] > 0 for c in catchers), failures
