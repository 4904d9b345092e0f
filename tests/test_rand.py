"""The operand draws against numpy's own `Generator` methods.

`rand._draws` calls the bit generator's C functions directly; every draw
here must give the value, and leave the state, that the scalar `Generator`
call gives.  `reference_random_fock` and `reference_random_xi` are the
scalar-call routes the draw functions replaced, kept as oracles.
"""

from fractions import Fraction

import numpy as np
import pytest

from loopstar import fock
from loopstar.fock import FockVector, _common_denominator, _encode
from loopstar.modes import ModeIndex
from loopstar.rand import _draws, instance_rng, random_fock, random_gamma, random_xi

BOUNDS = (1, 2, 5, 19, 2**31 + 1, 2**32)


def reference_random_fock(rng, d, K, max_degree, n_terms=4, dual_fraction=0.0):
    """`random_fock` through one scalar `Generator` call per draw."""
    terms = {}
    while len(terms) < n_terms:
        counts = {}
        for _ in range(int(rng.integers(0, max_degree + 1))):
            mode = ModeIndex(int(rng.integers(1, d + 1)), int(rng.integers(-K, K + 1)),
                             bool(rng.random() < dual_fraction))
            counts[mode] = counts.get(mode, 0) + 1
        num = int(rng.integers(-9, 10))
        terms[_encode(counts.items())] = Fraction(num or 1, int(rng.integers(1, 6)))
    return FockVector._raw(*_common_denominator(terms))


def reference_random_xi(rng, d, K, include_dual=False):
    """`random_xi` through one scalar `standard_normal` call per mode."""
    out = {}
    for c in range(1, d + 1):
        for k in range(-K, K + 1):
            out[ModeIndex(c, k)] = float(rng.standard_normal())
            if include_dual:
                out[ModeIndex(c, k, dual=True)] = float(rng.standard_normal())
    return out


def pair(seed, label="draws"):
    return instance_rng(seed, label), instance_rng(seed, label)


def same_state(a, b):
    return repr(a.bit_generator.state) == repr(b.bit_generator.state)


@pytest.mark.parametrize("n", BOUNDS)
def test_below_is_integers(n):
    # 2**31 + 1 rejects about half its first draws, so the redraw loop runs.
    ours, theirs = pair(n)
    below, _ = _draws(ours)
    assert [below(n) for _ in range(400)] == [int(theirs.integers(0, n)) for _ in range(400)]
    assert same_state(ours, theirs)


@pytest.mark.parametrize("seed", range(5))
def test_draws_interleave_with_generator_calls(seed):
    """`below` and `uniform` mixed with the generator's own calls, across the buffered half-word."""
    ours, theirs = pair(seed)
    below, uniform = _draws(ours)
    script = np.random.default_rng(seed)
    for _ in range(600):
        n = int(script.choice(BOUNDS))
        step = int(script.integers(0, 4))
        if step == 0:
            assert below(n) == int(theirs.integers(0, n))
        elif step == 1:
            assert uniform() == theirs.random()
        elif step == 2:
            assert int(ours.integers(0, n)) == int(theirs.integers(0, n))
        else:
            assert ours.random() == theirs.random()
    assert same_state(ours, theirs)


@pytest.mark.parametrize("args", [(2, 3, 5, 4, 0.3), (2, 3, 4, 4, 0.0), (1, 2, 3, 5, 0.5),
                                  (2, 2, 2, 2, 1.0), (3, 1, 1, 2, 0.5), (2, 3, 4, 1, 0.3)])
def test_random_fock_matches_reference(args):
    d, K, max_degree, n_terms, dual_fraction = args
    for seed in [*range(60), 2**63 + 1, 2**64 - 1]:
        ours, theirs = pair(seed, "fock")
        for _ in range(3):
            F = random_fock(ours, d, K, max_degree, n_terms=n_terms, dual_fraction=dual_fraction)
            G = reference_random_fock(theirs, d, K, max_degree, n_terms=n_terms,
                                      dual_fraction=dual_fraction)
            assert list(F._num.items()) == list(G._num.items()) and F._den == G._den
        assert same_state(ours, theirs)


def test_random_fock_packs_fresh_modes_in_draw_order():
    # Seed 115 draws one term of three modes on coordinates above 2000, which
    # no other test meets, in descending ModeIndex order: their fields are
    # assigned in draw order, against ModeIndex order, as the reference's are.
    args = (5000, 1, 3, 1, 0.5)
    ours, theirs = pair(115, "fresh")
    met = len(fock._MODES)
    F = random_fock(ours, *args)
    fresh = fock._MODES[met:]
    assert len(fresh) == 3 and fresh == sorted(fresh, reverse=True)
    assert F.support_modes() == set(fresh)
    G = reference_random_fock(theirs, *args)
    assert list(F._num.items()) == list(G._num.items()) and F._den == G._den
    assert same_state(ours, theirs)


def test_random_fock_encodes_no_monomial(monkeypatch):
    want = [reference_random_fock(instance_rng(seed, "fock"), 2, 3, 4, dual_fraction=0.3)
            for seed in range(5)]

    def no_encode(entries):
        raise AssertionError("a monomial was encoded")
    monkeypatch.setattr(fock, "_encode", no_encode)
    for seed, G in enumerate(want):
        F = random_fock(instance_rng(seed, "fock"), 2, 3, 4, dual_fraction=0.3)
        assert list(F._num.items()) == list(G._num.items()) and F._den == G._den


@pytest.mark.parametrize("include_dual", [False, True])
def test_random_xi_block_matches_scalar_draws(include_dual):
    for seed in range(40):
        ours, theirs = pair(seed, "xi")
        xi = random_xi(ours, 2, 3, include_dual)
        assert list(xi.items()) == list(reference_random_xi(theirs, 2, 3, include_dual).items())
        assert same_state(ours, theirs)


def test_random_fock_refuses_more_terms_than_monomials():
    # One coordinate at K = 0 and degree 0 has only the vacuum: 4 terms never come.
    rng = instance_rng(0, "refuse")
    before = repr(rng.bit_generator.state)
    with pytest.raises(ValueError, match="distinct monomials"):
        random_fock(rng, 1, 0, 0)
    assert repr(rng.bit_generator.state) == before


def test_random_fock_refuses_zero_terms_and_no_modes():
    rng = instance_rng(0, "refuse")
    before = repr(rng.bit_generator.state)
    with pytest.raises(ValueError, match="distinct monomials"):
        random_fock(rng, 2, 3, 4, n_terms=0)
    with pytest.raises(ValueError, match="no mode"):
        random_fock(rng, 0, 3, 4, n_terms=1)
    assert repr(rng.bit_generator.state) == before


def test_random_fock_counts_both_dualities_only_inside_the_unit_interval():
    # d = 1, K = 0, degree <= 1: {vacuum, e} at dual_fraction 0 or 1, {vacuum, e, e*} between.
    rng = instance_rng(0, "dualities")
    assert len(random_fock(rng, 1, 0, 1, n_terms=3, dual_fraction=0.5)._num) == 3
    for dual_fraction in (0.0, 1.0):
        assert len(random_fock(rng, 1, 0, 1, n_terms=2, dual_fraction=dual_fraction)._num) == 2
        with pytest.raises(ValueError, match="distinct monomials"):
            random_fock(rng, 1, 0, 1, n_terms=3, dual_fraction=dual_fraction)


def test_random_gamma_refuses_more_modes_than_exist():
    # d = 1, K = 1 has 3 modes of each duality.
    assert len(random_gamma(instance_rng(0, "gamma"), 1, 1, 3, dual=True)) == 3
    rng = instance_rng(0, "refuse")
    before = repr(rng.bit_generator.state)
    with pytest.raises(ValueError, match="distinct modes"):
        random_gamma(rng, 1, 1, 4, dual=False)
    assert repr(rng.bit_generator.state) == before
