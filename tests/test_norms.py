import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopstar import fock
from loopstar.fock import FockVector, wick_product
from loopstar.modes import ModeIndex, MultiIndex, norm_const
from loopstar.norms import connes_norm_upper, partition_block_count, slot_envelope
from loopstar.rand import instance_rng, random_fock

TWO_PI = 2.0 * math.pi


def brute_partition_blocks(n: int, k: int) -> int:
    """Sum over ORDERED set partitions of {1..n} of (k+1)^{number of blocks}.

    Enumerates unordered partitions by fixing the block of the smallest
    remaining element, then weights each by l! (k+1)^l for its l blocks.
    """
    def partitions(elems):
        if not elems:
            yield []
            return
        first, rest = elems[0], elems[1:]
        for r in range(0, len(rest) + 1):
            for extra in combinations(rest, r):
                left = tuple(x for x in rest if x not in extra)
                for tail in partitions(left):
                    yield [(first,) + extra] + tail

    return sum(math.factorial(len(p)) * (k + 1) ** len(p)
               for p in partitions(tuple(range(n))))


@pytest.mark.parametrize("n", range(0, 7))
@pytest.mark.parametrize("k", [0, 1, 3])
def test_partition_block_count_against_brute_force(n, k):
    assert partition_block_count(n, k) == brute_partition_blocks(n, k)


def test_slot_envelope_values():
    assert slot_envelope(0, 3) == 1.0
    # Bit for bit the largest envelope over the derivative orders 0..k.
    for f in range(1, 1001):
        for k in range(12):
            want = max(norm_const(f) * (TWO_PI * f) ** o for o in range(k + 1))
            assert slot_envelope(f, k) == want == slot_envelope(-f, k), (f, k)


def test_norm_upper_single_monomial_closed_form():
    m1, m2 = ModeIndex(1, 1), ModeIndex(2, -2, dual=True)
    F = FockVector({MultiIndex(((m1, 2), (m2, 1))): Fraction(-3, 2)})
    k, C = 2, 1.5
    want = 1.5 * C ** 3 * partition_block_count(3, k) \
        * slot_envelope(1, k) ** 2 * slot_envelope(-2, k)
    assert connes_norm_upper(F, k, C) == pytest.approx(want)


def test_norm_upper_unit_and_errors():
    assert connes_norm_upper(FockVector.unit(), 4, 2.0) == 1.0
    assert connes_norm_upper(FockVector.zero(), 4, 2.0) == 0.0
    F = FockVector({MultiIndex.single(ModeIndex(1, 1)): Fraction(1)})
    with pytest.raises(ValueError):
        connes_norm_upper(F, -1, 1.0)
    for C in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            connes_norm_upper(F, 2, C)
    # A float k is refused, also where an equal int k is already cached.
    assert connes_norm_upper(F, 2, 1.0) > 0 and partition_block_count(2, 2) == 21
    for k in (1.5, 2.0):
        with pytest.raises(TypeError, match="must be an int"):
            connes_norm_upper(F, k, 1.0)
        with pytest.raises(TypeError, match="must be an int"):
            partition_block_count(2, k)
        with pytest.raises(TypeError, match="must be an int"):
            slot_envelope(1, k)


def test_norm_upper_triangle_inequality():
    rng = instance_rng(7, "norm-triangle")
    for _ in range(20):
        F = random_fock(rng, 2, 3, 4, dual_fraction=0.3)
        G = random_fock(rng, 2, 3, 4, dual_fraction=0.3)
        lhs = connes_norm_upper(F + G, 2, 1.0)
        rhs = connes_norm_upper(F, 2, 1.0) + connes_norm_upper(G, 2, 1.0)
        assert lhs <= rhs * (1 + 1e-12)


def test_norm_upper_dominates_product_at_larger_constants():
    rng = instance_rng(11, "norm-prod")
    for _ in range(10):
        F = random_fock(rng, 2, 2, 3, dual_fraction=0.3)
        G = random_fock(rng, 2, 2, 3, dual_fraction=0.3)
        lhs = connes_norm_upper(wick_product(F, G), 1, 1.0)
        rhs = connes_norm_upper(F, 4, 4.0) * connes_norm_upper(G, 4, 4.0)
        assert lhs <= rhs * (1 + 1e-12)


def _terms_norm(F, k, C):
    """The bound through the decoded `.terms` view: the loop the packed read replaced."""
    total = 0.0
    for mu, c in F.terms.items():
        n = mu.degree
        bound = float(abs(c)) * C ** n * partition_block_count(n, k)
        for mode, mult in mu:
            bound *= slot_envelope(mode.freq, k) ** mult
        total += bound
    return total


# Modes no other test builds, met first here in descending order, so that
# their packed fields run against ModeIndex order.
_FRESH = [ModeIndex(8, 800 + j, dual) for j in (-1, 0, 1) for dual in (False, True)]
FockVector({MultiIndex.single(mode): 1 for mode in reversed(_FRESH)})
_NORM_MODES = [ModeIndex(1, 0), ModeIndex(1, 1), ModeIndex(1, 1, True),
               ModeIndex(2, -2), ModeIndex(2, 0, True)] + _FRESH
_monomial = st.lists(st.tuples(st.sampled_from(_NORM_MODES), st.integers(1, 3)),
                     max_size=4).map(MultiIndex)
_coeff = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 7, 10]))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.lists(st.tuples(_monomial, _coeff), max_size=6).map(dict), st.integers(0, 5),
       st.sampled_from([0.1, 0.5, 1, 1.0, 1.5, 2, 4.0, 7.25]))
def test_norm_upper_matches_the_terms_loop(terms, k, C):
    F = FockVector(terms)
    assert connes_norm_upper(F, k, C) == _terms_norm(F, k, C)


def test_norm_upper_decodes_no_key(monkeypatch):
    F = FockVector({MultiIndex(((_FRESH[0], 2), (_FRESH[5], 1))): Fraction(-3, 7),
                    MultiIndex.single(ModeIndex(1, 1)): Fraction(1, 2)})
    want = _terms_norm(FockVector._raw(F._num, F._den), 3, 1.5)

    def no_decode(key):
        raise AssertionError("a packed key was decoded")
    monkeypatch.setattr(fock, "_decode", no_decode)
    assert connes_norm_upper(F, 3, 1.5) == want
    assert F._terms is None
