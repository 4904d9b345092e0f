import math
from fractions import Fraction
from itertools import combinations

import pytest

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
    with pytest.raises(ValueError):
        connes_norm_upper(F, 2, 0.0)


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
