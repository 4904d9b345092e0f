import math
from fractions import Fraction

import pytest

from loopstar import equivalence, suites
from loopstar.equivalence import (FAMILIES, DiagonalOperatorA, _shifted_pairing, apply_T,
                                  apply_T1, cA1, deformed_channels, exp_product_formula_rhs,
                                  star_A)
from loopstar.fock import FockVector, HbarSeries, _star_orders, annihilate, wick_exponential
from loopstar.modes import ModeIndex, MultiIndex
from loopstar.poisson import SymplecticForm, poisson_bracket, star_series
from loopstar.rand import instance_rng, random_fock, random_gamma
from loopstar.suites import (ea_cochain_failures, intertwining_failures,
                             normal_one_sided_failures, product_formula_failures,
                             star_A_assoc_failures, transform_basics_failures,
                             zero_is_moyal_failures)

P1 = ModeIndex(1, 1)
D1 = ModeIndex(1, 1, dual=True)


def mono(pairs, coeff=Fraction(1)):
    return FockVector({MultiIndex(tuple(pairs)): coeff})


def test_operator_families():
    K = 3
    zero = DiagonalOperatorA.family("zero", 1, K)
    one = DiagonalOperatorA.family("one", 1, K)
    ksq = DiagonalOperatorA.family("ksq", 1, K)
    assert all(zero.alpha_of(k) == 0 for k in range(-K, K + 1))
    assert all(one.alpha_of(k) == 1 for k in range(-K, K + 1))
    assert ksq.alpha_of(0) == 0 and ksq.alpha_of(-2) == 4
    assert ksq.negated().alpha_of(2) == -4
    with pytest.raises(ValueError):
        DiagonalOperatorA.family("cubed", 1, K)


def test_operator_table_validation():
    with pytest.raises(ValueError):
        DiagonalOperatorA.from_table({5: Fraction(1)}, d=1, K=3)      # key above cutoff
    A = DiagonalOperatorA.from_table({0: Fraction(2), 1: Fraction(-3)}, d=1, K=3)
    assert A.alpha_of(0) == 2 and A.alpha_of(1) == -3 and A.alpha_of(2) == 0


def test_operator_tables():
    # alpha_-1 = +1 leaves only the primal-first channel (weight 2), alpha_1 = -1
    # only the dual-first one (weight -2); alpha_0 = 2 keeps both (3 and 1).
    A = DiagonalOperatorA.from_table({-1: 1, 0: 2, 1: -1}, d=2, K=1)

    def q(c, k):
        return ModeIndex(c, k, dual=True)
    p = ModeIndex
    assert A.channels == ((p(1, -1), q(1, -1), 2),
                          (p(1, 0), q(1, 0), 3), (q(1, 0), p(1, 0), 1),
                          (q(1, 1), p(1, 1), -2),
                          (p(2, -1), q(2, -1), 2),
                          (p(2, 0), q(2, 0), 3), (q(2, 0), p(2, 0), 1),
                          (q(2, 1), p(2, 1), -2))
    assert A.channels is A.channels and A.channels == deformed_channels(A)
    assert len(A.symmetric_channels) == 12
    assert A.symmetric_channels[:2] == ((p(1, -1), q(1, -1), 1), (q(1, -1), p(1, -1), 1))
    assert A.negated().d == 2
    with pytest.raises(ValueError):
        DiagonalOperatorA.from_table({}, d=0, K=1)


def test_perturbation_symmetry_and_zero():
    assert ea_cochain_failures(1, 8, DiagonalOperatorA.family("ksq", 2, 2))["failures"] == 0


def test_first_cochain_on_matched_pair():
    # on a matched primal-then-dual pair the unit-pairing bracket gives +1
    # and the perturbation adds alpha_k, so c1 = alpha_k + 1; with the
    # arguments swapped the two contributions cancel to alpha_k - 1
    K = 2
    A = DiagonalOperatorA.family("ksq", 1, K)
    F = mono([(P1, 1)])
    G = mono([(D1, 1)])
    unit = SymplecticForm.unit_pairing(1, K)
    assert poisson_bracket(F, G, unit) == FockVector.unit()
    alpha = A.alpha_of(1)
    assert cA1(F, G, A) == FockVector.unit().scale(alpha + 1)
    assert cA1(G, F, A) == FockVector.unit().scale(alpha - 1)


def test_one_sided_oracle():
    assert normal_one_sided_failures(2, 4, 1, 2)["failures"] == 0


def test_zero_family_star_is_moyal():
    assert zero_is_moyal_failures(3, 5, 2, 2, 3)["failures"] == 0


def test_star_A_associative_small():
    A = DiagonalOperatorA.family("one", 2, 2)
    assert star_A_assoc_failures(4, 4, A, 2)["failures"] == 0


def test_transform_alternating_display():
    # T applied to a concentrated series equals the alternating-sign sum
    # over powers of the plus-sign quadratic operator.
    K = 2
    A = DiagonalOperatorA.family("ksq", 1, K)
    F = mono([(P1, 2), (D1, 2)]) + mono([(ModeIndex(1, 2), 1), (P1, 1)], Fraction(3))
    R = 3
    TS = apply_T(HbarSeries.from_vector(F, R), A)

    def splus(G):
        out = FockVector.zero()
        for k in range(-K, K + 1):
            a = A.alpha_of(k)
            if not a:
                continue
            term = annihilate(ModeIndex(1, k), annihilate(ModeIndex(1, k, dual=True), G))
            if not term.is_zero():
                out = out + term.scale(a)
        return out

    power = F
    for b in range(R + 1):
        want = power.scale(Fraction((-1) ** b, math.factorial(b)))
        assert TS.coefficient(b) == want
        power = splus(power)


def test_transform_basics_and_inverse():
    A = DiagonalOperatorA.family("ksq", 2, 2)
    assert transform_basics_failures(5, 6, A, 2)["failures"] == 0


def test_transform_generator_lowers_degree_by_two():
    A = DiagonalOperatorA.family("one", 1, 2)
    F = mono([(P1, 2), (D1, 1)])
    out = apply_T1(F, A)
    assert not out.is_zero()
    assert all(key.degree == 1 for key in out.terms)


def test_shifted_pairing_matches_modes():
    # From g to gs only P1 finds its dual; alpha_1 = 1 for ksq.
    g = {P1: Fraction(2), ModeIndex(1, 2): Fraction(5), ModeIndex(1, -2, dual=True): Fraction(9)}
    gs = {D1: Fraction(3), ModeIndex(1, -1, dual=True): Fraction(7), ModeIndex(1, -2): Fraction(4)}
    assert _shifted_pairing(g, gs, DiagonalOperatorA.family("zero", 1, 2), 1) == Fraction(6)
    ksq = DiagonalOperatorA.family("ksq", 1, 2)
    assert _shifted_pairing(g, gs, ksq, 1) == 2 * 2 * 3
    assert _shifted_pairing(g, gs, ksq, -1) == 0
    # The other way round, the primal mode (1, -2) meets its dual in g: (4 - 1) * 4 * 9.
    assert _shifted_pairing(gs, g, ksq, -1) == 3 * 4 * 9


def test_intertwining_tiny_window():
    # smallest legal window: N = 6, R = 3 compares the vacuum coefficient
    A = DiagonalOperatorA.family("ksq", 1, 2)
    out = intertwining_failures(6, 5, A, N=6, R=3, kind="exp")
    assert out["failures"] == 0 and out["window"] == 0
    with pytest.raises(ValueError):
        intertwining_failures(6, 1, A, N=5, R=3, kind="poly")
    with pytest.raises(ValueError):
        intertwining_failures(6, 2, A, N=6, R=3, kind="expo")


def test_intertwining_polynomials_wide_window():
    A = DiagonalOperatorA.family("one", 2, 2)
    out = intertwining_failures(7, 5, A, N=10, R=2, kind="poly")
    assert out["failures"] == 0 and out["window"] == 6


def test_product_formula_windows():
    out = product_formula_failures(8, 6, N=6, R=3)
    assert out["failures"] == 0 and out["window"] == 0
    out = product_formula_failures(8, 6, N=8, R=3)
    assert out["failures"] == 0 and out["window"] == 2


def test_product_formula_first_order_lambda():
    # single-mode exponentials: the hbar coefficient of the deformed product
    # is lambda times the exponential of the summed maps, with lambda the
    # (A + I) pairing of g1 with g2s.
    K = 2
    N = 6
    A = DiagonalOperatorA.family("ksq", 1, K)
    g1 = {P1: Fraction(1, 2)}
    g2s = {D1: Fraction(3)}
    phi1 = wick_exponential(g1, N)
    phi2 = wick_exponential(g2s, N)
    S = star_A(phi1, phi2, A, R=1, max_degree=N)
    lam = (A.alpha_of(1) + 1) * Fraction(1, 2) * Fraction(3)
    merged = wick_exponential({**g1, **g2s}, N)
    assert S.coefficient(1).truncate(N - 2) == merged.scale(lam).truncate(N - 2)


def test_exp_product_formula_rhs_order_zero():
    g1 = {P1: Fraction(1)}
    g2s = {D1: Fraction(2)}
    rhs = exp_product_formula_rhs(g1, g2s, DiagonalOperatorA.family("zero", 1, 2), 2, 5)
    assert rhs.coefficient(0) == wick_exponential({**g1, **g2s}, 5)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("N, R", [(6, 3), (6, 2)])
def test_window_cap_is_exact(seed, N, R):
    # Each product the windowed checks compare, formed at cap = window,
    # equals the same product at cap N truncated to the window, coefficient
    # by coefficient; the inputs stay at cap N as in the checks.
    d, K = 1, 2
    window = N - 2 * R
    unit = SymplecticForm.unit_pairing(d, K)
    rng = instance_rng(seed, "window-cap")
    contracted = 0
    for family in FAMILIES:
        A = DiagonalOperatorA.family(family, d, K)
        g1, g2 = ({**random_gamma(rng, d, K, 2, False), **random_gamma(rng, d, K, 2, True)}
                  for _ in range(2))
        phi1, phi2 = wick_exponential(g1, N), wick_exponential(g2, N)
        TF, TG = (apply_T(HbarSeries.from_vector(phi, R), A) for phi in (phi1, phi2))
        for product in (lambda cap: star_A(phi1, phi2, A, R, max_degree=cap),
                        lambda cap: star_series(TF, TG, unit.channels(), max_degree=cap),
                        lambda cap: exp_product_formula_rhs(g1, g2, A, R, cap)):
            capped, full = product(window), product(N)
            for r in range(R + 1):
                assert capped.coefficient(r) == full.coefficient(r).truncate(window)
            assert not capped.coefficient(0).is_zero()
            contracted += not capped.coefficient(1).is_zero()
    assert contracted


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("N, R", [(6, 3), (6, 2), (7, 2), (2, 1)])
def test_per_order_caps_are_exact(seed, N, R):
    # The intertwining left side forms star order a at cap N - 2a.  Each
    # order equals the cap-N order truncated to its cap, and the transform
    # of the capped series equals that of the cap-N series on the window.
    d, K = 1, 2
    window = N - 2 * R
    caps = [N - 2 * a for a in range(R + 1)]
    rng = instance_rng(seed, "order-caps")
    dropped = contracted = 0
    for family in FAMILIES:
        A = DiagonalOperatorA.family(family, d, K)
        channels = A.channels
        exp_pair = [wick_exponential({**random_gamma(rng, d, K, 2, False),
                                      **random_gamma(rng, d, K, 2, True)}, N) for _ in range(2)]
        poly_pair = [random_fock(rng, d, K, N, n_terms=4, dual_fraction=0.5) for _ in range(2)]
        for F, G in (exp_pair, poly_pair):
            capped = _star_orders(F, G, channels, R, order_caps=caps)
            full = _star_orders(F, G, channels, R, max_degree=N)
            for a in range(R + 1):
                assert capped[a] == full[a].truncate(caps[a])
                dropped += capped[a] != full[a]
            lhs = apply_T(HbarSeries(capped), A).truncate_degree(window)
            assert lhs == apply_T(HbarSeries(full), A).truncate_degree(window)
            contracted += any(not part.is_zero() for part in lhs.coeffs[1:])
    assert dropped and contracted
    with pytest.raises(ValueError):
        _star_orders(F, G, channels, R, order_caps=caps[:-1])


def _compare_at_cap_N(m, N):
    """Form the products the windowed checks compare at cap N instead of the window."""
    star_A_, rhs_, star_series_ = suites.star_A, suites.exp_product_formula_rhs, suites.star_series
    star_orders_ = suites._star_orders
    m.setattr(suites, "star_A",
              lambda F, G, A, R, max_degree=None: star_A_(F, G, A, R, N))
    m.setattr(suites, "_star_orders",
              lambda F, G, channels, R, order_caps=None: star_orders_(F, G, channels, R, N))
    m.setattr(suites, "exp_product_formula_rhs",
              lambda g1, g2, A, R, cap: rhs_(g1, g2, A, R, N))
    m.setattr(suites, "star_series",
              lambda FS, GS, channels, max_degree=None: star_series_(FS, GS, channels, N))


def test_window_capped_product_formula_catches_wrong_pairing(monkeypatch):
    # (A + I) on both pairings instead of (A - I) on the second one
    pairing = equivalence._shifted_pairing
    monkeypatch.setattr(equivalence, "_shifted_pairing",
                        lambda gamma, other, A, shift: pairing(gamma, other, A, 1))
    for args, N, R in (((3, 12), 8, 3), ((8, 6), 6, 3)):
        capped = product_formula_failures(*args, N=N, R=R)["failures"]
        with monkeypatch.context() as m:
            _compare_at_cap_N(m, N)
            full = product_formula_failures(*args, N=N, R=R)["failures"]
        assert capped == full > 0


def test_window_capped_intertwining_catches_wrong_sign(monkeypatch):
    # the transform generator without its minus sign
    generator = equivalence.apply_T1
    monkeypatch.setattr(equivalence, "apply_T1", lambda F, A: -generator(F, A))
    star_orders_ = suites._star_orders
    caps_seen = []

    def star_orders_spy(*args, order_caps, **kwargs):
        caps_seen.append(order_caps)
        return star_orders_(*args, order_caps=order_caps, **kwargs)

    for d, K, N, R in ((2, 3, 10, 2), (1, 2, 6, 3)):
        A = DiagonalOperatorA.family("ksq", d, K)
        for kind in ("exp", "poly"):
            caps_seen.clear()
            with monkeypatch.context() as m:
                m.setattr(suites, "_star_orders", star_orders_spy)
                capped = intertwining_failures(3, 12, A, N, R, kind=kind)["failures"]
            # the left side ran with per-order caps
            assert caps_seen and all(caps == [N - 2 * a for a in range(R + 1)] for caps in caps_seen)
            with monkeypatch.context() as m:
                _compare_at_cap_N(m, N)
                full = intertwining_failures(3, 12, A, N, R, kind=kind)["failures"]
            assert capped == full > 0
