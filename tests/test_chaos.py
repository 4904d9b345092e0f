import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopstar import chaos, fock
from loopstar.chaos import (chaos_eval_spectral, fd_matches_annihilation,
                            gateaux_derivative_fd, injectivity_probe,
                            normal_convergence_check, quadrature_map)
from loopstar.fock import FockVector
from loopstar.gaussian import sample_loop
from loopstar.modes import ModeIndex, MultiIndex, h_weight, mode_profile, mode_range
from loopstar.rand import philox_key, random_fock

M1 = ModeIndex(1, 1)
M2 = ModeIndex(2, -2)


def mono(pairs, coeff=Fraction(1)):
    return FockVector({MultiIndex(tuple(pairs)): coeff})


def test_coarse_keeps_stored_points_and_refuses_non_divisors():
    sample = sample_loop(1, 8, 96, d=2)
    coarse = sample.coarse(32)
    assert coarse.M == 32 and coarse.xi is sample.xi
    assert np.array_equal(coarse.grid, sample.grid[::3])
    assert np.array_equal(coarse.values, sample.values[::3])       # bit for bit
    assert sample.coarse(96).M == 96
    for n in (0, 64, 192):
        with pytest.raises(ValueError, match="must divide"):
            sample.coarse(n)


def test_spectral_eval_monomials():
    F = mono([(M1, 2), (M2, 1)], Fraction(3)) + FockVector.unit()
    xi = {M1: 2.0, M2: -1.0}
    assert chaos_eval_spectral(F, xi) == pytest.approx(3 * 4 * (-1) + 1)
    with pytest.raises(ValueError):
        chaos_eval_spectral(mono([(ModeIndex(1, 3), 1)]), xi)


def test_pairing_recovers_coefficient():
    sample = sample_loop(2, 16, 1024, d=2)
    quad, xi = quadrature_map(sample, 2), sample.xi_map(2)
    for mode in (M1, M2, ModeIndex(1, 0)):
        assert quad[mode] == pytest.approx(xi[mode], abs=1e-10)
    # Neither map holds a dual mode, a coordinate past d or a frequency past K.
    for refused in (M1.as_dual, ModeIndex(3, 0), ModeIndex(1, 3)):
        for coefficients in (quad, xi):
            with pytest.raises(ValueError, match=re.escape(repr(refused))):
                chaos_eval_spectral(mono([(refused, 1)]), coefficients)


def test_quadrature_matches_spectral():
    sample = sample_loop(5, 16, 1024, d=2)
    F = mono([(M1, 2), (M2, 1)], Fraction(1, 2)) + mono([(ModeIndex(2, 3), 1)], Fraction(-2))
    got = chaos_eval_spectral(F, quadrature_map(sample, 3))
    want = chaos_eval_spectral(F, sample.xi_map(3))
    assert got == pytest.approx(want, abs=1e-9)


def test_quadrature_reads_no_stored_coefficients():
    # The quadrature route is independent of the spectral one: blanking the
    # stored coefficients leaves its map unchanged, bit for bit.
    sample = sample_loop(5, 16, 1024, d=2)
    blank = dataclasses.replace(sample, xi=np.full_like(sample.xi, np.nan))
    quad, blanked = quadrature_map(sample, 5), quadrature_map(blank, 5)
    assert list(blanked) == list(quad)
    assert np.array(list(blanked.values())).tobytes() == np.array(list(quad.values())).tobytes()


def test_gateaux_fd_contract():
    xi = sample_loop(6, 8, 256, d=2).xi_map(2)
    F = mono([(M1, 1)], Fraction(2)) + FockVector.unit()
    with pytest.raises(ValueError):
        gateaux_derivative_fd(F, xi, {M1: 1.0}, 0.0)
    # A direction off the map is refused by name: a dual mode, a frequency past K.
    for refused in (M1.as_dual, ModeIndex(1, 3)):
        with pytest.raises(ValueError, match=re.escape(repr(refused))):
            gateaux_derivative_fd(F, xi, {refused: 1.0}, 1e-3)
    # exact on affine vectors regardless of step
    assert fd_matches_annihilation(F, xi, {M1: 1.0}, 1e-2) <= 1e-10
    # second-order decay on a cubic
    C = mono([(M1, 3)])
    errs = [fd_matches_annihilation(C, xi, {M1: 1.0}, eps) for eps in (1e-2, 1e-3)]
    assert errs[1] <= errs[0] * 1e-1


def test_injectivity_probe_behavior():
    assert injectivity_probe(FockVector.zero(), 0)
    assert not injectivity_probe(mono([(M1, 1)]) - mono([(M2, 1)]), 0)
    tiny = mono([(M1, 2)], Fraction(1, 10 ** 12))
    assert not injectivity_probe(tiny, 0)   # scale-relative threshold


def test_injectivity_probe_keys_high_seeds_exactly(monkeypatch):
    # A seed of 2**63 or more is a uint64 key word, not a float: neighbouring
    # seeds draw different normals, and 2**64 - 2 keys with no cast warning
    # (a warning fails the test under the suite's filterwarnings = error).
    def first_draw(seed):
        drawn = []
        monkeypatch.setattr(chaos, "chaos_eval_spectral", lambda F, xi: drawn.append(xi) or 0.0)
        assert injectivity_probe(mono([(M1, 1)]), seed)
        return drawn[0][M1]                 # the one mode's draws, one per row of the block
    assert not np.array_equal(first_draw(2 ** 63 + 1), first_draw(2 ** 63 + 2))
    first_draw(2 ** 64 - 2)


def test_normal_convergence_contract():
    sample = sample_loop(7, 8, 256, d=1)
    out = normal_convergence_check(sample)
    assert out["ok"]
    assert out["ratio_q"] == 0.5 and out["mu_ratio"] == 0.25 / out["m_sup"]
    assert out["n0"] == 4 and out["tail_sum"] <= out["tail_bound"]
    assert len(out["rows"]) == 13


def _terms_eval(F, xi):
    """The evaluation read through `F.terms`: decoded monomials and Fractions."""
    total = 0.0
    for mu, c in F.terms.items():
        prod = float(c)
        for mode, mult in mu:
            prod *= xi[mode] ** mult
        total += prod
    return total


# Modes no other test builds, met first here in descending order, so that
# their packed fields run against ModeIndex order.
_FRESH = [ModeIndex(9, 900 + j, dual) for j in range(3) for dual in (False, True)]
FockVector({MultiIndex.single(mode): 1 for mode in reversed(_FRESH)})
_EVAL_MODES = [M1, M2, M1.as_dual, ModeIndex(2, 0)] + _FRESH
_eval_monomial = st.lists(st.tuples(st.sampled_from(_EVAL_MODES), st.integers(1, 3)),
                          max_size=3).map(MultiIndex)
_eval_coeff = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 7, 10]))


def test_fresh_modes_are_packed_against_their_order():
    offsets = [fock._OFFSET[mode] for mode in _FRESH]
    assert offsets == sorted(offsets, reverse=True)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.lists(st.tuples(_eval_monomial, _eval_coeff), max_size=6).map(dict),
       st.lists(st.floats(-3.0, 3.0), min_size=len(_EVAL_MODES), max_size=len(_EVAL_MODES)))
def test_spectral_eval_matches_the_terms_loop(terms, values):
    # Dual modes are variables of their own; the fresh modes' fields sit in
    # the reverse of the order their factors are multiplied in.
    F = FockVector(terms)
    xi = dict(zip(_EVAL_MODES, values))
    got = chaos_eval_spectral(F, xi)
    assert got == _terms_eval(F, xi)


def test_spectral_eval_names_a_missing_mode():
    F = mono([(M1, 1), (_FRESH[3], 2)])
    with pytest.raises(ValueError, match=re.escape(repr(_FRESH[3]))):
        chaos_eval_spectral(F, {M1: 1.0})


def test_evaluation_decodes_no_key(monkeypatch):
    # The read path never builds the `.terms` view, so no key is decoded.
    F = mono([(M1, 2), (M2, 1)], Fraction(3, 7)) + mono([(_FRESH[0], 1)], Fraction(-1, 2))
    G = mono([(M1, 1)])
    sample = sample_loop(5, 16, 256, d=2)

    def no_decode(key):
        raise AssertionError("a packed key was decoded")
    monkeypatch.setattr(fock, "_decode", no_decode)
    chaos_eval_spectral(F, {mode: 0.5 for mode in F.support_modes()})
    chaos_eval_spectral(G, quadrature_map(sample, 1))
    injectivity_probe(F, 0)
    assert F._terms is None and G._terms is None


def _probe_per_draw(F, seed):
    """`injectivity_probe` one draw at a time, through the scalar route."""
    if F.is_zero():
        return True
    modes = sorted(F.support_modes())
    scale = max(abs(float(c)) for c in F.terms.values())
    rng = np.random.Generator(np.random.Philox(key=philox_key(seed, 0x1D)))
    for _ in range(5 * len(F)):
        xi = {mode: float(z) for mode, z in zip(modes, rng.standard_normal(len(modes)))}
        if abs(chaos_eval_spectral(F, xi)) > 1e-9 * scale:
            return False
    return True


@pytest.mark.parametrize("d, K, max_degree", [(2, 3, 1), (1, 1, 6)])
def test_array_map_gives_each_sample_its_scalar_value(d, K, max_degree):
    # numpy's array power may round differently from Python's float power by
    # an ulp, so the batch agrees within 4 ulp of the sum of term magnitudes;
    # with every multiplicity 1 no power rounds, and it agrees exactly.  On
    # three modes and their duals, degree 6 repeats modes often.
    rng = np.random.default_rng(8)
    for _ in range(40):
        F = random_fock(rng, d, K, max_degree, n_terms=int(rng.integers(1, 6)),
                        dual_fraction=0.3)
        modes = sorted(F.support_modes())
        draws = rng.standard_normal((30, len(modes)))
        # A vector of the vacuum monomial alone reads no entry, and stays a float.
        batch = np.broadcast_to(chaos_eval_spectral(F, dict(zip(modes, draws.T))), (30,))
        for row, value in zip(draws, batch):
            xi = dict(zip(modes, row.tolist()))
            scalar = chaos_eval_spectral(F, xi)
            if max_degree == 1:
                assert value == scalar
            else:
                size = sum(abs(float(c)) * math.prod(abs(xi[m]) ** k for m, k in mu)
                           for mu, c in F.terms.items())
                assert abs(value - scalar) <= 4 * math.ulp(size)


def test_injectivity_probe_matches_the_per_draw_route():
    rng = np.random.default_rng(31)
    vectors = [FockVector.zero(), mono([(M1, 2)], Fraction(1, 10 ** 12))]
    for i in range(200):
        F = random_fock(rng, 2, 3, 4, n_terms=int(rng.integers(1, 6)), dual_fraction=0.2)
        vectors.append(F if i % 4 else F - F)
    for seed, F in enumerate(vectors):
        assert injectivity_probe(F, seed) == _probe_per_draw(F, seed)
    assert sum(injectivity_probe(F, seed) for seed, F in enumerate(vectors)) == 51


def _pairing(mode, sample):
    """One mode's trapezoid pairing: (1 + lambda k^2) times the grid mean of profile * field.

    Returns the pairing and the same mean taken of |profile * field|, the
    magnitude its rounding is relative to.
    """
    prod = mode_profile(mode.freq, sample.grid) * sample.values[:, mode.coord - 1]
    return (float(h_weight(mode.freq) * np.mean(prod)),
            float(h_weight(mode.freq) * np.mean(np.abs(prod))))


def test_quadrature_map_is_the_per_mode_pairing():
    # The map's one product sums each pairing in another order than the
    # per-mode mean, so the two agree within a few ulp of the summands' size.
    sample = sample_loop(4, 16, 512, d=2)
    qmap = quadrature_map(sample, 5)
    assert list(qmap) == mode_range(2, 5)
    for mode, got in qmap.items():
        want, size = _pairing(mode, sample)
        assert abs(got - want) <= 4 * math.ulp(size), mode
