from fractions import Fraction

import numpy as np
import pytest

from loopstar import chaos
from loopstar.chaos import (chaos_eval_quadrature, chaos_eval_spectral,
                            fd_matches_annihilation, gateaux_derivative_fd,
                            injectivity_probe, normal_convergence_check,
                            stratonovich_pairing)
from loopstar.fock import FockVector
from loopstar.gaussian import sample_loop
from loopstar.modes import ModeIndex, MultiIndex

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
    for mode in (M1, M2, ModeIndex(1, 0)):
        assert stratonovich_pairing(mode, sample) == pytest.approx(
            sample.xi_value(mode), abs=1e-10)
    with pytest.raises(ValueError):
        stratonovich_pairing(M1.as_dual, sample)
    with pytest.raises(ValueError):
        stratonovich_pairing(ModeIndex(3, 0), sample)


def test_quadrature_matches_spectral():
    sample = sample_loop(5, 16, 1024, d=2)
    F = mono([(M1, 2), (M2, 1)], Fraction(1, 2)) + mono([(ModeIndex(2, 3), 1)], Fraction(-2))
    got = chaos_eval_quadrature(F, sample)
    want = chaos_eval_spectral(F, sample.xi_map(3))
    assert got == pytest.approx(want, abs=1e-9)
    with pytest.raises(ValueError):
        chaos_eval_quadrature(mono([(M1.as_dual, 1)]), sample)


def test_gateaux_fd_contract():
    sample = sample_loop(6, 8, 256, d=2)
    F = mono([(M1, 1)], Fraction(2)) + FockVector.unit()
    with pytest.raises(ValueError):
        gateaux_derivative_fd(F, sample, {M1: 1.0}, 0.0)
    # exact on affine vectors regardless of step
    assert fd_matches_annihilation(F, sample, {M1: 1.0}, 1e-2) <= 1e-10
    # second-order decay on a cubic
    C = mono([(M1, 3)])
    errs = [fd_matches_annihilation(C, sample, {M1: 1.0}, eps) for eps in (1e-2, 1e-3)]
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
        return drawn[0]
    assert first_draw(2 ** 63 + 1) != first_draw(2 ** 63 + 2)
    first_draw(2 ** 64 - 2)


def test_normal_convergence_contract():
    sample = sample_loop(7, 8, 256, d=1)
    out = normal_convergence_check(sample)
    assert out["ok"]
    assert out["ratio_q"] == 0.5 and out["mu_ratio"] == 0.25 / out["m_sup"]
    assert out["n0"] == 4 and out["tail_sum"] <= out["tail_bound"]
    assert len(out["rows"]) == 13
