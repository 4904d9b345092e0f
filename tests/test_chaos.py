from fractions import Fraction

import pytest

from loopstar.chaos import (ChaosEvalConfig, chaos_eval_quadrature, chaos_eval_spectral,
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


def test_config_validation():
    with pytest.raises(ValueError):
        ChaosEvalConfig(n_grid=32)


def test_grid_slice_divisibility():
    sample = sample_loop(1, 8, 96, d=2)
    cfg = ChaosEvalConfig(n_grid=64)
    with pytest.raises(ValueError):
        chaos_eval_quadrature(mono([(M1, 1)]), sample, cfg)
    big = ChaosEvalConfig(n_grid=128)
    with pytest.raises(ValueError):
        chaos_eval_quadrature(mono([(M1, 1)]), sample, big)


def test_spectral_eval_monomials():
    F = mono([(M1, 2), (M2, 1)], Fraction(3)) + FockVector.unit()
    xi = {M1: 2.0, M2: -1.0}
    assert chaos_eval_spectral(F, xi) == pytest.approx(3 * 4 * (-1) + 1)
    with pytest.raises(ValueError):
        chaos_eval_spectral(mono([(ModeIndex(1, 3), 1)]), xi)


def test_pairing_recovers_coefficient():
    sample = sample_loop(2, 16, 1024, d=2)
    cfg = ChaosEvalConfig(n_grid=1024)
    for mode in (M1, M2, ModeIndex(1, 0)):
        assert stratonovich_pairing(mode, sample, cfg) == pytest.approx(
            sample.xi_value(mode), abs=1e-10)
    with pytest.raises(ValueError):
        stratonovich_pairing(M1.as_dual, sample, cfg)
    with pytest.raises(ValueError):
        stratonovich_pairing(ModeIndex(3, 0), sample, cfg)


def test_quadrature_matches_spectral():
    sample = sample_loop(5, 16, 1024, d=2)
    cfg = ChaosEvalConfig(n_grid=1024)
    F = mono([(M1, 2), (M2, 1)], Fraction(1, 2)) + mono([(ModeIndex(2, 3), 1)], Fraction(-2))
    got = chaos_eval_quadrature(F, sample, cfg)
    want = chaos_eval_spectral(F, sample.xi_map(3))
    assert got == pytest.approx(want, abs=1e-9)
    with pytest.raises(ValueError):
        chaos_eval_quadrature(mono([(M1.as_dual, 1)]), sample, cfg)


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


def test_normal_convergence_contract():
    sample = sample_loop(7, 8, 256, d=1)
    cfg = ChaosEvalConfig(n_grid=256)
    with pytest.raises(ValueError):
        normal_convergence_check(sample, q=10.0, n_max=4, n0=2, cfg=cfg)
    out = normal_convergence_check(sample, q=0.4, n_max=10, n0=3, cfg=cfg)
    assert out["ok"]
    assert out["ratio_q"] == 0.4 and out["mu_ratio"] == 0.2 / out["m_sup"]
    assert out["tail_sum"] <= out["tail_bound"]
    assert len(out["rows"]) == 11
