"""Evaluation of chaos polynomials on sampled loop fields.

A Fock vector F determines a random variable: each monomial evaluates to
the product over its modes of the field's pairing with that mode.  Two
independent evaluators are provided.  The spectral one reads the stored
Gaussian coefficients and multiplies them out; the quadrature one
integrates each tensor slot against the field on a grid, using the
integration-by-parts form of the loop-space pairing (profile minus its
second derivative), and never touches the stored coefficients.  Their
agreement is the pathwise statement that multiple Stratonovich integrals
of symmetrized kernels multiply like the polynomials they come from.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

import numpy as np

from .fock import FockVector, annihilate_general
from .gaussian import LoopSample
from .modes import ModeIndex, MultiIndex, h_weight, mode_profile


def stratonovich_pairing(mode: ModeIndex, sample: LoopSample) -> float:
    """Loop-space pairing of one basis mode with the field, by quadrature.

    Computes (1 + lambda k^2) times the circle integral of profile * field
    with the trapezoid rule on the sample's own grid; on the uniform
    periodic grid the trapezoid rule is the plain sample mean.
    """
    if mode.dual:
        raise ValueError(f"sampled fields pair with primal modes only, got {mode!r}")
    if mode.coord > sample.d:
        raise ValueError(f"mode coordinate {mode.coord} exceeds sample dimension {sample.d}")
    prof = mode_profile(mode.freq, sample.grid)
    return float(h_weight(mode.freq) * np.mean(prof * sample.values[:, mode.coord - 1]))


def chaos_eval_spectral(F: FockVector, xi: Mapping[ModeIndex, float]) -> float:
    """Monomial evaluation: sum of coeff * prod xi[mode]^mult.

    Dual modes are independent formal variables and need their own xi
    entries; a missing mode raises rather than defaulting.
    """
    total = 0.0
    for mu, c in F.terms.items():
        prod = float(c)
        for mode, mult in mu:
            try:
                prod *= xi[mode] ** mult
            except KeyError:
                raise ValueError(f"no coefficient supplied for mode {mode!r}") from None
        total += prod
    return total


def chaos_eval_quadrature(F: FockVector, sample: LoopSample) -> float:
    """Slotwise-quadrature evaluation, independent of the stored coefficients.

    Each tensor slot of a monomial contributes the trapezoid integral of
    (profile - profile'') * field on the sample's grid; slots multiply,
    monomials add.  `sample.coarse(n)` integrates on every (M/n)-th point.
    """
    slots: dict[ModeIndex, float] = {}
    grid, values = sample.grid, sample.values
    total = 0.0
    for mu, c in F.terms.items():
        prod = float(c)
        for mode, mult in mu:
            if mode.dual:
                raise ValueError(f"sampled fields carry primal modes only, got {mode!r}")
            if mode.coord > sample.d:
                raise ValueError(f"mode coordinate {mode.coord} exceeds sample dimension {sample.d}")
            slot = slots.get(mode)
            if slot is None:
                prof = mode_profile(mode.freq, grid) - mode_profile(mode.freq, grid, order=2)
                slot = float(np.mean(prof * values[:, mode.coord - 1]))
                slots[mode] = slot
            prod *= slot ** mult
        total += prod
    return total


def sample_xi_for(F: FockVector, sample: LoopSample,
                  extra: Mapping[ModeIndex, float] = ()) -> dict[ModeIndex, float]:
    """The stored coefficients for every mode F (and optionally extra keys) uses."""
    needed = set(F.support_modes())
    needed.update(extra)
    return {mode: sample.xi_value(mode) for mode in needed}


def gateaux_derivative_fd(F: FockVector, sample: LoopSample,
                          h: Mapping[ModeIndex, float], eps: float) -> float:
    """Central difference of the chaos along direction h.

    Perturbing the field by eps * h shifts each spectral coefficient by
    eps times h's coefficient, so both evaluations are spectral and the
    only error is the O(eps^2) finite-difference one.
    """
    if eps <= 0:
        raise ValueError("finite-difference step must be positive")
    xi0 = sample_xi_for(F, sample, extra=h)
    xi_plus = dict(xi0)
    xi_minus = dict(xi0)
    for mode, coeff in h.items():
        xi_plus[mode] = xi0[mode] + eps * float(coeff)
        xi_minus[mode] = xi0[mode] - eps * float(coeff)
    return (chaos_eval_spectral(F, xi_plus) - chaos_eval_spectral(F, xi_minus)) / (2.0 * eps)


def fd_matches_annihilation(F: FockVector, sample: LoopSample,
                            h: Mapping[ModeIndex, float], eps: float) -> float:
    """|FD derivative - chaos of the h-contraction|, the residual the slope fit uses.

    The contraction is exact: each entry of h is taken at its exact value
    (a float is a dyadic rational), so only the chaos evaluation rounds.
    """
    fd = gateaux_derivative_fd(F, sample, h, eps)
    contracted = annihilate_general({mode: Fraction(c) for mode, c in h.items()}, F)
    # The contraction's modes lie inside F's, so F's coefficients cover it.
    return abs(fd - chaos_eval_spectral(contracted, sample_xi_for(F, sample)))


def injectivity_probe(F: FockVector, seed: int) -> bool:
    """Polynomial identity test: does F evaluate to ~0 on random draws?

    Draws 5 standard-normal coefficient maps per monomial (at least one)
    and returns True iff every evaluation is below 1e-9 times the largest
    coefficient magnitude.  A True verdict is the probe's claim that F is
    the zero vector.
    """
    if F.is_zero():
        return True
    modes = sorted(F.support_modes())
    scale = max(abs(float(c)) for c in F.terms.values())
    n_draws = max(1, 5 * len(F))
    # An explicit uint64 key: numpy reads a list holding a word of 2**63 or
    # more as floats, which rounds neighbouring seeds to one key and near
    # 2**64 overflows the cast back to uint64.
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, 0x1D], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    for _ in range(n_draws):
        xi = {mode: float(z) for mode, z in zip(modes, rng.standard_normal(len(modes)))}
        if abs(chaos_eval_spectral(F, xi)) > 1e-9 * scale:
            return False
    return True


def normal_convergence_check(sample: LoopSample) -> dict:
    """Geometric-tail surrogate for normal convergence of the chaos series.

    Takes as degree-n part (n = 0..12) a single power of the frequency-1
    mode, scaled by a float coefficient so its derivative-sup bound is
    exactly mu_ratio^n, evaluates each degree by quadrature, and checks
    every contribution against q^n = (2 mu_ratio M_sup)^n with M_sup the
    grid sup of |B|, plus the implied geometric tail bound past n0 = 4.
    The ratio is q = 1/2 and mu_ratio is q / (2 M_sup): q itself is never
    recomputed, so it is reported exactly.
    """
    q, n_max, n0 = 0.5, 12, 4
    m_sup = float(np.max(np.abs(sample.values)))
    mu_ratio = q / (2.0 * m_sup)
    mode = ModeIndex(1, 1)
    # Largest sup-norm among the slot profile and its second derivative:
    envelope = max(float(np.max(np.abs(mode_profile(1, sample.grid, order=o)))) for o in (0, 2))
    rows = []
    tail_sum = 0.0
    for n in range(0, n_max + 1):
        coeff = (mu_ratio / envelope) ** n
        monomial = FockVector({MultiIndex(((mode, n),)) if n else MultiIndex(): 1})
        contribution = abs(coeff * chaos_eval_quadrature(monomial, sample))
        bound = q ** n
        rows.append({"degree": n, "contribution": contribution, "bound": bound})
        if n > n0:
            tail_sum += contribution
    tail_bound = q ** (n0 + 1) / (1.0 - q)
    return {"mu_ratio": mu_ratio, "m_sup": m_sup, "ratio_q": q, "rows": rows,
            "n0": n0, "tail_sum": tail_sum, "tail_bound": tail_bound,
            "ok": tail_sum <= tail_bound and all(r["contribution"] <= r["bound"] * (1 + 1e-12)
                                                 for r in rows)}
