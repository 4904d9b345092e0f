"""Evaluation of chaos polynomials on sampled loop fields.

A Fock vector F determines a random variable: each monomial evaluates to
the product over its modes of the field's pairing with that mode.  One
evaluator, `chaos_eval_spectral`, multiplies the monomials out from a
coefficient map built once per field, and two builders supply that map.
`LoopSample.xi_map(K)` reads the stored Gaussian coefficients;
`quadrature_map(sample, K)` pairs every mode with the field on the
sample's grid and never touches the stored coefficients.  Their agreement
is the pathwise statement that multiple Stratonovich integrals of
symmetrized kernels multiply like the polynomials they come from.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

import numpy as np

from .fock import MASK, FockVector, _fields, annihilate_general
from .gaussian import LoopSample
from .modes import ModeIndex, h_weight, mode_profile, mode_range, profile_table
from .rand import philox_key


def chaos_eval_spectral(F: FockVector, xi: Mapping[ModeIndex, float]) -> float:
    """Monomial evaluation: sum of coeff * prod xi[mode]^mult, off F's packed keys.

    Each term is its numerator over F's denominator (int / int rounds
    correctly, as `float(Fraction)` does) times xi[mode] ** mult in
    ascending mode order; terms add in term order.  `xi` may hold floats or
    1-D arrays of one length, which evaluate every sample at once (a vector
    with no mode stays a float).  Dual modes are independent formal
    variables with their own entries; a missing mode raises rather than
    defaulting.
    """
    fields = []
    for mode, off in _fields(F._num):
        try:
            fields.append((off, xi[mode]))
        except KeyError:
            raise ValueError(f"no coefficient supplied for mode {mode!r}") from None
    den = F._den
    total = 0.0
    for key, n in F._num.items():
        prod = n / den
        for off, x in fields:
            if mult := (key >> off) & MASK:
                prod *= x ** mult
        total += prod
    return total


def quadrature_map(sample: LoopSample, K: int) -> dict[ModeIndex, float]:
    """Quadrature pairing of every primal mode with |freq| <= K: `xi_map`'s counterpart.

    Mode (c, k) pairs to (1 + lambda k^2) times the circle integral of its
    profile against coordinate c of the field, by the trapezoid rule on the
    sample's own grid, which on the uniform periodic grid is the plain mean.
    Every pairing comes from one product of the profile table with the grid
    values; the sample is read only through its grid and values, and
    `sample.coarse(n)` integrates on every (M/n)-th point.
    """
    weights = h_weight(np.arange(-K, K + 1))[:, None]
    pairings = weights * (profile_table(K, sample.grid) @ sample.values / sample.M)
    return dict(zip(mode_range(sample.d, K), pairings.T.ravel().tolist()))


def gateaux_derivative_fd(F: FockVector, xi: Mapping[ModeIndex, float],
                          h: Mapping[ModeIndex, float], eps: float) -> float:
    """Central difference of the chaos at coefficient map xi along direction h.

    Perturbing the field by eps * h shifts each spectral coefficient by
    eps times h's coefficient, so both evaluations are spectral and the
    only error is the O(eps^2) finite-difference one.  A direction off the
    map raises, naming the mode.
    """
    if eps <= 0:
        raise ValueError("finite-difference step must be positive")
    xi_plus = dict(xi)
    xi_minus = dict(xi)
    for mode, coeff in h.items():
        if mode not in xi:
            raise ValueError(f"no coefficient supplied for mode {mode!r}")
        xi_plus[mode] = xi[mode] + eps * float(coeff)
        xi_minus[mode] = xi[mode] - eps * float(coeff)
    return (chaos_eval_spectral(F, xi_plus) - chaos_eval_spectral(F, xi_minus)) / (2.0 * eps)


def fd_matches_annihilation(F: FockVector, xi: Mapping[ModeIndex, float],
                            h: Mapping[ModeIndex, float], eps: float) -> float:
    """|FD derivative - chaos of the h-contraction|, the residual the slope fit uses.

    The contraction is exact: each entry of h is taken at its exact value
    (a float is a dyadic rational), so only the chaos evaluation rounds.
    """
    fd = gateaux_derivative_fd(F, xi, h, eps)
    contracted = annihilate_general({mode: Fraction(c) for mode, c in h.items()}, F)
    # The contraction's modes lie inside F's, so xi covers it.
    return abs(fd - chaos_eval_spectral(contracted, xi))


def injectivity_probe(F: FockVector, seed: int) -> bool:
    """Polynomial identity test: does F evaluate to ~0 on random draws?

    Draws 5 standard-normal coefficient maps per monomial, the rows of one
    (draws, modes) block, evaluates them in one array pass and returns True
    iff none exceeds 1e-9 times the largest coefficient magnitude.  A True
    verdict is the probe's claim that F is the zero vector.
    """
    if F.is_zero():
        return True
    modes = sorted(F.support_modes())
    scale = max(abs(n) for n in F._num.values()) / F._den
    rng = np.random.Generator(np.random.Philox(key=philox_key(seed, 0x1D)))
    draws = rng.standard_normal((5 * len(F), len(modes)))
    values = chaos_eval_spectral(F, dict(zip(modes, draws.T)))
    return not np.any(np.abs(values) > 1e-9 * scale)


def normal_convergence_check(sample: LoopSample) -> dict:
    """Geometric-tail surrogate for normal convergence of the chaos series.

    Takes as degree-n part (n = 0..12) a single power of the frequency-1
    mode, scaled by a float coefficient so its derivative-sup bound is
    exactly mu_ratio^n.  The mode's pairing is read from the field's
    quadrature map, `quadrature_map(sample, 1)`, so degree n contributes
    |coeff * pairing^n|.  Every contribution is checked against
    q^n = (2 mu_ratio M_sup)^n with M_sup the grid sup of |B|, plus the
    implied geometric tail bound past n0 = 4.
    The ratio is q = 1/2 and mu_ratio is q / (2 M_sup): q itself is never
    recomputed, so it is reported exactly.
    """
    q, n_max, n0 = 0.5, 12, 4
    m_sup = float(np.max(np.abs(sample.values)))
    mu_ratio = q / (2.0 * m_sup)
    pairing = quadrature_map(sample, 1)[ModeIndex(1, 1)]
    # Largest sup-norm among the mode profile and its second derivative:
    envelope = max(float(np.max(np.abs(prof))) for prof in (
        mode_profile(1, sample.grid), mode_profile(1, sample.grid, order=2)))
    rows = []
    tail_sum = 0.0
    for n in range(0, n_max + 1):
        coeff = (mu_ratio / envelope) ** n
        contribution = abs(coeff * pairing ** n)
        bound = q ** n
        rows.append({"degree": n, "contribution": contribution, "bound": bound})
        if n > n0:
            tail_sum += contribution
    tail_bound = q ** (n0 + 1) / (1.0 - q)
    return {"mu_ratio": mu_ratio, "m_sup": m_sup, "ratio_q": q, "rows": rows,
            "n0": n0, "tail_sum": tail_sum, "tail_bound": tail_bound,
            "ok": tail_sum <= tail_bound and all(r["contribution"] <= r["bound"] * (1 + 1e-12)
                                                 for r in rows)}
