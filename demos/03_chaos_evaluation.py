"""Two independent ways to evaluate a chaos polynomial on a sampled field.

The spectral route multiplies out the stored Gaussian coefficients.  The
quadrature route integrates each tensor slot against the field with the
trapezoid rule in its integration-by-parts form and never reads the
coefficients.  Their agreement, and the second-order decay of the
finite-difference directional derivative toward the contraction, are the
pathwise content of the calculus.
"""

from fractions import Fraction

import numpy as np

from loopstar import FockVector, ModeIndex, MultiIndex, sample_loop
from loopstar.chaos import (chaos_eval_quadrature, chaos_eval_spectral,
                            fd_matches_annihilation, stratonovich_pairing)

m1 = ModeIndex(1, 1)
m2 = ModeIndex(2, -2)
F = FockVector({
    MultiIndex(((m1, 3),)): Fraction(1, 4),
    MultiIndex(((m1, 2), (m2, 1))): Fraction(1, 2),
    MultiIndex.single(m1): Fraction(-3),
    MultiIndex(): Fraction(1),
})

sample = sample_loop(seed=5, K_mc=64, M=4096, d=2)

spectral = chaos_eval_spectral(F, sample.xi_map(2))
quadrature = chaos_eval_quadrature(F, sample)
print(f"spectral evaluation   {spectral:.12f}")
print(f"quadrature evaluation {quadrature:.12f}")
print(f"difference            {abs(spectral - quadrature):.2e}")

print("\npairing each mode recovers its sampled coefficient:")
for mode in (m1, m2):
    got = stratonovich_pairing(mode, sample)
    print(f"  {mode!r}: pairing {got:+.8f}  stored {sample.xi_value(mode):+.8f}")

print("\ncentral-difference error decays at second order:")
h = {m1: 1.0}
errs = []
for eps in (1e-2, 1e-3, 1e-4):
    err = fd_matches_annihilation(F, sample, h, eps)
    errs.append(err)
    print(f"  eps={eps:.0e}  |FD - contraction chaos| = {err:.3e}")
slope = np.polyfit(np.log([1e-2, 1e-3, 1e-4]), np.log(np.maximum(errs, 1e-16)), 1)[0]
print(f"fitted slope {slope:.3f} (target 2)")
