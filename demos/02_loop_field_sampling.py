"""Sampling the stationary Gaussian loop field and checking its statistics.

The covariance kernel inverts (1 - d^2/ds^2) on the circle.  Its closed
hyperbolic-cosine form, its two-sided exponential form, and the truncated
eigenfunction sum all describe the same function, and the Monte-Carlo
covariance of the sampler converges to it.
"""

import math

import numpy as np

from loopstar import (green_exponential_form, green_kernel, sample_loop, sample_xi_batch,
                      spectral_green_sum)
from loopstar.gaussian import GREEN_ALPHA, GREEN_BETA, green_diagonal

print("kernel at coincident points:", green_diagonal())
print("exponential coefficients alpha, beta:", GREEN_ALPHA, GREEN_BETA)
for s, t in [(0.1, 0.3), (0.0, 0.5)]:
    closed = green_kernel(s, t)
    print(f"G({s},{t}) closed={closed:.10f}  "
          f"exp-form={green_exponential_form(abs(s - t)):.10f}  "
          f"eigen-sum(K=200)={spectral_green_sum(s, t, 200):.10f}")

print("\nsampling is counter-based: same seed, same bits")
a = sample_loop(seed=11, K_mc=32, M=256, d=2)
b = sample_loop(seed=11, K_mc=32, M=256, d=2)
print("bit-identical resample:", np.array_equal(a.values, b.values))
print("batch prefix agrees:", np.array_equal(sample_xi_batch(11, 3, 32, 2),
                                             sample_xi_batch(11, 8, 32, 2)[:3]))

n = 20000
xi = sample_xi_batch(seed=11, n_samples=n, K_mc=32, d=1)
from loopstar.gaussian import basis_matrix
E = basis_matrix(32, np.array([0.1, 0.3]))
vals = np.tensordot(xi, E, axes=([2], [0]))[:, 0, :]
prod = vals[:, 0] * vals[:, 1]
emp = float(np.mean(prod))
se = float(np.std(prod, ddof=1)) / math.sqrt(n)
truth = spectral_green_sum(0.1, 0.3, 32)
print(f"\nMC covariance at (0.1, 0.3): {emp:.6f} +- {se:.6f}, "
      f"spectral truth {truth:.6f}, z = {abs(emp - truth) / se:.2f}")
