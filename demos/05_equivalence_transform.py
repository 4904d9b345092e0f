"""A family of deformed products and the transform identifying them.

A diagonal frequency multiplier alpha deforms the contraction weights to
(alpha_k + 1) one way and (alpha_k - 1) the other.  The degree-lowering
transform T built from alpha carries the deformed product back to the
flat unit-pairing star-product, exactly, coefficient by coefficient on
the degree window the truncation leaves intact.  On capped exponentials
the whole deformed product collapses to a closed scalar formula.  The
operator carries the loop dimension and the cutoff, so each product and
transform takes it alone, with no symplectic form beside it.
"""

from fractions import Fraction

from loopstar import (DiagonalOperatorA, HbarSeries, ModeIndex, SymplecticForm,
                      apply_T, exp_product_formula_rhs, moyal_star, star_A,
                      star_series, wick_exponential)

d, K, N, R = 1, 2, 10, 2
window = N - 2 * R
unit = SymplecticForm.unit_pairing(d, K)
A = DiagonalOperatorA.family("ksq", d, K)
print("alpha table:", {k: str(A.alpha_of(k)) for k in range(-K, K + 1)})

# Each generator is one map on the doubled modes: a key carries its dual flag.
g1 = {ModeIndex(1, 1): Fraction(1, 2), ModeIndex(1, -1, dual=True): Fraction(1, 3)}
g2 = {ModeIndex(1, 2): Fraction(1), ModeIndex(1, 1, dual=True): Fraction(2)}
phi1 = wick_exponential(g1, N)
phi2 = wick_exponential(g2, N)

lhs = apply_T(star_A(phi1, phi2, A, R, max_degree=N), A)
rhs = star_series(apply_T(HbarSeries.from_vector(phi1, R), A),
                  apply_T(HbarSeries.from_vector(phi2, R), A),
                  unit.channels(), max_degree=N)
print(f"\nT(phi1 *_A phi2) == T(phi1) *_0 T(phi2) on degree window {window}:",
      lhs.truncate_degree(window) == rhs.truncate_degree(window))

inv = apply_T(apply_T(HbarSeries.from_vector(phi1, R), A), A.negated())
print("T followed by its formal inverse is the identity:",
      inv == HbarSeries.from_vector(phi1, R))

N2, R2 = 8, 3
closed = exp_product_formula_rhs(g1, g2, A, R2, N2)
direct = star_A(wick_exponential(g1, N2), wick_exponential(g2, N2), A, R2, max_degree=N2)
w2 = N2 - 2 * R2
print(f"\nclosed product formula vs direct contraction (window {w2}):",
      direct.truncate_degree(w2) == closed.truncate_degree(w2))

zero = DiagonalOperatorA.family("zero", d, K)
print("alpha = 0 member is the flat star-product itself:",
      star_A(phi1, phi2, zero, R, max_degree=N)
      == moyal_star(phi1, phi2, unit, R).truncate_degree(N))
