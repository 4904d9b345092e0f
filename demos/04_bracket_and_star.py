"""The weighted symplectic bracket and the star-product built on it.

Dual modes act like conjugate momenta: the bracket pairs each primal
frequency with its dual copy, weighted by (c k^2 + 1).  Iterating the
contraction gives the graded star-product, associative order by order in
the deformation parameter.
"""

from fractions import Fraction

from loopstar import (FockVector, HbarSeries, ModeIndex, MultiIndex, SymplecticForm,
                      moyal_star, poisson_bracket, poisson_power, star_series,
                      wick_product)

form = SymplecticForm(d=1, K=2, weight_c=1)
P = FockVector({MultiIndex.single(ModeIndex(1, 2)): Fraction(1)})
D = FockVector({MultiIndex.single(ModeIndex(1, 2, dual=True)): Fraction(1)})

print("matched degree-1 pair brackets to minus the frequency weight:")
print("  {P, D} =", dict(poisson_bracket(P, D, form).terms), "(weight c k^2 + 1 = 5 at k=2)")

F = wick_product(P, D)
G = wick_product(P, P)
H = wick_product(D, D)
jac = (poisson_bracket(F, poisson_bracket(G, H, form), form)
       + poisson_bracket(G, poisson_bracket(H, F, form), form)
       + poisson_bracket(H, poisson_bracket(F, G, form), form))
print("Jacobi cyclic sum vanishes:", jac.is_zero())

print("\ncontraction powers grade the star-product:")
print("  r=0 is the plain product:", poisson_power(0, F, G, form) == wick_product(F, G))
anti = poisson_power(1, F, G, form) - poisson_power(1, G, F, form)
print("  antisymmetrized r=1 is twice the bracket:",
      anti == poisson_bracket(F, G, form).scale(2))

S = moyal_star(F, G, form, R=3)
print("\nstar-product series coefficients by degree:")
for r in range(4):
    c = S.coefficient(r)
    degs = sorted({mu.degree for mu in c.terms}) if not c.is_zero() else []
    print(f"  hbar^{r}: {len(c)} terms, degrees {degs}")

channels = form.channels
left = star_series(moyal_star(F, G, form, 3), HbarSeries.from_vector(H, 3), channels)
right = star_series(HbarSeries.from_vector(F, 3), moyal_star(G, H, form, 3), channels)
print("\nassociativity, coefficient by coefficient:", left == right)
