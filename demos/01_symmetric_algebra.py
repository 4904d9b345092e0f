"""Tour of the truncated symmetric algebra: vectors, products, contractions.

Everything here is exact rational arithmetic.  Monomials are multisets of
basis modes (a coordinate, a frequency, and optionally a dual flag), the
product is multiset union, and annihilation peels one slot off with its
multiplicity.
"""

from fractions import Fraction

from loopstar import (FockVector, ModeIndex, MultiIndex, annihilate,
                      annihilate_general, deserialize_fock, serialize_fock,
                      wick_exponential, wick_product)

cos1 = ModeIndex(1, 1)           # cos mode, frequency 1, first coordinate
sin2 = ModeIndex(1, -2)          # sin mode, frequency 2
dual1 = cos1.as_dual             # the paired momentum-like slot

F = FockVector({
    MultiIndex(((cos1, 2),)): Fraction(1, 2),
    MultiIndex.single(sin2): Fraction(-3),
})
G = FockVector({MultiIndex(((cos1, 1), (dual1, 1))): Fraction(2)})

print("F =", dict(F.terms))
print("G =", dict(G.terms))

P = wick_product(F, G)
print("\nF . G has degrees", sorted({mu.degree for mu in P.terms}))
print("commutative:", wick_product(G, F) == P)

print("\nannihilation peels slots with multiplicity:")
print("a_cos1 F =", dict(annihilate(cos1, F).terms))
h = {cos1: Fraction(1), sin2: Fraction(2)}
lhs = annihilate_general(h, P)
rhs = wick_product(annihilate_general(h, F), G) + wick_product(F, annihilate_general(h, G))
print("derivation law on the product:", lhs == rhs)

phi = wick_exponential({cos1: Fraction(1, 3)}, N=4)
print("\ncapped exponential of (1/3) cos1, degrees kept:",
      sorted(mu.degree for mu in phi.terms))
print("degree-3 coefficient is (1/3)^3/3! =",
      phi.terms[MultiIndex(((cos1, 3),))])

data = serialize_fock(F)
print("\nserialized form:")
print(data.decode(), end="")
print("round trip ok:", deserialize_fock(data) == F)
