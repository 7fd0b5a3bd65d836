#!/usr/bin/env python3
"""Piecewise-linear and birational rowmotion, with exact rationals.

Replacing the toggle by min/max/plus gives piecewise-linear rowmotion on
real vectors indexed by the poset; trading (max, +) for (+, *) gives the
birational version on positive vectors.  Indicator vectors of ideal
complements recover the combinatorial dynamics, and decomposition
certificates lift: the lifted combination is exactly constant, which forces
orbit-sum and orbit-product laws.
"""

import random
from fractions import Fraction

from rowmotion import (
    BPoint,
    certificate_witness,
    check_constant,
    decompose,
    enumerate_ideals,
    lifted_orbit,
    lifted_rowmotion,
    named_statistic,
    orbit_homomesy_lifted,
    random_point,
    rowmotion,
    vertex_point,
)
from rowmotion.families import rectangle
from rowmotion.lifted import random_fraction

rng = random.Random(5)
P = rectangle(2, 2)

print("vertex points track combinatorial rowmotion exactly:")
I = enumerate_ideals(P)[1]
print(f"  start ideal {[P.coords[x] for x in I]}")
print(f"  pl step  -> {lifted_rowmotion(vertex_point(I)).values}")
print(f"  expected -> {vertex_point(rowmotion(P, I)).values}")

alpha, omega = Fraction(2, 3), Fraction(7, 5)
pt = random_point(BPoint, P, rng, alpha=alpha, omega=omega)
orbit = lifted_orbit(pt)
print(f"\nbirational rowmotion from a random positive point: period {len(orbit)}")
for k, state in enumerate(orbit):
    print(f"  step {k}: {[str(v) for v in state.values]}")

prod = Fraction(1)
for state in orbit:
    for v in state.values:
        prod *= v
print(f"\nproduct of all sixteen values = {prod}")
print(f"omega^8 * alpha^8             = {omega**8 * alpha**8}")

f = named_statistic(P, "ideal_card")
h, c = certificate_witness(f, decompose(P, f))
report = orbit_homomesy_lifted(h, c, pt)
print(f"\nlifted ideal-cardinality certificate: orbit product law holds: {report.holds}")

checks = sum(
    check_constant(h, c, random_point(BPoint, P, rng, alpha=random_fraction(rng),
                                      omega=random_fraction(rng)))
    for _ in range(25)
)
print(f"lifted statistic exactly constant at {checks}/25 random positive points")
