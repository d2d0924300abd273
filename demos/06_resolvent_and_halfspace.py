"""Resolvent log coefficients and the half-space heat trace.

Only the i = 0 term (-1)^k of the expansion of (a - mu^m)^-k carries the
leading log coefficient of the traced resolvent power, so the coefficient is
(2 pi)^-n res(p # (-1)^k) / m, manifestly independent of the auxiliary
symbol beyond its order.  On the cylinder, the heat trace of the truncated
interior operator against the Dirichlet semigroup sums a closed-form bracket
per Dirichlet mode; its fitted ln t coefficient reproduces minus the residue
over 2 (2 pi)^n.
"""

import math

from ncres import (boundary_heat_test, classical_symbol, hom_term,
                   laplace_shift_power, radial_term,
                   resolvent_log_coefficient, resolvent_log_coefficient_closed)
from ncres.parametric import heat_log_coefficient_from_resolvent

PI = math.pi

print("== two routes to the log coefficient ==")
a = classical_symbol([radial_term(2.0, 2)], 2)
p = laplace_shift_power(2, -1.0, 2)
for k in (1, 2, 3):
    closed = resolvent_log_coefficient_closed(p, 2, k).real
    route = resolvent_log_coefficient(p, a, k).real
    print(f"  k={k}: closed {closed:+.8f}, composition route {route:+.8f}")

print("\n== auxiliary independence ==")
a2 = classical_symbol([radial_term(2.0, 2),
                       hom_term(1.0, 2, [(1.0, (1, 0), (0, 0), 1.0)])], 2)
r1 = resolvent_log_coefficient(p, a, 2)
r2 = resolvent_log_coefficient(p, a2, 2)
print(f"  |difference between auxiliaries| = {abs(r1 - r2):.2e}")

print("\n== recovering the residue from the heat normalization ==")
c_heat = heat_log_coefficient_from_resolvent(r1, 2)
print(f"  -(2 pi)^2 * 2 * c = {(-(2 * PI) ** 2 * 2 * c_heat).real:.6f}"
      f"   (8 pi^3 = {8 * PI ** 3:.6f})")

print("\n== half-space heat trace on the cylinder ==")
out = boundary_heat_test()
print(f"  fitted ln t coefficient: {out.log_coefficient:.8f}"
      f"   (-pi/2 = {-PI / 2:.8f})")
print(f"  certified tail bound: {out.samples.tail_bounds.max():.2e}")
