"""The rational calculus on the boundary fiber.

Rational functions split exactly into upper-pole, lower-pole and polynomial
parts; the half-line functional pi_prime reads off upper residues.  Rank-one
products of a plus factor and a minus factor model singular Green symbols,
whose trace is pi_prime of the diagonal.  The two compositions are linked by
the compatibility identity tr(k o t) = pi_prime(t k), and the fiber
composition satisfies trace cyclicity.
"""

import numpy as np

from ncres import (compose_gg, compose_kt, compose_tk, pi_prime, pm_decompose,
                   polynomial, rational, sg_trace, simple_pole)
from ncres.sampling import random_minus_fn, random_plus_fn, random_sg

print("== plus/minus/polynomial split ==")
# (tau^2+2) / ((tau-i)(tau+2i)) = 1 - (i/3)/(tau-i) - (2i/3)/(tau+2i)
f = rational([1], [(1j, 1, -1j / 3), (-2j, 1, -2j / 3)])
d = pm_decompose(f)
print("  poles of the plus part :", [p for p, _ in d.plus.poles()])
print("  poles of the minus part:", [p for p, _ in d.minus.poles()])
print("  polynomial part        :", d.poly.poly)
taus = np.linspace(-3, 3, 7)
err = max(abs(d.reconstruct()(t) - (t ** 2 + 2) / ((t - 1j) * (t + 2j)))
          for t in taus)
print(f"  reconstruction error on the real line: {err:.2e}")

print("\n== pi_prime: i times the sum of upper residues ==")
lorentz = rational((), [(1j, 1, -0.5j), (-1j, 1, 0.5j)])   # 1/(1 + tau^2)
print("  pi_prime 1/(1+tau^2) =", pi_prime(lorentz), " (integral/2pi = 1/2)")
print("  pi_prime 1/(tau+i)   =", pi_prime(simple_pole(-1j)), " (minus part)")
print("  pi_prime 1/(tau-i)   =", pi_prime(simple_pole(1j)))
print("  pi_prime tau + 3     =", pi_prime(polynomial([3, 1])))

print("\n== rank-one singular Green symbols and their trace ==")
k = simple_pole(1j)
t = simple_pole(-1j)
g = compose_kt(k, t)
print("  tr (k x t)      =", sg_trace(g))
print("  pi_prime(t * k) =", compose_tk(t, k), "  (compatibility)")
print("  tr ((k x t) o (k x t)) =", sg_trace(compose_gg(g, g)))

print("\n== trace cyclicity on random finite-rank symbols ==")
rng = np.random.default_rng(2)
worst = 0.0
for _ in range(50):
    g1, g2 = random_sg(rng), random_sg(rng)
    worst = max(worst, abs(sg_trace(compose_gg(g1, g2)) -
                           sg_trace(compose_gg(g2, g1))))
print(f"  worst |tr(g1 o g2) - tr(g2 o g1)|: {worst:.2e}")

print("\n== compatibility on random pairs ==")
rng = np.random.default_rng(3)
worst = 0.0
for _ in range(50):
    k = random_plus_fn(rng)
    t = random_minus_fn(rng, type_d=1)
    worst = max(worst, abs(sg_trace(compose_kt(k, t, type_d=1))
                           - compose_tk(t, k)))
print(f"  worst |tr(k o t) - pi_prime(t k)|: {worst:.2e}")
