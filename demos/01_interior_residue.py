"""Interior residue on flat tori, start to finish.

Builds classical symbols from homogeneous atoms, integrates their degree -n
component over the cosphere with exact Gaussian moments, and checks the two
signature facts: the closed-form value for inverse shifted-Laplacian powers
(sphere area times torus volume) and the vanishing on commutators.
"""

import math

import numpy as np

from ncres import (Torus, classical_symbol, commutator, hom_term,
                   laplace_shift_power, parse_symbol, residue_density,
                   wodzicki_residue)
from ncres.sampling import random_symbol

print("== closed form: residue of (1 - Delta)^(-n/2) ==")
for n in (2, 3):
    sym = laplace_shift_power(n, -n / 2.0, depth=2)
    value = wodzicki_residue(sym, Torus(n)).real
    sphere = 2 * math.pi ** (n / 2) / math.gamma(n / 2)
    print(f"  n={n}: residue = {value:.10f}   "
          f"(sphere area x torus volume = {sphere * (2 * math.pi) ** n:.10f})")

print("\n== the residue only sees the degree -n component ==")
sym = parse_symbol("xi1^2 * |xi|^-4 + 3 * |xi|^-3 + |xi|^-1", 2)
density = residue_density(sym, (0.0, 0.0))
print(f"  density of xi1^2 |xi|^-4 (plus junk at other degrees): "
      f"{density.real:.10f}  (pi = {math.pi:.10f})")

print("\n== a zero-mean density integrates to nothing ==")
osc = classical_symbol([hom_term(-2.0, 2, [(1.0, (1, 0), (0, 0), -2.0)])], 2)
print(f"  residue of e^(i x1) |xi|^-2 on T^2: "
      f"{abs(wodzicki_residue(osc, Torus(2))):.2e}")

print("\n== trace property: residues of commutators vanish ==")
rng = np.random.default_rng(1)
worst = 0.0
for _ in range(20):
    a = random_symbol(rng, n=2, max_order=2, depth=5)
    b = random_symbol(rng, n=2, max_order=2, depth=5)
    c = commutator(a, b, a.order + b.order + 2)
    worst = max(worst, abs(wodzicki_residue(c, Torus(2))))
print(f"  worst |res(a#b - b#a)| over 20 random pairs: {worst:.2e}")
