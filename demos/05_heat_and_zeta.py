"""Heat traces, logarithmic coefficients and zeta residues, closing the loop.

Small-time heat traces of weighted lattice operators are fitted in a
prescribed power/log ladder; the ln t coefficient then carries the residue:

    residue = -(2 pi)^n * ord(A) * (ln t coefficient).

Mellin splitting the same data yields zeta residues: a pole at s = sigma > 0
reads off the t^-sigma coefficient / Gamma(sigma), and the double pole at
s = 0 (from the Gamma factor) makes that residue minus the ln t coefficient.
The three routes - cosphere integral, heat fit, zeta residue - must agree.
"""

import math

import numpy as np

from ncres import (SpectralWeight, SpectrumModel, Torus, enumerate_spectrum,
                   fit_expansion, heat_samples, laplace_shift_power,
                   wodzicki_residue, zeta_residue)

PI = math.pi
spec = enumerate_spectrum(SpectrumModel("torus_lattice", 2, 300))
inv = SpectralWeight(power=-1.0, shift=1.0)     # weight of (1 - Delta)^-1
one = SpectralWeight(power=0.0)
aw = SpectralWeight(power=1.0, shift=1.0)       # spectrum of 1 - Delta

print("== fitted small-t expansion of trace(P e^{-tA}) ==")
grid = np.geomspace(1e-3, 5e-2, 40)
samples = heat_samples(inv, aw, spec, grid)
fit = fit_expansion(samples, [0.0, 0.5, 1.0, 1.5, 2.0], [0.0, 1.0])
c_log = fit.coefficient(0.0, log=True)
print(f"  ln t coefficient  {c_log:.8f}   (expected -pi = {-PI:.8f})")
print(f"  fit residual      {fit.residual:.2e},  condition {fit.condition:.1e}")

print("\n== shift invariance: the log coefficient ignores spectral shifts ==")
fit2 = fit_expansion(heat_samples(inv, SpectralWeight(power=1.0, shift=2.0),
                                  spec, grid),
                     [0.0, 0.5, 1.0, 1.5, 2.0], [0.0, 1.0])
print(f"  shift 1 vs shift 2: {c_log:.8f} vs "
      f"{fit2.coefficient(0.0, log=True):.8f}")

print("\n== zeta residues by Mellin splitting ==")
z1 = zeta_residue(one, aw, spec, 1.0,
                  exponents=[-1.0, 0.0, 1.0, 2.0, 3.0], log_exponents=[])
print(f"  residue at s=1 of the lattice zeta: {z1.residue:.8f}   (pi)")
z0 = zeta_residue(inv, aw, spec, 0.0,
                  exponents=[0.0, 0.5, 1.0, 1.5, 2.0],
                  log_exponents=[0.0, 1.0])
print(f"  residue at s=0 of trace(P A^-s):    {z0.residue:.8f}   (pi)")
z2 = zeta_residue(one, aw, spec, 2.0,
                  exponents=[-1.0, 0.0, 1.0, 2.0, 3.0], log_exponents=[])
print(f"  residue at the regular point s=2:   {z2.residue:.2e}")

print("\n== the triangle: residue = heat route = zeta route ==")
res = wodzicki_residue(laplace_shift_power(2, -1.0, 2), Torus(2)).real
heat_route = -(2 * PI) ** 2 * 2 * c_log
zeta_route = (2 * PI) ** 2 * 2 * z0.residue
print(f"  cosphere integral  {res:.6f}")
print(f"  heat route         {heat_route:.6f}")
print(f"  zeta route         {zeta_route:.6f}")
