"""Dixmier traces two ways: spectral estimation versus symbol formula.

For weighted model spectra the partial sums grow like (trace) * ln N, so the
least-squares slope of sigma_N against ln N estimates the singular trace and
converges much faster than sigma_N / ln N itself (whose error decays only
like 1/ln N).  The logarithmic Cesaro mean of the ratio is carried along as
a corroborating diagnostic.  The symbol formula gives the same numbers from
cosphere integrals: interior weight (2 pi)^-n / n, boundary weight
(2 pi)^(1-n) / (n-1).  The boundary weight also applies to the normal trace
of a singular Green entry, which acts on the boundary with order 1-n; only
the off-diagonal potential and trace entries contribute nothing.
The Dirichlet cylinder's spectrum is derived from the torus's in place, so
the lattice is counted once; the torus is not read after that.
"""

import math

from ncres import (BdMSymbol, Cylinder, SpectralWeight, SpectrumModel, Torus,
                   classical_symbol, dixmier_estimate, dixmier_formula,
                   enumerate_spectrum, laplace_shift_power, radial_term)
from ncres.spectral import cylinder_from_torus

PI = math.pi

print("== closed torus: 2-d lattice, weight (1 + |k|^2)^-1 ==")
torus = enumerate_spectrum(SpectrumModel("torus_lattice", 2, 1500))
est = dixmier_estimate(torus, SpectralWeight(power=-1.0, shift=1.0))
print(f"  slope estimate      {est.slope:.6f}    (pi = {PI:.6f})")
print(f"  sigma_N / ln N      {est.ratio_values[-1]:.6f}    (slow route)")
print(f"  cesaro tail         {est.cesaro_tail:.6f}    "
      f"(drift {est.cesaro_drift:.4f})")
A = BdMSymbol(Torus(2), p=laplace_shift_power(2, -1.0, 2))
print(f"  symbol formula      {dixmier_formula(A).real:.6f}")

print("\n== Dirichlet cylinder: half-lattice, weight 1/|k|^2 ==")
est_c = dixmier_estimate(cylinder_from_torus(torus),
                         SpectralWeight(power=-1.0, shift=0.0))
Ac = BdMSymbol(Cylinder(2), p=classical_symbol([radial_term(-2.0, 2)], 2))
print(f"  slope estimate      {est_c.slope:.6f}    (pi/2 = {PI / 2:.6f})")
print(f"  symbol formula      {dixmier_formula(Ac).real:.6f}")
print("  the value is blind to the boundary condition: any inverse of the")
print("  same interior operator shares the interior symbol block.")

print("\n== two boundary circles: weight (1 + k^2)^(-1/2), both copies ==")
bdry = SpectrumModel("boundary_lattice", 1, 10 ** 6, copies=2)
est_b = dixmier_estimate(enumerate_spectrum(bdry),
                         SpectralWeight(power=-0.5, shift=1.0))
Ab = BdMSymbol(Cylinder(2), s=classical_symbol([radial_term(-1.0, 1)], 1))
print(f"  slope estimate      {est_b.slope:.6f}    (expected 4)")
print(f"  symbol formula      {dixmier_formula(Ab).real:.6f}")

print("\n== trace-class weights estimate to zero ==")
tc = dixmier_estimate(enumerate_spectrum(
    SpectrumModel("torus_lattice", 2, 300)),
    SpectralWeight(power=-3.0, shift=1.0))
print(f"  slope for weight (1+|k|^2)^-3: {tc.slope:.2e}")
