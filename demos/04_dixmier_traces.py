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
Each formula reads the operator that the weight states on its model
(``weight_operator``), so the operator is written once.  The Dirichlet
cylinder's spectrum is derived from the torus's in place, so the lattice is
counted once; the torus is not read after that.
"""

import math

from ncres import (SpectralWeight, SpectrumModel, dixmier_estimate,
                   dixmier_formula, enumerate_spectrum, weight_operator)
from ncres.spectral import cylinder_from_torus

PI = math.pi

print("== closed torus: 2-d lattice, weight (1 + |k|^2)^-1 ==")
torus = enumerate_spectrum(SpectrumModel("torus_lattice", 2, 1500))
w = SpectralWeight(power=-1.0, shift=1.0)
est = dixmier_estimate(torus, w)
print(f"  slope estimate      {est.slope:.6f}    (pi = {PI:.6f})")
print(f"  sigma_N / ln N      {est.ratio_values[-1]:.6f}    (slow route)")
print(f"  cesaro tail         {est.cesaro_tail:.6f}    "
      f"(drift {est.cesaro_drift:.4f})")
A = weight_operator(torus.model, w)
print(f"  symbol formula      {dixmier_formula(A).real:.6f}")

print("\n== Dirichlet cylinder: half-lattice, weight 1/|k|^2 ==")
cylinder = cylinder_from_torus(torus)
w_c = SpectralWeight(power=-1.0, shift=0.0)
est_c = dixmier_estimate(cylinder, w_c)
Ac = weight_operator(cylinder.model, w_c)
print(f"  slope estimate      {est_c.slope:.6f}    (pi/2 = {PI / 2:.6f})")
print(f"  symbol formula      {dixmier_formula(Ac).real:.6f}")
print("  the value is blind to the boundary condition: any inverse of the")
print("  same interior operator shares the interior symbol block.")

print("\n== two boundary circles: weight (1 + k^2)^(-1/2), both copies ==")
bdry = SpectrumModel("boundary_lattice", 1, 10 ** 6, copies=2)
w_b = SpectralWeight(power=-0.5, shift=1.0)
est_b = dixmier_estimate(enumerate_spectrum(bdry), w_b)
Ab = weight_operator(bdry, w_b)   # the s entry of the cylinder they bound
print(f"  slope estimate      {est_b.slope:.6f}    (expected 4)")
print(f"  symbol formula      {dixmier_formula(Ab).real:.6f}")

print("\n== trace-class weights estimate to zero ==")
tc = dixmier_estimate(enumerate_spectrum(
    SpectrumModel("torus_lattice", 2, 300)),
    SpectralWeight(power=-3.0, shift=1.0))
print(f"  slope for weight (1+|k|^2)^-3: {tc.slope:.2e}")
