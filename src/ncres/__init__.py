"""Noncommutative residues, Dixmier traces and heat-trace expansions on
model geometries: exact symbol calculus on tori, a rational boundary-fiber
calculus, explicit-spectrum estimators and the cross-checks tying them
together."""

from ._version import __version__
from .halfline import (PlusMinusDecomp, RationalFn, SGSymbol, boundary_term,
                       compose_gg, compose_kt, compose_tk, from_ratio,
                       pi_prime, pm_decompose, polynomial, rational,
                       sg_symbol, sg_trace, simple_pole, tr_boundary_term)
from .heatzeta import (AsymptoticFit, HeatSamples, boundary_heat_test,
                       fit_expansion, heat_samples, zeta_residue)
from .parametric import (resolvent_log_coefficient,
                         resolvent_log_coefficient_closed)
from .residue import (BdMSymbol, Cylinder, ResidueBreakdown, Torus,
                      boundary_residue, dixmier_formula, residue_density,
                      wodzicki_residue)
from .spectral import (DixmierEstimate, SpectralWeight, SpectrumModel,
                       cesaro_mean, dixmier_estimate, enumerate_spectrum)
from .symbols import (ClassicalSymbol, HomTerm, classical_symbol, commutator,
                      hom_term, identity_symbol, laplace_shift_power,
                      leibniz_component, leibniz_compose, radial_term,
                      sphere_integrate, sphere_moment, transmission_check)
from .literals import format_symbol, parse_symbol

__all__ = [
    "PlusMinusDecomp", "RationalFn", "SGSymbol", "boundary_term", "compose_gg",
    "compose_kt", "compose_tk", "from_ratio", "pi_prime", "pm_decompose",
    "polynomial", "rational", "sg_symbol", "sg_trace", "simple_pole",
    "tr_boundary_term", "AsymptoticFit", "HeatSamples", "boundary_heat_test",
    "fit_expansion", "heat_samples", "zeta_residue",
    "resolvent_log_coefficient", "resolvent_log_coefficient_closed",
    "BdMSymbol", "Cylinder", "ResidueBreakdown", "Torus",
    "boundary_residue", "residue_density", "wodzicki_residue",
    "DixmierEstimate", "SpectralWeight", "SpectrumModel",
    "cesaro_mean", "dixmier_estimate", "dixmier_formula", "enumerate_spectrum",
    "ClassicalSymbol", "HomTerm", "classical_symbol", "commutator",
    "hom_term", "identity_symbol", "laplace_shift_power", "leibniz_component",
    "leibniz_compose", "radial_term", "sphere_integrate", "sphere_moment",
    "transmission_check", "format_symbol", "parse_symbol",
]
