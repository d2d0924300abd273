"""Cross-check suite: every advertised identity at its pinned tolerance.

Each check returns a :class:`CheckResult`, whose verdict is that of its
:class:`Leg` records, one per comparison.  `run_all` executes the whole
suite and is the backend of the ``verify`` task of the command line, while
``tests/test_acceptance.py`` calls each check on its own.  Within one run
every lattice is enumerated once: the checks that read a spectrum share
the run's pool of them (``spectra``), and a check called on its own
enumerates what it reads.  Each Dixmier and ln t expectation is derived
from the operator that a weight states on its model, by the references of
:mod:`ncres.residue`, not typed in.  Tolerances are fixed here, not
configurable: they encode the convergence analysis (closed forms at
1e-10/1e-8, lattice estimators at a few percent reflecting their 1/ln N
rate, fit extractions at 1-5%).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .halfline import boundary_term, pi_prime, rational, sg_symbol, \
    sg_trace, simple_pole, compose_gg, compose_kt, compose_tk
from .heatzeta import boundary_heat_test, fit_expansion, heat_samples, \
    zeta_residue
from .parametric import heat_log_coefficient_from_resolvent, \
    resolvent_log_coefficient, resolvent_log_coefficient_closed
from .residue import BdMSymbol, Cylinder, Torus, dixmier_formula, \
    dixmier_reference, heat_log_reference, weight_operator, \
    wodzicki_residue, zeta_reference
from .sampling import random_minus_fn, random_plus_fn, random_sg, random_symbol
from .spectral import SpectralWeight, SpectrumModel, cylinder_from_torus, \
    dixmier_estimate, enumerate_spectrum
from .symbols import classical_symbol, hom_term, laplace_shift_power, \
    leibniz_component, radial_term
from .writers import dixmier_csv, heat_csv


@dataclass(frozen=True)
class Leg:
    """One comparison of ``value`` with ``expected``.  Its error is
    |value - expected| / |expected| for kind 'rel', |value - expected| for
    'abs', and 0 if the two are equal else inf for 'exact'; the leg passes
    when the error is at most ``tol``, so a NaN error fails."""

    name: str
    value: object
    expected: object
    kind: str
    tol: float = 0.0

    @property
    def error(self):
        if self.kind == "exact":
            return 0.0 if self.value == self.expected else math.inf
        err = abs(self.value - self.expected)
        return err / abs(self.expected) if self.kind == "rel" else err

    @property
    def passed(self):
        return self.error <= self.tol


@dataclass
class CheckResult:
    name: str
    tolerance: str
    legs: list
    seconds: float = 0.0  # filled in by run_all

    # the headline leg fills the CSV row
    value = property(lambda self: self.legs[0].value)
    expected = property(lambda self: self.legs[0].expected)

    @property
    def passed(self):
        return all(leg.passed for leg in self.legs)

    def line(self):
        legs = "; ".join(f"{g.name} {g.kind} {g.error:.2e}/{g.tol:g}"
                         for g in self.legs)
        return (f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: "
                f"value={self.value:.10g} expected={self.expected:.10g} "
                f"({self.tolerance}) [{self.seconds:.1f}s] {legs}")


def _spectrum(spectra, model, last=False):
    """``model``'s spectrum from the run's pool, enumerated on first use;
    its last reader takes it out of the pool.  Without a pool (a check
    called on its own) it is enumerated afresh."""
    spectra = {} if spectra is None else spectra
    if model not in spectra:
        spectra[model] = enumerate_spectrum(model)
    return spectra.pop(model) if last else spectra[model]


# the lattices of criteria 04-05 and 06-07, their weight (1 + lam)^-1, and
# the heat generator A = 1 + lam
_CONNES_TORUS = SpectrumModel("torus_lattice", 2, 4000)
_HEAT_TORUS = SpectrumModel("torus_lattice", 2, 300)
_INV_SHIFTED = SpectralWeight(power=-1.0, shift=1.0)
_A = SpectralWeight(power=1.0, shift=1.0)


def check_residue_closed_form():
    """01: res (1 + Delta)^(-n/2) on T^n is |S^(n-1)| (2 pi)^n, n = 2, 3."""
    def res(n):
        return wodzicki_residue(laplace_shift_power(n, -n / 2.0, depth=2),
                                Torus(n)).real
    return CheckResult("residue_closed_form", "rel 1e-10, n=2 and 3", [
        Leg("n=2", res(2), 8 * math.pi ** 3, "rel", 1e-10),
        Leg("n=3", res(3), 32 * math.pi ** 4, "rel", 1e-10)])


def check_trace_property(seed=0):
    """02: the residue vanishes on commutators."""
    rng = np.random.default_rng(seed)
    geo = Torus(2)
    worst = 0.0
    empty = 0
    for _ in range(100):
        a = random_symbol(rng, n=2, max_order=2, depth=5)
        b = random_symbol(rng, n=2, max_order=2, depth=5)
        # the torus residue reads only the x-mean of the degree -2 slot
        ab = leibniz_component(a, b, -2, mean=True)
        ba = leibniz_component(b, a, -2, mean=True)
        # an empty product would pass the commutator gate vacuously
        empty += _empty_slot(ab, a, b) or _empty_slot(ba, b, a)
        r = wodzicki_residue(ab - ba, geo)
        worst = max(worst, abs(r) / (1.0 + a.norm1() * b.norm1()))
    return CheckResult(
        "trace_property",
        "<= 1e-8 * scale over 100 seeded pairs, no empty product", [
            Leg("commutator", worst, 0.0, "abs", 1e-8),
            Leg("empty products", empty, 0, "exact")])


def _empty_slot(mean, a, b):
    """Whether the degree -2 slot of a # b counts as empty, given its mean.
    Only an empty mean is checked, against the full slot: the pair counts
    when that slot is empty too, or holds zero-frequency atoms that the
    mean missed."""
    if not mean.is_zero:
        return False
    full = leibniz_component(a, b, -2)
    return full.is_zero or any(not any(k) for _, k, _, _ in full.atoms)


def check_boundary_algebra(seed=0):
    """03: pi' is exact, tr(K T) = T K, and the singular Green trace is
    cyclic."""
    h = rational((), [(1j, 1, 1 / 2j), (-1j, 1, -1 / 2j)])
    rng = np.random.default_rng(seed)
    compat = 0.0
    cyc = 0.0
    for _ in range(50):
        k = random_plus_fn(rng)
        t = random_minus_fn(rng)
        lhs = sg_trace(compose_kt(k, t))
        rhs = compose_tk(t, k)
        compat = max(compat, abs(lhs - rhs))
        g1 = random_sg(rng)
        g2 = random_sg(rng)
        cyc = max(cyc, abs(sg_trace(compose_gg(g1, g2)) -
                           sg_trace(compose_gg(g2, g1))))
    return CheckResult(
        "pi_prime_boundary_algebra",
        "exact projections; compat 1e-12; cyclicity 1e-10", [
            Leg("compat", compat, 0.0, "abs", 1e-12),
            Leg("cyclicity", cyc, 0.0, "abs", 1e-10),
            Leg("half", pi_prime(h), 0.5 + 0j, "exact"),
            Leg("killed", pi_prime(rational((0, 1), [(-1j, 1, 1.0)])), 0j,
                "exact")])


def check_connes_identity(spectra=None):
    """04: the Dixmier trace of (1 + Delta)^-1 on T^2 is its residue over
    2 (2 pi)^2, pi."""
    slope = dixmier_estimate(_spectrum(spectra, _CONNES_TORUS),
                             _INV_SHIFTED).slope
    return CheckResult("connes_identity_torus", "2% against the residue", [
        Leg("estimate", slope,
            dixmier_reference(_CONNES_TORUS, _INV_SHIFTED), "rel", 0.02)])


def check_boundary_dixmier(spectra=None):
    """05: Dixmier traces on the cylinder, its boundary circles and a
    singular Green term, by the spectrum and by ``dixmier_formula``."""
    # one spectrum alive at a time: the cylinder is derived in place from
    # criterion 04's torus, whose arrays it takes over without a copy
    cyl = replace(_CONNES_TORUS, kind="dirichlet_cylinder")
    w_c = SpectralWeight(power=-1.0, shift=0.0)
    circles = SpectrumModel("boundary_lattice", 1, 10 ** 6, copies=2)
    w_b = SpectralWeight(power=-0.5, shift=1.0)
    est_c = dixmier_estimate(cylinder_from_torus(
        _spectrum(spectra, _CONNES_TORUS, last=True)), w_c)
    est_b = dixmier_estimate(enumerate_spectrum(circles), w_b)
    # G with normal kernel e^{-a(x+y)} at both ends, a = sqrt(1+k^2): tr G
    # acts on the boundary with singular values ~ 1/|k|, Dixmier trace 2
    g = boundary_term(radial_term(-2.0, 1), sg_symbol(
        [(simple_pole(1j, -1j), simple_pole(-1j, 1j))]))
    f_g = dixmier_formula(BdMSymbol(Cylinder(2), green=(g,))).real
    rng = np.random.default_rng(7)
    kterm = boundary_term(hom_term(-2.0, 1, [(0.5, (1,), (0,), -2.0)]),
                          random_plus_fn(rng), kind="potential")
    tterm = boundary_term(hom_term(-1.0, 1, [(0.5, (0,), (0,), -1.0)]),
                          random_minus_fn(rng), kind="trace")
    # K and T are off-diagonal: exactly inert
    A_c = weight_operator(cyl, w_c)
    A_pert = BdMSymbol(Cylinder(2), p=A_c.p, potential=(kterm,),
                       trace_terms=(tterm,))
    return CheckResult(
        "boundary_dixmier",
        "cylinder 0.5%, boundary circles 2% against the residue, green "
        "term 2 at 1e-12, k/t inert", [
            Leg("cylinder", est_c.slope, dixmier_reference(cyl, w_c), "rel",
                0.005),
            Leg("circles", est_b.slope, dixmier_reference(circles, w_b),
                "rel", 0.02),
            Leg("green", f_g, 2.0, "abs", 1e-12),
            Leg("k/t inert", dixmier_formula(A_pert), dixmier_formula(A_c),
                "exact")])


def check_heat_log_coefficient(spectra=None):
    """06: the ln t coefficient of Tr P e^(-tA) on T^2 is
    -res P / (2 (2 pi)^2), -pi, for two shifts of A."""
    spec = _spectrum(spectra, _HEAT_TORUS)
    grid = np.geomspace(1e-3, 5e-2, 40)
    exps = [0.0, 0.5, 1.0, 1.5, 2.0]
    logs = [0.0, 1.0]
    coeffs = []
    for shift in (1.0, 2.0):
        aw = SpectralWeight(power=1.0, shift=shift)
        fit = fit_expansion(heat_samples(_INV_SHIFTED, aw, spec, grid),
                            exps, logs)
        coeffs.append(fit.coefficient(0.0, log=True))
    return CheckResult("heat_log_coefficient", "2%; shift invariance 0.5%", [
        Leg("ln t", coeffs[0],
            heat_log_reference(_HEAT_TORUS, _INV_SHIFTED, _A), "rel", 0.02),
        Leg("shift", coeffs[1], coeffs[0], "rel", 0.005)])


def check_zeta_residues(spectra=None):
    """07: the zeta residues at s = 1 and s = 0 on T^2, pi, each minus the
    ln t coefficient of P A^-s."""
    spec = _spectrum(spectra, _HEAT_TORUS, last=True)
    one = SpectralWeight(power=0.0)
    z1 = zeta_residue(one, _A, spec, 1.0,
                      exponents=[-1.0, 0.0, 1.0, 2.0, 3.0],
                      log_exponents=[])
    z0 = zeta_residue(_INV_SHIFTED, _A, spec, 0.0,
                      exponents=[0.0, 0.5, 1.0, 1.5, 2.0],
                      log_exponents=[0.0, 1.0])
    return CheckResult("zeta_residues", "s=1 1%; s=0 2%", [
        Leg("s=1", z1.residue, zeta_reference(_HEAT_TORUS, one, _A, 1.0),
            "rel", 0.01),
        Leg("s=0", z0.residue, zeta_reference(_HEAT_TORUS, _INV_SHIFTED, _A,
                                              0.0), "rel", 0.02)])


def check_parametric_routes(seed=0):
    """08: the resolvent log coefficient by its closed form and by
    composition, and back to the residue."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        p = random_symbol(rng, n=2, max_order=0, depth=3)
        m = int(rng.integers(1, 3))
        k = int(rng.integers(1, 4))
        a = classical_symbol(
            [radial_term(m, 2),
             hom_term(m - 1.0, 2,
                      [(complex(rng.normal(), rng.normal()),
                        (1, 0), (0, 0), m - 1.0)])], 2)
        closed = resolvent_log_coefficient_closed(p, m, k)
        route = resolvent_log_coefficient(p, a, k)
        worst = max(worst, abs(route - closed) / (1.0 + abs(closed)))
    # the route for (1 + Delta)^-1 and an auxiliary of order 2, turned into
    # the ln t coefficient that the heat trace of its weight derives
    p1 = weight_operator(_HEAT_TORUS, _INV_SHIFTED).p
    c = heat_log_coefficient_from_resolvent(resolvent_log_coefficient(
        p1, classical_symbol([radial_term(2, 2)], 2), 2), 2)
    return CheckResult(
        "parametric_routes",
        "route agreement 1e-8; residue loop 1e-8",
        [Leg("routes", worst, 0.0, "abs", 1e-8),
         Leg("residue loop", c,
             heat_log_reference(_HEAT_TORUS, _INV_SHIFTED, _A), "rel", 1e-8)])


def check_boundary_heat():
    """09: the ln t coefficient of Tr P+ e^(-tA) on [0, pi] x S^1 against
    the boundary residue."""
    c = boundary_heat_test().log_coefficient
    # P = (1 + Delta)^-1 on the Dirichlet cylinder, -pi/2; the map reads no
    # cutoff, and the half-space picks its own
    cyl = SpectrumModel("dirichlet_cylinder", 2, 1)
    return CheckResult("boundary_heat_log", "5%", [
        Leg("ln t", c, heat_log_reference(cyl, _INV_SHIFTED, _A), "rel",
            0.05)])


def check_determinism():
    """10: two passes over the lattice outputs are byte-identical.  Each
    enumerates its own spectra: the run's pool would make the two passes
    read one input.  The check keeps the name that callers match on."""
    def run():
        parts = []
        parts.append(dixmier_csv(dixmier_estimate(enumerate_spectrum(
            SpectrumModel("torus_lattice", 2, 800)), _INV_SHIFTED), {}))
        spec = enumerate_spectrum(SpectrumModel("torus_lattice", 2, 200))
        s = heat_samples(_INV_SHIFTED, _A, spec, np.geomspace(1e-3, 5e-2, 25))
        parts.append(heat_csv(s, {}))
        z = zeta_residue(_INV_SHIFTED, _A, spec, 0.0,
                         exponents=[0.0, 0.5, 1.0, 1.5, 2.0],
                         log_exponents=[0.0, 1.0])
        parts.append(repr(z.residue).encode())
        parts.append(dixmier_csv(dixmier_estimate(enumerate_spectrum(
            SpectrumModel("dirichlet_cylinder", 2, 500)),
            SpectralWeight(power=-1.0, shift=0.0)), {}))
        return b"|".join(parts)

    return CheckResult(
        "determinism_across_threads", "byte-identical CSV over two runs",
        [Leg("two runs", float(run() == run()), 1.0, "exact")])


ALL_CHECKS = [
    check_residue_closed_form,
    check_trace_property,
    check_boundary_algebra,
    check_connes_identity,
    check_boundary_dixmier,
    check_heat_log_coefficient,
    check_zeta_residues,
    check_parametric_routes,
    check_boundary_heat,
    check_determinism,
]


def run_all(seed=0, progress=None):
    """Run the suite; returns (results, all_passed)."""
    results = []
    spectra = {}   # SpectrumModel -> Spectrum, shared by this run's checks
    for fn in ALL_CHECKS:
        params = fn.__code__.co_varnames[:fn.__code__.co_argcount]
        kwargs = {k: v for k, v in (("seed", seed), ("spectra", spectra))
                  if k in params}
        t0 = time.perf_counter()
        result = fn(**kwargs)
        result.seconds = time.perf_counter() - t0
        results.append(result)
        if progress is not None:
            progress(result)
    return results, all(r.passed for r in results)
