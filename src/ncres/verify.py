"""Cross-check suite: every advertised identity at its pinned tolerance.

Each check returns a :class:`CheckResult`; `run_all` executes the suite
(the slow cylinder heat-trace check is skipped in fast mode) and is the
backend of both ``tests/test_acceptance.py`` and the ``verify`` task of the
command line.  Tolerances are fixed here, not configurable: they encode the
convergence analysis (closed forms at 1e-10/1e-8, lattice estimators at a
few percent reflecting their 1/ln N rate, fit extractions at 1-5%).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .halfline import boundary_term, pi_prime, rational, sg_symbol, \
    sg_trace, simple_pole, compose_gg, compose_kt, compose_tk
from .heatzeta import boundary_heat_test, fit_expansion, heat_samples, \
    zeta_residue
from .parametric import heat_log_coefficient_from_resolvent, \
    resolvent_log_coefficient, resolvent_log_coefficient_closed
from .residue import TWO_PI, BdMSymbol, Cylinder, Torus, dixmier_formula, \
    wodzicki_residue
from .sampling import random_minus_fn, random_plus_fn, random_sg, random_symbol
from .spectral import SpectralWeight, SpectrumModel, dixmier_estimate, \
    enumerate_spectrum
from .symbols import classical_symbol, hom_term, laplace_shift_power, \
    leibniz_component, radial_term, sphere_moment
from .writers import dixmier_csv, heat_csv


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    expected: float
    tolerance: str
    detail: str
    seconds: float = 0.0  # filled in by run_all

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: value={self.value:.10g} "
                f"expected={self.expected:.10g} ({self.tolerance}) "
                f"[{self.seconds:.1f}s] {self.detail}")


# --- 1 -----------------------------------------------------------------


def check_residue_closed_form():
    worst = 0.0
    vals = []
    for n in (2, 3):
        a = laplace_shift_power(n, -n / 2.0, depth=2)
        got = wodzicki_residue(a, Torus(n)).real
        want = sphere_moment((0,) * n, n) * TWO_PI ** n
        worst = max(worst, abs(got - want) / want)
        vals.append(got)
    return CheckResult(
        "residue_closed_form", worst <= 1e-10, vals[0], 8 * math.pi ** 3,
        "rel 1e-10, n=2 and 3", f"worst rel err {worst:.2e}")


# --- 2 -----------------------------------------------------------------


def check_trace_property(seed=0):
    rng = np.random.default_rng(seed)
    geo = Torus(2)
    worst = 0.0
    empty = 0
    for _ in range(100):
        a = random_symbol(rng, n=2, max_order=2, depth=5)
        b = random_symbol(rng, n=2, max_order=2, depth=5)
        ab = leibniz_component(a, b, -2)
        ba = leibniz_component(b, a, -2)
        # an empty product would pass the commutator gate vacuously
        empty += ab.is_zero or ba.is_zero
        r = wodzicki_residue(ab - ba, geo)
        worst = max(worst, abs(r) / (1.0 + a.norm1() * b.norm1()))
    return CheckResult(
        "trace_property", worst <= 1e-8 and not empty, worst, 0.0,
        "<= 1e-8 * scale over 100 seeded pairs, no empty product",
        f"worst scaled commutator residue {worst:.2e}, "
        f"empty products {empty}")


# --- 3 -----------------------------------------------------------------


def check_boundary_algebra(seed=0):
    h = rational((), [(1j, 1, 1 / 2j), (-1j, 1, -1 / 2j)])
    exact_half = pi_prime(h) == 0.5 + 0j
    killed = (pi_prime(rational((0, 1), [(-1j, 1, 1.0)])) == 0j)
    exact = exact_half and killed
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
    ok = exact and compat <= 1e-12 and cyc <= 1e-10
    return CheckResult(
        "pi_prime_boundary_algebra", ok, compat, 0.0,
        "exact projections; compat 1e-12; cyclicity 1e-10",
        f"exact={exact} compat={compat:.2e} cyclicity={cyc:.2e}")


# --- 4 -----------------------------------------------------------------


def connes_estimate(cutoff=4000):
    return dixmier_estimate(enumerate_spectrum(
        SpectrumModel("torus_lattice", 2, cutoff)),
        SpectralWeight(power=-1.0, shift=1.0))


def check_connes_identity():
    slope = connes_estimate().slope
    res = wodzicki_residue(laplace_shift_power(2, -1.0, 2), Torus(2)).real
    rel = max(abs(slope - math.pi) / math.pi,
              abs(TWO_PI ** 2 * 2 * slope - res) / res)
    return CheckResult(
        "connes_identity_torus", rel <= 0.02, slope, math.pi,
        "2% for the estimate and against the residue",
        f"worst rel dev {rel:.2e}")


# --- 5 -----------------------------------------------------------------


def cylinder_estimate(cutoff=4000):
    return dixmier_estimate(enumerate_spectrum(
        SpectrumModel("dirichlet_cylinder", 2, cutoff)),
        SpectralWeight(power=-1.0, shift=0.0))


def check_boundary_dixmier():
    # one spectrum alive at a time: the cylinder's is the large one
    est_c = cylinder_estimate()
    est_b = dixmier_estimate(enumerate_spectrum(
        SpectrumModel("boundary_lattice", 1, 10 ** 6, copies=2)),
        SpectralWeight(power=-0.5, shift=1.0))
    A_c = BdMSymbol(Cylinder(2), p=classical_symbol([radial_term(-2, 2)], 2))
    A_b = BdMSymbol(Cylinder(2), s=classical_symbol([radial_term(-1, 1)], 1))
    f_c = dixmier_formula(A_c).real
    f_b = dixmier_formula(A_b).real
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
    A_pert = BdMSymbol(Cylinder(2), p=A_c.p, potential=(kterm,),
                       trace_terms=(tterm,))
    invariant = dixmier_formula(A_pert) == dixmier_formula(A_c)
    rels = [abs(est_c.slope - math.pi / 2) / (math.pi / 2),
            abs(est_b.slope - 4.0) / 4.0,
            abs(f_c - math.pi / 2) / (math.pi / 2),
            abs(f_b - 4.0) / 4.0,
            abs(est_c.slope - f_c) / f_c,
            abs(est_b.slope - f_b) / f_b]
    ok = rels[0] <= 0.03 and rels[1] <= 0.02 and rels[2] <= 1e-12 \
        and rels[3] <= 1e-12 and rels[4] <= 0.03 and rels[5] <= 0.02 \
        and abs(f_g - 2.0) <= 1e-12 and invariant
    return CheckResult(
        "boundary_dixmier", ok, est_c.slope, math.pi / 2,
        "cylinder 3%, boundary circles 2%, formula exact, green term 2 "
        "at 1e-12, k/t inert",
        f"cylinder={est_c.slope:.6f} circles={est_b.slope:.6f} "
        f"green={f_g!r} kt_inert={invariant}")


# --- 6 -----------------------------------------------------------------


def heat_log_inputs(cutoff=300):
    spec = enumerate_spectrum(SpectrumModel("torus_lattice", 2, cutoff))
    pw = SpectralWeight(power=-1.0, shift=1.0)
    return spec, pw


def check_heat_log_coefficient():
    spec, pw = heat_log_inputs()
    grid = np.geomspace(1e-3, 5e-2, 40)
    exps = [0.0, 0.5, 1.0, 1.5, 2.0]
    logs = [0.0, 1.0]
    coeffs = []
    for shift in (1.0, 2.0):
        aw = SpectralWeight(power=1.0, shift=shift)
        fit = fit_expansion(heat_samples(pw, aw, spec, grid), exps, logs)
        coeffs.append(fit.coefficient(0.0, log=True))
    rel = abs(coeffs[0] + math.pi) / math.pi
    shift_rel = abs(coeffs[1] - coeffs[0]) / abs(coeffs[0])
    return CheckResult(
        "heat_log_coefficient", rel <= 0.02 and shift_rel <= 0.005,
        coeffs[0], -math.pi, "2%; shift invariance 0.5%",
        f"rel {rel:.2e}, shift delta {shift_rel:.2e}")


# --- 7 -----------------------------------------------------------------


def check_zeta_residues():
    spec, pw = heat_log_inputs()
    one = SpectralWeight(power=0.0)
    aw = SpectralWeight(power=1.0, shift=1.0)
    z1 = zeta_residue(one, aw, spec, 1.0,
                      exponents=[-1.0, 0.0, 1.0, 2.0, 3.0],
                      log_exponents=[])
    z0 = zeta_residue(pw, aw, spec, 0.0,
                      exponents=[0.0, 0.5, 1.0, 1.5, 2.0],
                      log_exponents=[0.0, 1.0])
    rel_eps = abs(z1.residue - math.pi) / math.pi
    rel_z0 = abs(z0.residue - math.pi) / math.pi
    return CheckResult(
        "zeta_residues", rel_eps <= 0.01 and rel_z0 <= 0.02, z1.residue,
        math.pi, "s=1 1%; s=0 2%",
        f"s=1 {rel_eps:.2e}, s=0 {rel_z0:.2e}")


# --- 8 -----------------------------------------------------------------


def check_parametric_routes(seed=0):
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
        a2 = classical_symbol([radial_term(m, 2)], 2)
        route2 = resolvent_log_coefficient(p, a2, k)
        scale = 1.0 + abs(closed)
        worst = max(worst, abs(route - closed) / scale,
                    abs(route - route2) / scale)
    p1 = laplace_shift_power(2, -1.0, 2)
    a1 = classical_symbol([radial_term(2, 2)], 2)
    c = heat_log_coefficient_from_resolvent(
        resolvent_log_coefficient(p1, a1, 2), 2)
    res = wodzicki_residue(p1, Torus(2)).real
    loop = abs(-TWO_PI ** 2 * 2 * c - res) / res
    ok = worst <= 1e-8 and loop <= 1e-8
    return CheckResult(
        "parametric_routes", ok, worst, 0.0,
        "route agreement and auxiliary independence 1e-8; residue loop 1e-8",
        f"worst route dev {worst:.2e}, residue loop {loop:.2e}")


# --- 9 -----------------------------------------------------------------


def check_boundary_heat():
    c = boundary_heat_test().log_coefficient
    rel = abs(c + math.pi / 2) / (math.pi / 2)
    return CheckResult(
        "boundary_heat_log", rel <= 0.05, c, -math.pi / 2, "5%",
        f"rel {rel:.2e}")


# --- 10 ----------------------------------------------------------------


def check_determinism():
    # keeps the name that callers match on; compares two runs byte for byte
    def run():
        parts = []
        parts.append(dixmier_csv(connes_estimate(cutoff=800), {}))
        spec, pw = heat_log_inputs(cutoff=200)
        aw = SpectralWeight(power=1.0, shift=1.0)
        s = heat_samples(pw, aw, spec, np.geomspace(1e-3, 5e-2, 25))
        parts.append(heat_csv(s, {}))
        z = zeta_residue(pw, aw, spec, 0.0,
                         exponents=[0.0, 0.5, 1.0, 1.5, 2.0],
                         log_exponents=[0.0, 1.0])
        parts.append(repr(z.residue).encode())
        parts.append(dixmier_csv(cylinder_estimate(cutoff=500), {}))
        return b"|".join(parts)

    same = run() == run()
    return CheckResult(
        "determinism_across_threads", same, float(same), 1.0,
        "byte-identical CSV over two runs",
        "dixmier + heat + zeta + cylinder outputs compared")


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


def run_all(fast=False, seed=0, progress=None):
    """Run the suite; returns (results, all_passed)."""
    results = []
    for fn in ALL_CHECKS:
        kwargs = {}
        if "seed" in fn.__code__.co_varnames[:fn.__code__.co_argcount]:
            kwargs["seed"] = seed
        if fast and fn is check_boundary_heat:
            continue
        t0 = time.perf_counter()
        result = fn(**kwargs)
        result.seconds = time.perf_counter() - t0
        results.append(result)
        if progress is not None:
            progress(result)
    return results, all(r.passed for r in results)
