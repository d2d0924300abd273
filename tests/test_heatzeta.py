"""Heat traces, expansion fits, zeta residues, half-space boundary trace."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import exp1

from ncres.errors import (ConfigError, IllConditionedFitError, TailBoundError,
                          WindowError)
from ncres.heatzeta import (HeatSamples, _sine_weight_matrix,
                            boundary_heat_test, default_exponents,
                            fit_expansion, halfspace_heat_samples,
                            heat_samples, zeta_residue)
from ncres.spectral import (SpectralWeight, SpectrumModel, dixmier_estimate,
                            enumerate_spectrum)
from ncres.summation import DEFAULT_CHUNK, chunked_sum

PI = math.pi
ONE = SpectralWeight(power=0.0)
INV = SpectralWeight(power=-1.0, shift=1.0)
AW = SpectralWeight(power=1.0, shift=1.0)
LAM = SpectralWeight(power=1.0)


def torus(cutoff=120):
    return enumerate_spectrum(SpectrumModel("torus_lattice", 2, cutoff))


def theta_1d(t, K=60):
    return sum(math.exp(-t * k * k) for k in range(-K, K + 1))


def heat_at(p_weight, a_weight, spec, t):
    s = heat_samples(p_weight, a_weight, spec, [t])
    return s.values[0], s.tail_bounds[0]


def test_heat_trace_factorizes():
    for t in (0.5, 1.0, 2.0):
        v, bound = heat_at(ONE, AW, torus(), t)
        want = math.exp(-t) * theta_1d(t) ** 2
        assert v == pytest.approx(want, rel=1e-12)
        assert bound < 1e-12


def test_heat_trace_large_t_dominated_by_bottom_mode():
    t = 40.0
    v, _ = heat_at(INV, AW, torus(), t)
    assert v == pytest.approx(math.exp(-t), rel=1e-6)


# Jacobi inversion: sum_j e^{-t j^2} = theta(t)
# = sqrt(pi/t) sum_m e^{-pi^2 m^2/t}, so trace exp(t Delta) is theta^2 = pi/t
# on T^2 and theta (theta - 1) / 2 = pi/(2t) - sqrt(pi/t)/2 on the Dirichlet
# cylinder [0, pi] x S^1, up to terms below e^{-pi^2/t};
# (exact trace, t^-1 and t^-1/2 coefficients)
THETA_TRACES = {
    "torus_lattice": (lambda th: th * th, PI, 0.0),
    "dirichlet_cylinder": (lambda th: 0.5 * th * (th - 1.0), PI / 2,
                           -math.sqrt(PI) / 2),
}


@pytest.mark.parametrize("kind", sorted(THETA_TRACES))
def test_heat_trace_small_t_leading_term(kind):
    exact, c_inv, c_half = THETA_TRACES[kind]
    spec = enumerate_spectrum(SpectrumModel(kind, 2, 300))
    samples = heat_samples(ONE, LAM, spec, np.geomspace(1e-3, 5e-2, 40))
    t = samples.t
    theta = np.sqrt(PI / t) * sum(np.exp(-PI ** 2 * m * m / t)
                                  for m in range(-6, 7))
    want = exact(theta)
    # truncation is certified; summing the distinct eigenvalues rounds
    rounding = spec.values.size * np.finfo(float).eps * want
    assert np.all(np.abs(samples.values - want)
                  <= samples.tail_bounds + rounding)
    fit = fit_expansion(samples, [-1.0, -0.5, 0.0, 0.5, 1.0], [])
    assert fit.coefficient(-1.0) == pytest.approx(c_inv, abs=1e-9)
    assert fit.coefficient(-0.5) == pytest.approx(c_half, abs=1e-9)


def theta_flat(kind, s):
    """Theta(s) - c/s - h/sqrt(s) for the (c, h) of THETA_TRACES, flat at
    s = 0.  With theta = r (1 + 2E), r = sqrt(pi/s) and E = sum_{m >= 1}
    e^{-pi^2 m^2/s}, no singular term is subtracted in floating point."""
    r = math.sqrt(PI / s)
    e = math.fsum(math.exp(-PI ** 2 * m * m / s) for m in range(1, 80))
    flat = 4.0 * r * r * e * (1.0 + e)   # theta^2 - pi/s
    if kind == "dirichlet_cylinder":
        flat = 0.5 * flat - r * e        # (theta^2 - theta)/2 - pi/2s + r/2
    return flat


S_END = 60.0   # e^-s Theta(s) beyond it is below 1e-25


def flat_integral(kind, lo, hi):
    g = lambda s: math.exp(-s) * theta_flat(kind, s)
    return sum(quad(g, a, b, epsabs=1e-15, epsrel=1e-14, limit=200)[0]
               for a, b in ((lo, min(hi, 1.0)), (max(lo, 1.0), hi)) if a < b)


@pytest.mark.parametrize("kind", sorted(THETA_TRACES))
def test_heat_trace_of_the_resolvent_matches_theta_inversion(kind):
    # P = (1 + Delta)^-1 and A = 1 + Delta: the trace is
    # F(t) = int_t^inf e^-s Theta(s) ds = c E_1(t) + h Gamma(1/2, t)
    #        + int_t^inf e^-s (Theta - c/s - h/sqrt(s)) ds,
    # so ln t carries -c, t^0 -c gamma + h sqrt(pi) + int_0^inf of the
    # flat part, t^1/2 -2h and t^1 c
    _, c, h = THETA_TRACES[kind]
    spec = enumerate_spectrum(SpectrumModel(kind, 2, 300))
    samples = heat_samples(INV, AW, spec, np.geomspace(1e-3, 5e-2, 40))
    want = np.array([c * exp1(t) + h * math.sqrt(PI) * math.erfc(math.sqrt(t))
                     + flat_integral(kind, t, S_END) for t in samples.t])
    rounding = spec.values.size * np.finfo(float).eps * want
    assert np.all(np.abs(samples.values - want)
                  <= samples.tail_bounds + rounding)
    fit = fit_expansion(samples, [0.0, 0.5, 1.0, 1.5, 2.0], [0.0, 1.0])
    t0 = -c * np.euler_gamma + h * math.sqrt(PI) \
        + flat_integral(kind, 0.0, S_END)
    assert fit.coefficient(0.0, log=True) == pytest.approx(-c, rel=2e-5)
    assert fit.coefficient(0.0) == pytest.approx(t0, rel=2e-4)
    assert fit.coefficient(0.5) == pytest.approx(-2.0 * h, abs=5e-3)
    assert fit.coefficient(1.0) == pytest.approx(c, rel=0.05)


def test_zeta_entire_part_of_the_resolvent_matches_theta_inversion():
    # int_1^40 F(t) dt/t = int_1^inf e^-s Theta(s) ln min(s, 40) ds
    z = zeta_residue(INV, AW, torus(300), 0.0,
                     exponents=[0.0, 0.5, 1.0, 1.5, 2.0],
                     log_exponents=[0.0, 1.0])
    exact = THETA_TRACES["torus_lattice"][0]
    want = quad(lambda s: math.exp(-s) * exact(theta_1d(s))
                * math.log(min(s, 40.0)), 1.0, S_END, points=[40.0],
                limit=200)[0]
    assert z.entire_part == pytest.approx(want, rel=1e-3)


def test_tail_bound_certifies_cutoff_doubling():
    grid = np.geomspace(1e-3, 5e-2, 12)
    s1 = heat_samples(INV, AW, torus(150), grid)
    s2 = heat_samples(INV, AW, torus(300), grid)
    # allowance for summation roundoff where the analytic tail underflows
    roundoff = 1e-13 * (1.0 + np.abs(s1.values))
    assert np.all(np.abs(s2.values - s1.values) <= s1.tail_bounds + roundoff)


def test_copies_double_heat_values_and_tails():
    # copies multiplies every multiplicity, whatever the model kind
    grid = np.geomspace(1e-3, 0.5, 7)
    one, two = (heat_samples(INV, AW, enumerate_spectrum(
        SpectrumModel("torus_lattice", 2, 60, copies=c)), grid)
        for c in (1, 2))
    assert np.array_equal(two.values, 2 * one.values)
    assert np.array_equal(two.tail_bounds, 2 * one.tail_bounds)


def test_tail_bound_raises_when_unattainable():
    # at cutoff 20 the dropped modes outweigh the fitted terms at t = 1e-3
    samples = heat_samples(ONE, AW, torus(20), np.geomspace(1e-3, 5e-2, 12))
    with pytest.raises(TailBoundError):
        fit_expansion(samples, [-1.0, -0.5, 0.0])


def test_tail_bound_rejects_growing_weight():
    # P = lam^2 grows beyond the cutoff: its value there bounds nothing
    # (dropped mass 1.48e6 against 1.21e6 read at the cutoff)
    with pytest.raises(TailBoundError):
        heat_at(SpectralWeight(power=2.0), AW, torus(20), 0.01)


@settings(max_examples=150, deadline=None)
@given(power=st.floats(-3.0, 3.0), shift=st.floats(0.0, 5.0),
       rate=st.floats(0.0, 1.0), scale=st.floats(0.1, 10.0),
       cutoff=st.floats(10.0, 40.0), t=st.floats(1e-3, 1.0))
def test_tail_bound_holds_or_raises(power, shift, rate, scale, cutoff, t):
    pw = SpectralWeight(power=power, shift=shift, rate=rate, scale=scale)
    try:
        near, bound = heat_at(pw, AW, torus(cutoff), t)
        far, _ = heat_at(pw, AW, torus(2 * cutoff), t)
    except (TailBoundError, ConfigError):
        return
    assert bound >= far - near - 1e-12 * abs(far)


@pytest.mark.parametrize("a_weight", [
    SpectralWeight(power=2.0, shift=1.0),
    SpectralWeight(power=1.0, shift=1.0, rate=0.5),
    SpectralWeight(power=1.0, shift=1.0, scale=-1.0),
    SpectralWeight(power=1.0, shift=1.0, scale=0.0)])
def test_non_affine_a_weight_rejected(a_weight):
    with pytest.raises(ConfigError):
        heat_at(INV, a_weight, torus(20), 0.1)


def test_p_weight_singular_on_spectrum_rejected():
    # (0 + lam)^-1 is infinite at the zero mode of the torus
    with pytest.raises(ConfigError):
        heat_at(SpectralWeight(power=-1.0), AW, torus(20), 0.1)


def test_heat_samples_grid_decreasing_invariant():
    with pytest.raises(ValueError):
        HeatSamples(np.array([1e-3, 5e-3]), np.zeros(2), np.zeros(2))


@pytest.mark.parametrize("grid", [
    [math.nan, 0.01], [0.01, math.inf], [0.0, 0.01], [-0.01, 0.01], []])
def test_t_grid_outside_domain_rejected(grid):
    with pytest.raises(ValueError):
        heat_samples(INV, AW, torus(20), grid)
    with pytest.raises(ValueError):
        halfspace_heat_samples(grid)


def _dense_heat(p_weight, a_weight, spec, t):
    # every exponential evaluated, underflowing or not, from the top
    # eigenvalue down as heat_samples sums
    lam = spec.values[::-1]
    pw = p_weight(lam) * spec.counts[::-1]
    aw = a_weight(lam)
    return chunked_sum(
        lambda lo, hi: np.exp(-np.outer(t, aw[lo:hi])) @ pw[lo:hi], aw.size)


MIXED = np.geomspace(1e-3, 5e-2, 40)
NO_UNDERFLOW = np.geomspace(1e-4, 1e-2, 12)   # t A <= 289 at cutoff 120
WIDE = np.geomspace(1.0, 40.0, 200)           # almost every term underflows


@pytest.mark.parametrize("weight", [
    ONE, INV, SpectralWeight(power=-2.0, shift=0.5, rate=0.01)])
@pytest.mark.parametrize("grid", [MIXED, NO_UNDERFLOW, WIDE])
def test_heat_samples_match_dense_sum(weight, grid):
    spec = torus(120)
    s = heat_samples(weight, AW, spec, grid)
    assert s.values.tobytes() == _dense_heat(weight, AW, spec, s.t).tobytes()


def test_heat_samples_match_dense_sum_over_two_chunks():
    spec = torus(1150)
    assert spec.values.size > DEFAULT_CHUNK
    for grid in (MIXED[::5], WIDE[::25]):
        s = heat_samples(INV, AW, spec, grid)
        assert s.values.tobytes() == _dense_heat(INV, AW, spec, s.t).tobytes()


def test_heat_samples_keep_subnormal_terms():
    # every t A(lam) lies in (709, 745.1]: each exponential is subnormal and
    # only the 1e300 scale of P lifts the sum to a normal number
    spec = torus(5)
    a_weight = SpectralWeight(power=1.0, shift=2000.0)
    p_weight = SpectralWeight(power=0.0, scale=1e300)
    aw = a_weight(spec.values)
    grid = np.geomspace(709.5 / aw.min(), 745.1 / aw.max(), 6)
    tA = np.outer(grid, aw)
    assert tA.min() > 709.0 and 745.0 < tA.max() <= 745.1
    s = heat_samples(p_weight, a_weight, spec, grid)
    assert np.all(s.values > 0.0)
    assert s.values.tobytes() == \
        _dense_heat(p_weight, a_weight, spec, s.t).tobytes()


# ---------------------------------------------------------------------------
# fits


def _synthetic(ts, fn):
    ts = np.asarray(sorted(ts, reverse=True))
    return HeatSamples(ts, fn(ts), np.zeros(ts.size))


def test_fit_exact_log_model():
    ts = np.geomspace(1e-3, 5e-2, 40)
    s = _synthetic(ts, lambda t: 3 + 2 * np.log(t) + t)
    fit = fit_expansion(s, [0.0, 1.0], [0.0])
    assert fit.coefficient(0.0) == pytest.approx(3.0, abs=1e-9)
    assert fit.coefficient(1.0) == pytest.approx(1.0, abs=1e-9)
    assert fit.coefficient(0.0, log=True) == pytest.approx(2.0, abs=1e-9)
    assert fit.cross_delta < 1e-9


def test_fit_exact_mixed_powers():
    ts = np.geomspace(1e-3, 5e-2, 60)
    s = _synthetic(ts, lambda t: 1 / t + 5 - PI * np.log(t) + 0.1 * np.sqrt(t))
    fit = fit_expansion(s, [-1.0, 0.0, 0.5], [0.0])
    assert fit.coefficient(-1.0) == pytest.approx(1.0, abs=1e-6)
    assert fit.coefficient(0.0) == pytest.approx(5.0, abs=1e-6)
    assert fit.coefficient(0.5) == pytest.approx(0.1, abs=1e-6)
    assert fit.coefficient(0.0, log=True) == pytest.approx(-PI, abs=1e-6)


def test_fit_preconditions():
    ts = np.geomspace(1e-3, 5e-2, 5)
    s = _synthetic(ts, lambda t: 1 + t)
    with pytest.raises(WindowError):
        fit_expansion(s, [0.0, 1.0, 2.0], [0.0, 1.0])
    narrow = np.geomspace(1e-3, 4e-3, 30)
    with pytest.raises(WindowError):
        fit_expansion(_synthetic(narrow, lambda t: 1 + t), [0.0, 1.0], [])


def test_fit_rejects_ill_conditioned():
    ts = np.geomspace(1e-3, 5e-2, 40)
    s = _synthetic(ts, lambda t: 1 + t)
    with pytest.raises(IllConditionedFitError):
        fit_expansion(s, [1.0, 1.0 + 1e-12], [])   # collinear columns


def test_heat_log_coefficient_matches_minus_pi():
    grid = np.geomspace(1e-3, 5e-2, 40)
    fit = fit_expansion(heat_samples(INV, AW, torus(300), grid),
                        [0.0, 0.5, 1.0, 1.5, 2.0], [0.0, 1.0])
    assert fit.coefficient(0.0, log=True) == pytest.approx(-PI, rel=0.02)


def test_default_exponent_ladder():
    exps, logs = default_exponents(INV, AW, 2)
    assert exps == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]
    assert logs == [0.0, 1.0]


# ---------------------------------------------------------------------------
# zeta residues


def test_zeta_residue_epstein_pole():
    z = zeta_residue(ONE, AW, torus(300), 1.0,
                     exponents=[-1.0, 0.0, 1.0, 2.0, 3.0], log_exponents=[])
    assert z.residue == pytest.approx(PI, rel=0.01)


def test_zeta_residue_at_zero():
    z = zeta_residue(INV, AW, torus(300), 0.0,
                     exponents=[0.0, 0.5, 1.0, 1.5, 2.0],
                     log_exponents=[0.0, 1.0])
    assert z.residue == pytest.approx(PI, rel=0.02)


@pytest.mark.parametrize("p_weight, exponents, residue", [
    (INV, [0.0, 0.5, 1.0, 1.5, 2.0], PI),
    (ONE, [-1.0, 0.0, 1.0, 2.0, 3.0], 0.0)])
def test_zeta_residue_at_zero_adds_its_log_slot(p_weight, exponents,
                                                residue):
    # at s = 0 the residue is minus the t^0 ln t coefficient, which the fit
    # holds even when no log slot is asked for
    spec = torus(300)
    z = zeta_residue(p_weight, AW, spec, 0.0, exponents=exponents,
                     log_exponents=[])
    assert z.fit.log_exponents == (0.0,)
    assert z.residue == pytest.approx(residue, rel=1e-5, abs=1e-4)
    same = zeta_residue(p_weight, AW, spec, 0.0, exponents=exponents,
                        log_exponents=[0.0])
    assert same.residue == z.residue


def test_zeta_regular_point_residue_zero():
    z = zeta_residue(ONE, AW, torus(300), 2.0,
                     exponents=[-1.0, 0.0, 1.0, 2.0, 3.0], log_exponents=[])
    assert abs(z.residue) < 1e-3


def test_zeta_entire_part_matches_quadrature():
    z = zeta_residue(ONE, AW, torus(300), 1.0,
                     exponents=[-1.0, 0.0, 1.0, 2.0, 3.0], log_exponents=[])

    def h(t):
        return math.exp(-t) * theta_1d(t, 40) ** 2   # converged for t >= 1

    want = quad(h, 1.0, 40.0, limit=200)[0]
    assert z.entire_part == pytest.approx(want, rel=1e-3)


def test_consumers_take_the_spectrum_without_enumerating(monkeypatch):
    # one enumeration feeds every reading: Dixmier's trace, the heat trace
    # and the zeta residue of operators on the same spectrum
    spec = torus(300)
    before = spec.values.tobytes(), spec.counts.tobytes()

    def enumerate_again(model):
        raise AssertionError(f"{model} enumerated again")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ncres" \
                and hasattr(module, "enumerate_spectrum"):
            monkeypatch.setattr(module, "enumerate_spectrum", enumerate_again)
    assert dixmier_estimate(spec, INV).slope == pytest.approx(PI, rel=0.01)
    heat = fit_expansion(heat_samples(INV, AW, spec, np.geomspace(1e-3, 5e-2,
                                                                  40)),
                         [0.0, 0.5, 1.0, 1.5, 2.0], [0.0, 1.0])
    assert heat.coefficient(0.0, log=True) == pytest.approx(-PI, rel=0.02)
    zeta = zeta_residue(ONE, AW, spec, 1.0,
                        exponents=[-1.0, 0.0, 1.0, 2.0, 3.0],
                        log_exponents=[])
    assert zeta.residue == pytest.approx(PI, rel=0.01)
    assert (spec.values.tobytes(), spec.counts.tobytes()) == before


# ---------------------------------------------------------------------------
# half-space boundary heat trace


def sine_extension_sq(j, m):
    """|integral_0^pi sin(j x) exp(-i m x) dx|^2, exact.

    The zero-extension of sin(jx) from [0, pi] to the circle has Fourier
    integrals pi/2 in modulus at m = +-j, 2j/(j^2-m^2) when j+m is odd and
    0 otherwise.
    """
    if m == j or m == -j:
        return (math.pi / 2.0) ** 2
    if (j + m) % 2 == 0:
        return 0.0
    return 4.0 * j * j / float(j * j - m * m) ** 2


def test_sine_extension_against_quadrature():
    nodes, weights = np.polynomial.legendre.leggauss(120)
    xs = 0.5 * PI * (nodes + 1.0)
    ws = 0.5 * PI * weights
    for j in (1, 2, 5, 11):
        for m in (-4, -1, 0, 1, 2, 3, j, -j):
            ig = np.sum(ws * np.sin(j * xs) * np.exp(-1j * m * xs))
            assert abs(sine_extension_sq(j, m) - abs(ig) ** 2) < 1e-10


@pytest.mark.parametrize("jmax, mmax", [(1, 2), (7, 14), (8, 17)])
def test_sine_weight_matrix_matches_pointwise_formula(jmax, mmax):
    want = np.array([[sine_extension_sq(j, m)
                      for m in range(-mmax, mmax + 1)]
                     for j in range(1, jmax + 1)])
    assert _sine_weight_matrix(jmax, mmax).tobytes() == want.tobytes()


def test_halfspace_tail_bound_covers_a_larger_box():
    # t_min 0.05 gives jmax 41 at the smallest m cutoff allowed, 82; the
    # extra t = 0.002 gives jmax 202, and m runs to 4000
    ts = np.geomspace(5e-2, 5e-1, 8)
    small = halfspace_heat_samples(ts, m_cutoff=82)
    large = halfspace_heat_samples(np.append(ts, 2e-3), m_cutoff=4000)
    assert np.array_equal(small.t, large.t[:-1])
    diff = np.abs(small.values - large.values[:-1])
    roundoff = 1e-14 * small.values
    assert np.all(diff <= small.tail_bounds + large.tail_bounds[:-1]
                  + roundoff)


def test_halfspace_monotone_decay():
    ts = np.geomspace(1e-2, 1.0, 10)
    samples = halfspace_heat_samples(ts, m_cutoff=800)
    vals = samples.values[::-1]   # ascending t
    assert np.all(np.diff(vals) < 0)
    assert vals[-1] < 1.0


def test_halfspace_bracket_against_triple_sum():
    # independent route: the (j, m, k) sum term by term, k over both signs
    ts = np.geomspace(0.3, 3.0, 6)
    shift, M = 0.5, 200
    got = halfspace_heat_samples(ts, shift=shift, m_cutoff=M)
    jmax = int(math.ceil(9.0 / math.sqrt(ts.min())))
    inner = {}
    for j in range(1, jmax + 1):
        for k in range(-jmax, jmax + 1):
            inner[j, k] = math.fsum(
                sine_extension_sq(j, m) / (1.0 + m * m + k * k)
                for m in range(-M, M + 1)) / PI ** 2
    for t, value in zip(got.t, got.values):
        want = math.exp(-t * shift) * math.fsum(
            math.exp(-t * (j * j + k * k)) * g for (j, k), g in inner.items())
        assert value == pytest.approx(want, rel=1e-13)


def test_dirichlet_resolvent_green_part_has_no_log_term():
    # (1 + Delta_D)^-1 = P_+ + G_D with G_D of homogeneity -3, whose residue
    # is 0: the ln t coefficient of the difference of the two heat traces
    # vanishes, while a 0.1% scaling of either trace moves it by 1.5e-3
    grid = np.geomspace(1.5e-3, 5e-2, 30)
    plus = halfspace_heat_samples(grid)
    dirichlet = heat_samples(INV, AW, enumerate_spectrum(
        SpectrumModel("dirichlet_cylinder", 2, 300)), grid)
    green = HeatSamples(plus.t, plus.values - dirichlet.values,
                        plus.tail_bounds + dirichlet.tail_bounds)
    fit = fit_expansion(green, [0.0, 0.5, 1.0, 1.5, 2.0], [0.0, 0.5, 1.0])
    assert abs(fit.coefficient(0.0, log=True)) <= 1e-3


def test_boundary_heat_threads_keyword_inert():
    one = boundary_heat_test(threads=1)
    two = boundary_heat_test(threads=2)
    assert one.log_coefficient == two.log_coefficient
    assert np.array_equal(one.samples.values, two.samples.values)


@pytest.mark.slow
def test_boundary_heat_log_coefficient():
    out = boundary_heat_test()
    assert out.log_coefficient == pytest.approx(-PI / 2, rel=0.05)
    assert out.fit.condition < 1e8
    assert out.samples.tail_bounds.max() < 1e-9
