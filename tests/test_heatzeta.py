"""Heat traces, expansion fits, zeta residues, half-space boundary trace."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

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


def torus(cutoff=120):
    return enumerate_spectrum(SpectrumModel("torus_lattice", 2, cutoff))


def theta_1d(t, K=60):
    return sum(math.exp(-t * k * k) for k in range(-K, K + 1))


def heat_at(p_weight, a_weight, spec, t, **kw):
    s = heat_samples(p_weight, a_weight, spec, [t], **kw)
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


def test_heat_trace_small_t_leading_term():
    # trace exp(-t(1-Delta)) ~ (pi/t) e^{-t}: fitted t^-1 coefficient near pi
    grid = np.geomspace(1e-3, 5e-2, 30)
    samples = heat_samples(ONE, AW, torus(300), grid)
    fit = fit_expansion(samples, [-1.0, 0.0, 1.0, 2.0], [])
    assert fit.coefficient(-1.0) == pytest.approx(PI, rel=5e-3)


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
    with pytest.raises(TailBoundError):
        heat_at(ONE, AW, torus(20), 1e-3, tail_tol=1e-12)


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
    # every exponential evaluated, underflowing or not
    pw = p_weight(spec.values) * spec.counts
    aw = a_weight(spec.values)
    return chunked_sum(
        lambda lo, hi: np.exp(-np.outer(t, aw[lo:hi])) @ pw[lo:hi], aw.size)


MIXED = np.geomspace(1e-3, 5e-2, 40)
NO_UNDERFLOW = np.geomspace(1e-4, 1e-2, 12)   # t A <= 289 at cutoff 120
WIDE = np.geomspace(1.0, 40.0, 200)           # almost every term underflows


@pytest.mark.parametrize("weight", [
    SpectralWeight(),                          # descending eigenvalues
    SpectralWeight(power=-1.0, shift=1.0),     # ascending
    SpectralWeight(power=1.0, rate=0.01)])     # neither
@pytest.mark.parametrize("grid", [MIXED, NO_UNDERFLOW, WIDE])
def test_heat_samples_match_dense_sum(weight, grid):
    spec = enumerate_spectrum(
        SpectrumModel("torus_lattice", 2, 120, weight=weight))
    s = heat_samples(INV, AW, spec, grid)
    assert s.values.tobytes() == _dense_heat(INV, AW, spec, s.t).tobytes()


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
    exps, logs = default_exponents(INV, AW, 2, levels=4)
    assert exps == [0.0, 0.5, 1.0, 1.5, 2.0]
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
    heat_spec = torus(300)
    dixmier_spec = enumerate_spectrum(
        SpectrumModel("torus_lattice", 2, 300, INV))

    def enumerate_again(model):
        raise AssertionError(f"{model} enumerated again")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ncres" \
                and hasattr(module, "enumerate_spectrum"):
            monkeypatch.setattr(module, "enumerate_spectrum", enumerate_again)
    heat_samples(INV, AW, heat_spec, np.geomspace(1e-3, 5e-2, 12))
    zeta_residue(ONE, AW, heat_spec, 1.0,
                 exponents=[-1.0, 0.0, 1.0, 2.0, 3.0], log_exponents=[])
    dixmier_estimate(dixmier_spec)


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


def test_halfspace_identity_weight_factorizes():
    # with P = identity the half-space trace is the Dirichlet theta product
    ts = np.geomspace(5e-2, 5e-1, 8)
    samples = halfspace_heat_samples(ts, identity_p=True, m_cutoff=800)
    jmax = int(math.ceil(9.0 / math.sqrt(ts.min())))
    for t, got in zip(samples.t, samples.values):
        theta_d = sum(math.exp(-t * j * j) for j in range(1, jmax + 1))
        want = math.exp(-t) * theta_d * theta_1d(t, jmax)
        assert got == pytest.approx(want, rel=1e-12)


def test_halfspace_monotone_decay():
    ts = np.geomspace(1e-2, 1.0, 10)
    samples = halfspace_heat_samples(ts, m_cutoff=800)
    vals = samples.values[::-1]   # ascending t
    assert np.all(np.diff(vals) < 0)
    assert vals[-1] < 1.0


def test_halfspace_bracket_against_triple_sum():
    # independent route: the (j, m, k) sum term by term, k over both signs
    ts = np.geomspace(0.3, 3.0, 6)
    shift, p_shift, M = 0.5, 2.5, 200
    got = halfspace_heat_samples(ts, shift=shift, p_shift=p_shift,
                                 m_cutoff=M)
    jmax = int(math.ceil(9.0 / math.sqrt(ts.min())))
    inner = {}
    for j in range(1, jmax + 1):
        for k in range(-jmax, jmax + 1):
            inner[j, k] = math.fsum(
                sine_extension_sq(j, m) / (p_shift + m * m + k * k)
                for m in range(-M, M + 1)) / PI ** 2
    for t, value in zip(got.t, got.values):
        want = math.exp(-t * shift) * math.fsum(
            math.exp(-t * (j * j + k * k)) * g for (j, k), g in inner.items())
        assert value == pytest.approx(want, rel=1e-13)


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
