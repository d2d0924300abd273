"""Spectra, partial sums, Cesaro means, Dixmier estimation and formula."""

import itertools
import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from ncres.errors import (DimensionMismatchError, GradingError,
                          IllConditionedFitError, ResourceCapError,
                          TransmissionError, WindowError)
from ncres.halfline import boundary_term, compose_kt, sg_symbol, simple_pole
from ncres.residue import BdMSymbol, Cylinder, Torus, dixmier_formula
from ncres import spectral
from ncres.spectral import (SigmaCurve, SpectralWeight, SpectrumModel,
                            cesaro_mean, dixmier_estimate, enumerate_spectrum)
from ncres.symbols import (classical_symbol, hom_term, laplace_shift_power,
                           radial_term)

PI = math.pi
INV = SpectralWeight(power=-1.0, shift=1.0)


def test_enumerate_torus_small():
    sp = enumerate_spectrum(SpectrumModel("torus_lattice", 2, 1))
    assert list(sp.values) == [0.0, 1.0]
    assert list(sp.counts) == [1, 4]


def test_enumerate_dirichlet_cylinder_small():
    sp = enumerate_spectrum(SpectrumModel("dirichlet_cylinder", 2, 2))
    assert list(sp.values) == [1.0, 2.0, 4.0]
    assert list(sp.counts) == [1, 2, 1]


def test_enumerate_boundary_lattice_small():
    sp = enumerate_spectrum(
        SpectrumModel("boundary_lattice", 1, 3, copies=2))
    assert list(sp.values) == [0.0, 1.0, 4.0, 9.0]
    assert list(sp.counts) == [2, 4, 4, 4]


def test_enumerate_torus_3d_counts():
    sp = enumerate_spectrum(SpectrumModel("torus_lattice", 3, 2))
    # |k|^2 = 0,1,2,3,4 with multiplicities 1,6,12,8,6
    assert list(sp.values[:5]) == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert list(sp.counts[:5]) == [1, 6, 12, 8, 6]


def test_mode_cap_raises_before_allocation():
    with pytest.raises(ResourceCapError):
        enumerate_spectrum(SpectrumModel("torus_lattice", 2, 10 ** 6))


def test_enumeration_deterministic():
    m = SpectrumModel("torus_lattice", 2, 50)
    a = enumerate_spectrum(m)
    b = enumerate_spectrum(m)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.counts, b.counts)


def _brute_force(kind, dim, cutoff, copies):
    """{eigenvalue: multiplicity} over the box [-R, R]^dim, pure Python."""
    R = int(cutoff)
    out = Counter()
    for k in itertools.product(range(-R, R + 1), repeat=dim):
        if kind == "dirichlet_cylinder" and k[0] < 1:
            continue   # k[0] plays j >= 1
        lam = sum(x * x for x in k)
        if lam <= R * R:
            out[lam] += copies
    return out


@pytest.mark.parametrize("kind", ["torus_lattice", "dirichlet_cylinder",
                                  "boundary_lattice"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_enumeration_matches_brute_force(kind, dim):
    for cutoff in (1, 2, 7.5, 13):
        for copies in (1, 3):
            sp = enumerate_spectrum(
                SpectrumModel(kind, dim, cutoff, copies=copies))
            oracle = _brute_force(kind, dim, cutoff, copies)
            assert list(sp.values) == sorted(oracle)
            assert list(sp.counts) == [oracle[m] for m in sorted(oracle)]


def test_torus_counts_match_jacobi_two_squares():
    # r_2(m) = 4 (d_1(m) - d_3(m)), divisors counted mod 4
    M = 10 ** 4
    d13 = [0] * (M + 1)
    for d in range(1, M + 1, 2):
        sign = 1 if d % 4 == 1 else -1
        for m in range(d, M + 1, d):
            d13[m] += sign
    sp = enumerate_spectrum(SpectrumModel("torus_lattice", 2, 100))
    r2 = dict(zip(sp.values.astype(int).tolist(), sp.counts.tolist()))
    for m in range(1, M + 1):
        assert r2.get(m, 0) == 4 * d13[m], m


@pytest.mark.parametrize("kind", ["torus_lattice", "dirichlet_cylinder",
                                  "boundary_lattice"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_enumeration_dtypes_and_order(kind, dim):
    sp = enumerate_spectrum(SpectrumModel(kind, dim, 9, copies=2))
    assert sp.counts.dtype == np.int64
    assert sp.values.dtype == np.float64
    assert np.all(np.diff(sp.values) > 0)
    assert np.all(sp.counts >= 2)


def test_boundary_copies_must_be_positive():
    for kind in ("torus_lattice", "dirichlet_cylinder", "boundary_lattice"):
        with pytest.raises(ValueError):
            enumerate_spectrum(SpectrumModel(kind, 2, 5, copies=0))


# the plane is counted one block of eigenvalues at a time: cutoffs whose
# squares sit on either side of the first block edges
_BLOCK_EDGE_RADII = sorted(
    {511, 512, 513, 724, 725}
    | {math.isqrt(k * spectral._PLANE_BLOCK) + d
       for k in (1, 2, 3) for d in (0, 1)})


@pytest.mark.parametrize("kind", ["torus_lattice", "dirichlet_cylinder"])
@pytest.mark.parametrize("R", _BLOCK_EDGE_RADII)
def test_enumeration_matches_lattice_oracle_across_blocks(kind, R):
    # every point of the box in one bincount; the first coordinate plays j,
    # which is >= 1 on the cylinder
    first = range(1 if kind == "dirichlet_cylinder" else -R, R + 1)
    i, j = np.meshgrid(np.array(first), np.arange(-R, R + 1), indexing="ij",
                       sparse=True)
    lam = (i * i + j * j).ravel()
    oracle = np.bincount(lam[lam <= R * R], minlength=R * R + 1)
    sp = enumerate_spectrum(SpectrumModel(kind, 2, R))
    assert np.array_equal(sp.values, np.flatnonzero(oracle))
    assert np.array_equal(sp.counts, oracle[oracle != 0])
    # Gauss's circle count, one column of the disc per first coordinate
    assert int(sp.counts.sum()) == sum(
        2 * math.isqrt(R * R - i * i) + 1 for i in first)


def test_dense_table_cap_raises_before_allocation(monkeypatch):
    # (2 * 20001 + 1)^2 modes pass this cap, the table of 20001^2 entries not
    def fail(*args):
        raise AssertionError("the table was built past its cap")
    monkeypatch.setattr(spectral, "_plane_counts", fail)
    model = SpectrumModel("torus_lattice", 2, 20_001, mode_cap=10 ** 10)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match="dense eigenvalue table"):
            enumerate_spectrum(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20_001 * 8   # not even the row of squares


# ---------------------------------------------------------------------------
# weights


@pytest.mark.parametrize("weight", [
    SpectralWeight(),
    SpectralWeight(power=-1.0, shift=1.0),
    SpectralWeight(power=-0.5, shift=0.0, scale=3.0),
    SpectralWeight(power=-1.0, shift=1e-300),
    SpectralWeight(power=2.5, shift=-2.0, rate=0.1, scale=0.7),
    SpectralWeight(power=400.0, shift=1.0, rate=-3.0),
    SpectralWeight(power=-1.0, shift=0.0, rate=1e-3, scale=-2.0)])
def test_weight_matches_its_formula_bitwise(weight):
    def formula(lam):
        lam = np.asarray(lam, dtype=float)
        out = weight.scale * (weight.shift + lam) ** weight.power
        if weight.rate:
            out = out * np.exp(-weight.rate * lam)
        return out

    def evaluate(f, lam):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = f(lam)
        return out, [(w.category, str(w.message)) for w in caught]

    lams = [np.array([0.0, 0.5, 1.0, 2.0, 7.0, 1e3, 1e300, np.inf]),
            np.array(0.0), np.array(2.0), 1e3, 1e300]
    for lam in lams:
        got, got_warned = evaluate(weight, lam)
        want, want_warned = evaluate(formula, lam)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert got_warned == want_warned


def sigma_curve(spec, weight):
    """The partial sums of ``weight`` over ``spec``, as the estimator
    builds them."""
    w = weight(spec.values)
    return SigmaCurve(np.cumsum(spec.counts), np.cumsum(spec.counts * w), w)


def test_sigma_n_harmonic():
    # one mode per block: sigma_N is the N-th harmonic number
    w = 1.0 / np.arange(1.0, 101.0)
    curve = SigmaCurve(np.arange(1, 101), np.cumsum(w), w)
    assert curve.sigma(5) == pytest.approx(sum(1 / k for k in range(1, 6)))
    with pytest.raises(ValueError):
        curve.sigma(200)


def _log_ratio(curve, ns):
    """sigma_N / ln N on the integers ``ns`` (the Dixmier-norm ratio)."""
    return curve.sigma(ns) / np.log(ns)


def test_norm_1inf_harmonic_sup_near_small_n():
    w = 1.0 / np.arange(1.0, 2001.0)
    curve = SigmaCurve(np.arange(1, 2001), np.cumsum(w), w)
    ns = np.arange(2, 2001)
    ratio = _log_ratio(curve, ns)
    i = int(np.argmax(ratio))
    assert ns[i] == 2
    assert ratio[i] == pytest.approx((1 + 0.5) / math.log(2))
    assert i != ratio.size - 1


def test_trace_class_ratio_vanishes():
    w = 2.0 ** -np.arange(900.0)
    sig = np.cumsum(w)
    ratios = sig[1:] / np.log(np.arange(2.0, 901.0))
    assert ratios[-1] < 0.35 and ratios[-1] < ratios[5]


def test_norm_1inf_growth_flag():
    # lam^(-n/4) on a 2-d lattice: sigma_N ~ sqrt(N), ratio grows; the sup
    # over a geometric N grid sits at the last point only then
    def sup_at_tail(power):
        curve = sigma_curve(
            enumerate_spectrum(SpectrumModel("dirichlet_cylinder", 2, 150)),
            SpectralWeight(power=power, shift=0.0))
        ns = np.unique(np.round(np.geomspace(2, curve.n_max, 4000))
                       .astype(np.int64))
        ratio = _log_ratio(curve, ns)
        return int(np.argmax(ratio)) == ratio.size - 1
    assert sup_at_tail(-0.5)
    assert not sup_at_tail(-1.0)


def test_sigma_curve_matches_direct_sum():
    sp = enumerate_spectrum(SpectrumModel("torus_lattice", 2, 20))
    expanded = np.repeat(INV(sp.values), sp.counts)
    curve = sigma_curve(sp, INV)
    for N in (1, 2, 5, 17, expanded.size):
        assert curve.sigma(N) == pytest.approx(expanded[:N].sum(), rel=1e-13)


# ---------------------------------------------------------------------------
# Cesaro mean


def test_cesaro_constant():
    pts, mf = cesaro_mean(np.arange(1.0, 52.0), np.full(50, 4.2))
    assert np.array_equal(pts, np.arange(2.0, 52.0))
    assert np.allclose(mf, 4.2)


def test_cesaro_indicator_half():
    t0 = 10 ** 4
    _, mf = cesaro_mean([1.0, math.sqrt(t0), t0], [1.0, 0.0])
    assert mf[-1] == pytest.approx(0.5)


def test_cesaro_annihilates_lnln_over_ln():
    s = np.geomspace(math.e, 1e8, 4000)
    vals = np.log(np.log(s)) / np.log(s)
    pts, mf = cesaro_mean(s, vals[:-1])
    at_1e4 = mf[np.searchsorted(pts, 1e4) - 1]
    assert mf[-1] < at_1e4 < 0.5
    assert mf[-1] < 0.25


def test_cesaro_window_too_small():
    with pytest.raises(WindowError):
        cesaro_mean([1.0, 2.0], [1.0])


# ---------------------------------------------------------------------------
# Dixmier estimation


def estimate(model, weight):
    return dixmier_estimate(enumerate_spectrum(model), weight)


def test_dixmier_estimate_torus_modest_cutoff():
    est = estimate(SpectrumModel("torus_lattice", 2, 500), INV)
    assert est.slope == pytest.approx(PI, rel=5e-3)
    assert est.fit_residual < 0.05
    assert est.omega_consistent


def test_dixmier_estimate_requires_monotone_weight():
    with pytest.raises(GradingError):
        estimate(SpectrumModel("torus_lattice", 2, 100),
                 SpectralWeight(power=1.0, shift=1.0))


@pytest.mark.parametrize("weight", [
    SpectralWeight(power=-1.0, shift=0.0),          # infinite at lam = 0
    SpectralWeight(power=-1.0, shift=1.0, rate=-1e-6),   # grows at last
    SpectralWeight(power=-1.0, shift=1.0, scale=0.0),
    SpectralWeight(power=-1.0, shift=1.0, scale=-1.0)])
def test_dixmier_estimate_rejects_weight_outside_domain(weight):
    with pytest.raises(GradingError):
        estimate(SpectrumModel("torus_lattice", 2, 300), weight)


@pytest.mark.parametrize("shift", [1e-300, 1e-150, 1e-30])
def test_dixmier_slope_below_rounding_floor_raises(shift):
    # sigma_N = 1/shift + pi ln N + ...: the log growth is rounded away
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IllConditionedFitError):
            estimate(SpectrumModel("torus_lattice", 2, 300),
                     SpectralWeight(power=-1.0, shift=shift))


@pytest.mark.parametrize("decades", [math.nan, 0.0, -1.0, 1e-17])
def test_dixmier_window_outside_domain_rejected(decades):
    # NaN, no decade, a negative one, or one so thin that 10^decades
    # rounds to 1 and the window holds a single N
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(WindowError):
            dixmier_estimate(
                enumerate_spectrum(SpectrumModel("torus_lattice", 2, 100)),
                INV, window_decades=decades)


def test_dixmier_window_wider_than_the_spectrum_starts_at_two():
    spec = enumerate_spectrum(SpectrumModel("torus_lattice", 2, 100))
    n_max = int(spec.counts.sum())
    for decades in (400, 400.5, math.inf):
        est = dixmier_estimate(spec, INV, window_decades=decades)
        assert est.window == (2, n_max)
    narrow = dixmier_estimate(spec, INV, window_decades=0.3)
    assert narrow.window == (int(n_max / 10 ** 0.3), n_max)


def test_sigma_ratio_near_pi_at_top():
    # the raw sigma_N / ln N functional sits within 10% at this cutoff
    est = estimate(SpectrumModel("torus_lattice", 2, 2000), INV)
    assert est.ratio_values[-1] == pytest.approx(PI, rel=0.10)


def test_trace_class_estimate_zero():
    w = SpectralWeight(power=-3.0, shift=1.0)   # order -6 on a 2-d lattice
    est = estimate(SpectrumModel("torus_lattice", 2, 300), w)
    assert abs(est.slope) < 1e-3
    # the Cesaro corroboration decays only like ln ln N / ln N
    mid = est.cesaro_values[est.cesaro_values.size // 4]
    assert est.cesaro_tail < mid
    assert est.ratio_values[-1] < 0.2
    assert est.omega_consistent


# ---------------------------------------------------------------------------
# symbol-side formula


def test_dixmier_formula_values():
    A = BdMSymbol(Torus(2), p=laplace_shift_power(2, -1.0, 2))
    assert dixmier_formula(A) == pytest.approx(PI)
    # no boundary, no division by n - 1 = 0: |xi|^-1 on the circle gives 2
    A1 = BdMSymbol(Torus(1), p=classical_symbol([radial_term(-1.0, 1)], 1))
    assert dixmier_formula(A1) == 2.0
    Ac = BdMSymbol(Cylinder(2), p=classical_symbol([radial_term(-2.0, 2)], 2))
    assert dixmier_formula(Ac) == pytest.approx(PI / 2)
    Ab = BdMSymbol(Cylinder(2), s=classical_symbol([radial_term(-1.0, 1)], 1))
    assert dixmier_formula(Ab) == pytest.approx(4.0)


def test_dixmier_formula_linearity_positivity():
    p = classical_symbol([radial_term(-2.0, 2)], 2)
    A1 = BdMSymbol(Cylinder(2), p=p)
    A2 = BdMSymbol(Cylinder(2), p=p.scaled(3.0))
    assert dixmier_formula(A2) == pytest.approx(3 * dixmier_formula(A1))
    assert dixmier_formula(A1).real > 0


def test_dixmier_formula_ignores_k_t():
    # K and T are off-diagonal entries of the operator matrix
    p = classical_symbol([radial_term(-2.0, 2)], 2)
    base = dixmier_formula(BdMSymbol(Cylinder(2), p=p))
    k = boundary_term(hom_term(-2.0, 1, [(1.0, (1,), (0,), -2.0)]),
                      simple_pole(1j), kind="potential")
    t = boundary_term(hom_term(-1.0, 1, [(1.0, (0,), (0,), -1.0)]),
                      simple_pole(-1j), kind="trace")
    pert = BdMSymbol(Cylinder(2), p=p, potential=(k,), trace_terms=(t,))
    assert dixmier_formula(pert) == base   # exactly, not approximately


def test_dixmier_formula_green_matches_spectrum():
    # G on [0, pi] x S^1 with normal kernel e^{-a(x+y)} at both ends per
    # Fourier mode k, a = sqrt(1+k^2): on the span of e^{-ax}, e^{-a(pi-x)}
    # its eigenvalues are d +- o, d = (1 - e^{-2 pi a})/(2a), o = pi e^{-pi a}
    g = boundary_term(radial_term(-2.0, 1), sg_symbol(
        [(simple_pole(1j, -1j), simple_pole(-1j, 1j))]))
    formula = dixmier_formula(BdMSymbol(Cylinder(2), green=(g,)))
    a = np.sqrt(1.0 + np.arange(-10 ** 5, 10 ** 5 + 1.0) ** 2)
    d = -np.expm1(-2 * PI * a) / (2 * a)
    o = PI * np.exp(-PI * a)
    sv = -np.sort(-np.concatenate([d + o, d - o]))
    n = np.arange(sv.size // 100, sv.size + 1)
    slope = np.polyfit(np.log(n), np.cumsum(sv)[n - 1], 1)[0]
    assert formula == pytest.approx(2.0, abs=1e-12)
    assert slope == pytest.approx(formula.real, rel=0.02)


def test_dixmier_formula_grading_enforced():
    wrong = BdMSymbol(Torus(2), p=laplace_shift_power(2, -0.5, 2))  # order -1
    with pytest.raises(GradingError):
        dixmier_formula(wrong)
    g_type1 = boundary_term(hom_term(-2.0, 1, [(1.0, (0,), (0,), -2.0)]),
                            compose_kt(simple_pole(1j), simple_pole(-2j),
                                       type_d=1), kind="green", type_d=1)
    bad = BdMSymbol(Cylinder(2), p=classical_symbol([radial_term(-2.0, 2)], 2),
                    green=(g_type1,))
    with pytest.raises(GradingError):
        dixmier_formula(bad)
    # the boundary of [0, pi] is a point: no boundary cosphere to read
    p1 = classical_symbol([radial_term(-1.0, 1)], 1)
    with pytest.raises(DimensionMismatchError):
        dixmier_formula(BdMSymbol(Cylinder(1), p=p1))


def test_dixmier_formula_requires_transmission():
    # order -2, but the degree -3 part |xi|^-3 is even in xi_n: parity fails
    bad = classical_symbol([radial_term(-2.0, 2), radial_term(-3.0, 2)], 2)
    with pytest.raises(TransmissionError):
        dixmier_formula(BdMSymbol(Cylinder(2), p=bad))
    # no boundary, no transmission condition
    assert dixmier_formula(BdMSymbol(Torus(2), p=bad)) == pytest.approx(PI)


def test_estimate_matches_formula_cylinder():
    est = estimate(SpectrumModel("dirichlet_cylinder", 2, 700),
                   SpectralWeight(power=-1.0, shift=0.0))
    A = BdMSymbol(Cylinder(2), p=classical_symbol([radial_term(-2.0, 2)], 2))
    formula = dixmier_formula(A).real
    assert est.slope == pytest.approx(formula, rel=0.03)
