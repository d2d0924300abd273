"""Spectra, partial sums, Cesaro means, Dixmier estimation and formula."""

import itertools
import math
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from ncres.errors import (DimensionMismatchError, GradingError,
                          IllConditionedFitError, ModelError,
                          ResourceCapError, TransmissionError, WindowError)
from ncres.halfline import boundary_term, compose_kt, sg_symbol, simple_pole
from ncres.residue import (BdMSymbol, Cylinder, Torus, dixmier_formula,
                           heat_log_reference, weight_operator,
                           zeta_reference)
from ncres import spectral
from ncres.spectral import (Spectrum, SpectralWeight, SpectrumModel,
                            cesaro_mean, cylinder_from_torus,
                            dixmier_estimate, enumerate_spectrum,
                            partial_sums)
from ncres.symbols import (ORDER_CAP, classical_symbol, hom_term,
                           laplace_shift_power, radial_term)

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
    # int32: the mode cap admits at most MODE_CAP = 3e8 < 2^31 modes, so no
    # multiplicity times its copies overflows; sums of counts take int64
    assert spectral.MODE_CAP < 2 ** 31
    assert sp.counts.dtype == np.int32
    # the eigenvalues are exact integers, int32 while R^2 < 2^31: in dims
    # 2-3 always, as the cap keeps R^2 <= 1.5e8
    assert sp.values.dtype == np.int32
    assert np.all(np.diff(sp.values) > 0)
    assert np.all(sp.counts >= 2)


@pytest.mark.parametrize("kind", ["torus_lattice", "dirichlet_cylinder",
                                  "boundary_lattice"])
def test_1d_eigenvalues_pass_to_int64_past_int32(kind):
    # 46340^2 < 2^31 - 1 < 46341^2: the last radius with int32 values and
    # the first with int64, each exact at the top
    for R, dtype in ((46340, np.int32), (46341, np.int64)):
        sp = enumerate_spectrum(SpectrumModel(kind, 1, R))
        assert sp.values.dtype == dtype and sp.counts.dtype == np.int32
        assert int(sp.values[-1]) == R * R
        assert np.all(np.diff(sp.values) > 0)


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


def _matches_lattice_oracle(kind, R):
    """The dim-2 spectrum at cutoff R against every point of the box in one
    bincount; the first coordinate plays j, which is >= 1 on the cylinder."""
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
    return sp


@pytest.mark.parametrize("kind", ["torus_lattice", "dirichlet_cylinder"])
@pytest.mark.parametrize("R", _BLOCK_EDGE_RADII)
def test_enumeration_matches_lattice_oracle_across_blocks(kind, R):
    _matches_lattice_oracle(kind, R)


@pytest.mark.parametrize("kind", ["torus_lattice", "dirichlet_cylinder"])
@pytest.mark.parametrize("R", _BLOCK_EDGE_RADII)
def test_outputs_grow_past_a_short_capacity(monkeypatch, kind, R):
    # room for one entry: every block grows the outputs, which still end
    # exact, each owning its data
    monkeypatch.setattr(spectral, "_plane_capacity", lambda R2: 1)
    sp = _matches_lattice_oracle(kind, R)
    for arr in (sp.values, sp.counts):
        if kind == "dirichlet_cylinder":
            # a view one entry into its torus's array
            assert arr.base.size == arr.size + 1
            assert arr.ctypes.data == arr.base.ctypes.data + arr.itemsize
            arr = arr.base
        assert arr.flags.owndata


def _admitted(model):
    try:
        spectral.check_mode_cap(model)
    except ResourceCapError:
        return False
    return True


def _largest_admitted(kind, dim):
    """The largest integer cutoff whose model passes the mode cap."""
    lo, hi = 1, 2
    while _admitted(SpectrumModel(kind, dim, hi)):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = ((mid, hi) if _admitted(SpectrumModel(kind, dim, mid))
                  else (lo, mid))
    return lo


def _longest_array(kind, dim, R):
    """The longest array an enumeration at integer cutoff R allocates: the
    dim-1 mode array (a cylinder's torus's too), the dim-2 outputs at their
    Landau-Ramanujan capacity (never more than the R^2 + 1 candidates), or
    the dim-3 tables."""
    if dim == 1:
        return R + 1
    if dim == 2:
        x = R * R
        log = math.log(max(x, 3))
        return min(x + 1, int(0.7642 * x / math.sqrt(log) * (1 + 1 / log))
                   + spectral._PLANE_BLOCK)
    return R * R + 1


@pytest.mark.parametrize("kind", ["torus_lattice", "dirichlet_cylinder",
                                  "boundary_lattice"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_mode_cap_bounds_every_array(monkeypatch, kind, dim):
    R = _largest_admitted(kind, dim)
    assert _longest_array(kind, dim, R) <= spectral.MODE_CAP + 1
    # the length formula is the code's: enumerate at the largest cutoff a
    # small cap admits and measure
    monkeypatch.setattr(spectral, "MODE_CAP", 3_000)
    R = _largest_admitted(kind, dim)
    tables = []
    plane_blocks, capacity = spectral._plane_blocks, spectral._plane_capacity

    def measured(R2, sq):
        for a, blk in plane_blocks(R2, sq):
            tables.append(blk.size)
            yield a, blk

    def measured_capacity(R2):
        tables.append(capacity(R2))
        return tables[-1]

    monkeypatch.setattr(spectral, "_plane_blocks", measured)
    monkeypatch.setattr(spectral, "_plane_capacity", measured_capacity)
    sp = enumerate_spectrum(SpectrumModel(kind, dim, R))
    # a cylinder's arrays are views into its torus's
    values = sp.values if sp.values.base is None else sp.values.base
    longest = max(tables + [values.size])
    assert longest == _longest_array(kind, dim, R) <= 3_001


@pytest.mark.parametrize("kind", ["torus_lattice", "dirichlet_cylinder"])
def test_dense_table_cap_raises_before_allocation(monkeypatch, kind):
    # the first cutoff past the cap: no block, not even the row of squares
    def fail(*args):
        raise AssertionError("the plane was counted past its cap")
    monkeypatch.setattr(spectral, "_plane_blocks", fail)
    monkeypatch.setattr(spectral, "_plane_capacity", fail)
    R = _largest_admitted(kind, 2) + 1
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match="modes exceed the cap"):
            enumerate_spectrum(SpectrumModel(kind, 2, R))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < R * 8


def test_derived_cylinder_keeps_its_own_mode_cap(monkeypatch):
    # the cylinder's estimate is 100 * 201 = 20100 modes, its torus's 201^2
    monkeypatch.setattr(spectral, "MODE_CAP", 30_000)
    sp = enumerate_spectrum(SpectrumModel("dirichlet_cylinder", 2, 100))
    assert int(sp.counts.sum()) == sum(
        2 * math.isqrt(100 ** 2 - j * j) + 1 for j in range(1, 101))
    monkeypatch.setattr(spectral, "MODE_CAP", 20_000)
    with pytest.raises(ResourceCapError):
        enumerate_spectrum(SpectrumModel("dirichlet_cylinder", 2, 100))


def _torus(dim, R):
    """The one-copy torus at cutoff R, past the torus's own mode cap too:
    a cylinder's cap admits radii its torus's does not."""
    return Spectrum(*spectral._lattice(dim, R),
                    SpectrumModel("torus_lattice", dim, R))


@pytest.mark.parametrize("dim, radii", [
    (1, list(range(1, 14)) + _BLOCK_EDGE_RADII),
    (2, list(range(1, 14)) + _BLOCK_EDGE_RADII),
    (3, list(range(1, 14)) + [362, 363])], ids=["dim1", "dim2", "dim3"])
def test_cylinder_from_torus_is_the_cylinder_in_place(dim, radii):
    # the derived cylinder is the enumerated one, bit for bit, and holds
    # its torus's arrays; dim 3 at 362 and 363 puts the plane in one and
    # in two blocks, past the torus's cap of 334 but under the cylinder's
    for R in radii:
        torus = (enumerate_spectrum(SpectrumModel("torus_lattice", dim, R))
                 if dim < 3 or R <= 334 else _torus(dim, R))
        got = cylinder_from_torus(torus)
        want = enumerate_spectrum(SpectrumModel("dirichlet_cylinder", dim, R))
        assert got.model == want.model
        for a, b in ((got.values, want.values), (got.counts, want.counts)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), R
        assert np.shares_memory(got.values, torus.values)
        assert np.shares_memory(got.counts, torus.counts)


def test_cylinder_from_torus_holds_no_counts_copy():
    # the hyperplane's spectrum (R + 1 entries), its positions and the
    # gathered counts at up to 24 B per entry, and no copy of the torus's
    # 12.5 MB of counts (3.33 MB when the counts were copied)
    R = 2000
    torus = enumerate_spectrum(SpectrumModel("torus_lattice", 2, R))
    _, peak = _traced_peak(cylinder_from_torus, torus)
    assert peak <= 24 * (R + 1) + (64 << 10)


def test_cylinder_from_torus_derives_once():
    # the counts are halved in place: a second derivation from the same
    # torus would halve them again
    torus = enumerate_spectrum(SpectrumModel("torus_lattice", 2, 60))
    counts = cylinder_from_torus(torus).counts.copy()
    assert torus.counts[0] == 0
    with pytest.raises(ModelError, match="already halved"):
        cylinder_from_torus(torus)
    assert np.array_equal(torus.counts[1:], counts)


@pytest.mark.parametrize("model", [
    SpectrumModel("torus_lattice", 2, 20, copies=2),
    SpectrumModel("torus_lattice", 1, 20),
    SpectrumModel("torus_lattice", 3, 5),
    SpectrumModel("boundary_lattice", 2, 20),
    SpectrumModel("dirichlet_cylinder", 2, 20)],
    ids=["copies", "dim1", "dim3", "boundary", "cylinder"])
def test_cylinder_from_torus_needs_a_one_copy_plane_torus(model):
    # a one-copy torus of any dim derives its cylinder; more copies,
    # boundary circles or a cylinder do not
    torus = enumerate_spectrum(model)
    if model.kind == "torus_lattice" and model.copies == 1:
        assert cylinder_from_torus(torus).model == \
            replace(model, kind="dirichlet_cylinder")
        return
    with pytest.raises(ModelError, match="derives from a one-copy torus"):
        cylinder_from_torus(torus)


# ---------------------------------------------------------------------------
# weights


@pytest.mark.parametrize("weight", [
    SpectralWeight(),
    SpectralWeight(power=-1.0, shift=1.0),
    SpectralWeight(power=-0.5, shift=0.0, scale=3.0),
    SpectralWeight(power=-1.0, shift=1e-300),
    SpectralWeight(power=2.5, shift=-2.0, scale=0.7),
    SpectralWeight(power=400.0, shift=1.0),
    SpectralWeight(power=-1.0, shift=0.0, scale=-2.0)])
def test_weight_matches_its_formula_bitwise(weight):
    def formula(lam):
        lam = np.asarray(lam, dtype=float)
        return weight.scale * (weight.shift + lam) ** weight.power

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


@pytest.mark.parametrize("weight", [
    SpectralWeight(),
    SpectralWeight(power=-1.0, shift=1.0),
    SpectralWeight(power=-0.5, shift=0.0, scale=3.0),
    SpectralWeight(power=2.5, shift=-2.0, scale=0.7),
    SpectralWeight(power=400.0, shift=1.0)])
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_weight_of_integer_eigenvalues_matches_float_input(weight, dtype):
    # integer eigenvalues give the float64 input's bits, warnings and
    # types, exact below 2^53 and rounded as a float cast rounds above; the
    # integer array itself is not written
    top = np.iinfo(dtype).max
    ints = [np.array([0, 1, 2, 7, 1000, 46340 ** 2, top], dtype=dtype),
            np.array(7, dtype=dtype), 7]
    if dtype == np.int64:
        ints.append(np.array([2 ** 53 + 1, 3 * 10 ** 16 + 1], dtype=dtype))
    for lam in ints:
        before = np.array(lam, copy=True)
        got, got_warned = _evaluated(weight, lam)
        want, want_warned = _evaluated(weight, np.asarray(lam, dtype=float))
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert got_warned == want_warned
        assert np.array_equal(lam, before)


class _Buffer:
    """An array-like whose __array__ hands out its own float64 buffer
    unless asked for a copy."""

    def __init__(self, values):
        self.values = values

    def __array__(self, dtype=None, copy=None):
        return self.values.copy() if copy else self.values


@pytest.mark.parametrize("weight", [SpectralWeight(),
                                    SpectralWeight(-1.0, 1.0, 2.0)])
def test_weight_leaves_float64_input_unwritten(tmp_path, weight):
    # every input is read through a copy: a float64 array, a view of one,
    # a memmap (an ndarray subclass, which asarray re-views) and an
    # array-like handing out its own buffer; each gives the plain array's
    # bits
    values = np.array([0.0, 1.0, 2.0, 7.0, 1e3])
    mapped = np.memmap(tmp_path / "lam.bin", dtype=float, mode="w+",
                       shape=values.shape)
    mapped[:] = values
    want = weight(values.copy())
    for lam in (values, values[:], mapped, _Buffer(values)):
        got = weight(lam)
        assert np.asarray(got).tobytes() == want.tobytes()
        assert np.array_equal(np.asarray(lam), [0.0, 1.0, 2.0, 7.0, 1e3])
    del mapped


def _evaluated(f, lam):
    """(f(lam), the category and message of each warning it raised)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = f(lam)
    return out, [(w.category, str(w.message)) for w in caught]


def _harmonic(n):
    """Eigenvalues 0..n-1, one mode each: INV gives sigma_N = H_N."""
    return Spectrum(np.arange(float(n)), np.ones(n, dtype=np.int64),
                    SpectrumModel("torus_lattice", 1, n))


def test_sigma_n_harmonic():
    # one mode per eigenvalue: sigma_N is the N-th harmonic number
    spec = _harmonic(100)
    assert partial_sums(spec, INV, [5])[0] == pytest.approx(
        sum(1 / k for k in range(1, 6)))
    for ns in ([200], [0], [5, 101]):
        with pytest.raises(ValueError):
            partial_sums(spec, INV, ns)


def test_norm_1inf_harmonic_sup_near_small_n():
    ns = np.arange(2, 2001)
    ratio = partial_sums(_harmonic(2000), INV, ns) / np.log(ns)
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
    spec = enumerate_spectrum(SpectrumModel("dirichlet_cylinder", 2, 150))

    def sup_at_tail(power):
        ns = np.unique(np.round(np.geomspace(2, int(spec.counts.sum()), 4000))
                       .astype(np.int64))
        ratio = partial_sums(spec, SpectralWeight(power=power), ns) \
            / np.log(ns)
        return int(np.argmax(ratio)) == ratio.size - 1
    assert sup_at_tail(-0.5)
    assert not sup_at_tail(-1.0)


def test_sigma_curve_matches_direct_sum():
    sp = enumerate_spectrum(SpectrumModel("torus_lattice", 2, 20))
    expanded = np.repeat(INV(sp.values), sp.counts)
    ns = [expanded.size, 1, 17, 2, 5]   # in any order
    got = partial_sums(sp, INV, ns)
    for N, sigma in zip(ns, got):
        assert sigma == pytest.approx(expanded[:N].sum(), rel=1e-13)


def _reference_estimate(spec, weight):
    """The estimator as one cumsum over the whole spectrum builds it: the
    partial sums whose bits the blocked pass must give."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w = weight(spec.values)
    cum_counts, cum_sums = np.cumsum(spec.counts), np.cumsum(spec.counts * w)

    def sigma(N):
        b = np.searchsorted(cum_counts, N, side="left")
        n_prev = np.where(b > 0, cum_counts[np.maximum(b - 1, 0)], 0)
        s_prev = np.where(b > 0, cum_sums[np.maximum(b - 1, 0)], 0.0)
        return s_prev + (N - n_prev) * w[b]

    n_max = int(cum_counts[-1])
    n_lo = max(2, int(n_max / 10 ** 2.0))
    ns = np.unique(np.round(np.geomspace(n_lo, n_max, 400)).astype(np.int64))
    x = np.log(ns.astype(float))
    y = sigma(ns)
    design = np.vstack([x, np.ones_like(x)]).T
    with np.errstate(over="ignore", invalid="ignore"):
        (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = float(np.sqrt(np.mean((design @ [slope, intercept] - y) ** 2)))
        cn = np.unique(np.round(np.geomspace(2, n_max, 3000)).astype(np.int64))
        sig = sigma(cn)
        ratio = sig / np.log(cn)
        pts, mf = cesaro_mean(cn, ratio[:-1])
    tail = float(mf[-1])
    tenth = np.searchsorted(pts, n_max / 10)
    drift = abs(tail - float(mf[min(tenth, mf.size - 1)]))
    scale = math.log(math.log(n_max)) / math.log(n_max)
    tol = (1.0 + float(np.max(np.abs(ratio)))) * max(0.05, 2.0 * scale)
    return dict(slope=float(slope), intercept=float(intercept),
                window=(n_lo, n_max), fit_residual=resid, cesaro_points=pts,
                sigma_values=sig, ratio_values=ratio, cesaro_values=mf,
                cesaro_tail=tail, cesaro_drift=drift,
                omega_consistent=abs(tail - slope) <= tol)


def _truncated(spec, size):
    """The first ``size`` eigenvalues of ``spec``."""
    return Spectrum(spec.values[:size], spec.counts[:size], spec.model)


_B = spectral._PLANE_BLOCK
_BLOCK_SIZES = [m * _B + d for m in (1, 2, 3) for d in (-1, 0, 1)]


@pytest.mark.parametrize("model", [
    SpectrumModel("torus_lattice", 2, 1400),
    SpectrumModel("dirichlet_cylinder", 2, 1400, copies=2),
    SpectrumModel("dirichlet_cylinder", 3, 420)],
    ids=["torus", "cylinder-2-copies", "cylinder-dim3"])
@pytest.mark.parametrize("weight", [
    lambda dim: SpectralWeight(power=-dim / 2, shift=1.0),
    lambda dim: SpectralWeight(-1.5, 2.0, 3.0)], ids=["inv", "sqrt"])
def test_blocked_estimate_matches_one_cumsum_bitwise(model, weight):
    # spectra ending just below, at and just above 1, 2 and 3 blocks; the
    # dim-3 table under the mode cap holds just over one.  Both weights lie
    # in the Dixmier ideal, of order at most -dim: (1 + lam)^(-dim/2), which
    # is INV on the plane, and 3 (2 + lam)^(-3/2)
    weight = weight(model.dim)
    full = enumerate_spectrum(model)
    sizes = [n for n in _BLOCK_SIZES if n <= full.values.size]
    assert len(sizes) >= 3
    for size in sizes:
        spec = _truncated(full, size)
        got = dixmier_estimate(spec, weight)
        for field, want in _reference_estimate(spec, weight).items():
            value = getattr(got, field)
            assert type(value) is type(want), (size, field)
            assert np.asarray(value).tobytes() == \
                np.asarray(want).tobytes(), (size, field)


def test_partial_sums_at_block_edges_bitwise():
    # N on the first and last mode of each block, and on the modes around
    # them: the carried sums against one cumsum over the whole spectrum
    spec = enumerate_spectrum(
        SpectrumModel("dirichlet_cylinder", 2, 1400, copies=2))
    w = INV(spec.values)
    cum_counts, cum_sums = np.cumsum(spec.counts), np.cumsum(spec.counts * w)
    edges = np.array([e + d for e in (_B, 2 * _B, 3 * _B) for d in (-1, 0)])
    ns = np.unique(np.concatenate([cum_counts[edges - 1] + d
                                   for d in (-1, 0, 1, 2)]))
    b = np.searchsorted(cum_counts, ns)
    assert set(edges) <= set(b.tolist())   # some N land on a block's start
    want = (cum_sums[b - 1] + (ns - cum_counts[b - 1]) * w[b])
    assert partial_sums(spec, INV, ns).tobytes() == want.tobytes()


def _traced_peak(f, *args):
    """(result, peak bytes that ``f`` allocates above what is held)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = f(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.mark.parametrize("kind", ["torus_lattice", "dirichlet_cylinder"])
def test_enumeration_holds_the_plane_table_and_its_spectrum(kind):
    # dim 3 holds its one table: the int32 space table and the int16 plane
    # it sums (6 B per entry of R^2 + 1), the outputs at 8 B per eigenvalue
    # within 10% of their length, and two buffers of 8 B per block
    # eigenvalue.  Float64 eigenvalues read 3.71 MB on the cylinder at
    # R = 334 (the torus's cap), against this bound's 3.58 MB
    for R in (300, 334):
        spec, peak = _traced_peak(enumerate_spectrum,
                                  SpectrumModel(kind, 3, R))
        assert peak <= (6 * (R * R + 1) + 8 * spec.values.size * 1.1
                        + 2 * 8 * _B), R


@pytest.mark.parametrize("kind", ["torus_lattice", "dirichlet_cylinder"])
def test_enumeration_holds_only_its_spectrum(kind):
    # no table: the int32 outputs at 8 B per eigenvalue, within 10% of
    # their final length, plus four buffers of 8 B per block eigenvalue
    # (the spare block of capacity, and the count's bincount, index array
    # and last block).  At R = 2000 float64 eigenvalues read 13.7 MB,
    # against this bound's 11.4 MB
    for R in (1000, 2000):
        spec, peak = _traced_peak(enumerate_spectrum,
                                  SpectrumModel(kind, 2, R))
        assert peak <= 8 * spec.values.size * 1.1 + 4 * 8 * _B, R


@pytest.mark.parametrize("kind", ["torus_lattice", "dirichlet_cylinder",
                                  "boundary_lattice"])
def test_1d_enumeration_holds_only_its_spectrum(kind):
    # int64 squares and int32 counts at 12 B per eigenvalue, built in
    # place: float64 squares beside an int64 range and a mask read 28 B
    R = 10 ** 6
    spec, peak = _traced_peak(enumerate_spectrum,
                              SpectrumModel(kind, 1, R, copies=2))
    assert spec.values.dtype == np.int64
    assert peak <= 12 * spec.values.size + (1 << 20)


@pytest.mark.parametrize("kind", ["torus_lattice", "dirichlet_cylinder"])
def test_dixmier_estimate_holds_a_few_blocks(kind):
    # above its input, four block buffers of 8 B per eigenvalue plus the
    # grids and the fit, however many blocks the spectrum spans; a small
    # first call takes the one-off imports and caches of the fit
    dixmier_estimate(enumerate_spectrum(SpectrumModel(kind, 2, 50)), INV)
    for R in (1000, 1400):
        spec = enumerate_spectrum(SpectrumModel(kind, 2, R))
        _, peak = _traced_peak(dixmier_estimate, spec, INV)
        assert peak <= 4 * 8 * _B + (1 << 19), (R, spec.values.size)


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
    SpectralWeight(power=0.5, shift=1.0),            # grows
    SpectralWeight(power=-1.0, shift=1.0, scale=0.0),
    SpectralWeight(power=-1.0, shift=1.0, scale=-1.0)])
def test_dixmier_estimate_rejects_weight_outside_domain(weight):
    with pytest.raises(GradingError):
        estimate(SpectrumModel("torus_lattice", 2, 300), weight)


@pytest.mark.parametrize("model", [
    SpectrumModel("torus_lattice", 3, 40),
    SpectrumModel("dirichlet_cylinder", 2, 100),
    SpectrumModel("boundary_lattice", 1, 1000, copies=2)],
    ids=["torus-dim3", "cylinder-dim2", "circles-dim1"])
def test_dixmier_estimate_rejects_weight_outside_the_ideal(model):
    # order above -dim: sigma_N grows like a power of N, and its ln N slope
    # is no Dixmier trace; order -dim is the ideal's edge and estimates
    edge = SpectralWeight(power=-model.dim / 2, shift=1.0)
    with pytest.raises(GradingError, match="outside the Dixmier ideal"):
        estimate(model, replace(edge, power=edge.power + 0.25))
    assert estimate(model, edge).slope > 0


@pytest.mark.parametrize("shift", [1e-300, 1e-150, 1e-30])
def test_dixmier_slope_below_rounding_floor_raises(shift):
    # sigma_N = 1/shift + pi ln N + ...: the log growth is rounded away
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IllConditionedFitError):
            estimate(SpectrumModel("torus_lattice", 2, 300),
                     SpectralWeight(power=-1.0, shift=shift))


def test_dixmier_window_is_the_top_two_decades():
    # torus cutoff 6 holds 113 modes: two decades below them reach past 2
    small = enumerate_spectrum(SpectrumModel("torus_lattice", 2, 6))
    assert int(small.counts.sum()) == 113
    assert dixmier_estimate(small, INV).window == (2, 113)
    spec = enumerate_spectrum(SpectrumModel("torus_lattice", 2, 100))
    n_max = int(spec.counts.sum())
    assert dixmier_estimate(spec, INV).window == (int(n_max / 100), n_max)


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


@pytest.mark.parametrize("model, weight, geometry, entry, value", [
    (SpectrumModel("torus_lattice", 2, 9, copies=3),
     SpectralWeight(-1.0, 1.0, 2.0), Torus(2), "p", 6 * PI),
    (SpectrumModel("torus_lattice", 3, 9), SpectralWeight(-1.5, 1.0),
     Torus(3), "p", 4 * PI / 3),
    (SpectrumModel("dirichlet_cylinder", 2, 9), SpectralWeight(-1.0),
     Cylinder(2), "p", PI / 2),
    (SpectrumModel("boundary_lattice", 1, 9, copies=2),
     SpectralWeight(-0.5, 1.0), Cylinder(2), "s", 4.0),
    (SpectrumModel("boundary_lattice", 1, 9), SpectralWeight(-0.5, 1.0),
     Cylinder(2), "s", 2.0),
    (SpectrumModel("boundary_lattice", 2, 9, copies=2),
     SpectralWeight(-1.0, 1.0), Cylinder(3), "s", 2 * PI)],
    ids=["torus", "torus-dim3", "cylinder", "circles", "one-circle",
         "boundary-dim2"])
def test_weight_operator_states_the_weight(model, weight, geometry, entry,
                                           value):
    # a lattice's weight is an interior symbol of its geometry; a boundary
    # lattice's is the s entry of the cylinder it bounds, two copies of it
    # being the cylinder's two ends
    op = weight_operator(model, weight)
    assert op.geometry == geometry
    assert (op.p is None, op.s is None) == (entry == "s", entry == "p")
    assert dixmier_formula(op) == pytest.approx(value, rel=1e-14)


def test_weight_operator_reaches_degree_minus_dim_or_is_absent():
    t3 = SpectrumModel("torus_lattice", 3, 9)
    # (2 + |xi|^2)^(-1/2): degrees -1 and -3, the binomial -1/2 times 2
    p = weight_operator(t3, SpectralWeight(-0.5, 2.0)).p
    assert p.exact_floor == -3
    assert p.component(-3).atoms[0][0] == -1.0
    # order -2 meets no degree -3: expanded past it, to an empty slot
    p = weight_operator(t3, SpectralWeight(-1.0, 1.0)).p
    assert p.exact_floor == -4 and p.component(-3).is_zero
    for model, weight in [
            # no boundary torus, no transmission for an odd order, and an
            # order off the integer ladder
            (SpectrumModel("dirichlet_cylinder", 1, 9), SpectralWeight(-0.5)),
            (SpectrumModel("dirichlet_cylinder", 3, 9), SpectralWeight(-1.5)),
            (SpectrumModel("torus_lattice", 2, 9), SpectralWeight(-0.75)),
            # past the order cap, whose expansion would run to degree -dim,
            # and a shift whose square passes the float range
            (t3, SpectralWeight(0.5 * ORDER_CAP + 0.5, scale=0.0)),
            (t3, SpectralWeight(0.5, 1e300))]:
        assert weight_operator(model, weight) is None
    assert weight_operator(t3, SpectralWeight(0.5 * ORDER_CAP)) is not None
    # a negative order is not capped: one component, below degree -3
    p = weight_operator(t3, SpectralWeight(-0.5 * ORDER_CAP - 0.5)).p
    assert p.order == -ORDER_CAP - 1 and p.component(-3).is_zero


def test_heat_and_zeta_references_from_the_weight():
    # -res P / (2 (2 pi)^n) and minus that of P A^-sigma; None where no
    # operator states P, or P A^-sigma is no one weight or overflows
    t2 = SpectrumModel("torus_lattice", 2, 9)
    a = SpectralWeight(1.0, 1.0)
    assert heat_log_reference(t2, INV, a) == pytest.approx(-PI, rel=1e-14)
    assert zeta_reference(t2, SpectralWeight(0.0), a, 1.0) == \
        pytest.approx(PI, rel=1e-14)
    assert zeta_reference(t2, INV, a, 0.0) == pytest.approx(PI, rel=1e-14)
    # P of order 0 on T^2 has no degree -2 component
    assert heat_log_reference(t2, SpectralWeight(0.0, 3.0), a) == 0.0
    assert heat_log_reference(t2, SpectralWeight(-0.75), a) is None
    assert zeta_reference(t2, SpectralWeight(-1.0, 2.0), a, 1.0) is None
    assert zeta_reference(t2, SpectralWeight(0.0), SpectralWeight(
        1.0, 1.0, 1e-300), 2.0) is None


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


def test_dixmier_formula_matches_spectrum_at_n3():
    # at n = 2 the interior divisor n (2pi)^n equals 2^(n-1) (2pi)^n and the
    # boundary divisor (n-1) (2pi)^n equals (n/2) (2pi)^n; n = 3 tells them
    # apart.  Interior: |xi|^-3 on T^3 against (1+Delta)^(-3/2), 4pi/3.
    # Boundary: |xi'|^-2 on the two T^2 ends of the cylinder, 2pi.
    legs = [
        (BdMSymbol(Torus(3), p=classical_symbol([radial_term(-3.0, 3)], 3)),
         SpectrumModel("torus_lattice", 3, 200),
         SpectralWeight(power=-1.5, shift=1.0)),
        (BdMSymbol(Cylinder(3), s=classical_symbol([radial_term(-2.0, 2)], 2)),
         SpectrumModel("boundary_lattice", 2, 1000, copies=2), INV)]
    for A, model, weight in legs:
        slope = estimate(model, weight).slope
        assert slope == pytest.approx(dixmier_formula(A), rel=0.01)


def test_estimate_matches_formula_cylinder():
    est = estimate(SpectrumModel("dirichlet_cylinder", 2, 700),
                   SpectralWeight(power=-1.0, shift=0.0))
    A = BdMSymbol(Cylinder(2), p=classical_symbol([radial_term(-2.0, 2)], 2))
    formula = dixmier_formula(A).real
    assert est.slope == pytest.approx(formula, rel=0.03)
