"""Explicit spectra, singular-value sums and Dixmier trace estimation.

Model spectra (torus lattices, Dirichlet cylinders, boundary lattices) are
enumerated exhaustively up to a cutoff and aggregated by eigenvalue into
arrays (values, multiplicities) ordered by ascending eigenvalue.  Each
eigenvalue is held as the exact integer it is: int32 values and int32
counts, 8 B per eigenvalue, except that a 1-D lattice whose R^2 passes
2^31 - 1 (R > 46340) holds int64 values, 12 B.  A weight converts them to
float64 once, exact below 2^53.  The plane is counted one cache-sized
block of eigenvalues at a time, its octant with the axes and diagonals,
and in dim 2 each block's nonzero entries are gathered before the next is
counted, so no table is held beside the spectrum; dim 3 sums the plane
into one int32 table of space.  Only tori are counted:
:func:`cylinder_from_torus` derives the Dirichlet cylinder of dim 1-3 from
its torus in place, as half the points off the hyperplane j = 0.  Every
enumeration is bounded by one constant, ``MODE_CAP`` modes, checked on the
model before anything is allocated.  Partial sums sigma_N (one pass over
the same blocks), logarithmic Cesaro means and the Dixmier trace estimator
operate on those arrays and a weight passed with them.

The estimator reports the least-squares slope of sigma_N against ln N over
the top two decades of N.  Because sigma_N = C ln N + const + o(1) for the
operators treated here, the slope converges like 1/ln N *after* the
constant has been eliminated, i.e. orders of magnitude faster than
sigma_N / ln N itself.  The Cesaro mean of sigma_N / ln N is reported as a
corroborating curve; it approaches the same limit at the much slower rate
ln ln N / ln N, and the consistency flag uses that scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (GradingError, IllConditionedFitError, ModelError,
                     ResourceCapError, WindowError, sci)

# the most modes an enumeration may hold.  Its longest array then has at
# most MODE_CAP + 1 entries: the R + 1 modes of a dim-1 cylinder's torus,
# or the dim-2 outputs, at most R^2 + 1 <= 1.5e8 long (the cylinder at
# R = 12247), so every eigenvalue of dims 2-3 fits int32.  And MODE_CAP <
# 2^31, so no multiplicity, times its copies, overflows the int32 counts
MODE_CAP = 300_000_000


# ---------------------------------------------------------------------------
# weights


@dataclass(frozen=True)
class SpectralWeight:
    """scale * (shift + lam)^power."""

    power: float = 1.0
    shift: float = 0.0
    scale: float = 1.0

    def __call__(self, lam):
        # in a float64 copy made here, in place: temporaries of the
        # spectrum's size would land in the malloc heap and stay resident
        # after the caller frees them.  [()] makes a 0-d result a scalar
        x = np.array(lam, dtype=float)
        out = np.add(self.shift, x, out=x)[()]
        out **= self.power
        out *= self.scale
        return out

    def describe(self):
        scale = f"{self.scale:g}*" if self.scale != 1.0 else ""
        return f"{scale}({self.shift:g}+lam)^{self.power:g}"

    def non_increasing(self, lam_min):
        """Whether |weight| is non-increasing on [lam_min, inf).

        With u = shift + lam, d/dlam ln|weight| = power/u, so a weight with
        nonzero scale and power decays iff power < 0 and u > 0 at lam_min.
        """
        return (self.scale == 0.0 or self.power == 0.0
                or (self.power < 0.0 and self.shift + lam_min > 0.0))


# ---------------------------------------------------------------------------
# spectrum models and enumeration


@dataclass(frozen=True)
class SpectrumModel:
    """Eigenvalue enumerator description.

    kind:
      'torus_lattice'      lam = |k|^2, k in Z^dim
      'dirichlet_cylinder' lam = j^2 + |k|^2, j >= 1, k in Z^(dim-1)
      'boundary_lattice'   lam = |k|^2, k in Z^dim
    cutoff: modes with base eigenvalue <= floor(cutoff)^2 are enumerated
    (cutoff 7.5 stops at 49).
    copies: every multiplicity is multiplied by it (for example, two
    boundary circles carry each mode twice).
    """

    kind: str
    dim: int
    cutoff: float
    copies: int = 1


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Aggregated model spectrum, sorted by ascending eigenvalue.

    An enumerated spectrum holds its eigenvalues as exact integers, int32
    (int64 for a 1-D lattice past R = 46340), beside int32 counts: 8 B per
    eigenvalue.  Its consumers read them through a weight, in float64."""

    values: np.ndarray   # base eigenvalues, strictly increasing
    # multiplicities, or non-negative per-eigenvalue masses of an
    # operator's diagonal
    counts: np.ndarray
    model: SpectrumModel


def check_mode_cap(model):
    """Raise :class:`ResourceCapError` at the entry ``model`` when the
    modes of the box around the enumerated ball exceed ``MODE_CAP``; the
    estimate is an exact int for any cutoff, from floor(cutoff) as
    enumeration counts.  Under the cap every multiplicity fits the int32
    counts."""
    r = math.floor(model.cutoff)
    d = model.dim
    if model.kind in ("torus_lattice", "boundary_lattice"):
        est = model.copies * (2 * r + 1) ** d
    elif model.kind == "dirichlet_cylinder":
        est = model.copies * r * (2 * r + 1) ** (d - 1)
    else:
        raise ValueError(f"unknown model kind {model.kind!r}")
    if est > MODE_CAP:
        raise ResourceCapError(
            f"~{sci(est)} modes exceed the cap {sci(MODE_CAP)}", ("model",))


# eigenvalues per block of the plane count, the gather and the partial
# sums: a block's int64 bincount or float64 sums (1 MB) stay in L2 cache
_PLANE_BLOCK = 1 << 17


def _isqrt(n):
    """floor(sqrt(n)) of a non-negative int64 array, exact."""
    r = np.sqrt(n).astype(np.int64)
    r -= r * r > n
    r += (r + 1) * (r + 1) <= n
    return r


def _plane_capacity(R2):
    """Room for the distinct m <= R2 that are sums of two squares, at most
    the R2 + 1 candidates: the Landau-Ramanujan count 0.7642 x / sqrt(ln x)
    (1 + 1/ln x), above the true one at every R checked up to the cap's
    12247, plus one block.  A short estimate costs the outputs a growth."""
    log = math.log(max(R2, 3))
    est = 0.7642 * R2 / math.sqrt(log) * (1.0 + 1.0 / log)
    return min(R2 + 1, int(est) + _PLANE_BLOCK)


def _plane_blocks(R2, sq):
    """(a, blk) for a = 0, _PLANE_BLOCK, ... <= R2: blk[m - a] = #{k in Z^2 :
    |k|^2 = m}, an int16 array, for a <= m < a + _PLANE_BLOCK, m <= R2;
    sq[j] = j^2."""
    # int16: r_2(m) <= 4 d(m) <= 4 * 896 = 3584 for m <= 1.5e8 (MODE_CAP),
    # where the most divisors, 896, are those of 147,026,880
    i = np.arange(1, math.isqrt(R2 // 2) + 1, dtype=np.int64)
    ii = i * i
    first = ii + (i + 1) ** 2   # the smallest interior m of row i
    nxt = i + 1                 # the first j of row i not yet counted
    edges = (sq[1:], 2 * ii)    # the axis and diagonal m
    for a in range(0, R2 + 1, _PLANE_BLOCK):
        b = min(a + _PLANE_BLOCK, R2 + 1)
        # the interior of the octant, 0 < i < j, carries 8 points per (i, j);
        # the block gets the row segments i^2 + j^2 in it, so it is written
        # in order instead of one cache miss per point
        rows = int(np.searchsorted(first, b))
        lo = nxt[:rows]
        hi = _isqrt(b - 1 - ii[:rows])
        n = hi - lo + 1
        # j = lo..hi of each row, row after row, then m - a = i^2 + j^2 - a
        m = np.repeat(lo - np.cumsum(n) + n, n)
        m += np.arange(m.size)
        m *= m
        m += np.repeat(ii[:rows] - a, n)
        lo[:] = hi + 1
        blk = np.bincount(m, minlength=b - a)
        del m   # not held beside the int16 copy
        blk = blk.astype(np.int16)
        blk <<= 3
        # the origin is 1 point, each axis and diagonal m carries 4
        if a == 0:
            blk[0] = 1
        for ms in edges:
            blk[ms[np.searchsorted(ms, a):np.searchsorted(ms, b)] - a] += 4
        yield a, blk


def _space_counts(plane, sq):
    """The Z^3 counts from the plane's, one plane per third coordinate."""
    cnt = np.zeros(plane.size, dtype=np.int32)   # r_3 passes int16's range
    for k in range(sq.size):
        cnt[sq[k]:] += (2 if k else 1) * plane[:plane.size - sq[k]]
    return cnt


def _lattice(dim, cutoff):
    """The torus Z^dim below the cutoff as (values, counts): the eigenvalues
    |k|^2 <= floor(cutoff)^2, ascending exact integers, and their int32
    multiplicities.  The values are int32 (in dim 1 while R^2 < 2^31, int64
    past it).  It checks no cap."""
    R = int(cutoff)
    if dim == 1:
        # eigenvalues k^2 indexed directly, squared in place; the dense
        # eigenvalue-indexed array would be quadratic in the cutoff
        values = np.arange(R + 1,
                           dtype=np.int32 if R * R < 2 ** 31 else np.int64)
        values *= values
        counts = np.full(R + 1, 2, dtype=np.int32)
        counts[0] = 1
        return values, counts
    if dim not in (2, 3):
        raise ValueError("lattice counting implemented for dim <= 3")
    R2 = R * R
    sq = np.arange(R + 1, dtype=np.int64) ** 2
    blocks = _plane_blocks(R2, sq)
    if dim == 2:
        size = _plane_capacity(R2)
    else:
        # the space table: under the cap R <= 421 (the cylinder's), whose
        # plane spans two blocks
        cnt = _space_counts(np.concatenate([blk for _, blk in blocks]), sq)
        size = np.count_nonzero(cnt)
        blocks = [(0, cnt)]
    # the nonzero entries of each block while it is in cache; the outputs
    # grow in place past an estimate that falls short (realloc remaps a
    # large block without copying its pages) and end exact
    values = np.empty(size, dtype=np.int32)
    counts = np.empty(size, dtype=np.int32)
    k = 0
    for a, blk in blocks:
        # flatnonzero is slower on int16 than a boolean
        ms = np.flatnonzero(blk != 0)
        if k + ms.size > values.size:
            size = max(k + ms.size, 2 * values.size)
            values.resize(size, refcheck=False)
            counts.resize(size, refcheck=False)
        values[k:k + ms.size] = ms + a
        counts[k:k + ms.size] = blk[ms]
        k += ms.size
    values.resize(k, refcheck=False)
    counts.resize(k, refcheck=False)
    return values, counts


def cylinder_from_torus(torus):
    """The Dirichlet cylinder at the cutoff of ``torus``, derived in place.

    The points (j, k) with j >= 1 and norm m are half of the torus's points
    of norm m off the hyperplane j = 0, which holds the torus one dimension
    down (in dim 1, the origin alone).  Every m > 0 keeps points off it, so
    the outputs are views of the torus's arrays without 0, the counts
    halved in place.  ``torus`` must be a one-copy torus not derived from
    before, or :class:`ModelError` is raised.
    """
    m = torus.model
    if (m.kind, m.copies) != ("torus_lattice", 1):
        raise ModelError(f"the cylinder derives from a one-copy torus, not "
                         f"{m.kind} with {m.copies} copies")
    values, counts = torus.values, torus.counts
    if counts[0] != 1:
        raise ModelError("the torus was already halved into a cylinder")
    if m.dim == 1:
        counts[0] -= 1
    else:
        plane, cnt = _lattice(m.dim - 1, m.cutoff)
        counts[np.searchsorted(values, plane)] -= cnt
    counts >>= 1
    return Spectrum(values[1:], counts[1:],
                    replace(m, kind="dirichlet_cylinder"))


def enumerate_spectrum(model):
    """Exhaustive (eigenvalue, multiplicity) enumeration below the cutoff;
    a Dirichlet cylinder is derived from its torus.

    Deterministic; raises :class:`ResourceCapError` before allocating when
    the estimated mode count of ``model`` exceeds ``MODE_CAP``.
    """
    if model.cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    if model.copies < 1:
        raise ValueError("copies must be >= 1")
    check_mode_cap(model)
    spec = Spectrum(*_lattice(model.dim, model.cutoff),
                    SpectrumModel("torus_lattice", model.dim, model.cutoff))
    if model.kind == "dirichlet_cylinder":
        spec = cylinder_from_torus(spec)
    np.multiply(spec.counts, model.copies, out=spec.counts)
    return replace(spec, model=model)


# ---------------------------------------------------------------------------
# partial sums


def partial_sums(spec, weight, ns):
    """sigma_N, the sum of the first N singular values ``weight`` gives on
    the ascending eigenvalues of ``spec`` repeated by their counts, at the
    integers ``ns`` (any order).  One pass over ``_PLANE_BLOCK`` eigenvalues
    at a time carries the running sums from block to block, so it adds in
    the order of one cumsum over the whole spectrum and gives its bits."""
    ns = np.asarray(ns, dtype=np.int64)
    if np.any(ns < 1) or np.any(ns > int(spec.counts.sum())):
        raise ValueError("N outside the enumerated range")
    order = np.argsort(ns)
    out = np.empty(ns.size)
    s_prev, n_prev, i = 0.0, 0, 0
    for a in range(0, spec.values.size, _PLANE_BLOCK):
        # an overflowing weight passes the grading; the fit's checks reject it
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            w = weight(spec.values[a:a + _PLANE_BLOCK])
        counts = spec.counts[a:a + _PLANE_BLOCK]
        cs = counts * w
        cs[0] += s_prev
        np.cumsum(cs, out=cs)
        # the running count in int64, in place: a cumsum that casts the
        # int32 counts would hold a second block buffer
        cc = counts.astype(np.int64)
        np.cumsum(cc, out=cc)
        cc += n_prev
        at = order[i:np.searchsorted(ns, cc[-1], "right", sorter=order)]
        b = np.searchsorted(cc, ns[at])
        k = np.maximum(b - 1, 0)
        out[at] = (np.where(b > 0, cs[k], s_prev)
                   + (ns[at] - np.where(b > 0, cc[k], n_prev)) * w[b])
        s_prev, n_prev, i = cs[-1], cc[-1], i + at.size
    return out


# ---------------------------------------------------------------------------
# logarithmic Cesaro mean


def cesaro_mean(knots, values):
    """Logarithmic Cesaro mean  (Mf)(t) = (1/ln t) * int_1^t f(s) ds/s of
    the right-open step function f = values[i] on [knots[i], knots[i+1]).

    Returns (knots[1:], Mf at those knots); the step integral is exact.
    When the data starts right of 1, f is extended by its first value on
    [1, knots[0]) (this is the embedding convention for sequences indexed
    from N >= 2).  Requires knots[-1] > e.
    """
    knots = np.asarray(knots, dtype=float)
    vals = np.asarray(values, dtype=float)
    if knots[-1] <= math.e:
        raise WindowError("Cesaro mean needs data beyond t = e")
    if knots[0] > 1.0:
        knots = np.concatenate([[1.0], knots])
        vals = np.concatenate([[vals[0]], vals])
    lnk = np.log(knots)
    return knots[1:], np.cumsum(vals * np.diff(lnk)) / lnk[1:]


# ---------------------------------------------------------------------------
# Dixmier estimation


@dataclass(frozen=True, eq=False)
class DixmierEstimate:
    """ln-slope Dixmier estimate plus convergence diagnostics.

    The sampled arrays share the grid ``cesaro_points``: partial sums,
    their ratio to ln N, and the Cesaro mean of that ratio.
    """

    slope: float
    intercept: float
    window: tuple
    fit_residual: float
    cesaro_points: np.ndarray
    sigma_values: np.ndarray
    ratio_values: np.ndarray
    cesaro_values: np.ndarray
    cesaro_tail: float
    cesaro_drift: float
    omega_consistent: bool


def dixmier_estimate(spec, weight):
    """Estimate the Dixmier trace of ``weight`` on the spectrum ``spec``.

    Primary estimator: least-squares slope of sigma_N versus ln N over the
    top two decades of N, a fixed window, at 400 geometric samples.
    Corroboration: the Cesaro mean of sigma_N / ln N (subsampled on a
    geometric grid of 3000 points; the step integral over that grid is
    exact).  ``omega_consistent`` is cleared when the Cesaro tail sits
    further from the slope than its own ln ln N / ln N convergence scale
    allows, which would mean the averaging choice matters for this
    operator.

    The weight must be positive and non-increasing from the bottom
    eigenvalue on, or :class:`GradingError` at the entry ``weight`` is
    raised; on the ascending eigenvalues it then lists the singular values
    in non-increasing order.  Its order 2 * power must be at most -dim,
    inside the Dixmier ideal, or the same error is raised: above it sigma_N
    grows like a power of N, not like ln N, and the slope means nothing.
    The window is (max(2, n_max / 100), n_max); fewer than 100 modes hold
    no two decades and raise :class:`WindowError` at the entry ``model``.
    A non-finite slope, residual or Cesaro tail, or a slope below the
    partial sums' rounding floor, raises :class:`IllConditionedFitError`.
    """
    if not (weight.scale > 0.0
            and weight.non_increasing(float(spec.values[0]))):
        raise GradingError(
            "Dixmier estimation needs positive non-increasing weights",
            ("weight",))
    if 2.0 * weight.power > -spec.model.dim:
        raise GradingError(
            f"weight of order {2.0 * weight.power:g} above -{spec.model.dim}"
            f" is outside the Dixmier ideal: sigma_N grows like a power of N",
            ("weight",))
    n_max = int(spec.counts.sum())
    if n_max < 100:
        raise WindowError("too few modes for a slope window", ("model",))
    n_lo = max(2, int(n_max / 10 ** 2.0))
    ns = np.unique(np.round(np.geomspace(n_lo, n_max,
                                         400)).astype(np.int64))
    cn = np.unique(np.round(np.geomspace(2, n_max, 3000)).astype(np.int64))
    # both grids from one pass over the spectrum
    y, sig = np.split(partial_sums(spec, weight, np.concatenate([ns, cn])),
                      [ns.size])
    x = np.log(ns.astype(float))
    design = np.vstack([x, np.ones_like(x)]).T
    # a dominant weight can overflow the squared residuals; the checks
    # after the block reject what that leaves
    with np.errstate(over="ignore", invalid="ignore"):
        (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = float(np.sqrt(np.mean((design @ [slope, intercept] - y) ** 2)))
        ratio = sig / np.log(cn)
        pts, mf = cesaro_mean(cn, ratio[:-1])
    tail = float(mf[-1])
    # sigma_N carries a rounding error of eps * |sigma_N|, which moves the
    # slope by that much over the ln N span of the window
    floor = np.finfo(float).eps * float(np.max(np.abs(y))) \
        / math.log(n_max / n_lo)
    if not np.all(np.isfinite([slope, resid, tail])) \
            or floor > 1e-6 * (1.0 + abs(slope)):
        raise IllConditionedFitError(
            f"degenerate Dixmier fit: slope {slope:.3g} (rounding floor "
            f"{floor:.2g}), residual {resid:.3g}, Cesaro tail {tail:.3g}")
    tenth = np.searchsorted(pts, n_max / 10)
    drift = abs(tail - float(mf[min(tenth, mf.size - 1)]))
    # the Cesaro mean approaches the limit like ln ln N / ln N with a
    # constant of the order of the ratio curve's range
    scale = math.log(math.log(n_max)) / math.log(n_max)
    tol = (1.0 + float(np.max(np.abs(ratio)))) * max(0.05, 2.0 * scale)
    consistent = abs(tail - slope) <= tol
    return DixmierEstimate(float(slope), float(intercept),
                           (int(n_lo), int(n_max)), resid, pts,
                           sig, ratio, mf, tail, drift, consistent)
