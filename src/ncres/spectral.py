"""Explicit spectra, singular-value sums and Dixmier trace estimation.

Model spectra (torus lattices, Dirichlet cylinders, boundary lattices) are
enumerated exhaustively up to a cutoff and aggregated by eigenvalue (dim 2
and 3: one int32 table, the plane's octant counted one cache-sized block of
eigenvalues at a time, the cylinder as half the lattice points off the
j = 0 hyperplane) into arrays (values, multiplicities) ordered by ascending
eigenvalue.  Partial sums sigma_N, logarithmic Cesaro means and the Dixmier
trace estimator operate on those arrays and a weight passed with them.

The estimator reports the least-squares slope of sigma_N against ln N over
the top decades of N.  Because sigma_N = C ln N + const + o(1) for the
operators treated here, the slope converges like 1/ln N *after* the
constant has been eliminated, i.e. orders of magnitude faster than
sigma_N / ln N itself.  The Cesaro mean of sigma_N / ln N is reported as a
corroborating curve; it approaches the same limit at the much slower rate
ln ln N / ln N, and the consistency flag uses that scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (GradingError, IllConditionedFitError, ResourceCapError,
                     WindowError)

MODE_CAP_DEFAULT = 300_000_000


# ---------------------------------------------------------------------------
# weights


@dataclass(frozen=True)
class SpectralWeight:
    """scale * (shift + lam)^power * exp(-rate * lam)."""

    power: float = 1.0
    shift: float = 0.0
    rate: float = 0.0
    scale: float = 1.0

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=float)
        # in place: temporaries of the spectrum's size would land in the
        # malloc heap and stay resident after the caller frees them
        out = self.shift + lam
        out **= self.power
        out *= self.scale
        if self.rate:
            out *= np.exp(-self.rate * lam)
        return out

    def describe(self):
        parts = []
        if self.scale != 1.0:
            parts.append(f"{self.scale:g}*")
        parts.append(f"({self.shift:g}+lam)^{self.power:g}")
        if self.rate:
            parts.append(f"*exp(-{self.rate:g}*lam)")
        return "".join(parts)

    def non_increasing(self, lam_min):
        """Whether |weight| is non-increasing on [lam_min, inf).

        With u = shift + lam, d/dlam ln|weight| = power/u - rate, so the weight
        decays iff rate >= 0 and power <= rate * u at u = shift + lam_min > 0;
        a zero scale or power needs only rate >= 0.
        """
        if self.scale == 0.0:
            return True
        if self.rate < 0.0:
            return False
        if self.power == 0.0:
            return True
        u0 = self.shift + lam_min
        return u0 > 0.0 and self.power <= self.rate * u0


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
    mode_cap: int = MODE_CAP_DEFAULT


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Aggregated model spectrum, sorted by ascending eigenvalue."""

    values: np.ndarray   # base eigenvalues, strictly increasing
    counts: np.ndarray   # multiplicities
    model: SpectrumModel


def _estimate_modes(model):
    r = float(model.cutoff)
    d = model.dim
    if model.kind in ("torus_lattice", "boundary_lattice"):
        return model.copies * (2 * r + 1) ** d
    if model.kind == "dirichlet_cylinder":
        return model.copies * r * (2 * r + 1) ** (d - 1)
    raise ValueError(f"unknown model kind {model.kind!r}")


# eigenvalues per block of the plane count: the block's int64 bincount
# (1 MB) and its slice of the table stay in a core's 2 MB L2 cache
_PLANE_BLOCK = 1 << 17


def _isqrt(n):
    """floor(sqrt(n)) of a non-negative int64 array, exact."""
    r = np.sqrt(n).astype(np.int64)
    r -= r * r > n
    r += (r + 1) * (r + 1) <= n
    return r


def _plane_counts(R2, sq):
    """counts[m] = #{k in Z^2 : |k|^2 = m} for m <= R2; sq[j] = j^2."""
    # every count is at most r_3(m) with m <= 4e8, far below 2^31
    cnt = np.empty(R2 + 1, dtype=np.int32)
    # the interior of the octant, 0 < i < j, carries 8 points per (i, j);
    # each block of m gets the row segments i^2 + j^2 in it, so the table is
    # written in order instead of one cache miss per point
    i = np.arange(1, math.isqrt(R2 // 2) + 1, dtype=np.int64)
    ii = i * i
    first = ii + (i + 1) ** 2   # the smallest interior m of row i
    nxt = i + 1                 # the first j of row i not yet counted
    for a in range(0, R2 + 1, _PLANE_BLOCK):
        b = min(a + _PLANE_BLOCK, R2 + 1)
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
        blk = cnt[a:b]
        blk[:] = np.bincount(m, minlength=b - a)
        blk <<= 3
    # the origin is 1 point, each axis and diagonal m carries 4
    cnt[0] = 1
    cnt[sq[1:]] += 4
    cnt[2 * ii] += 4
    return cnt


def _space_counts(plane, sq):
    """The Z^3 counts from the plane's, one plane per third coordinate."""
    cnt = np.zeros_like(plane)
    for k in range(sq.size):
        cnt[sq[k]:] += (2 if k else 1) * plane[:plane.size - sq[k]]
    return cnt


def enumerate_spectrum(model):
    """Exhaustive (eigenvalue, multiplicity) enumeration below the cutoff.

    Deterministic; raises :class:`ResourceCapError` before allocating when
    the estimated mode count exceeds the model's cap.
    """
    if model.cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    if model.copies < 1:
        raise ValueError("copies must be >= 1")
    est = _estimate_modes(model)
    if est > model.mode_cap:
        raise ResourceCapError(
            f"~{est:.2e} modes exceed the cap {model.mode_cap:.2e}")
    R = int(model.cutoff)
    R2 = R * R
    if model.dim == 1:
        # eigenvalues k^2 (or j^2, j >= 1) indexed directly; the dense
        # eigenvalue-indexed array would be quadratic in the cutoff
        if model.kind == "dirichlet_cylinder":
            ks = np.arange(1, R + 1)
            values = (ks * ks).astype(float)
            counts = np.ones(ks.size, dtype=np.int64)
        else:
            ks = np.arange(0, R + 1)
            values = (ks * ks).astype(float)
            counts = np.where(ks == 0, 1, 2).astype(np.int64)
    else:
        if R2 > 400_000_000:
            raise ResourceCapError(
                f"dense eigenvalue table of length {R2:.2e} over the cap")
        if model.dim not in (2, 3):
            raise ValueError("lattice counting implemented for dim <= 3")
        sq = np.arange(R + 1, dtype=np.int64) ** 2
        plane = _plane_counts(R2, sq)
        cnt = plane if model.dim == 2 else _space_counts(plane, sq)
        if model.kind == "dirichlet_cylinder":
            # j >= 1: half the points off the j = 0 hyperplane
            if model.dim == 2:
                cnt[0] -= 1
                cnt[sq[1:]] -= 2
            else:
                cnt -= plane
            cnt >>= 1
        del plane
        ms = np.flatnonzero(cnt != 0)   # the boolean path is the fast one
        values = ms.astype(float)
        # counts overwrite the indices: freeing an array this size would raise
        # malloc's mmap threshold and keep the consumers' arrays in the heap
        counts = ms
        counts[:] = cnt[ms]
        del cnt
    counts *= model.copies
    return Spectrum(values, counts, model)


# ---------------------------------------------------------------------------
# partial sums


@dataclass(frozen=True, eq=False)
class SigmaCurve:
    """Exact sigma_N at arbitrary N for a block (value, count) spectrum."""

    cum_counts: np.ndarray
    cum_sums: np.ndarray
    block_weights: np.ndarray

    @property
    def n_max(self):
        return int(self.cum_counts[-1])

    def sigma(self, N):
        """sigma_N for integer N (vectorized); exact block interpolation."""
        N = np.asarray(N, dtype=np.int64)
        if np.any(N < 1) or np.any(N > self.n_max):
            raise ValueError("N outside the enumerated range")
        b = np.searchsorted(self.cum_counts, N, side="left")
        n_prev = np.where(b > 0, self.cum_counts[np.maximum(b - 1, 0)], 0)
        s_prev = np.where(b > 0, self.cum_sums[np.maximum(b - 1, 0)], 0.0)
        return s_prev + (N - n_prev) * self.block_weights[b]


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


def dixmier_estimate(spec, weight, window_decades=2.0):
    """Estimate the Dixmier trace of ``weight`` on the spectrum ``spec``.

    Primary estimator: least-squares slope of sigma_N versus ln N over the
    top ``window_decades`` decades of N, at 400 geometric samples.
    Corroboration: the Cesaro mean of sigma_N / ln N (subsampled on a
    geometric grid of 3000 points; the step integral over that grid is
    exact).  ``omega_consistent`` is cleared when the Cesaro tail sits
    further from the slope than its own ln ln N / ln N convergence scale
    allows, which would mean the averaging choice matters for this
    operator.

    The weight must be positive and non-increasing from the bottom
    eigenvalue on, or :class:`GradingError` is raised; on the ascending
    eigenvalues it then lists the singular values in non-increasing order.
    ``window_decades`` must be positive and the window must hold two N, or
    :class:`WindowError` is raised.  A slope, residual or Cesaro tail that
    is not finite, or a slope below the rounding floor of the partial sums,
    raises :class:`IllConditionedFitError`.
    """
    if not window_decades > 0:
        raise WindowError(f"window of {window_decades} decades; need > 0")
    if not (weight.scale > 0.0
            and weight.non_increasing(float(spec.values[0]))):
        raise GradingError(
            "Dixmier estimation needs positive non-increasing weights")
    # a weight that overflows on the spectrum passes the grading; the
    # checks after the fit reject the partial sums it leaves
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w = weight(spec.values)
    # weights first: cumsum(counts) first raised verify's peak RSS by 8%
    cum_sums = np.cumsum(spec.counts * w)
    curve = SigmaCurve(np.cumsum(spec.counts), cum_sums, w)
    n_max = curve.n_max
    if n_max < 100:
        raise WindowError("too few modes for a slope window")
    # a window wider than every N >= 2 starts at 2
    n_lo = max(2, int(n_max / 10 ** min(window_decades, math.log10(n_max))))
    if n_lo >= n_max:
        raise WindowError(f"{window_decades} decades hold a single N")
    ns = np.unique(np.round(np.geomspace(n_lo, n_max,
                                         400)).astype(np.int64))
    x = np.log(ns.astype(float))
    y = curve.sigma(ns)
    design = np.vstack([x, np.ones_like(x)]).T
    # a dominant weight can overflow the squared residuals; the checks
    # after the block reject what that leaves
    with np.errstate(over="ignore", invalid="ignore"):
        (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = float(np.sqrt(np.mean((design @ [slope, intercept] - y) ** 2)))
        cn = np.unique(np.round(np.geomspace(2, n_max,
                                             3000)).astype(np.int64))
        sig = curve.sigma(cn)
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
