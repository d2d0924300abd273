"""Heat traces from explicit spectra, expansion fits, zeta residues.

All operators here act diagonally on an enumerated model spectrum, so
``trace(P exp(-t A))`` is a weighted lattice sum with a certified analytic
tail bound.  Small-t behaviour is recovered by weighted least squares in a
*prescribed* set of powers t^e and log-powers t^e ln t (exponent discovery
is out of scope); Mellin inversion then reads zeta residues off the fitted
coefficients through the dictionary

    t^(-s0) ln^k t  near 0   <->   pole of order k+1 at s = s0.

Residues at s = sigma > 0 are fitted_coeff(t^-sigma) / Gamma(sigma); at
s = 0 the Gamma factor's own pole makes the residue equal minus the fitted
ln t coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (GradingError, IllConditionedFitError, TailBoundError,
                     WindowError, naming)
from .spectral import Spectrum, SpectralWeight, SpectrumModel, check_mode_cap

COND_LIMIT = 1e8

# exp(-x) rounds to +0.0 for every x > 745.1332 (e^-x is then below half the
# smallest subnormal, 2^-1075), so a heat sum leaves out the terms with
# t * A(lam) > 746: they are the exact zeros a full evaluation would write.
EXP_UNDERFLOW = 746.0

# eigenvalues per heat-sum block.  A block's exponential matrix holds the
# columns that its smallest t keeps, at most 8 B * len(t_grid) * 2^18:
# 84 MB at 40 t, 419 MB at zeta's 200-t grid, whose t >= 1 keep only the
# eigenvalues with A <= 746, a few hundred columns on a 2-torus
_BLOCK = 1 << 18


# ---------------------------------------------------------------------------
# lattice heat sums with certified tails


def _lattice_tail(dim, R, t):
    """Upper bound for sum_{|k| > R, k in Z^dim} exp(-t |k|^2).

    Compares each lattice point with its unit cell:  |k| >= |x| - sqrt(d)/2
    gives exp(-t|k|^2) <= exp(-t u^2) with u = |x| - sqrt(d)/2, so the tail
    is at most the radial integral from R - sqrt(d).
    """
    u0 = max(R - math.sqrt(dim), 0.0)
    st = math.sqrt(t)
    c = math.sqrt(dim) / 2.0
    if dim == 1:
        return math.sqrt(math.pi / t) * math.erfc(st * u0)
    if dim == 2:
        omega = 2.0 * math.pi
        i1 = math.exp(-t * u0 * u0) / (2.0 * t)
        i0 = 0.5 * math.sqrt(math.pi / t) * math.erfc(st * u0)
        return omega * (i1 + c * i0)
    if dim == 3:
        omega = 4.0 * math.pi
        e = math.exp(-t * u0 * u0)
        i2 = u0 * e / (2 * t) + math.sqrt(math.pi) * math.erfc(st * u0) / (4 * t ** 1.5)
        i1 = e / (2 * t)
        i0 = 0.5 * math.sqrt(math.pi / t) * math.erfc(st * u0)
        return omega * (i2 + 2 * c * i1 + c * c * i0)
    raise ValueError("tail bound implemented for dim <= 3")


def heat_tail_bound(model, p_weight, a_weight, t):
    """Certified bound on the modes dropped beyond the model cutoff.

    The supremum of |P| beyond the cutoff is read at the cutoff, which holds
    only for weights that do not grow there; others raise
    :class:`TailBoundError`.
    """
    R = float(model.cutoff)
    lam_min = max((R - math.sqrt(model.dim)) ** 2, 0.0)
    if not p_weight.non_increasing(lam_min):
        raise TailBoundError(
            f"P weight {p_weight.describe()} grows beyond eigenvalue "
            f"{lam_min:g}; no certified tail bound")
    p_top = abs(float(p_weight(lam_min)))
    shift = a_weight.shift * a_weight.scale
    dim = model.dim
    scale = a_weight.scale
    bound = model.copies * _lattice_tail(dim, R, t * scale)
    return p_top * math.exp(-t * shift) * bound


def _descending_grid(t_grid):
    """The t grid sorted descending; :class:`ValueError` unless it is
    non-empty with every t finite and >= 1e-200, so 1 / t^1.5 is finite."""
    t = np.asarray(sorted(t_grid, reverse=True), dtype=float)
    if t.size == 0 or not np.all(np.isfinite(t) & (t >= 1e-200)):
        raise ValueError("t grid must be non-empty with every t finite "
                         "and at least 1e-200")
    return t


def _live_starts(aw, t_grid):
    """For each t, the first index k of a non-increasing ``aw`` with
    aw[k:] the terms that do not underflow, t * aw <= EXP_UNDERFLOW."""
    return aw.size - np.searchsorted(aw[::-1], EXP_UNDERFLOW / t_grid,
                                     side="right")


@dataclass(frozen=True, eq=False)
class HeatSamples:
    """(t, value) samples on a decreasing grid with per-sample tail bounds."""

    t: np.ndarray
    values: np.ndarray
    tail_bounds: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.t) >= 0):
            raise ValueError("t grid must be strictly decreasing")


def heat_samples(p_weight, a_weight, spec, t_grid):
    """trace(P exp(-t A)) = sum_modes P(lam) exp(-t A(lam)) on a t grid.

    P and A are weight functions of the eigenvalues of the enumerated
    spectrum ``spec`` (simultaneous diagonalization is assumed throughout);
    A must be affine, scale * (shift + lam) with finite shift and finite
    scale > 0, and P finite on the spectrum, or :class:`GradingError` is
    raised at the entry ``a_weight`` or ``p_weight``; P multiplies
    ``spec.counts``, multiplicities or per-eigenvalue masses.  The grid is
    sorted descending and must hold finite t >= 1e-200 (else
    :class:`ValueError`); each sample carries its certified tail bound,
    which :func:`fit_expansion` requires to be negligible.  It bounds
    truncation, not rounding: at cutoff 300 on T^2 it is 6.7e-41, yet
    samples differ from the exact theta-inversion value by up to 3.6e-15.
    Terms are summed from the top eigenvalue down, in fixed blocks of 2^18
    eigenvalues added in order.  Exponentials that underflow to 0.0
    (t A > 746) are not evaluated: A does not increase along the sum, so
    each t keeps a suffix of the block, and the block's matrix holds only
    the columns that its smallest t keeps.  Where that t keeps the whole
    block, the sums are bit for bit those of a full evaluation; where it
    drops columns, the same terms are added in another partition and a
    sample can move in its last ulps.
    """
    finite = 0.0 < a_weight.scale < math.inf and math.isfinite(a_weight.shift)
    if a_weight.power != 1.0 or not finite:
        raise GradingError(
            f"A weight {a_weight.describe()} is not affine in the eigenvalue"
            f": need power 1, finite shift and 0 < scale < inf",
            ("a_weight",))
    t_grid = _descending_grid(t_grid)
    lam = spec.values[::-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pw = p_weight(lam) * spec.counts[::-1]
    if not np.all(np.isfinite(pw)):
        raise GradingError(
            f"P weight {p_weight.describe()} is not finite on the spectrum",
            ("p_weight",))
    aw = a_weight(lam)
    starts = _live_starts(aw, t_grid)
    values = np.zeros(t_grid.size)
    for lo in range(0, lam.size, _BLOCK):
        hi = min(lo + _BLOCK, lam.size)
        first = max(lo, starts[-1])
        if first >= hi:
            continue
        e = np.zeros((t_grid.size, hi - first))
        for row, t, k in zip(e, t_grid, starts):
            k = max(k, first)
            np.exp(-(t * aw[k:hi]), out=row[k - first:])
        values += e @ pw[first:hi]
    bounds = np.array([heat_tail_bound(spec.model, p_weight, a_weight, t)
                       for t in t_grid])
    return HeatSamples(t_grid, values, bounds)


# ---------------------------------------------------------------------------
# asymptotic fits


@dataclass(frozen=True, eq=False)
class AsymptoticFit:
    """Weighted least-squares fit in prescribed powers and log-powers.

    ``coefficients`` maps (exponent, has_log) -> value.  The condition
    number refers to the column-equilibrated design matrix; fits beyond
    1e8 are rejected rather than reported.
    """

    exponents: tuple
    log_exponents: tuple
    coefficients: dict
    residual: float
    condition: float
    cross_delta: float

    def coefficient(self, exponent, log=False):
        return self.coefficients[(float(exponent), bool(log))]


def fit_expansion(samples, exponents, log_exponents=()):
    """Fit samples to  sum c_e t^e + sum c'_e t^e ln t.

    Rows are weighted by 1/|value| so every sample counts with its relative
    error.  Needs at least twice as many samples as coefficients and a grid
    spanning >= 1.5 decades.  Reports the rms relative residual, the
    equilibrated condition number and a cross-validation delta (largest
    coefficient change when refitting on every other sample).  ``samples``
    is a :class:`HeatSamples`, whose certified tail must stay negligible.
    """
    t = np.asarray(samples.t, dtype=float)
    y = np.asarray(samples.values, dtype=float)
    ncoef = len(exponents) + len(log_exponents)
    if t.size < 2 * ncoef:
        raise WindowError(f"{t.size} samples for {ncoef} coefficients")
    if math.log10(t.max() / t.min()) < 1.5:
        raise WindowError("grid must span at least 1.5 decades")
    names = [(float(e), False) for e in exponents] + \
            [(float(e), True) for e in log_exponents]

    def solve(tt, yy):
        # squares can pass the float range: a design whose column norms
        # overflow is refused, and an overflowing residual summed relative
        with np.errstate(over="ignore", invalid="ignore"):
            cols = [tt ** e for e, lg in names if not lg] + \
                   [tt ** e * np.log(tt) for e, lg in names if lg]
            A = np.vstack(cols).T
            w = 1.0 / np.maximum(np.abs(yy), 1e-300)
            Aw = A * w[:, None]
            scal = np.linalg.norm(Aw, axis=0)
            if not np.all(np.isfinite(scal)):
                raise IllConditionedFitError(
                    "design columns overflow on the t grid")
            scal[scal == 0] = 1.0
            coef, _, _, sv = np.linalg.lstsq(Aw / scal, yy * w, rcond=None)
            cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
            r = A @ (coef / scal) - yy
            resid = float(np.sqrt(np.mean(r ** 2 * w ** 2)))
        if not math.isfinite(resid):
            resid = float(np.sqrt(np.mean((r * w) ** 2)))
        return coef / scal, cond, resid

    coef, cond, resid = solve(t, y)
    if cond > COND_LIMIT:
        raise IllConditionedFitError(
            f"design condition {cond:.2e} beyond {COND_LIMIT:.0e}")
    coef_half, _, _ = solve(t[::2], y[::2])
    cross = float(np.max(np.abs(coef - coef_half)))
    coeffs = {names[i]: float(coef[i]) for i in range(len(names))}

    # each fitted term must dominate the certified tail, by a factor of
    # 10^3, where it peaks; a term that peaks below 1e-9 of the largest
    # sample is the fit noise of a zero coefficient and is skipped, so the
    # verdict does not depend on the scale of the samples
    peaks = [abs(c) * max(t.min() ** e, t.max() ** e)
             for (e, _), c in coeffs.items()]
    floor = 1e-9 * float(np.max(np.abs(y)))
    contrib = [p for p in peaks if p > floor]
    if contrib and float(np.max(samples.tail_bounds)) > 1e-3 * min(contrib):
        raise TailBoundError(
            "certified tail is not negligible against the smallest "
            "fitted contribution; raise the cutoff")
    return AsymptoticFit(tuple(float(e) for e in exponents),
                         tuple(float(e) for e in log_exponents),
                         coeffs, resid, cond, cross)


def default_exponents(p_weight, a_weight, dim):
    """Prescribed exponent ladder (j - n - ord P)/ord A, j = 0..5, with
    log slots at 0 and 1."""
    ord_p = 2.0 * p_weight.power
    ord_a = 2.0 * a_weight.power
    exps = sorted({(j - dim - ord_p) / ord_a for j in range(6)})
    return exps, [0.0, 1.0]


# ---------------------------------------------------------------------------
# zeta residues by Mellin splitting


@dataclass(frozen=True)
class ZetaResidue:
    sigma: float
    residue: float
    entire_part: float   # int_1^inf t^(sigma-1) h(t) dt, regular in sigma
    fit: AsymptoticFit


def zeta_residue(p_weight, a_weight, spec, sigma, t_grid=None,
                 exponents=None, log_exponents=None):
    """Residue of trace(P A^-s) at s = sigma via the Mellin split, on the
    enumerated spectrum ``spec``.

    The unit-interval piece of Gamma(s) trace(P A^-s) is continued through
    the fitted small-t expansion (the candidate power t^-sigma is always
    included so a regular point fits ~0, and at sigma = 0 the log slot
    t^0 ln t that holds the residue); the piece beyond t = 1 is entire and
    only reported as a diagnostic.  A grid too small for the fit raises
    :class:`WindowError` at the entry ``t_grid`` when one is given.
    """
    if not 0 <= sigma < math.inf:
        raise ValueError("only finite sigma >= 0 residues are implemented")
    window = ("t_grid",)
    if t_grid is None:
        t_grid = np.geomspace(1e-3, 5e-2, 40)
        window = ()   # the default grid is no input of the caller's
    samples = heat_samples(p_weight, a_weight, spec, t_grid)
    d_exps, d_logs = default_exponents(p_weight, a_weight, spec.model.dim)
    exps = list(exponents) if exponents is not None else d_exps
    logexps = list(log_exponents) if log_exponents is not None else d_logs
    exps = sorted(set(float(e) for e in exps) | {-float(sigma)})
    if sigma == 0 and 0.0 not in logexps:
        logexps.append(0.0)
    with naming(window, WindowError):
        fit = fit_expansion(samples, exps, logexps)
    if sigma == 0:
        residue = -fit.coefficient(0.0, log=True)
    else:
        residue = fit.coefficient(-sigma, log=False) / math.gamma(sigma)

    wide = np.geomspace(1.0, 40.0, 200)
    ws = heat_samples(p_weight, a_weight, spec, wide)
    tt, vv = ws.t[::-1], ws.values[::-1]
    entire = float(np.trapezoid(tt ** (sigma - 1.0) * vv, tt))
    return ZetaResidue(float(sigma), float(residue), entire, fit)


# ---------------------------------------------------------------------------
# half-space (cylinder) heat trace for the truncated interior operator


@dataclass(frozen=True)
class BoundaryHeatResult:
    log_coefficient: float
    fit: AsymptoticFit
    samples: HeatSamples


def halfspace_heat_samples(t_grid, shift=1.0):
    """trace(P_+ exp(-t A)) on the cylinder [0, pi] x circle.

    A = Dirichlet Laplacian + ``shift`` with eigenbasis sin(j x) e^{i k y};
    P = (1 - Laplacian)^-1 of the *full* torus, truncated to the cylinder,
    so each mode contributes the bracket

        G[j, k] = (2/pi) (1/2pi) sum_m |I_jm|^2 / (1 + m^2 + k^2)

    with the exact sine-extension integrals I_jm.  With a^2 = 1 + k^2 the
    m sum has the closed form

        G[j, k] = 1/(a^2 + j^2) + (2/pi) j^2 c_j / (a (a^2 + j^2)^2),

    the diagonal of the Dirichlet resolvent (a^2 + Delta_D)^-1 plus that of
    the singular Green term P_+ - (a^2 + Delta_D)^-1, with c_j = coth(pi a/2)
    for odd j and tanh(pi a/2) for even j (cosh and sinh of pi a would
    overflow from a ~ 226 on, below the jmax of 233 at t = 1.5e-3).  The
    brackets of the modes j^2 + k^2 <= jmax^2, jmax = ceil(9/sqrt(t_min)),
    are binned by eigenvalue.  As G > 0, the occupied bins are the Dirichlet
    cylinder spectrum at cutoff jmax (past its cap, :class:`ResourceCapError`
    before any bracket is built), and :func:`heat_samples` sums them with a
    tail that bounds each bracket by ||P|| = 1.  Every t must be finite and
    at least 1e-200, or :class:`ValueError` is raised.
    """
    t_grid = _descending_grid(t_grid)
    jmax = int(math.ceil(9.0 / math.sqrt(t_grid[-1])))
    model = SpectrumModel("dirichlet_cylinder", 2, jmax)
    check_mode_cap(model)
    j2 = np.arange(1, jmax + 1, dtype=float)[:, None] ** 2
    a2 = 1.0 + np.arange(0, jmax + 1, dtype=float) ** 2
    a = np.sqrt(a2)
    th = np.tanh(0.5 * math.pi * a)
    c = np.where(j2 % 2 == 1, 1.0 / th, th)   # j^2 is odd iff j is
    d = a2 + j2
    G = 1.0 / d + (2.0 / math.pi) * j2 * c / (a * d * d)
    G[:, 1:] *= 2.0   # k and -k
    lam = (d - 1.0).astype(np.int64)   # j^2 + k^2
    ball = lam <= jmax * jmax
    masses = np.bincount(lam[ball], weights=G[ball])
    m = np.flatnonzero(masses)
    spec = Spectrum(m.astype(np.int32), masses[m], model)
    return heat_samples(SpectralWeight(power=0.0),
                        SpectralWeight(power=1.0, shift=shift), spec, t_grid)


def boundary_heat_test(t_grid=None, shift=1.0, m_cutoff=None,
                       threads=None):
    """Fit the ln t coefficient of the cylinder half-space heat trace.

    Exponent ladder: half-integer powers with log slots at 0, 1/2 and 1.
    ``m_cutoff`` and ``threads`` are accepted for older callers and have no
    effect: the bracket is summed over m in closed form.
    """
    if t_grid is None:
        t_grid = np.geomspace(1.5e-3, 5e-2, 30)
    samples = halfspace_heat_samples(t_grid, shift=shift)
    fit = fit_expansion(samples, [0.0, 0.5, 1.0, 1.5, 2.0],
                        [0.0, 0.5, 1.0])
    return BoundaryHeatResult(fit.coefficient(0.0, log=True), fit, samples)
