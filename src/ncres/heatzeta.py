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

from .errors import (ConfigError, IllConditionedFitError, TailBoundError,
                     WindowError)
from .summation import chunked_sum

COND_LIMIT = 1e8

# exp(-x) rounds to +0.0 for every x > 745.1332 (e^-x is then below half the
# smallest subnormal, 2^-1075), so a heat sum leaves out the terms with
# t * A(lam) > 746: they are the exact zeros a full evaluation would write.
EXP_UNDERFLOW = 746.0


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
    non-empty with every t finite and positive."""
    t = np.asarray(sorted(t_grid, reverse=True), dtype=float)
    if t.size == 0 or not np.all(np.isfinite(t) & (t > 0)):
        raise ValueError("t grid must be non-empty with every t finite "
                         "and positive")
    return t


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
    A must be affine, scale * (shift + lam) with scale > 0, and P finite on
    the spectrum, or :class:`ConfigError` is raised.  The grid is sorted
    descending and must hold finite t > 0 (else :class:`ValueError`); each
    sample carries its certified tail bound, which :func:`fit_expansion`
    requires to be negligible.  It bounds truncation, not rounding:
    at cutoff 300 on T^2 it is 6.7e-41, yet samples differ from the exact
    theta-inversion value by up to 3.6e-15.  Terms are summed from the top
    eigenvalue down; exponentials that underflow to 0.0 are not evaluated,
    and the sums are the same as if they were.
    """
    if a_weight.power != 1.0 or a_weight.rate != 0.0 \
            or not a_weight.scale > 0.0:
        raise ConfigError(
            f"A weight {a_weight.describe()} is not affine in the "
            f"eigenvalue: need power 1, rate 0 and scale > 0")
    t_grid = _descending_grid(t_grid)
    lam = spec.values[::-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pw = p_weight(lam) * spec.counts[::-1]
    if not np.all(np.isfinite(pw)):
        raise ConfigError(
            f"P weight {p_weight.describe()} is not finite on the spectrum")
    aw = a_weight(lam)

    def part(lo, hi):
        a = aw[lo:hi]
        e = np.zeros((t_grid.size, a.size))
        for row, t in zip(e, t_grid):
            live = a <= EXP_UNDERFLOW / t
            row[live] = np.exp(-(t * a[live]))
        return e @ pw[lo:hi]

    values = chunked_sum(part, lam.size)
    bounds = np.array([heat_tail_bound(spec.model, p_weight, a_weight, t)
                       for t in t_grid])
    return HeatSamples(t_grid, np.asarray(values, dtype=float), bounds)


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
        cols = [tt ** e for e, lg in names if not lg] + \
               [tt ** e * np.log(tt) for e, lg in names if lg]
        A = np.vstack(cols).T
        w = 1.0 / np.maximum(np.abs(yy), 1e-300)
        Aw = A * w[:, None]
        scal = np.linalg.norm(Aw, axis=0)
        scal[scal == 0] = 1.0
        coef, _, _, sv = np.linalg.lstsq(Aw / scal, yy * w, rcond=None)
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
        resid = float(np.sqrt(np.mean((A @ (coef / scal) - yy) ** 2 * w ** 2)))
        return coef / scal, cond, resid

    coef, cond, resid = solve(t, y)
    if cond > COND_LIMIT:
        raise IllConditionedFitError(
            f"design condition {cond:.2e} beyond {COND_LIMIT:.0e}")
    coef_half, _, _ = solve(t[::2], y[::2])
    cross = float(np.max(np.abs(coef - coef_half)))
    coeffs = {names[i]: float(coef[i]) for i in range(len(names))}

    # each fitted term must dominate the certified tail, by a factor of
    # 10^3, where it peaks
    contrib = [abs(c) * max(t.min() ** e, t.max() ** e)
               for (e, _), c in coeffs.items() if abs(c) > 1e-9]
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
    only reported as a diagnostic.
    """
    if sigma < 0:
        raise ValueError("only sigma >= 0 residues are implemented")
    if t_grid is None:
        t_grid = np.geomspace(1e-3, 5e-2, 40)
    samples = heat_samples(p_weight, a_weight, spec, t_grid)
    d_exps, d_logs = default_exponents(p_weight, a_weight, spec.model.dim)
    exps = list(exponents) if exponents is not None else d_exps
    logexps = list(log_exponents) if log_exponents is not None else d_logs
    exps = sorted(set(float(e) for e in exps) | {-float(sigma)})
    if sigma == 0 and 0.0 not in logexps:
        logexps.append(0.0)
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


def _sine_weight_matrix(jmax, mmax):
    """W[j - 1, m + mmax] = |integral_0^pi sin(j x) exp(-i m x) dx|^2:
    (pi/2)^2 at m = +-j, (2j/(j^2 - m^2))^2 when j + m is odd, else 0."""
    js = np.arange(1, jmax + 1)
    ms = np.arange(-mmax, mmax + 1)
    W = np.zeros((jmax, ms.size))
    for r in (0, 1):
        # rows j = r + 1, r + 3, ...; columns of the m of the other parity
        c = (mmax + r) % 2
        j2 = js[r::2, None] ** 2
        W[r::2, c::2] = 4.0 * j2 / (j2 - ms[c::2] ** 2) ** 2
    W[js - 1, mmax + js] = W[js - 1, mmax - js] = (math.pi / 2.0) ** 2
    return W


@dataclass(frozen=True)
class BoundaryHeatResult:
    log_coefficient: float
    fit: AsymptoticFit
    samples: HeatSamples


def halfspace_heat_samples(t_grid, shift=1.0, m_cutoff=4000):
    """trace(P_+ exp(-t A)) on the cylinder [0, pi] x circle.

    A = Dirichlet Laplacian + ``shift`` with eigenbasis sin(j x) e^{i k y};
    P = (1 - Laplacian)^-1 of the *full* torus, truncated to the cylinder,
    so each mode contributes

        (2/pi) (1/2pi) sum_m |I_jm|^2 / (1 + m^2 + k^2)

    with the exact sine-extension integrals I_jm.  The j,k cutoffs are
    chosen from the smallest t; the m truncation error is added to the
    certified tail bound.  Every t must be finite and positive, or
    :class:`ValueError` is raised.
    """
    t_grid = _descending_grid(t_grid)
    tmin = float(t_grid[-1])
    jmax = int(math.ceil(9.0 / math.sqrt(tmin)))
    if m_cutoff < 2 * jmax:  # the m tail bound below needs M >= 2 jmax
        raise TailBoundError(
            f"m cutoff {m_cutoff} below twice the mode cutoff {jmax}")
    js = np.arange(1, jmax + 1).astype(float)
    ks = np.arange(0, jmax + 1).astype(float)
    kw = np.where(ks == 0, 1.0, 2.0)

    # G[j, k] = (1/pi^2) sum_m |I_jm|^2 / (1 + m^2 + k^2)
    W = _sine_weight_matrix(jmax, m_cutoff) / math.pi ** 2
    ms = np.arange(-m_cutoff, m_cutoff + 1).astype(float)
    D = (1.0 + ms ** 2)[:, None] + ks ** 2
    np.divide(1.0, D, out=D)
    G = W @ D

    # certified tails: dropped (j, k) modes (bracket <= 1) plus the m
    # truncation of the bracket sum; for m > M >= 2 jmax one has
    # m^2 - j^2 >= (3/4) m^2, so the per-mode m tail is bounded by
    # (128/27) j^2 M^-3 / (1 + M^2 + k^2).
    m_tail = (128.0 / 27.0) * jmax ** 2 / m_cutoff ** 3 \
        / (1.0 + m_cutoff ** 2) / math.pi ** 2
    values = np.empty(t_grid.size)
    bounds = np.empty(t_grid.size)
    for i, t in enumerate(t_grid):
        ej = np.exp(-t * js ** 2)
        ek = np.exp(-t * ks ** 2) * kw
        damp = math.exp(-t * shift)
        values[i] = damp * float(ej @ G @ ek)
        bounds[i] = _lattice_tail(2, jmax, t) * damp \
            + m_tail * float(ej.sum() * ek.sum())
    return HeatSamples(t_grid, values, bounds)


def boundary_heat_test(t_grid=None, shift=1.0, m_cutoff=4000, threads=1):
    """Fit the ln t coefficient of the cylinder half-space heat trace.

    Exponent ladder: half-integer powers with log slots at 0, 1/2 and 1.
    ``threads`` is accepted for older callers and has no effect.
    """
    if t_grid is None:
        t_grid = np.geomspace(1.5e-3, 5e-2, 30)
    samples = halfspace_heat_samples(t_grid, shift=shift, m_cutoff=m_cutoff)
    fit = fit_expansion(samples, [0.0, 0.5, 1.0, 1.5, 2.0],
                        [0.0, 0.5, 1.0])
    return BoundaryHeatResult(fit.coefficient(0.0, log=True), fit, samples)
