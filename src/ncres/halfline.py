"""Rational calculus on the boundary fiber.

Rational functions of one variable are stored as a polynomial part plus a
full partial-fraction list ``coeff / (tau - pole)^order``.  That form is
closed under sums and products (cross terms re-split in closed form), makes
the upper/lower half-plane decomposition a grouping operation, and reduces
the half-line functional to a residue sum:

    pi_prime(h) = i * sum of residues of the upper-half-plane part.

Every rational function enters in that split form, through
:func:`rational`; nothing is recovered from numeric roots, so poles of any
multiplicity stay exact.  Poles on the real axis are rejected at
construction.  The plus space is the proper rational functions with all
poles above the axis; the minus space of type d allows lower poles and a
polynomial part of degree < d.

Finite-rank singular Green symbols are sums k_i(xi_n) t_i(eta_n) with
k_i plus-type and t_i minus-type; their diagonal trace, the two boundary
compositions and the fiber composition are all exact residue arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import MembershipError, RealPoleError
from .symbols import HomTerm, radial_term

MIN_IMAG = 1e-9


@dataclass(frozen=True, eq=False)
class RationalFn:
    """poly(tau) + sum coeff / (tau - pole)^order, no real poles."""

    poly: tuple  # ascending complex coefficients, trimmed
    pole_terms: tuple  # ((pole, order, coeff), ...), deterministic sort

    # -- evaluation -----------------------------------------------------------

    def __call__(self, tau):
        import numpy as np
        tau = np.asarray(tau, dtype=complex)
        out = np.zeros_like(tau)
        for i, c in enumerate(self.poly):
            out = out + c * tau ** i
        for p, r, c in self.pole_terms:
            out = out + c / (tau - p) ** r
        if out.ndim == 0:
            return complex(out)
        return out

    # -- structure ------------------------------------------------------------

    @property
    def is_zero(self):
        return not self.poly and not self.pole_terms

    @property
    def poly_degree(self):
        """Degree of the polynomial part; -1 when absent."""
        return len(self.poly) - 1

    def poles(self):
        """(pole, multiplicity) pairs, highest stored order per pole."""
        mult = {}
        for p, r, _ in self.pole_terms:
            mult[p] = max(mult.get(p, 0), r)
        return sorted(mult.items(), key=lambda it: (it[0].real, it[0].imag))

    @property
    def is_plus(self):
        """Member of the plus space: proper, all poles strictly above the axis."""
        return not self.poly and all(p.imag > 0 for p, _, _ in self.pole_terms)

    def is_minus(self, d=0):
        """Member of the minus space of type d: lower poles, O(<tau>^(d-1))."""
        if any(p.imag >= 0 for p, _, _ in self.pole_terms):
            return False
        return self.poly_degree <= d - 1

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        poly = _poly_add(self.poly, other.poly)
        return rational(poly, self.pole_terms + other.pole_terms)

    def scaled(self, z):
        return rational([c * z for c in self.poly],
                        [(p, r, c * z) for p, r, c in self.pole_terms])

    def __neg__(self):
        return self.scaled(-1.0)

    def __sub__(self, other):
        return self + other.scaled(-1.0)

    def __mul__(self, other):
        poly = _poly_mul(self.poly, other.poly)
        pa, ta = _poly_times_terms(self.poly, other.pole_terms)
        pb, tb = _poly_times_terms(other.poly, self.pole_terms)
        poly = _poly_add(_poly_add(poly, pa), pb)
        terms = ta + tb
        for p1, r1, c1 in self.pole_terms:
            for p2, r2, c2 in other.pole_terms:
                if p1 == p2:
                    terms.append((p1, r1 + r2, c1 * c2))
                else:
                    terms.extend(_cross_split(p1, r1, p2, r2, c1 * c2))
        return rational(poly, terms)


def rational(poly=(), pole_terms=()):
    """Normalize and validate a rational function in split form."""
    poly = [complex(c) for c in poly]
    while poly and poly[-1] == 0:
        poly.pop()
    merged = {}
    for p, r, c in pole_terms:
        p = complex(p)
        r = int(r)
        if r < 1:
            raise ValueError("pole order must be >= 1")
        key = (p, r)
        merged[key] = merged.get(key, 0j) + complex(c)
    terms = []
    for (p, r), c in merged.items():
        if c == 0:
            continue
        if abs(p.imag) < MIN_IMAG:
            raise RealPoleError(p)
        terms.append((p, r, c))
    terms.sort(key=lambda t: (t[0].real, t[0].imag, t[1]))
    return RationalFn(tuple(poly), tuple(terms))


def simple_pole(pole, coeff=1.0):
    return rational((), [(pole, 1, coeff)])


def polynomial(coeffs):
    return rational(coeffs, ())


ZERO = RationalFn((), ())


def _poly_add(a, b):
    n = max(len(a), len(b))
    return tuple((a[i] if i < len(a) else 0j) + (b[i] if i < len(b) else 0j)
                 for i in range(n))


def _poly_mul(a, b):
    if not a or not b:
        return ()
    out = [0j] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return tuple(out)


def _poly_times_terms(poly, pole_terms):
    """poly(tau) * sum c/(tau-p)^r -> (polynomial part, pole terms)."""
    out_poly = ()
    out_terms = []
    for p, r, c in pole_terms:
        for i, ci in enumerate(poly):
            if ci == 0:
                continue
            # tau^i = sum_j binom(i,j) p^(i-j) (tau-p)^j
            for j in range(i + 1):
                coeff = c * ci * math.comb(i, j) * p ** (i - j)
                if j < r:
                    out_terms.append((p, r - j, coeff))
                else:
                    # (tau-p)^(j-r) re-expanded in tau
                    m = j - r
                    shifted = [coeff * math.comb(m, l) * (-p) ** (m - l)
                               for l in range(m + 1)]
                    out_poly = _poly_add(out_poly, tuple(shifted))
    return out_poly, out_terms


def _cross_split(p, r, q, s, c):
    """Partial fractions of c / ((tau-p)^r (tau-q)^s), p != q."""
    out = []
    for i in range(1, r + 1):
        a = math.comb(s + r - i - 1, r - i) * (-1.0) ** (r - i) \
            * (p - q) ** (-(s + r - i))
        out.append((p, i, c * a))
    for j in range(1, s + 1):
        b = math.comb(s + r - j - 1, s - j) * (-1.0) ** (s - j) \
            * (q - p) ** (-(s + r - j))
        out.append((q, j, c * b))
    return out


# ---------------------------------------------------------------------------
# plus/minus decomposition and the half-line functional


@dataclass(frozen=True, eq=False)
class PlusMinusDecomp:
    """h = plus + minus + poly with upper / lower pole separation."""

    plus: RationalFn
    minus: RationalFn
    poly: RationalFn

    def reconstruct(self):
        return self.plus + self.minus + self.poly


def pm_decompose(h):
    """Split by pole half-plane; exact, reconstruction is coefficient-wise."""
    up = [(p, r, c) for p, r, c in h.pole_terms if p.imag > 0]
    lo = [(p, r, c) for p, r, c in h.pole_terms if p.imag < 0]
    return PlusMinusDecomp(rational((), up), rational((), lo),
                           rational(h.poly, ()))


def pi_prime(h):
    """The half-line boundary functional.

    Equals i times the sum of the residues of the plus part at its
    upper-half-plane poles; the minus and polynomial parts contribute
    nothing.  On integrable functions this agrees with
    (1/2pi) * integral of h over the real line.
    """
    out = 0j
    for p, r, c in h.pole_terms:
        if p.imag > 0 and r == 1:
            out += c
    return 1j * out


# ---------------------------------------------------------------------------
# finite-rank singular Green / trace / potential fiber symbols


@dataclass(frozen=True, eq=False)
class SGSymbol:
    """Finite sum  g(xi_n, eta_n) = sum k_i(xi_n) t_i(eta_n), type d."""

    pairs: tuple  # ((k, t), ...)
    type_d: int = 0

    @property
    def is_zero(self):
        return not self.pairs

    def __call__(self, xin, etan):
        out = 0j
        for k, t in self.pairs:
            out += k(xin) * t(etan)
        return out

    def diagonal(self):
        out = ZERO
        for k, t in self.pairs:
            out = out + k * t
        return out

    def __add__(self, other):
        return SGSymbol(self.pairs + other.pairs,
                        max(self.type_d, other.type_d))

    def scaled(self, z):
        return SGSymbol(tuple((k.scaled(z), t) for k, t in self.pairs),
                        self.type_d)


def sg_symbol(pairs, type_d=0):
    """Validate memberships and build a finite-rank boundary symbol."""
    clean = []
    for i, (k, t) in enumerate(pairs):
        if not k.is_plus:
            raise MembershipError("left factor not in the plus space",
                                  ("pairs", i, "k"))
        if not t.is_minus(type_d):
            raise MembershipError(
                f"right factor not in the minus space of type {type_d}",
                ("pairs", i, "t"))
        if not k.is_zero and not t.is_zero:
            clean.append((k, t))
    return SGSymbol(tuple(clean), type_d)


def sg_trace(g):
    """Symbol trace: pi_prime of the diagonal restriction; linear in g."""
    return pi_prime(g.diagonal())


def compose_tk(t, k):
    """Boundary composition of a trace and a potential factor: pi_prime(t k)."""
    return pi_prime(t * k)


def compose_kt(k, t, type_d=None):
    """Potential-then-trace composition: the rank-one symbol k (x) t."""
    if type_d is None:
        type_d = max(t.poly_degree + 1, 0)
    return sg_symbol([(k, t)], type_d)


def compose_gg(g1, g2):
    """Fiber composition  (g1 o g2)(xi, eta) = pi_prime_z(g1(xi,z) g2(z,eta)).

    For rank-one factors this is pi_prime(t1 k2) * k1 (x) t2, extended
    bilinearly; the scalar factors are exact residue sums.
    """
    pairs = []
    for k1, t1 in g1.pairs:
        for k2, t2 in g2.pairs:
            c = pi_prime(t1 * k2)
            if c != 0:
                pairs.append((k1.scaled(c), t2))
    return SGSymbol(tuple(pairs), g2.type_d)


# ---------------------------------------------------------------------------
# homogeneous boundary terms (symbol on (x', xi') times a rescaled fiber)


@dataclass(frozen=True, eq=False)
class HomBoundaryTerm:
    """b(x', xi') * fiber(xi_n/|xi'|, eta_n/|xi'|), homogeneous of b.degree.

    ``kind`` is 'green' (SGSymbol fiber), 'potential' (plus factor) or
    'trace' (minus factor).
    """

    b: HomTerm
    fiber: object
    kind: str = "green"

    @property
    def degree(self):
        return self.b.degree

    @property
    def n(self):
        return self.b.n + 1

    def __call__(self, xp, xip, xin, etan=None):
        import numpy as np
        # b checks the length of xi' and rejects xi' = 0
        bval = self.b(xp, xip)
        s = float(np.linalg.norm(xip))
        if self.kind == "green":
            return bval * self.fiber(xin / s, etan / s)
        return bval * self.fiber(xin / s)


def boundary_term(b, fiber, kind="green", type_d=0):
    if kind == "green":
        if not isinstance(fiber, SGSymbol):
            fiber = sg_symbol(fiber, type_d)
    elif kind == "potential":
        if not fiber.is_plus:
            raise MembershipError("potential fiber not in the plus space",
                                  ("fiber",))
    elif kind == "trace":
        if not fiber.is_minus(type_d):
            raise MembershipError("trace fiber not in the minus space",
                                  ("fiber",))
    else:
        raise ValueError(f"unknown boundary term kind {kind!r}")
    return HomBoundaryTerm(b, fiber, kind)


def tr_boundary_term(term):
    """Diagonal trace of a green boundary term.

    Rescaling xi_n = |xi'| u turns the fiber trace into |xi'| times the
    unit-scale trace, so the result is the boundary term
    b(x',xi') * |xi'| * sg_trace(fiber): one degree higher than the input.
    """
    if term.kind != "green":
        raise MembershipError("tr acts on singular Green terms only")
    scalar = sg_trace(term.fiber)
    return term.b.times(radial_term(1.0, term.b.n)).scaled(scalar)
