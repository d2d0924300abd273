"""Noncommutative residue functionals on model geometries.

The interior residue integrates the degree ``-n`` component of a symbol
over the cosphere and the manifold; on the flat models used here (tori and
finite cylinders) both integrals are closed-form, so the only floating
point error is arithmetic.  The boundary extension adds, with weight 2*pi,
the residues of the traced singular Green part and of the boundary
pseudodifferential part over the boundary cosphere.

Every cosphere integral, inside and on the boundary, is one call of
:func:`~ncres.symbols.sphere_integrate`, which returns the trigonometric
polynomial left in x as a degree-0 term; for n = 1 inside, and n = 2 on
the boundary, the cosphere is S^0, the two points +-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (DimensionMismatchError, GradingError,
                     TransmissionError)
from .halfline import tr_boundary_term
from .symbols import (ClassicalSymbol, _trig_value, sphere_integrate,
                      transmission_check, zero_term)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# model geometries


@dataclass(frozen=True)
class Torus:
    """The flat n-torus (period 2*pi in every coordinate); no boundary."""

    dim: int

    @property
    def has_boundary(self):
        return False

    @property
    def volume(self):
        return TWO_PI ** self.dim

    def interior_integral(self, trig):
        return _torus_integral(trig)


@dataclass(frozen=True)
class Cylinder:
    """X = T^(dim-1) x [0, pi]; the last coordinate is normal, the boundary
    is two copies of T^(dim-1)."""

    dim: int

    @property
    def has_boundary(self):
        return True

    @property
    def volume(self):
        return math.pi * TWO_PI ** (self.dim - 1)

    @property
    def boundary_components(self):
        return 2

    def interior_integral(self, trig):
        """Integrate a trig polynomial over T^(dim-1) x [0, pi] exactly."""
        out = 0j
        for c, k, _, _ in trig.atoms:
            if any(k[:-1]):
                continue
            out += c * TWO_PI ** (self.dim - 1) * _int_0_pi(k[-1])
        return out

    def boundary_integral(self, trig):
        """Integral over both boundary copies of a boundary trig polynomial.

        Boundary symbol data is a single expression applied on each copy.
        """
        return self.boundary_components * _torus_integral(trig)


def _torus_integral(trig):
    """(2 pi)^n times the zero-frequency coefficient of a trig polynomial."""
    zero = (0,) * trig.n
    return TWO_PI ** trig.n * next(
        (c for c, k, _, _ in trig.atoms if k == zero), 0j)


def _int_0_pi(k):
    if k == 0:
        return math.pi
    return ((-1.0) ** k - 1.0) / (1j * k)


# ---------------------------------------------------------------------------
# interior residue


def residue_density(a, x=None):
    """Cosphere integral of the traced degree -n component.

    Returns the trig polynomial in x as a degree-0 term (or its value when
    ``x`` is given); integrating it over the manifold gives the residue.
    """
    density = sphere_integrate(a.component(-a.n).trace_part(), a.n)
    return density if x is None else _trig_value(density, x)


def wodzicki_residue(a, geometry):
    """Total interior residue on the given geometry.

    Requires the exactness floor of ``a`` to reach degree ``-n``; raises
    :class:`TruncationFloorError` otherwise (never reads garbage).
    """
    if a.n != geometry.dim:
        raise DimensionMismatchError("symbol and geometry dimensions differ")
    return geometry.interior_integral(residue_density(a))


# ---------------------------------------------------------------------------
# full operator-matrix symbols and the boundary residue


@dataclass(frozen=True, eq=False)
class BdMSymbol:
    """Symbol data of a boundary operator matrix (P_+ + G, K; T, S).

    Any entry may be absent.  ``green``/``potential``/``trace_terms`` are
    homogeneous boundary terms; ``s`` is a symbol on the boundary torus.
    ``order`` and ``type_d`` are the declared grading.
    """

    geometry: object
    p: ClassicalSymbol | None = None
    green: tuple = ()
    potential: tuple = ()
    trace_terms: tuple = ()
    s: ClassicalSymbol | None = None
    order: int | None = None
    type_d: int = 0

    def __post_init__(self):
        n = self.geometry.dim
        if self.type_d < 0:
            raise GradingError("type must be nonnegative")
        if self.p is not None and self.p.n != n:
            raise DimensionMismatchError("interior symbol dimension mismatch")
        if self.order is not None:
            if self.p is not None and self.p.order != self.order:
                raise GradingError(
                    f"interior order {self.p.order} != declared {self.order}")
            for term in self.green + self.potential:
                if term.degree > self.order + 1e-9:
                    raise GradingError("boundary term above the declared order")
        if not self.geometry.has_boundary:
            if self.green or self.potential or self.trace_terms or self.s is not None:
                raise GradingError(
                    "boundary entries on a geometry without boundary")
            return
        for term in self.green + self.potential + self.trace_terms:
            if term.n != n:
                raise DimensionMismatchError(
                    "boundary term lives in the wrong dimension")
        if self.s is not None and self.s.n != n - 1:
            raise DimensionMismatchError("boundary symbol dimension mismatch")

    def green_component(self, degree):
        terms = [t for t in self.green if abs(t.degree - degree) < 1e-9]
        return terms


@dataclass(frozen=True)
class ResidueBreakdown:
    interior: complex
    green: complex
    boundary_pdo: complex
    total: complex


def _interior_and_boundary_pdo(A):
    """The two reads shared by the residue and the Dixmier formula.

    Returns the interior residue of ``A.p`` (after the transmission check
    on a geometry with boundary) and the boundary cosphere integral of the
    trace of ``s_{1-n}``; an absent entry reads 0.
    """
    geo = A.geometry
    interior = 0j
    if A.p is not None:
        if geo.has_boundary:
            report = transmission_check(A.p)
            if not report.ok:
                raise TransmissionError(
                    f"interior symbol violates transmission at "
                    f"(degree, alpha', k) = {report.violation}")
        interior = wodzicki_residue(A.p, geo)
    pdo = 0j
    if A.s is not None:
        s_comp = A.s.component(1 - geo.dim).trace_part()
        pdo = geo.boundary_integral(sphere_integrate(s_comp, geo.dim - 1))
    return interior, pdo


def boundary_residue(A):
    """Residue of an operator-matrix symbol; reduces to the interior residue
    when the boundary is empty.

    The value is

        int_X int_S tr p_{-n} sigma dx
        + 2 pi int_dX int_S' { tr (tr g_{-n}) + tr s_{1-n} } sigma' dx'

    and depends only on the components p_{-n}, g_{-n} and s_{1-n}; the
    potential and trace entries never contribute.
    """
    geo = A.geometry
    n = geo.dim
    interior, pdo = _interior_and_boundary_pdo(A)
    if not geo.has_boundary:
        return ResidueBreakdown(interior, 0j, 0j, interior)
    if n < 2:
        raise DimensionMismatchError("boundary residue needs dim >= 2")

    green_sum = zero_term(1.0 - n, n - 1)
    for term in A.green_component(-n):
        green_sum = green_sum + tr_boundary_term(term).trace_part()
    green_val = TWO_PI * geo.boundary_integral(
        sphere_integrate(green_sum, n - 1))

    pdo_val = TWO_PI * pdo
    total = interior + green_val + pdo_val
    return ResidueBreakdown(interior, green_val, pdo_val, total)
