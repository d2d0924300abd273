"""Noncommutative residue functionals on model geometries.

The interior residue integrates the degree ``-n`` component of a symbol
over the cosphere and the manifold; on the flat models used here (tori and
finite cylinders) both integrals are closed-form, so the only floating
point error is arithmetic.  The boundary extension adds, with weight 2*pi,
the residues of the traced singular Green part and of the boundary
pseudodifferential part over the boundary cosphere.  Dixmier's trace of
an operator of order -n is that breakdown with each block normalised by
its own order.

Every cosphere integral, inside and on the boundary, is one call of
:func:`~ncres.symbols.sphere_integrate`, which returns the trigonometric
polynomial left in x as a degree-0 term; for n = 1 inside, and n = 2 on
the boundary, the cosphere is S^0, the two points +-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import (DimensionMismatchError, GradingError,
                     ResourceCapError, TransmissionError,
                     TruncationFloorError, naming)
from .halfline import tr_boundary_term
from .symbols import (ClassicalSymbol, HomTerm, _trig_value,
                      laplace_shift_power, sphere_integrate,
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
    """Cosphere integral of the degree -n component (of ``a`` itself
    when it is a :class:`HomTerm`, which must be of degree -n).

    Returns the trig polynomial in x as a degree-0 term (or its value when
    ``x`` is given); integrating it over the manifold gives the residue.
    """
    term = a if isinstance(a, HomTerm) else a.component(-a.n)
    if term.degree != -a.n:
        raise ValueError(f"the residue reads degree {-a.n}, not {term.degree}")
    density = sphere_integrate(term, a.n)
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
# full operator-matrix symbols, the boundary residue and Dixmier's trace


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
        if self.geometry.has_boundary and n < 2:
            # [0, pi] alone: a boundary of points, with no cosphere
            raise DimensionMismatchError("a cylinder needs dim >= 2",
                                         ("geometry", "dim"))
        if self.type_d < 0:
            raise GradingError("type must be nonnegative", ("type",))
        if self.p is not None and self.p.n != n:
            raise DimensionMismatchError("interior symbol dimension mismatch")
        boundary = (("s", self.s), ("green", self.green),
                    ("potential", self.potential), ("trace", self.trace_terms))
        for key, entry in boundary:
            if entry and not self.geometry.has_boundary:
                raise GradingError(
                    "boundary entries on a geometry without boundary", (key,))
        if self.order is not None:
            if self.p is not None and self.p.order != self.order:
                raise GradingError(
                    f"interior order {self.p.order} != declared {self.order}",
                    ("order",))
            for term in self.green + self.potential:
                if term.degree > self.order + 1e-9:
                    raise GradingError(
                        "boundary term above the declared order", ("order",))
        for term in self.green + self.potential + self.trace_terms:
            if term.n != n:
                raise DimensionMismatchError(
                    "boundary term lives in the wrong dimension")
        if self.s is not None and self.s.n != n - 1:
            raise DimensionMismatchError("boundary symbol dimension mismatch")

    def green_component(self, degree):
        return [t for t in self.green if abs(t.degree - degree) < 1e-9]


@dataclass(frozen=True)
class ResidueBreakdown:
    interior: complex
    green: complex
    boundary_pdo: complex
    total: complex


def boundary_residue(A):
    """Residue of an operator-matrix symbol; reduces to the interior residue
    when the boundary is empty.

    The value is

        int_X int_S tr p_{-n} sigma dx
        + 2 pi int_dX int_S' { tr (tr g_{-n}) + tr s_{1-n} } sigma' dx'

    and depends only on the components p_{-n}, g_{-n} and s_{1-n}; the
    potential and trace entries never contribute.  The outer fiber trace
    ``tr`` is the identity on the scalar symbols here.
    """
    geo = A.geometry
    n = geo.dim
    interior = 0j
    if A.p is not None:
        if geo.has_boundary:
            report = transmission_check(A.p)
            if not report.ok:
                raise TransmissionError(
                    f"interior symbol violates transmission at "
                    f"(degree, alpha', k) = {report.violation}", ("p",))
        with naming(("p",), TruncationFloorError):
            interior = wodzicki_residue(A.p, geo)
    if not geo.has_boundary:
        return ResidueBreakdown(interior, 0j, 0j, interior)

    def on_boundary(term):
        return TWO_PI * geo.boundary_integral(sphere_integrate(term, n - 1))

    green_sum = zero_term(1.0 - n, n - 1)
    for term in A.green_component(-n):
        green_sum = green_sum + tr_boundary_term(term)
    green_val = on_boundary(green_sum)
    pdo_val = 0j
    if A.s is not None:
        pdo_val = on_boundary(A.s.component(1 - n))
    total = interior + green_val + pdo_val
    return ResidueBreakdown(interior, green_val, pdo_val, total)


def dixmier_formula(A):
    """Dixmier trace of an operator matrix of order -n: each block of
    :func:`boundary_residue` over (2 pi)^n times its own order.

    The interior block is divided by n (Connes); tr G and S act on the
    boundary with order 1-n, so the green and boundary blocks are divided
    by n-1 (Fedosov-Golse-Leichtnam-Schrohe).  The off-diagonal K and T
    are checked against the grading and contribute nothing.
    """
    n = A.geometry.dim
    _validate_dixmier_grading(A, n)
    r = boundary_residue(A)
    total = r.interior / (TWO_PI ** n * n)
    if A.geometry.has_boundary:
        total += (r.green + r.boundary_pdo) / (TWO_PI ** n * (n - 1))
    return total


def weight_operator(model, weight):
    """The symbol of scale * (shift + Delta)^power down to degree -dim: on
    ``Torus(dim)`` or ``Cylinder(dim)``, scaled by the copies, for a torus
    lattice or a Dirichlet cylinder; for a boundary lattice, the ``s`` of
    ``Cylinder(dim + 1)`` scaled by copies / 2, one per end.  None for an
    order 2 * power off the integer ladder, the cylinder of dim 1 (no
    boundary torus), an odd order on a cylinder (no transmission), and
    where no symbol under the caps states it: an order past ``ORDER_CAP``,
    or a shift whose powers pass the float range."""
    order, d = 2.0 * weight.power, model.dim
    if not order.is_integer() or model.kind == "dirichlet_cylinder" and (
            d < 2 or order % 2):
        return None
    try:
        sym = laplace_shift_power(d, weight.power,
                                  max(0, math.ceil((order + d) / 2)),
                                  weight.shift)
    except (OverflowError, ResourceCapError):
        return None
    if model.kind == "boundary_lattice":
        return BdMSymbol(Cylinder(d + 1),
                         s=sym.scaled(weight.scale * model.copies / 2))
    geometry = Torus(d) if model.kind == "torus_lattice" else Cylinder(d)
    return BdMSymbol(geometry, p=sym.scaled(weight.scale * model.copies))


def dixmier_reference(model, weight):
    """Dixmier's trace of the weight's own operator on ``model``, by
    :func:`dixmier_formula`; None unless the weight has order -dim and
    :func:`weight_operator` states its operator."""
    if 2.0 * weight.power != -model.dim:
        return None
    op = weight_operator(model, weight)
    return None if op is None else dixmier_formula(op).real


def heat_log_reference(model, p, a):
    """The ln t coefficient of Tr P e^(-tA) that P's operator derives,
    -res P / (ord A (2 pi)^n), for the weights P and A (A affine) on
    ``model``; None where :func:`weight_operator` states no operator for P
    or the value is not finite."""
    op = weight_operator(model, p)
    if op is None:
        return None
    value = -boundary_residue(op).total.real / (
        2.0 * a.power * TWO_PI ** op.geometry.dim)
    return value if math.isfinite(value) else None


def zeta_reference(model, p, a, sigma):
    """The residue of Tr P A^-s at s = sigma: minus the ln t coefficient
    of the one weight P A^-sigma, which exists where P is constant or
    shares A's shift; None elsewhere, as :func:`heat_log_reference`."""
    if p.power != 0.0 and p.shift != a.shift:
        return None
    try:
        pa = replace(p, power=p.power - sigma * a.power, shift=a.shift,
                     scale=p.scale * a.scale ** -sigma)
    except OverflowError:
        return None
    value = heat_log_reference(model, pa, a)
    return None if value is None else -value


def _validate_dixmier_grading(A, n):
    """Raise :class:`GradingError` at the first entry of ``A`` off the
    grading of an operator of order -n, naming it by its key."""
    m = -n
    if A.p is not None and A.p.order != m:
        raise GradingError(f"interior symbol order {A.p.order} != {m}", ("p",))
    if A.type_d != 0:
        raise GradingError("Dixmier trace needs type 0", ("type",))
    for i, t in enumerate(A.green):
        if t.degree > m + 1e-9:
            raise GradingError("singular Green term above order -n",
                               ("green", i))
        if getattr(t.fiber, "type_d", 0) != 0:
            raise GradingError("singular Green term must have type 0",
                               ("green", i))
    for i, t in enumerate(A.potential):
        if t.degree > m + 1e-9:
            raise GradingError("potential term above order -n",
                               ("potential", i))
    for i, t in enumerate(A.trace_terms):
        if t.degree > m + 1 + 1e-9:
            raise GradingError("trace term above order -n+1", ("trace", i))
    if A.s is not None and A.s.order != m + 1:
        raise GradingError(f"boundary symbol order {A.s.order} != {m + 1}",
                           ("s",))
