"""Residue functionals: closed forms, boundary blocks, trace property."""

import math

import numpy as np
import pytest

from ncres.errors import (DimensionMismatchError, GradingError,
                          TransmissionError, TruncationFloorError)
from ncres.halfline import boundary_term, compose_kt, simple_pole
from ncres.residue import (BdMSymbol, Cylinder, Torus, boundary_residue,
                           residue_density, wodzicki_residue)
from ncres.sampling import random_symbol
from ncres.symbols import (classical_symbol, commutator, hom_term,
                           laplace_shift_power, radial_term)

PI = math.pi


def test_residue_inverse_laplacian_power():
    # degree -n part is |xi|^-n: residue = (sphere area) * (torus volume)
    for n, want in ((2, 8 * PI ** 3), (3, 4 * PI * (2 * PI) ** 3)):
        a = laplace_shift_power(n, -n / 2.0, 2)
        assert wodzicki_residue(a, Torus(n)) == pytest.approx(want, rel=1e-12)


def test_residue_differential_operator_is_zero():
    p = classical_symbol([
        hom_term(2, 2, [(1.0, (0, 0), (2, 0), 0.0),
                        (1.0, (0, 0), (0, 2), 0.0)]),
        hom_term(0, 2, [(1.0, (0, 0), (0, 0), 0.0)]),
    ], 2)
    assert wodzicki_residue(p, Torus(2)) == 0j


def test_residue_commutators_vanish():
    rng = np.random.default_rng(42)
    for _ in range(25):
        a = random_symbol(rng, n=2, max_order=2, depth=5)
        b = random_symbol(rng, n=2, max_order=2, depth=5)
        c = commutator(a, b, a.order + b.order + 2)
        r = wodzicki_residue(c, Torus(2))
        assert abs(r) <= 1e-8 * (1 + a.norm1() * b.norm1())


def test_residue_density_examples():
    n = 2
    a = classical_symbol([radial_term(-2.0, n)], n)
    density = residue_density(a)
    # a trigonometric polynomial: one degree-0 atom with alpha = 0, w = 0
    assert density.degree == 0.0
    assert [(k, al, w) for _, k, al, w in density.atoms] == [
        ((0, 0), (0, 0), 0.0)]
    assert residue_density(a, (0.7, 0.1)) == pytest.approx(2 * PI)
    b = classical_symbol([hom_term(-2.0, n, [(1.0, (1, 0), (0, 0), -2.0)])], n)
    assert residue_density(b, (0.0, 0.0)) == pytest.approx(2 * PI)
    assert wodzicki_residue(b, Torus(2)) == 0j        # zero-mean density
    c = classical_symbol([hom_term(-2.0, n, [(1.0, (0, 0), (2, 0), -4.0)])], n)
    assert residue_density(c, (0.0, 0.0)) == pytest.approx(PI)
    assert wodzicki_residue(c, Torus(2)) == pytest.approx(4 * PI ** 3)


def test_residue_of_a_degree_minus_n_term():
    rng = np.random.default_rng(3)
    sym = random_symbol(rng, n=2, max_order=1, depth=4)
    term = sym.component(-2)
    assert not term.is_zero
    assert wodzicki_residue(term, Torus(2)) == wodzicki_residue(sym, Torus(2))
    assert residue_density(term, (0.3, 1.1)) == residue_density(sym, (0.3, 1.1))
    with pytest.raises(ValueError, match="degree -2"):
        wodzicki_residue(sym.component(-1), Torus(2))
    with pytest.raises(DimensionMismatchError):
        wodzicki_residue(term, Torus(3))


def test_residue_one_dimension():
    # n = 1: two-point cosphere, integral over the circle
    a = classical_symbol([hom_term(-1.0, 1, [(1.0, (0,), (0,), -1.0)])], 1)
    assert wodzicki_residue(a, Torus(1)) == pytest.approx(2 * (2 * PI))
    b = classical_symbol([hom_term(-1.0, 1, [(1.0, (1,), (0,), -1.0)])], 1)
    assert abs(wodzicki_residue(b, Torus(1))) < 1e-14


def test_truncation_floor_blocks_residue():
    a = laplace_shift_power(2, -1.0, 0)   # degree -2 stored, floor exactly -2
    assert wodzicki_residue(a, Torus(2)) == pytest.approx(8 * PI ** 3)
    shallow = laplace_shift_power(2, 0.5, 0)  # order 1, floor 1 > -2
    with pytest.raises(TruncationFloorError):
        wodzicki_residue(shallow, Torus(2))
    with pytest.raises(DimensionMismatchError):
        wodzicki_residue(a, Torus(3))


# ---------------------------------------------------------------------------
# boundary residue


def cylinder_inverse():
    return BdMSymbol(Cylinder(2), p=laplace_shift_power(2, -1.0, 2))


def test_boundary_residue_interior_only():
    out = boundary_residue(cylinder_inverse())
    assert out.interior == pytest.approx(2 * PI * 2 * PI ** 2)  # Omega_2 vol X
    assert out.green == 0j and out.boundary_pdo == 0j
    assert out.total == pytest.approx(4 * PI ** 3)


def test_boundary_residue_pdo_block():
    s = classical_symbol([radial_term(-1.0, 1)], 1)
    A = BdMSymbol(Cylinder(2), s=s)
    out = boundary_residue(A)
    # 2pi * (two-point sphere rule = 2) * (two circles of length 2pi)
    assert out.boundary_pdo == pytest.approx(16 * PI ** 2)
    assert out.total == pytest.approx(16 * PI ** 2)


def test_boundary_residue_green_block():
    b = hom_term(-2.0, 1, [(1.0, (0,), (0,), -2.0)])
    fiber = compose_kt(simple_pole(1j), simple_pole(-1j))
    g = boundary_term(b, fiber, kind="green")
    A = BdMSymbol(Cylinder(2), green=(g,))
    out = boundary_residue(A)
    assert out.green == pytest.approx(8 * PI ** 2)
    assert out.total == pytest.approx(8 * PI ** 2)


def test_boundary_residue_depends_only_on_critical_components():
    A = cylinder_inverse()
    base = boundary_residue(A).total
    # add a potential term, a trace term and an off-degree green term
    bpot = hom_term(-2.0, 1, [(2.0, (1,), (0,), -2.0)])
    btr = hom_term(-1.0, 1, [(1.5, (0,), (0,), -1.0)])
    boff = hom_term(-3.0, 1, [(1.0, (0,), (0,), -3.0)])
    g_off = boundary_term(boff, compose_kt(simple_pole(1j), simple_pole(-1j)),
                          kind="green")
    A2 = BdMSymbol(Cylinder(2), p=A.p,
                   potential=(boundary_term(bpot, simple_pole(1j),
                                            kind="potential"),),
                   trace_terms=(boundary_term(btr, simple_pole(-1j),
                                              kind="trace"),),
                   green=(g_off,))
    assert boundary_residue(A2).total == base  # bit-identical


def test_boundary_residue_linearity_in_blocks():
    s = classical_symbol([radial_term(-1.0, 1)], 1)
    A1 = BdMSymbol(Cylinder(2), s=s)
    A2 = BdMSymbol(Cylinder(2), s=s.scaled(2.5))
    assert boundary_residue(A2).total == pytest.approx(
        2.5 * boundary_residue(A1).total)


def test_boundary_residue_requires_transmission():
    bad = classical_symbol([radial_term(-1.0, 2).scaled(1.0),
                            radial_term(-2.0, 2)], 2)
    A = BdMSymbol(Cylinder(2), p=bad)
    with pytest.raises(TransmissionError):
        boundary_residue(A)


def test_reduces_to_interior_residue_without_boundary():
    p = laplace_shift_power(2, -1.0, 2)
    A = BdMSymbol(Torus(2), p=p)
    assert boundary_residue(A).total == wodzicki_residue(p, Torus(2))


def test_boundary_entries_on_torus_rejected():
    s = classical_symbol([radial_term(-1.0, 1)], 1)
    with pytest.raises(GradingError):
        BdMSymbol(Torus(2), s=s)


def test_cylinder_interior_integral():
    geo = Cylinder(2)
    # the trig polynomial 1 + e^{i s} + 3 e^{2is} as a degree-0 term
    trig = hom_term(0.0, 2, [(1.0, (0, 0), (0, 0), 0.0),
                             (1.0, (0, 1), (0, 0), 0.0),
                             (3.0, (0, 2), (0, 0), 0.0)])
    # int_0^pi e^{i s} ds = 2i, e^{2is} integrates to 0
    want = 2 * PI * PI + 2 * PI * 2j
    assert geo.interior_integral(trig) == pytest.approx(want)
