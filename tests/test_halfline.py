"""Boundary-fiber rational calculus: decomposition, pi_prime, compositions."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from ncres.errors import MembershipError, RealPoleError
from ncres.halfline import (boundary_term, compose_gg, compose_kt, compose_tk,
                            from_ratio, pi_prime, pm_decompose, polynomial,
                            rational, sg_symbol, sg_trace, simple_pole,
                            tr_boundary_term)
from ncres.sampling import random_minus_fn, random_plus_fn, random_sg
from ncres.symbols import hom_term


def lorentz():
    # 1/(tau^2 + 1) in split form
    return rational((), [(1j, 1, 1 / 2j), (-1j, 1, -1 / 2j)])


def test_real_pole_rejected():
    with pytest.raises(RealPoleError):
        simple_pole(2.0)
    with pytest.raises(RealPoleError):
        from_ratio([1], [0, 1])   # 1/tau


def test_pm_decompose_simple():
    d = pm_decompose(lorentz())
    assert d.plus.pole_terms == ((1j, 1, 1 / 2j),)
    assert d.minus.pole_terms == ((-1j, 1, -1 / 2j),)
    assert d.poly.is_zero


def test_pm_decompose_poly_plus_minus():
    h = polynomial([0, 1]) + simple_pole(-1j)
    d = pm_decompose(h)
    assert d.plus.is_zero
    assert d.minus.pole_terms == ((-1j, 1, 1 + 0j),)
    assert d.poly.poly == (0j, 1 + 0j)


def test_pm_decompose_ratio_example():
    # (tau^2+2)/((tau-i)(tau+2i)): poly 1, plus pole at i, minus pole at -2i
    f = from_ratio([2, 0, 1], [2, 1j, 1])
    d = pm_decompose(f)
    assert d.poly.poly == pytest.approx((1 + 0j,))
    (p_plus, _, _), = d.plus.pole_terms
    (p_minus, _, _), = d.minus.pole_terms
    assert p_plus == pytest.approx(1j)
    assert p_minus == pytest.approx(-2j)
    rng = np.random.default_rng(1)
    for tau in rng.uniform(-5, 5, 10):
        direct = (tau ** 2 + 2) / ((tau - 1j) * (tau + 2j))
        assert abs(f(tau) - direct) < 1e-12
        assert abs(d.reconstruct()(tau) - direct) < 1e-12


@pytest.mark.parametrize("scale", [1e-14, 1.0, 1e14])
def test_from_ratio_scales_with_the_numerator(scale):
    # the remainder is trimmed relative to the numerator, not at 1e-13
    f = from_ratio([scale], [1, 0, 1])
    assert f.poly == ()
    for tau in (-2.0, 0.5, 3.0):
        assert f(tau) == pytest.approx(scale / (tau ** 2 + 1), rel=1e-12,
                                       abs=0)


@pytest.mark.parametrize("scale", [1e-14, 1.0, 1e14])
def test_from_ratio_exact_division_has_no_poles(scale):
    # num = q * den up to rounding: the remainder is rounding only
    q, den = [scale * (0.1 + 0.2j), scale * 0.3], [2, 1j, 1]
    num = np.convolve(q, den)
    f = from_ratio(num, den)
    assert f.pole_terms == ()
    assert f.poly == pytest.approx(q, rel=1e-14, abs=0)


def test_reconstruction_random():
    rng = np.random.default_rng(2)
    for _ in range(20):
        h = random_plus_fn(rng) + random_minus_fn(rng, type_d=2) \
            + polynomial([complex(rng.normal(), rng.normal())])
        d = pm_decompose(h)
        for tau in rng.uniform(-4, 4, 20):
            assert abs(d.reconstruct()(tau) - h(tau)) < 1e-12


def test_pi_prime_examples():
    assert pi_prime(lorentz()) == 0.5 + 0j
    assert pi_prime(simple_pole(-1j)) == 0j
    assert pi_prime(simple_pole(1j)) == 1j
    assert pi_prime(polynomial([3.0, 2.0])) == 0j


def test_pi_prime_projection_rule():
    rng = np.random.default_rng(3)
    for _ in range(20):
        h = random_plus_fn(rng) + random_minus_fn(rng, type_d=1)
        assert pi_prime(h) == pi_prime(pm_decompose(h).plus)


def _quad_oracle(h, L=1e4):
    re = quad(lambda x: h(x).real, -L, L, limit=400)[0]
    im = quad(lambda x: h(x).imag, -L, L, limit=400)[0]
    # h ~ C tau^-2 at infinity, C = sum of c p^(2-s) over the poles of
    # order s <= 2, so the two tails beyond +-L add 2C/L
    tail = 2.0 * sum(c * p ** (2 - s) for p, s, c in h.pole_terms
                     if s <= 2) / L
    return (re + 1j * im + tail) / (2 * math.pi)


def test_pi_prime_integral_oracle():
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 8:
        k = random_plus_fn(rng)
        t = random_minus_fn(rng)
        h = k * t   # decays like tau^-2: integrable
        val = pi_prime(h)
        est = _quad_oracle(h)
        assert abs(val - est) <= 1e-8 * (1 + abs(val))
        checked += 1
    # and the classic: (1/2pi) integral of 1/(1+tau^2) = 1/2
    assert abs(_quad_oracle(lorentz()) - 0.5) < 1e-8


def test_sg_trace_examples():
    k = simple_pole(1j)
    t = simple_pole(-1j)
    g = compose_kt(k, t)
    assert sg_trace(g) == pytest.approx(0.5)
    # type d >= 1 with polynomial-only right factor
    g2 = compose_kt(k, polynomial([1.0]), type_d=1)
    assert sg_trace(g2) == pytest.approx(1j)
    assert compose_tk(polynomial([1.0]), k) == pytest.approx(1j)
    # linearity
    both = g + g2
    assert sg_trace(both) == pytest.approx(sg_trace(g) + sg_trace(g2))


def test_compose_tk_examples():
    assert compose_tk(simple_pole(-1j), simple_pole(1j)) == pytest.approx(0.5)
    zero = rational((), ())
    assert compose_tk(zero, simple_pole(1j)) == 0j


def test_compose_kt_compatibility():
    rng = np.random.default_rng(5)
    for _ in range(50):
        k = random_plus_fn(rng)
        t = random_minus_fn(rng, type_d=int(rng.integers(0, 2)))
        lhs = sg_trace(compose_kt(k, t, type_d=2))
        rhs = compose_tk(t, k)
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))


def test_compose_kt_third_example():
    g = compose_kt(simple_pole(1j), simple_pole(-2j))
    assert sg_trace(g) == pytest.approx(1 / 3)


def test_compose_gg():
    g = compose_kt(simple_pole(1j), simple_pole(-1j))
    gg = compose_gg(g, g)
    assert sg_trace(gg) == pytest.approx(0.25)
    zero = sg_symbol([], 0)
    assert compose_gg(g, zero).is_zero
    assert compose_gg(zero, g).is_zero


def test_trace_cyclicity_random():
    rng = np.random.default_rng(6)
    for _ in range(50):
        g1 = random_sg(rng)
        g2 = random_sg(rng)
        a = sg_trace(compose_gg(g1, g2))
        b = sg_trace(compose_gg(g2, g1))
        assert abs(a - b) <= 1e-10 * (1 + abs(a))


def test_membership_validation():
    with pytest.raises(MembershipError):
        sg_symbol([(simple_pole(-1j), simple_pole(-1j))])   # k below axis
    with pytest.raises(MembershipError):
        sg_symbol([(simple_pole(1j), simple_pole(1j))])     # t above axis
    with pytest.raises(MembershipError):
        # polynomial growth beyond type 0
        sg_symbol([(simple_pole(1j), polynomial([1.0]) + simple_pole(-1j))], 0)


def test_boundary_term_homogeneity():
    # b of degree j times the rescaled fiber is homogeneous of degree j
    b = hom_term(-2.0, 1, [(1.0, (0,), (0,), -2.0)])
    g = compose_kt(simple_pole(1j), simple_pole(-1j))
    bt = boundary_term(b, g, kind="green")
    lam = 1.7
    v1 = bt((0.3,), (lam * 1.0,), lam * 0.4, lam * -0.2)
    v0 = bt((0.3,), (1.0,), 0.4, -0.2)
    assert v1 == pytest.approx(lam ** -2.0 * v0)


def test_tr_boundary_term_degree_shift():
    b = hom_term(-2.0, 1, [(1.0, (0,), (0,), -2.0)])
    g = compose_kt(simple_pole(1j), simple_pole(-1j))
    traced = tr_boundary_term(boundary_term(b, g, kind="green"))
    assert traced.degree == -1.0
    # value 0.5 * |xi'|^-1
    assert traced((0.0,), (2.0,)) == pytest.approx(0.25)


def test_product_against_pointwise():
    rng = np.random.default_rng(8)
    for _ in range(10):
        f = random_plus_fn(rng) + polynomial([rng.normal(), rng.normal()])
        g = random_minus_fn(rng, type_d=2)
        fg = f * g
        for tau in rng.uniform(-3, 3, 10):
            assert abs(fg(tau) - f(tau) * g(tau)) < 1e-10
