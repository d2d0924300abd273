"""Log-coefficient routes of resolvent powers, auxiliary independence."""

import math

import numpy as np
import pytest

import ncres
from ncres.parametric import (heat_log_coefficient_from_resolvent,
                              resolvent_log_coefficient,
                              resolvent_log_coefficient_closed)
from ncres.residue import Torus, wodzicki_residue
from ncres.sampling import random_symbol
from ncres.symbols import (classical_symbol, hom_term, identity_symbol,
                           laplace_shift_power, leibniz_compose, radial_term)

PI = math.pi
TWO_PI = 2 * PI


def aux(m=2, perturbed=False):
    terms = [radial_term(float(m), 2)]
    if perturbed:
        terms.append(hom_term(m - 1.0, 2,
                              [(1.0, (1, 0), (0, 0), float(m - 1))]))
    return classical_symbol(terms, 2)


def test_composition_top_mu_coefficient_independent_of_aux():
    p = classical_symbol([radial_term(-2.0, 2)], 2)
    k = 2
    for a in (aux(), aux(perturbed=True)):
        # the route's composition: p with the i = 0 term (-1)^k
        group = identity_symbol(2, a.matrix_dim).scaled((-1.0) ** k)
        comp = leibniz_compose(p, group, depth=2).component(-2)
        # (-1)^k p_{-2}: single radial atom of coefficient +1
        ((c, kk, alpha, w),) = comp.atoms
        assert c == pytest.approx((-1.0) ** k)
        assert w == -2.0 and alpha == (0, 0) and kk == (0, 0)


def test_routes_agree_and_sign():
    p = laplace_shift_power(2, -1.0, 2)
    closed2 = resolvent_log_coefficient_closed(p, 2, 2)
    assert closed2 == pytest.approx(PI)
    assert resolvent_log_coefficient_closed(p, 2, 3) == pytest.approx(-PI)
    route2 = resolvent_log_coefficient(p, aux(), 2)
    assert route2 == pytest.approx(closed2, abs=1e-10)


def test_auxiliary_independence_full_pipeline():
    p = laplace_shift_power(2, -1.0, 2)
    r1 = resolvent_log_coefficient(p, aux(), 2)
    r2 = resolvent_log_coefficient(p, aux(perturbed=True), 2)
    assert abs(r1 - r2) <= 1e-8


def test_lambda_mu_bookkeeping():
    # coefficient of lambda^-k ln lambda must equal (mu coefficient)/ord A,
    # with the ln lambda = m ln mu factor cancelling the mu^{-mk} regroup
    p = laplace_shift_power(2, -1.0, 2)
    k = 2
    composed = leibniz_compose(p, identity_symbol(2).scaled((-1.0) ** k), 2)
    c_mu = wodzicki_residue(composed, Torus(2)) / TWO_PI ** 2
    for m in (1, 2):
        a = classical_symbol([radial_term(float(m), 2)], 2)
        c_lambda = resolvent_log_coefficient(p, a, k)
        assert c_lambda == pytest.approx(c_mu / m)


def test_random_triples_routes():
    rng = np.random.default_rng(17)
    for _ in range(20):
        p = random_symbol(rng, n=2, max_order=0, depth=3)
        m = int(rng.integers(1, 3))
        kk = int(rng.integers(1, 4))
        a = classical_symbol([radial_term(float(m), 2)], 2)
        closed = resolvent_log_coefficient_closed(p, m, kk)
        route = resolvent_log_coefficient(p, a, kk)
        assert abs(route - closed) <= 1e-8 * (1 + abs(closed))


def test_residue_loop_through_heat_normalization():
    p = laplace_shift_power(2, -1.0, 2)
    res = wodzicki_residue(p, Torus(2)).real
    for k in (1, 2, 3):
        c_lambda = resolvent_log_coefficient(p, aux(), k)
        c_heat = heat_log_coefficient_from_resolvent(c_lambda, k)
        assert -TWO_PI ** 2 * 2 * c_heat == pytest.approx(res, rel=1e-12)
    # the heat-normalized coefficient is k-independent
    cs = {k: heat_log_coefficient_from_resolvent(
        resolvent_log_coefficient(p, aux(), k), k) for k in (1, 2, 3)}
    assert cs[1] == pytest.approx(cs[2]) == pytest.approx(cs[3])


def test_resolvent_power_must_be_positive():
    p = laplace_shift_power(2, -1.0, 2)
    for k in (0, -1):
        with pytest.raises(ValueError):
            resolvent_log_coefficient(p, aux(), k)


def test_public_names_resolve_and_expansion_family_gone():
    for name in ncres.__all__:
        assert getattr(ncres, name) is not None, name
    assert len(set(ncres.__all__)) == len(ncres.__all__)
    for name in ("WPTermList", "expand_resolvent", "mu_derivative",
                 "wp_log_coefficient", "StepFunction"):
        assert name not in ncres.__all__
        assert not hasattr(ncres, name)
        assert not hasattr(ncres.parametric, name)
    assert not hasattr(ncres.parametric, "compose_with")
