"""Symbol algebra: evaluation, derivations, composition, sphere moments."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncres.errors import DimensionMismatchError, TruncationFloorError
from ncres.halfline import boundary_term, compose_kt, simple_pole
from ncres.literals import format_symbol, parse_symbol
from ncres.sampling import random_symbol
from ncres.symbols import (classical_symbol, commutator, hom_term,
                           identity_symbol, laplace_shift_power,
                           leibniz_component, leibniz_compose,
                           multi_indices, radial_term,
                           sphere_integrate, sphere_moment,
                           transmission_check, zero_term)


def test_hom_eval_examples():
    for n in (2, 3):
        t = radial_term(-float(n), n)
        assert t(np.zeros(n), np.eye(n)[-1] * 2) == pytest.approx(2.0 ** -n)
    t = hom_term(1, 2, [(1.0, (0, 0), (1, 0), 0.0)])
    assert t((0.1, 0.2), (3.0, 4.0)) == pytest.approx(3.0)
    t = hom_term(-1, 2, [(1.0, (0, 0), (2, 0), -3.0)])
    assert t((0, 0), (1.0, 0.0)) == pytest.approx(1.0)
    assert t((0, 0), (2.0, 0.0)) == pytest.approx(0.5)


def test_hom_eval_rejects_zero():
    t = radial_term(-2.0, 2)
    with pytest.raises(ValueError):
        t((0.0, 0.0), (0.0, 0.0))


@pytest.mark.parametrize("xi", [(1.0, 0.0, 5.0), (2.0,), ()])
def test_eval_rejects_xi_of_wrong_length(xi):
    t = radial_term(-2.0, 2)
    with pytest.raises(DimensionMismatchError):
        t((0.0, 0.0), xi)
    with pytest.raises(DimensionMismatchError):
        classical_symbol([t], 2).eval((0.0, 0.0), xi)
    # a boundary term's b lives in n - 1 = 2 dimensions
    bt = boundary_term(radial_term(-2.0, 2),
                       compose_kt(simple_pole(1j), simple_pole(-1j)))
    with pytest.raises(DimensionMismatchError):
        bt((0.0, 0.0), xi, 0.4, -0.2)


def test_homogeneity_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        sym = random_symbol(rng, n=2, depth=3)
        term = sym.nonzero_terms()[int(rng.integers(len(sym.nonzero_terms())))]
        x = rng.uniform(0, 2 * math.pi, 2)
        xi = rng.normal(size=2)
        if np.linalg.norm(xi) < 0.3:
            xi = xi + 1.0
        lam = rng.uniform(1.0, 5.0)
        left = term(x, lam * xi)
        right = lam ** term.degree * term(x, xi)
        assert abs(left - right) <= 1e-12 * (1 + abs(right))


def test_below_unit_sphere_extension():
    # |xi| < 1 continues by pure homogeneity
    t = radial_term(-2.0, 2)
    assert t((0, 0), (0.1, 0.0)) == pytest.approx(100.0)


def test_derivatives_change_degree_on_representation():
    rng = np.random.default_rng(5)
    sym = random_symbol(rng, n=2, depth=3)
    d_xi = sym.dxi(0)
    d_x = sym.dx(1)
    assert d_xi.order == sym.order - 1
    assert d_x.order == sym.order
    for t, s in zip(d_xi.terms, sym.terms):
        assert t.degree == s.degree - 1
    for t, s in zip(d_x.terms, sym.terms):
        assert t.degree == s.degree


def test_dxi_matches_finite_difference():
    t = hom_term(-1.0, 2, [(1.5, (1, 0), (1, 0), -2.0)])
    x = np.array([0.3, 0.8])
    xi = np.array([1.3, -0.7])
    h = 1e-6
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (t(x, xi + e) - t(x, xi - e)) / (2 * h)
        assert abs(t.dxi(i)(x, xi) - fd) < 1e-7


def test_dx_matches_finite_difference():
    t = hom_term(0.0, 2, [(1.0 + 0.5j, (2, -1), (0, 0), 0.0)])
    x = np.array([0.3, 0.8])
    xi = np.array([1.3, -0.7])
    h = 1e-6
    fd = (t(x + [h, 0], xi) - t(x - [h, 0], xi)) / (2 * h)
    assert abs(t.dx(0)(x, xi) - fd) < 1e-6


# ---------------------------------------------------------------------------
# sphere integration


def _sphere_quadrature(term, n):
    if n == 2:
        theta = np.linspace(0, 2 * math.pi, 4096, endpoint=False)
        vals = [term((0.0, 0.0), (math.cos(a), math.sin(a))) for a in theta]
        return np.mean(vals) * 2 * math.pi
    nodes, weights = np.polynomial.legendre.leggauss(40)
    theta = np.linspace(0, 2 * math.pi, 256, endpoint=False)
    total = 0.0
    for c, w in zip(nodes, weights):
        s = math.sqrt(1 - c * c)
        ring = np.mean([term((0.0,) * 3, (s * math.cos(a), s * math.sin(a), c))
                        for a in theta])
        total += w * ring * 2 * math.pi
    return total


def test_sphere_area():
    assert sphere_moment((0, 0), 2) == pytest.approx(2 * math.pi, rel=1e-14)
    assert sphere_moment((0, 0, 0), 3) == pytest.approx(4 * math.pi, rel=1e-14)


def test_sphere_monomials():
    assert sphere_moment((2, 0), 2) == pytest.approx(math.pi, rel=1e-14)
    # xi1^2 xi2^2 |xi|^-4 reduces to the (2, 2) moment on the sphere
    assert sphere_moment((2, 2), 2) == pytest.approx(math.pi / 4, rel=1e-14)


def test_sphere_odd_parity_exact_zero():
    for alpha in [(1, 0), (3, 2), (0, 5)]:
        assert sphere_moment(alpha, 2) == 0.0
    assert sphere_moment((1, 2, 2), 3) == 0.0


@pytest.mark.parametrize("n", [2, 3])
def test_sphere_integrate_vs_quadrature(n):
    rng = np.random.default_rng(11)
    for _ in range(5):
        alpha = tuple(int(a) for a in rng.integers(0, 3, n))
        w = float(rng.integers(-3, 1))
        deg = sum(alpha) + w
        term = hom_term(deg, n, [(1.7, (0,) * n, alpha, w)])
        # x-independent: at most one atom, at the zero frequency
        exact = sum(c for c, *_ in sphere_integrate(term, n).atoms)
        quad = _sphere_quadrature(term, n)
        assert abs(exact - quad) <= 1e-9 * (1 + abs(quad))


def test_sphere_integrate_s0_is_two_point_rule():
    # S^0 is the two points +-1: bit for bit the two-point sum, and each
    # atom c e^{ikx} xi^alpha |xi|^w contributes c (1 + (-1)^alpha) e^{ikx}
    rng = np.random.default_rng(5)
    for _ in range(20):
        sym = random_symbol(rng, n=1, depth=3, atoms_per_term=3,
                            freq_range=2)
        for term in sym.nonzero_terms():
            got = sphere_integrate(term, 1)
            two_point = (term.evaluate_trig((1.0,))
                         + term.evaluate_trig((-1.0,)))
            assert got.degree == 0.0
            assert repr(got.atoms) == repr(two_point.atoms)
            want = {}
            for c, k, (a,), _ in term.atoms:
                want[k] = want.get(k, 0j) + c * (1 + (-1) ** a)
            assert {k: c for c, k, _, _ in got.atoms} == pytest.approx(
                {k: c for k, c in want.items() if abs(c) > 1e-12})
            assert all(al == (0,) and w == 0.0 for _, _, al, w in got.atoms)


# ---------------------------------------------------------------------------
# composition


def test_compose_identity():
    rng = np.random.default_rng(7)
    a = random_symbol(rng, n=2, depth=4)
    one = identity_symbol(2)
    left = leibniz_compose(a, one, 6)
    right = leibniz_compose(one, a, 6)
    for d in range(a.order, a.order - 4, -1):
        assert (left.component(d) - a.component(d)).norm1() < 1e-14
        assert (right.component(d) - a.component(d)).norm1() < 1e-14


def test_first_order_commutator_exact():
    a = classical_symbol([hom_term(1, 2, [(1.0, (0, 0), (1, 0), 0.0)])], 2)
    b = classical_symbol([hom_term(0, 2, [(1.0, (1, 0), (0, 0), 0.0)])], 2)
    c = commutator(a, b, 4)
    nz = c.nonzero_terms()
    assert len(nz) == 1 and nz[0].degree == 0.0
    ((coeff, freq, alpha, w),) = nz[0].atoms
    assert freq == (1, 0) and alpha == (0, 0) and w == 0.0
    assert coeff == pytest.approx(1.0)
    assert c.exact_floor is None  # xi-polynomial composition terminates


def test_compose_bilinear():
    rng = np.random.default_rng(19)
    a1 = random_symbol(rng, n=2, depth=3)
    a2 = random_symbol(rng, n=2, depth=3)
    b = random_symbol(rng, n=2, depth=3)
    depth = 6
    lhs = leibniz_compose(a1 + a2, b, depth)
    rhs = leibniz_compose(a1, b, depth) + leibniz_compose(a2, b, depth)
    for d in range(lhs.order, int(max(lhs.floor_value, rhs.floor_value)) - 1, -1):
        assert (lhs.component(d) - rhs.component(d)).norm1() < 1e-10


def test_compose_associative_on_exact_range():
    rng = np.random.default_rng(23)
    for _ in range(5):
        a = random_symbol(rng, n=2, max_order=1, depth=3, atoms_per_term=1)
        b = random_symbol(rng, n=2, max_order=1, depth=3, atoms_per_term=1)
        c = random_symbol(rng, n=2, max_order=1, depth=3, atoms_per_term=1)
        depth = 5
        left = leibniz_compose(leibniz_compose(a, b, depth), c, depth)
        right = leibniz_compose(a, leibniz_compose(b, c, depth), depth)
        floor = max(left.floor_value, right.floor_value)
        d = left.order
        while d >= floor:
            diff = (left.component(d) - right.component(d)).norm1()
            scale = 1 + a.norm1() * b.norm1() * c.norm1()
            assert diff <= 1e-9 * scale
            d -= 1


def test_truncation_floor_guard():
    a = laplace_shift_power(2, -1.0, 2)   # exact floor -6
    with pytest.raises(TruncationFloorError):
        a.component(-8)
    b = leibniz_compose(a, a, 2)
    assert b.exact_floor == -6  # floor propagates: -6 + order(-2)
    with pytest.raises(TruncationFloorError):
        b.component(-7)


def test_multi_indices_cover():
    idx = multi_indices(3, 2)
    assert len(idx) == 6 and all(sum(a) == 2 for a in idx)


# ---------------------------------------------------------------------------
# transmission condition


def test_transmission_polynomial_symbol():
    # 1 - Laplacian: xi1^2 + xi2^2 + 1, a differential symbol
    p = classical_symbol([
        hom_term(2, 2, [(1.0, (0, 0), (2, 0), 0.0),
                        (1.0, (0, 0), (0, 2), 0.0)]),
        hom_term(0, 2, [(1.0, (0, 0), (0, 0), 0.0)]),
    ], 2)
    assert transmission_check(p).ok


def test_transmission_violated_by_radial_degree_one():
    p = classical_symbol([radial_term(1.0, 2)], 2)
    report = transmission_check(p)
    assert not report.ok
    assert report.violation == (1, (0,), 0)


def test_transmission_resolvent_expansion():
    p = laplace_shift_power(2, -1.0, 3)
    assert transmission_check(p).ok


# ---------------------------------------------------------------------------
# literals


def test_parse_format_roundtrip():
    text = "|xi|^-2 + 0.5 * exp(i*(1,0).x) * xi2 * |xi|^-2 - 2 * xi1^2 * |xi|^-4"
    sym = parse_symbol(text, 2)
    x = (0.4, 1.1)
    xi = (1.2, -0.8)
    r = np.hypot(*xi)
    direct = (r ** -2 + 0.5 * np.exp(1j * x[0]) * xi[1] * r ** -2
              - 2 * xi[0] ** 2 * r ** -4)
    assert sym.eval(x, xi) == pytest.approx(direct)
    again = parse_symbol(format_symbol(sym), 2)
    assert again.eval(x, xi) == pytest.approx(direct)


def test_parse_multi_index_and_matrix_free_coeff():
    sym = parse_symbol("(1+2j) * xi^(2,1) * |xi|^-3", 2)
    term = sym.nonzero_terms()[0]
    assert term.degree == 0.0
    ((c, k, a, w),) = term.atoms
    assert c == 1 + 2j and a == (2, 1) and w == -3.0


def test_parse_errors():
    from ncres.errors import ConfigError
    with pytest.raises(ConfigError):
        parse_symbol("xi9", 2)
    with pytest.raises(ConfigError):
        parse_symbol("frog * |xi|^-2", 2)


# ---------------------------------------------------------------------------
# matrix coefficients


def test_matrix_symbol_trace_and_product():
    m1 = np.array([[1.0, 2.0], [0.0, 1.0]])
    m2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    t1 = hom_term(0.0, 2, [(m1, (0, 0), (0, 0), 0.0)], matrix_dim=2)
    t2 = hom_term(0.0, 2, [(m2, (0, 0), (0, 0), 0.0)], matrix_dim=2)
    prod = t1.times(t2)
    val = prod((0, 0), (1.0, 0.0))
    assert np.allclose(val, m1 @ m2)
    assert prod.trace_part()((0, 0), (1.0, 0.0)) == pytest.approx(
        np.trace(m1 @ m2))


def test_matrix_dimension_must_match():
    from ncres.errors import DimensionMismatchError
    bad = np.eye(3)
    with pytest.raises(DimensionMismatchError):
        hom_term(0.0, 2, [(bad, (0, 0), (0, 0), 0.0)], matrix_dim=2)


@pytest.mark.parametrize("atom, matrix_dim, error, match", [
    ((1.0, (0,), (0, 0), 0.0), 1, DimensionMismatchError, "index length"),
    ((1.0, (0, 0), (0, 0, 0), 0.0), 1, DimensionMismatchError,
     "index length"),
    ((1.0, (0, 0), (-1, 1), 0.0), 1, ValueError, "negative"),
    ((1.0, (0, 0), (1, 0), -2.0), 1, ValueError, r"\|alpha\|\+w"),
    ((1.0, (0, 0), (0, 0), 0.0), 2, DimensionMismatchError, "shape"),
])
def test_hom_term_boundary_checks(atom, matrix_dim, error, match):
    valid = (np.eye(2) if matrix_dim == 2 else 1.0, (0, 0), (0, 0), 0.0)
    hom_term(0.0, 2, [valid], matrix_dim)
    with pytest.raises(error, match=match) as info:
        hom_term(0.0, 2, [valid, atom], matrix_dim)
    assert info.type is error


def test_literals_and_sampling_reach_hom_term_checks(monkeypatch):
    # with a negative degree tolerance every atom fails the degree check,
    # so both sources of outside atoms must stop at hom_term
    import ncres.symbols
    monkeypatch.setattr(ncres.symbols, "_DEG_TOL", -1.0)
    from ncres.errors import ConfigError
    with pytest.raises(ConfigError, match=r"\|alpha\|\+w"):
        parse_symbol("xi1 * |xi|^-3", 2)
    with pytest.raises(ValueError, match=r"\|alpha\|\+w"):
        random_symbol(np.random.default_rng(0), n=2)


def test_zero_term_component_lookup():
    sym = classical_symbol([radial_term(-2.0, 2)], 2)
    assert sym.component(-3).is_zero
    assert sym.component(5).is_zero
    assert isinstance(sym.component(-3), type(zero_term(-3, 2)))


# ---------------------------------------------------------------------------
# HomTerm invariant: merged, sorted, nonzero, degree-valid


def _matrix_symbol(sym, rng):
    """``sym`` with each coefficient c replaced by c times a random 2x2."""
    terms = [hom_term(t.degree, t.n,
                      [(c * (rng.normal(size=(2, 2))
                             + 1j * rng.normal(size=(2, 2))), k, a, w)
                       for c, k, a, w in t.atoms], matrix_dim=2)
             for t in sym.terms]
    return classical_symbol(terms, sym.n, order=sym.order, matrix_dim=2)


def _real_symbol(sym):
    """``sym`` with each coefficient c replaced by its real part."""
    terms = [hom_term(t.degree, t.n,
                      [(c.real, k, a, w) for c, k, a, w in t.atoms])
             for t in sym.terms]
    return classical_symbol(terms, sym.n, order=sym.order)


def _sign_symbol(sym, rng):
    """``sym`` with each coefficient replaced by a random real sign: sums
    of such products cancel exactly, and with real coefficients the signed
    zeros of a restarted sum show."""
    terms = [hom_term(t.degree, t.n,
                      [(float(rng.choice([-1, 1])), k, a, w)
                       for c, k, a, w in t.atoms])
             for t in sym.terms]
    return classical_symbol(terms, sym.n, order=sym.order)


def _symbol_pair(seed, kind):
    rng = np.random.default_rng(seed)
    n = 2 + seed % 2
    atoms_per_term = 4 if kind == "signs" else 2
    a = random_symbol(rng, n=n, depth=3, atoms_per_term=atoms_per_term)
    b = random_symbol(rng, n=n, depth=3, atoms_per_term=atoms_per_term)
    if kind == "real":
        a, b = _real_symbol(a), _real_symbol(b)
    elif kind == "matrix":
        a, b = _matrix_symbol(a, rng), _matrix_symbol(b, rng)
    elif kind == "signs":
        a, b = _sign_symbol(a, rng), _sign_symbol(b, rng)
    return a, b


def _assert_invariant(term):
    keys = [(k, a, w) for _, k, a, w in term.atoms]
    assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))
    for c, k, a, w in term.atoms:
        if term.matrix_dim == 1:
            assert type(c) is complex and c != 0
        else:
            assert c.shape == (2, 2) and np.any(c)
        assert sum(a) + w == term.degree


def _assert_same_atoms(t1, t2):
    """Equal keys and bit-identical coefficients, signed zeros included."""
    assert t1.degree == t2.degree and len(t1.atoms) == len(t2.atoms)
    for (c1, *key1), (c2, *key2) in zip(t1.atoms, t2.atoms):
        assert key1 == key2
        assert np.asarray(c1).tobytes() == np.asarray(c2).tobytes()


seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
kinds = st.sampled_from(["complex", "real", "matrix"])


@settings(max_examples=30, deadline=None)
@given(seed=seeds, kind=kinds)
def test_term_operations_keep_invariant(seed, kind):
    a, b = _symbol_pair(seed, kind)
    for t in a.terms:
        _assert_invariant(t)
        _assert_invariant(t.scaled(np.complex128(0.5 - 2j)))
        for i in range(a.n):
            _assert_invariant(t.dx(i))
            _assert_invariant(t.dxi(i))
        for u in b.terms:
            _assert_invariant(t.times(u))
    depth = a.order + b.order + 2
    for sym in (leibniz_compose(a, b, depth), commutator(a, b, depth)):
        for t in sym.terms:
            _assert_invariant(t)


@settings(max_examples=30, deadline=None)
@given(seed=seeds, kind=kinds)
def test_classical_symbol_matches_left_fold(seed, kind):
    a, b = _symbol_pair(seed, kind)
    matrix_dim = a.matrix_dim
    # products share keys across and within degrees, so slots really merge;
    # the first negated copies cancel sums exactly and the second ones restart
    # them, which with real coefficients carries signed zeros
    terms = [t.times(u) for t in a.nonzero_terms() for u in b.nonzero_terms()]
    negated = [t.scaled(-1.0) for t in terms[::3]]
    terms += negated + negated
    order = a.order + b.order
    sym = classical_symbol(terms, a.n, order=order, matrix_dim=matrix_dim)
    for j, slot in enumerate(sym.terms):
        _assert_invariant(slot)
        fold = zero_term(order - j, a.n, matrix_dim)
        for t in terms:
            if t.degree == order - j:
                fold = fold + t
        _assert_same_atoms(slot, fold)


@pytest.mark.parametrize("kind", ["complex", "matrix"])
def test_scaled_by_zero_is_zero_term(kind):
    a, _ = _symbol_pair(4, kind)
    for t in a.nonzero_terms():
        z = t.scaled(0)
        assert z.is_zero and z.degree == t.degree
        assert z.matrix_dim == t.matrix_dim


# ---------------------------------------------------------------------------
# composition against the plain algorithm, bit for bit


def _reference_compose(a, b, depth):
    """a # b the plain way: d^alpha of every stored component, then each
    product as its own term, ``times`` -> ``scaled(pref)``, summed by
    :func:`classical_symbol`."""
    n, top = a.n, a.order + b.order
    floors = []
    if a.exact_floor is not None:
        floors.append(a.exact_floor + b.order)
    if b.exact_floor is not None:
        floors.append(b.exact_floor + a.order)
    trunc = top - depth
    if a.lowest_nonzero is None or b.lowest_nonzero is None:
        return classical_symbol([], n, order=top, matrix_dim=a.matrix_dim)
    if a.exact_floor is None and b.exact_floor is None:
        if b.is_x_independent:
            max_alpha = 0
        elif a.is_xi_polynomial:
            max_alpha = a.max_alpha_total
        else:
            max_alpha = None
        if (max_alpha is None or
                trunc > a.lowest_nonzero + b.lowest_nonzero - max_alpha):
            floors.append(trunc)
    else:
        floors.append(trunc)
    floor = max(floors) if floors else None
    out = []
    for total in range(depth + 1):
        for alpha in multi_indices(n, total):
            # derivatives applied from the last axis to the first, the order
            # in which the derivative tables take them
            da, db = list(a.terms), list(b.terms)
            for axis in reversed(range(n)):
                for _ in range(alpha[axis]):
                    da = [t.dxi(axis) for t in da]
                    db = [t.dx(axis) for t in db]
            pref = (-1j) ** total
            for d in alpha:
                pref /= math.factorial(d)
            for ta in da:
                for tb in db:
                    deg = ta.degree + tb.degree
                    if ta.is_zero or tb.is_zero or deg < trunc or (
                            floor is not None and deg < floor):
                        continue
                    out.append(ta.times(tb).scaled(pref))
    return classical_symbol(out, n, order=top, matrix_dim=a.matrix_dim,
                            exact_floor=floor)


def _assert_same_symbol(s1, s2):
    assert (s1.order, s1.exact_floor, s1.matrix_dim, len(s1.terms)) == \
        (s2.order, s2.exact_floor, s2.matrix_dim, len(s2.terms))
    for t1, t2 in zip(s1.terms, s2.terms):
        _assert_same_atoms(t1, t2)


@pytest.mark.parametrize("kind", ["complex", "real", "matrix", "signs"])
@settings(max_examples=5, deadline=None)
@given(seed=seeds)
def test_compose_matches_reference_bitwise(kind, seed):
    a, b = _symbol_pair(seed, kind)
    top = a.order + b.order
    for depth in (0, 2, 5):
        ab = _reference_compose(a, b, depth)
        comm = ab - _reference_compose(b, a, depth)
        _assert_same_symbol(leibniz_compose(a, b, depth), ab)
        _assert_same_symbol(commutator(a, b, depth), comm)
        # every slot composed alone, and the commutator slot from two of them
        for degree in range(top, top - depth - 1, -1):
            ab_slot = leibniz_component(a, b, degree)
            _assert_same_atoms(ab_slot, ab.component(degree))
            _assert_same_atoms(ab_slot - leibniz_component(b, a, degree),
                               comm.component(degree))


def test_leibniz_component_typed_errors():
    a = laplace_shift_power(2, -1.0, 2)   # exact floor -6
    b = classical_symbol([radial_term(1.0, 2)], 2)
    # a # b has order -1 and is exact down to -6 + 1 = -5
    _assert_same_atoms(leibniz_component(a, b, -5),
                       leibniz_compose(a, b, 4).component(-5))
    with pytest.raises(TruncationFloorError):
        leibniz_compose(a, b, 5).component(-6)
    with pytest.raises(TruncationFloorError):
        leibniz_component(a, b, -6)
    for degree in (-2.5, 0.5):
        with pytest.raises(ValueError, match="ladder"):
            leibniz_component(a, b, degree)
    for degree in (0, 3):
        above = leibniz_component(a, b, degree)
        assert above.is_zero and above.degree == degree and above.n == 2
    with pytest.raises(DimensionMismatchError):
        leibniz_component(a, laplace_shift_power(3, -1.0, 2), -5)
    with pytest.raises(DimensionMismatchError):
        leibniz_component(identity_symbol(2, matrix_dim=2), b, 0)
    with pytest.raises(DimensionMismatchError):
        leibniz_component(a, laplace_shift_power(3, -1.0, 2), 2)
