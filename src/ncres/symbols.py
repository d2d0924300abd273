"""Classical pseudodifferential symbols on the n-torus.

A homogeneous term of degree ``d`` is a finite sum of atoms

    coeff * exp(i<k, x>) * xi^alpha * |xi|^w          (|alpha| + w = d)

with ``k`` an integer frequency vector, ``alpha`` a multi-index and ``w``
real.  This span is closed under x- and xi-derivatives, products and the
asymptotic composition, its x-integral over the torus keeps only the zero
frequency, and its sphere integral reduces to Gaussian monomial moments.
Residue-type functionals built on it therefore carry no quadrature error.
A trigonometric polynomial in x (a term at fixed xi, or a sphere
integral) is the degree-0 term whose atoms have ``alpha = 0`` and
``w = 0``, so one atom type serves both.

Coefficients are complex scalars, or square complex matrices of a common
size for systems; ``trace_part`` contracts the matrix index.

Every :class:`HomTerm` keeps its atoms merged (one atom per key
``(k, alpha, w)``), sorted by key, with no zero coefficient, and
degree-valid (``|alpha| + w == degree``), with canonical types: ``k`` and
``alpha`` tuples of ints, ``w`` a float, coefficients complex or
``(d, d)`` complex arrays.  Atoms from outside (literals, sampling, user
code) are checked and converted once, at :func:`hom_term`.  Operations on
terms build their atoms from canonical atoms, so they merge without
re-checking: ``times``, ``dxi`` and ``+`` create keys and merge them,
:func:`classical_symbol` and :func:`leibniz_compose` fold products and
components into their degree slots with the same merge, and ``scaled``,
``dx`` and ``trace_part`` keep every key and only drop coefficients that
became zero.

A :class:`ClassicalSymbol` is the finite family of homogeneous components
``order, order-1, ...`` together with an *exactness floor*: components at or
above the floor are exactly represented (absent means exactly zero), while
anything below is unknown and may not be read.  Compositions propagate the
floor so that truncation garbage can never leak into a residue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import lgamma
from operator import add, mul

import numpy as np

from .errors import DimensionMismatchError, TruncationFloorError

_DEG_TOL = 1e-9

# ---------------------------------------------------------------------------
# coefficient helpers (complex scalar or square complex matrix)


def _as_matrix(c, matrix_dim):
    a = np.asarray(c, dtype=complex)
    if a.shape != (matrix_dim, matrix_dim):
        raise DimensionMismatchError(
            f"coefficient shape {a.shape} != ({matrix_dim}, {matrix_dim})")
    return a


def _cabs(c):
    if isinstance(c, np.ndarray):
        return float(np.abs(c).sum())
    return abs(c)


def _ctrace(c):
    if isinstance(c, np.ndarray):
        return complex(np.trace(c))
    return c


def _czero(matrix_dim):
    return 0j if matrix_dim == 1 else np.zeros((matrix_dim, matrix_dim), complex)


def _is_zero_coeff(c):
    if isinstance(c, np.ndarray):
        return not np.any(c)
    return c == 0


# ---------------------------------------------------------------------------
# homogeneous terms


@dataclass(frozen=True, eq=False)
class HomTerm:
    """One homogeneous component: finite atom sum of a fixed degree."""

    degree: float
    n: int
    atoms: tuple  # ((coeff, freq, alpha, w), ...)
    matrix_dim: int = 1

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x, xi):
        """Value at (x, xi); positively homogeneous of ``degree`` in xi != 0."""
        return _trig_value(self.evaluate_trig(xi), x)

    def evaluate_trig(self, xi):
        """Freeze xi != 0; return the remaining trigonometric polynomial in
        x, a degree-0 term whose atoms have alpha = 0 and w = 0."""
        xi = np.asarray(xi, dtype=float)
        if xi.shape != (self.n,):
            raise DimensionMismatchError(
                f"xi of shape {xi.shape} for a term in n = {self.n}")
        r = float(np.linalg.norm(xi))
        if r == 0.0:
            raise ValueError("xi must be nonzero")
        flat = (0,) * self.n
        atoms = []
        for c, k, alpha, w in self.atoms:
            mono = 1.0
            for xj, aj in zip(xi, alpha):
                if aj:
                    mono *= float(xj) ** aj
            atoms.append((c * (mono * r ** w), k, flat, 0.0))
        return _merged(0.0, self.n, atoms, self.matrix_dim)

    # -- derivations --------------------------------------------------------

    def dx(self, i):
        return self._same_keys([(c * (1j * k[i]), k, alpha, w)
                                for c, k, alpha, w in self.atoms if k[i]])

    def dxi(self, i):
        atoms = []
        for c, k, alpha, w in self.atoms:
            if alpha[i]:
                lowered = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
                atoms.append((c * alpha[i], k, lowered, w))
            if w:
                raised = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]
                atoms.append((c * w, k, raised, w - 2.0))
        return _merged(self.degree - 1.0, self.n, atoms, self.matrix_dim)

    # -- algebra -------------------------------------------------------------

    def __add__(self, other):
        if (abs(self.degree - other.degree) > _DEG_TOL or self.n != other.n
                or self.matrix_dim != other.matrix_dim):
            raise DimensionMismatchError("terms of unequal degree or dimension")
        return _merged(self.degree, self.n, self.atoms + other.atoms,
                       self.matrix_dim)

    def __sub__(self, other):
        return self + other.scaled(-1.0)

    def scaled(self, z):
        if self.matrix_dim == 1:
            return self._same_keys([(complex(c * z), k, a, w)
                                    for c, k, a, w in self.atoms])
        return self._same_keys([(c * z, k, a, w) for c, k, a, w in self.atoms])

    def _same_keys(self, atoms):
        """A term of this degree from ``atoms``, which carry a subsequence of
        this term's keys: merged, sorted and degree-valid already."""
        return HomTerm(self.degree, self.n,
                       _drop_zeros(atoms, self.matrix_dim), self.matrix_dim)

    def times(self, other):
        """Pointwise product; matrix coefficients multiply in this order."""
        if self.n != other.n or self.matrix_dim != other.matrix_dim:
            raise DimensionMismatchError("incompatible term product")
        return HomTerm(self.degree + other.degree, self.n,
                       _sorted_atoms(_product(self, other), self.matrix_dim),
                       self.matrix_dim)

    def trace_part(self):
        return HomTerm(self.degree, self.n,
                       _drop_zeros([(_ctrace(c), k, a, w)
                                    for c, k, a, w in self.atoms], 1), 1)

    def norm1(self):
        return sum(_cabs(c) for c, *_ in self.atoms)

    @property
    def is_zero(self):
        return not self.atoms

    @property
    def is_xi_polynomial(self):
        return all(w == 0 for _, _, _, w in self.atoms)

    @property
    def is_x_independent(self):
        return all(not any(k) for _, k, _, _ in self.atoms)

    @property
    def max_alpha_total(self):
        return max((sum(a) for _, _, a, _ in self.atoms), default=0)


def hom_term(degree, n, atoms, matrix_dim=1):
    """Build a :class:`HomTerm` from atoms ``(coeff, k, alpha, w)``.

    Each atom is converted to the canonical types and checked: ``k`` and
    ``alpha`` of length ``n``, ``alpha >= 0``, ``|alpha| + w == degree`` and,
    for systems, a ``(matrix_dim, matrix_dim)`` coefficient.  Duplicate keys
    are then summed in input order.
    """
    scalar = matrix_dim == 1
    checked = []
    for c, k, alpha, w in atoms:
        k = tuple(map(int, k))
        alpha = tuple(map(int, alpha))
        w = float(w)
        if len(k) != n or len(alpha) != n:
            raise DimensionMismatchError("atom index length != n")
        if min(alpha, default=0) < 0:
            raise ValueError("negative monomial exponent")
        if abs(sum(alpha) + w - degree) > _DEG_TOL:
            raise ValueError(
                f"atom |alpha|+w = {sum(alpha) + w} != degree {degree}")
        c = complex(c) if scalar else _as_matrix(c, matrix_dim)
        checked.append((c, k, alpha, w))
    return _merged(float(degree), n, checked, matrix_dim)


def _merge_into(merged, atoms, fold=False):
    """Sum canonical atoms ``(coeff, k, alpha, w)`` into ``merged``, a dict
    from key ``(k, alpha, w)`` to coefficient, in input order.

    With ``fold=True`` the atoms come from merged terms ``t1, t2, ...`` and
    every sum comes out bit for bit as in the left fold ``t1 + t2 + ...``:
    a sum that cancels exactly is dropped there, so the next atom of its key
    restarts it instead of adding to 0.
    """
    get = merged.get
    for c, k, alpha, w in atoms:
        key = (k, alpha, w)
        prev = get(key)
        if prev is None or (fold and _is_zero_coeff(prev)):
            merged[key] = c
        else:
            merged[key] = prev + c
    return merged


def _sorted_atoms(merged, matrix_dim):
    """The atoms of a merged dict, sorted by key, zero coefficients dropped."""
    return _drop_zeros([(c, k, a, w) for (k, a, w), c in sorted(merged.items())],
                       matrix_dim)


def _merged(degree, n, atoms, matrix_dim):
    """A term from canonical, degree-valid atoms, merged without checks."""
    return HomTerm(degree, n, _sorted_atoms(_merge_into({}, atoms), matrix_dim),
                   matrix_dim)


def _product(t1, t2):
    """The merged dict of the atom products of ``t1`` and ``t2``."""
    cmul = mul if t1.matrix_dim == 1 else np.matmul
    return _merge_into({}, [(cmul(c1, c2), tuple(map(add, k1, k2)),
                             tuple(map(add, a1, a2)), w1 + w2)
                            for c1, k1, a1, w1 in t1.atoms
                            for c2, k2, a2, w2 in t2.atoms])


def _trig_value(trig, x):
    """Value at x of a trigonometric polynomial (alpha = 0, w = 0)."""
    x = np.asarray(x, dtype=float)
    out = _czero(trig.matrix_dim)
    for c, k, _, _ in trig.atoms:
        out = out + c * np.exp(1j * float(np.dot(k, x)))
    return out


def zero_term(degree, n, matrix_dim=1):
    return HomTerm(float(degree), n, (), matrix_dim)


def _drop_zeros(atoms, matrix_dim):
    if matrix_dim == 1:
        return tuple(atom for atom in atoms if atom[0] != 0)
    return tuple(atom for atom in atoms if np.any(atom[0]))


def radial_term(degree, n, coeff=1.0):
    """The term coeff * |xi|^degree."""
    return hom_term(degree, n, [(coeff, (0,) * n, (0,) * n, float(degree))])


# ---------------------------------------------------------------------------
# classical symbols


@dataclass(frozen=True, eq=False)
class ClassicalSymbol:
    """Finite list of homogeneous components with an exactness floor.

    ``terms[j]`` holds the component of degree ``order - j``.  When
    ``exact_floor`` is None the symbol *is* the stored finite sum (all other
    components vanish identically); otherwise only components of degree
    >= ``exact_floor`` may be read.
    """

    order: int
    n: int
    terms: tuple  # HomTerm slots, degree order - j
    matrix_dim: int = 1
    exact_floor: float | None = None

    @property
    def floor_value(self):
        return -math.inf if self.exact_floor is None else self.exact_floor

    @property
    def truncation(self):
        return len(self.terms) - 1

    @property
    def lowest_nonzero(self):
        degs = [t.degree for t in self.terms if not t.is_zero]
        return min(degs) if degs else None

    def component(self, degree):
        """Homogeneous component of the given degree.

        Degrees above the order are exactly zero; degrees below the
        exactness floor raise :class:`TruncationFloorError`.
        """
        if degree < self.floor_value - _DEG_TOL:
            raise TruncationFloorError(
                f"component {degree} below exactness floor {self.exact_floor}")
        j = self.order - degree
        jr = round(j)
        if abs(j - jr) > _DEG_TOL or jr < 0 or jr > self.truncation:
            return zero_term(degree, self.n, self.matrix_dim)
        return self.terms[jr]

    def nonzero_terms(self):
        return [t for t in self.terms if not t.is_zero]

    # -- algebra -------------------------------------------------------------

    def __add__(self, other):
        if self.n != other.n or self.matrix_dim != other.matrix_dim:
            raise DimensionMismatchError("incompatible symbols")
        floor = max(self.floor_value, other.floor_value)
        # components below the joint floor are unreadable; drop them
        terms = [t for t in self.terms + other.terms
                 if not t.is_zero and t.degree >= floor - _DEG_TOL]
        order = max(self.order, other.order)
        return classical_symbol(terms, self.n, order=order,
                                matrix_dim=self.matrix_dim,
                                exact_floor=None if floor == -math.inf else floor)

    def __sub__(self, other):
        return self + other.scaled(-1.0)

    def scaled(self, z):
        return ClassicalSymbol(self.order, self.n,
                               tuple(t.scaled(z) for t in self.terms),
                               self.matrix_dim, self.exact_floor)

    def dx(self, i):
        return ClassicalSymbol(self.order, self.n,
                               tuple(t.dx(i) for t in self.terms),
                               self.matrix_dim, self.exact_floor)

    def dxi(self, i):
        floor = None if self.exact_floor is None else self.exact_floor - 1
        return ClassicalSymbol(self.order - 1, self.n,
                               tuple(t.dxi(i) for t in self.terms),
                               self.matrix_dim, floor)

    def eval(self, x, xi):
        """Sum of the stored components at (x, xi)."""
        out = _czero(self.matrix_dim)
        for t in self.nonzero_terms():
            out = out + t(x, xi)
        return out

    def trace_part(self):
        return ClassicalSymbol(self.order, self.n,
                               tuple(t.trace_part() for t in self.terms), 1,
                               self.exact_floor)

    def norm1(self):
        return sum(t.norm1() for t in self.terms)

    @property
    def is_xi_polynomial(self):
        return all(t.is_xi_polynomial for t in self.terms)

    @property
    def is_x_independent(self):
        return all(t.is_x_independent for t in self.terms)

    @property
    def max_alpha_total(self):
        return max((t.max_alpha_total for t in self.terms), default=0)


def classical_symbol(terms, n, order=None, matrix_dim=1, exact_floor=None):
    """Arrange homogeneous terms into a :class:`ClassicalSymbol`.

    Degrees must sit on the integer ladder ``order - j``; duplicate degrees
    are summed, absent ones stored as empty components.
    """
    terms = [t for t in terms if not t.is_zero]
    if order is None:
        if not terms:
            raise ValueError("order needed for an all-zero symbol")
        order = max(t.degree for t in terms)
    if abs(order - round(order)) > _DEG_TOL:
        raise ValueError(f"symbol order must be an integer, got {order}")
    order = int(round(order))
    for t in terms:
        j = order - t.degree
        if abs(j - round(j)) > _DEG_TOL or t.degree > order + _DEG_TOL:
            raise ValueError(
                f"term degree {t.degree} not on the ladder below order {order}")
        if t.n != n or t.matrix_dim != matrix_dim:
            raise DimensionMismatchError("term dimension mismatch")
    if exact_floor is not None and exact_floor > min(
            (int(round(t.degree)) for t in terms), default=order):
        raise ValueError("exactness floor above a stored term")
    # the sums of the left fold zero + t1 + t2 + ... in each slot
    slots = {}
    for t in terms:
        _merge_into(slots.setdefault(int(round(order - t.degree)), {}),
                    t.atoms, fold=True)
    return _ladder_symbol(order, n, slots, matrix_dim, exact_floor)


def _ladder_symbol(order, n, slots, matrix_dim, exact_floor):
    """The symbol whose component of degree ``order - j`` is the merged
    dict ``slots[j]``; components run down to the lowest filled slot and to
    the exactness floor, and absent ones are zero."""
    depth = max(slots, default=0)
    if exact_floor is not None:
        depth = max(depth, int(math.ceil(order - exact_floor - _DEG_TOL)))
    return ClassicalSymbol(order, n, tuple(
        HomTerm(float(order - j), n,
                _sorted_atoms(slots.get(j, {}), matrix_dim), matrix_dim)
        for j in range(depth + 1)), matrix_dim, exact_floor)


def identity_symbol(n, matrix_dim=1):
    c = 1.0 if matrix_dim == 1 else np.eye(matrix_dim)
    return classical_symbol(
        [hom_term(0.0, n, [(c, (0,) * n, (0,) * n, 0.0)], matrix_dim)], n)


def laplace_shift_power(n, exponent, depth):
    """Symbol of (1 - Delta)^exponent on the n-torus: the binomial expansion
    of (1 + |xi|^2)^exponent into degrees 2*exponent - 2j, j <= depth.

    2*exponent must be an integer.  The result's exactness floor is the
    lowest expanded degree (the series continues below it), except for
    nonnegative integer exponents where the expansion terminates.
    """
    order = 2.0 * exponent
    if abs(order - round(order)) > _DEG_TOL:
        raise ValueError("2*exponent must be an integer")
    terminates = exponent >= 0 and abs(exponent - round(exponent)) < _DEG_TOL
    if terminates:
        depth = min(depth, int(round(exponent)))
    terms = []
    for j in range(depth + 1):
        c = _gen_binom(exponent, j)
        terms.append(radial_term(order - 2 * j, n, c))
    floor = None if terminates else order - 2 * depth
    return classical_symbol(terms, n, order=int(round(order)),
                            exact_floor=floor)


def _gen_binom(e, j):
    out = 1.0
    for i in range(j):
        out *= (e - i) / (i + 1)
    return out


# ---------------------------------------------------------------------------
# composition (Leibniz product)


def multi_indices(n, total):
    """All multi-indices of length n summing to ``total`` (lexicographic)."""
    if n == 1:
        return [(total,)]
    out = []
    for first in range(total, -1, -1):
        for rest in multi_indices(n - 1, total - first):
            out.append((first,) + rest)
    return out


def _derivative_table(sym, maxlen, kind):
    """d^alpha of the stored components, for |alpha| <= maxlen.

    Level |alpha| keeps the components j <= maxlen - |alpha| only: a
    composition product of d^alpha of component j has degree at most
    ``top - j - |alpha|``, so the others fall below ``top - maxlen``.
    """
    n = sym.n
    table = {(0,) * n: list(sym.terms[:maxlen + 1])}
    for total in range(1, maxlen + 1):
        for alpha in multi_indices(n, total):
            i = next(idx for idx, a in enumerate(alpha) if a > 0)
            prev = table[alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]]
            prev = prev[:maxlen - total + 1]
            if kind == "xi":
                table[alpha] = [t.dxi(i) for t in prev]
            else:
                table[alpha] = [t.dx(i) for t in prev]
    return table


def leibniz_compose(a, b, depth):
    """Asymptotic composition a # b, exact on degrees above
    ``a.order + b.order - depth - 1``.

    Each computed component receives its full (finite) set of
    xi-derivative/x-derivative contributions

        sum_alpha (-i)^|alpha| / alpha!  d_xi^alpha a  d_x^alpha b ,

    so the result is bilinear and exactly the composed expansion on the
    computed range; the exactness floor records what may be read.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    return _leibniz(a, b, depth)


def leibniz_component(a, b, degree):
    """``leibniz_compose(a, b, a.order + b.order - degree).component(degree)``
    bit for bit (zero above the order, ValueError off the integer ladder),
    composing only the products of that degree."""
    top = a.order + b.order
    depth = round(top - degree)
    if abs(top - degree - depth) > _DEG_TOL:
        raise ValueError(f"degree {degree} off the ladder below {top}")
    return _leibniz(a, b, depth, lowest=True).component(degree)


def _leibniz(a, b, depth, lowest=False):
    """:func:`leibniz_compose`; with ``lowest``, its slot ``depth`` only."""
    if a.n != b.n or a.matrix_dim != b.matrix_dim:
        raise DimensionMismatchError("composition of incompatible symbols")
    n = a.n
    top = a.order + b.order
    floors = []
    if a.exact_floor is not None:
        floors.append(a.exact_floor + b.order)
    if b.exact_floor is not None:
        floors.append(b.exact_floor + a.order)
    trunc = top - depth
    low_a, low_b = a.lowest_nonzero, b.lowest_nonzero
    if low_a is None or low_b is None:
        return classical_symbol([], n, order=top, matrix_dim=a.matrix_dim)
    if a.exact_floor is None and b.exact_floor is None:
        if b.is_x_independent:
            max_alpha = 0
        elif a.is_xi_polynomial:
            max_alpha = a.max_alpha_total
        else:
            max_alpha = None
        if max_alpha is None or trunc > low_a + low_b - max_alpha:
            floors.append(trunc)
    else:
        floors.append(trunc)
    floor = max(floors) if floors else None

    da = _derivative_table(a, depth, "xi")
    db = _derivative_table(b, depth, "x")
    fact = [math.factorial(i) for i in range(depth + 1)]
    # each product is merged, scaled and folded straight into its slot, with
    # the sums of classical_symbol over the scaled product terms
    slots = {}
    for total in range(depth + 1):
        for alpha in multi_indices(n, total):
            pref = (-1j) ** total
            for d in alpha:
                pref /= fact[d]
            for ta in da[alpha]:
                if ta.is_zero:
                    continue
                for tb in db[alpha]:
                    if tb.is_zero:
                        continue
                    deg = ta.degree + tb.degree
                    if deg < trunc - _DEG_TOL or (
                            lowest and deg > trunc + _DEG_TOL):
                        continue
                    if floor is not None and deg < floor - _DEG_TOL:
                        continue
                    atoms = _drop_zeros(
                        [(c * pref, k, al, w)
                         for (k, al, w), c in _product(ta, tb).items()],
                        a.matrix_dim)
                    if atoms:
                        _merge_into(slots.setdefault(round(top - deg), {}),
                                    atoms, fold=True)
    return _ladder_symbol(top, n, slots, a.matrix_dim, floor)


def commutator(a, b, depth):
    """a # b - b # a at the given composition depth."""
    return leibniz_compose(a, b, depth) - leibniz_compose(b, a, depth)


# ---------------------------------------------------------------------------
# transmission condition


@dataclass(frozen=True)
class TransmissionReport:
    ok: bool
    violation: tuple | None  # (degree, alpha', k) of the first failure
    max_defect: float

    def __bool__(self):
        return self.ok


def transmission_check(p):
    """Parity check at the boundary fiber.

    For every stored component of integer degree j and every derivative
    budget k + |alpha'| <= 2, compares

        d_{x_n}^k d_{xi'}^alpha' p_j(x', 0, 0, +1)
        against  (-1)^(j - |alpha'|) * (same at xi_n = -1)

    as trigonometric polynomials in x', to 1e-8 times 1 + the symbol's
    norm.  Returns a report with the first violating (j, alpha', k) if any.
    """
    n = p.n
    if n < 2:
        raise DimensionMismatchError("transmission check needs n >= 2")
    plus = np.zeros(n)
    plus[-1] = 1.0
    minus = -plus
    worst = 0.0
    violation = None
    scale = 1.0 + p.norm1()
    for term in p.terms:
        if term.is_zero:
            continue
        j = int(round(term.degree))
        base = term
        for k in range(3):
            if k:
                base = base.dx(n - 1)
            for atot in range(3 - k):
                for alpha_p in multi_indices(n - 1, atot):
                    q = base
                    for axis, reps in enumerate(alpha_p):
                        for _ in range(reps):
                            q = q.dxi(axis)
                    tp = _at_boundary(q.evaluate_trig(plus))
                    tm = _at_boundary(q.evaluate_trig(minus))
                    sign = (-1.0) ** (j - atot)
                    defect = max((_cabs(c) for c, *_ in
                                  (tp - tm.scaled(sign)).atoms), default=0.0)
                    if defect > worst:
                        worst = defect
                    if defect > 1e-8 * scale and violation is None:
                        violation = (j, alpha_p, k)
    return TransmissionReport(violation is None, violation, worst)


def _at_boundary(trig):
    """Set x_n = 0 in a trigonometric polynomial (every phase becomes 1)
    and drop the variable."""
    return _merged(0.0, trig.n - 1, [(c, k[:-1], a[:-1], w)
                                     for c, k, a, w in trig.atoms],
                   trig.matrix_dim)


# ---------------------------------------------------------------------------
# sphere integration


def sphere_moment(alpha, n):
    """Exact monomial moment  int_{S^{n-1}} xi^alpha dsigma(xi).

    Zero when any entry of alpha is odd; for alpha = 2*beta the value is
    2 * prod_i Gamma(beta_i + 1/2) / Gamma(|beta| + n/2).
    """
    if any(a % 2 for a in alpha):
        return 0.0
    beta = [a // 2 for a in alpha]
    val = sum(lgamma(b + 0.5) for b in beta) - lgamma(sum(beta) + 0.5 * n)
    return 2.0 * math.exp(val)


def sphere_integrate(term, n):
    """Integrate a homogeneous term over the unit sphere S^{n-1}.

    The result is the remaining trigonometric polynomial in x, a degree-0
    term whose atoms have alpha = 0 and w = 0.  S^0 is the two points +-1;
    for n >= 2, |xi|^w = 1 on the sphere and every atom reduces to a
    monomial moment.
    """
    if n < 1 or term.n != n:
        raise DimensionMismatchError("term dimension != n")
    if n == 1:
        return term.evaluate_trig((1.0,)) + term.evaluate_trig((-1.0,))
    flat = (0,) * n
    return _merged(0.0, n, [(c * sphere_moment(a, n), k, flat, 0.0)
                            for c, k, a, _ in term.atoms], term.matrix_dim)
