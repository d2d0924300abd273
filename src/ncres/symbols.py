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

Every :class:`HomTerm` keeps its atoms merged (one atom per key
``(k, alpha, w)``), sorted by key, with no zero coefficient, and
degree-valid (``|alpha| + w == degree``), with canonical types: ``k`` and
``alpha`` tuples of ints, ``w`` a float, and the coefficient a complex
scalar.  Atoms from outside (literals, sampling, user code) are checked and
converted once, at :func:`hom_term`.  Operations on terms build their atoms
from canonical atoms, so they merge without re-checking: ``times``, ``dxi``
and ``+`` create keys and merge them, :func:`classical_symbol` and
:func:`leibniz_compose` fold products and components into their degree
slots with the same merge, and ``scaled`` and ``dx`` keep every key and
only drop coefficients that became zero.

A :class:`ClassicalSymbol` is the finite family of homogeneous components
``order, order-1, ...`` together with an *exactness floor*: components at or
above the floor are exactly represented (absent means exactly zero), while
anything below is unknown and may not be read.  Compositions propagate the
floor so that truncation garbage can never leak into a residue.

A reader of one composed component asks :func:`leibniz_component` for that
degree alone, and a torus residue, which reads only the x-mean, for its
zero-frequency atoms alone: each atom then meets only the partner atoms
whose frequency cancels its own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from math import lgamma
from operator import add

from .errors import (DimensionMismatchError, ResourceCapError,
                     TruncationFloorError, sci)

_DEG_TOL = 1e-9

# ---------------------------------------------------------------------------
# homogeneous terms


@dataclass(frozen=True, eq=False)
class HomTerm:
    """One homogeneous component: finite atom sum of a fixed degree."""

    degree: float
    n: int
    atoms: tuple  # ((coeff, freq, alpha, w), ...)

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x, xi):
        """Value at (x, xi); positively homogeneous of ``degree`` in xi != 0."""
        return _trig_value(self.evaluate_trig(xi), x)

    def evaluate_trig(self, xi):
        """Freeze xi != 0; return the remaining trigonometric polynomial in
        x, a degree-0 term whose atoms have alpha = 0 and w = 0."""
        try:
            xi = tuple(map(float, xi))
        except TypeError:   # not a sequence of numbers
            xi = ()
        if len(xi) != self.n:
            raise DimensionMismatchError(
                f"xi is not a vector of length n = {self.n}")
        r = math.hypot(*xi)
        if r == 0.0:
            raise ValueError("xi must be nonzero")
        flat = (0,) * self.n
        atoms = []
        for c, k, alpha, w in self.atoms:
            mono = 1.0
            for xj, aj in zip(xi, alpha):
                if aj:
                    mono *= xj ** aj
            atoms.append((c * (mono * r ** w), k, flat, 0.0))
        return _merged(0.0, self.n, atoms)

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
        return _merged(self.degree - 1.0, self.n, atoms)

    # -- algebra -------------------------------------------------------------

    def __add__(self, other):
        if abs(self.degree - other.degree) > _DEG_TOL or self.n != other.n:
            raise DimensionMismatchError("terms of unequal degree or dimension")
        return _merged(self.degree, self.n, self.atoms + other.atoms)

    def __sub__(self, other):
        return self + other.scaled(-1.0)

    def scaled(self, z):
        return self._same_keys([(complex(c * z), k, a, w)
                                for c, k, a, w in self.atoms])

    def _same_keys(self, atoms):
        """A term of this degree from ``atoms``, which carry a subsequence of
        this term's keys: merged, sorted and degree-valid already."""
        return HomTerm(self.degree, self.n, _drop_zeros(atoms))

    def times(self, other):
        """Pointwise product."""
        if self.n != other.n:
            raise DimensionMismatchError("incompatible term product")
        return HomTerm(self.degree + other.degree, self.n,
                       _sorted_atoms(_product(self, other)))

    def norm1(self):
        return sum(abs(c) for c, *_ in self.atoms)

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


def hom_term(degree, n, atoms):
    """Build a :class:`HomTerm` from atoms ``(coeff, k, alpha, w)``.

    Each atom is converted to the canonical types and checked: ``k`` and
    ``alpha`` of length ``n``, ``alpha >= 0``, ``|alpha| + w == degree`` and
    a complex scalar coefficient.  Duplicate keys are then summed in input
    order.
    """
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
        try:
            c = complex(c)
        except TypeError:
            kind = type(c).__name__
            if hasattr(c, "shape"):
                kind += f" of shape {c.shape}"
            raise DimensionMismatchError(
                f"coefficients are complex scalars, not {kind}") from None
        checked.append((c, k, alpha, w))
    return _merged(float(degree), n, checked)


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
        if prev is None or (fold and prev == 0):
            merged[key] = c
        else:
            merged[key] = prev + c
    return merged


def _sorted_atoms(merged):
    """The atoms of a merged dict, sorted by key, zero coefficients dropped."""
    return _drop_zeros([(c, k, a, w) for (k, a, w), c in sorted(merged.items())])


def _merged(degree, n, atoms):
    """A term from canonical, degree-valid atoms, merged without checks."""
    return HomTerm(degree, n, _sorted_atoms(_merge_into({}, atoms)))


def _product(t1, t2):
    """The merged dict of the atom products of ``t1`` and ``t2``."""
    return _merge_into({}, [(c1 * c2, tuple(map(add, k1, k2)),
                             tuple(map(add, a1, a2)), w1 + w2)
                            for c1, k1, a1, w1 in t1.atoms
                            for c2, k2, a2, w2 in t2.atoms])


def _mean_product(t1, t2):
    """The zero-frequency keys of :func:`_product`, bit for bit: each atom
    of ``t1`` meets only the atoms of ``t2`` whose frequency cancels its
    own, in the same order."""
    partners = {}
    for c2, k2, a2, w2 in t2.atoms:
        partners.setdefault(tuple(-v for v in k2), []).append((c2, a2, w2))
    zero = (0,) * t1.n
    return _merge_into({}, [(c1 * c2, zero, tuple(map(add, a1, a2)), w1 + w2)
                            for c1, k1, a1, w1 in t1.atoms
                            for c2, a2, w2 in partners.get(k1, ())])


def _trig_value(trig, x):
    """Value at x of a trigonometric polynomial (alpha = 0, w = 0)."""
    import numpy as np
    x = np.asarray(x, dtype=float)
    return sum((c * np.exp(1j * float(np.dot(k, x)))
                for c, k, _, _ in trig.atoms), 0j)


def zero_term(degree, n):
    return HomTerm(float(degree), n, ())


def _drop_zeros(atoms):
    return tuple(atom for atom in atoms if atom[0] != 0)


# the largest order of a symbol that a document states, and the most
# homogeneous components it may store (its order minus its lowest stored
# degree, plus one).  In dim 3 the parametric task composes down to degree
# -3 at a cost that grows about like the order to the sixth (a shifted
# Laplacian power: 0.47 s at order 19, 0.93 s at 21, 4.4 s at 29), while a
# stored component costs it about 20 us (19 ms for 1025 components).  A
# negative order is not capped: every component then lies below degree
# -3, where the residue and the composition find nothing to do
ORDER_CAP = 20
COMPONENT_CAP = 1024


def check_symbol_cap(order, components, order_entry=(), components_entry=()):
    """Raise :class:`ResourceCapError` before a symbol is built: at
    ``order_entry`` when order passes ``ORDER_CAP``, else at
    ``components_entry`` when it would store more than ``COMPONENT_CAP``
    components.  Ints are compared exactly, so no size overflows.  An
    infinite order is no size but a fault that the builder reports."""
    if ORDER_CAP < order != math.inf:
        raise ResourceCapError(f"symbol order {sci(order)} is past the cap "
                               f"{ORDER_CAP}", order_entry)
    if not components <= COMPONENT_CAP:
        raise ResourceCapError(f"~{sci(components)} symbol components exceed"
                               f" the cap {COMPONENT_CAP}", components_entry)


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
            return zero_term(degree, self.n)
        return self.terms[jr]

    def nonzero_terms(self):
        return [t for t in self.terms if not t.is_zero]

    # -- algebra -------------------------------------------------------------

    def __add__(self, other):
        if self.n != other.n:
            raise DimensionMismatchError("incompatible symbols")
        floor = max(self.floor_value, other.floor_value)
        # components below the joint floor are unreadable; drop them
        terms = [t for t in self.terms + other.terms
                 if not t.is_zero and t.degree >= floor - _DEG_TOL]
        order = max(self.order, other.order)
        return classical_symbol(terms, self.n, order=order,
                                exact_floor=None if floor == -math.inf else floor)

    def __sub__(self, other):
        return self + other.scaled(-1.0)

    def scaled(self, z):
        return ClassicalSymbol(self.order, self.n,
                               tuple(t.scaled(z) for t in self.terms),
                               self.exact_floor)

    def dx(self, i):
        return ClassicalSymbol(self.order, self.n,
                               tuple(t.dx(i) for t in self.terms),
                               self.exact_floor)

    def dxi(self, i):
        floor = None if self.exact_floor is None else self.exact_floor - 1
        return ClassicalSymbol(self.order - 1, self.n,
                               tuple(t.dxi(i) for t in self.terms), floor)

    def eval(self, x, xi):
        """Sum of the stored components at (x, xi)."""
        return sum((t(x, xi) for t in self.nonzero_terms()), 0j)

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


def classical_symbol(terms, n, order=None, exact_floor=None):
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
        # a degree above the order is refused before the difference is
        # taken, which overflows for an int order past the float range
        if t.degree - _DEG_TOL > order or abs(
                (j := order - t.degree) - round(j)) > _DEG_TOL:
            raise ValueError(
                f"term degree {t.degree} not on the ladder below order {order}")
        if t.n != n:
            raise DimensionMismatchError("term dimension mismatch")
    if exact_floor is not None and exact_floor > min(
            (int(round(t.degree)) for t in terms), default=order):
        raise ValueError("exactness floor above a stored term")
    # the sums of the left fold zero + t1 + t2 + ... in each slot
    slots = {}
    for t in terms:
        _merge_into(slots.setdefault(int(round(order - t.degree)), {}),
                    t.atoms, fold=True)
    return _ladder_symbol(order, n, slots, exact_floor)


def _ladder_symbol(order, n, slots, exact_floor):
    """The symbol whose component of degree ``order - j`` is the merged
    dict ``slots[j]``; components run down to the lowest filled slot and to
    the exactness floor, and absent ones are zero."""
    depth = max(slots, default=0)
    if exact_floor is not None:
        depth = max(depth, int(math.ceil(order - exact_floor - _DEG_TOL)))
    return ClassicalSymbol(order, n, tuple(
        HomTerm(float(order - j), n, _sorted_atoms(slots.get(j, {})))
        for j in range(depth + 1)), exact_floor)


def identity_symbol(n):
    return classical_symbol([radial_term(0.0, n)], n)


def laplace_shift_power(n, exponent, depth, shift=1.0):
    """Symbol of (shift - Delta)^exponent on the n-torus: the binomial
    expansion of (shift + |xi|^2)^exponent into degrees 2*exponent - 2j,
    j <= depth, with coefficients binom(exponent, j) * shift^j.

    2*exponent must be an integer (a finite one: an exponent past half the
    largest float is refused too).  The result's exactness floor is the
    lowest expanded degree (the series continues below it), except for a
    nonnegative integer exponent of at most ``depth``, where the expansion
    terminates and the symbol is exact.  An order 2*exponent or ``depth``
    past :func:`check_symbol_cap` raises :class:`ResourceCapError` at the
    entry ``exponent`` or ``depth``.
    """
    # 2 * exponent stays exact for an int of any size
    check_symbol_cap(2 * exponent, depth + 1, ("exponent",), ("depth",))
    try:
        order = 2.0 * exponent
    except OverflowError:   # an int past the float range
        order = math.inf
    if not math.isfinite(order) or abs(order - round(order)) > _DEG_TOL:
        raise ValueError("2*exponent must be an integer")
    terminates = (exponent >= 0 and abs(exponent - round(exponent)) < _DEG_TOL
                  and depth >= round(exponent))
    if terminates:
        depth = int(round(exponent))
    # binom(exponent, j) as the running product of (exponent - i) / (i + 1)
    terms = []
    c = 1.0
    for j in range(depth + 1):
        if j:
            c *= (exponent - (j - 1)) / j
        terms.append(radial_term(order - 2 * j, n, c * shift ** j))
    floor = None if terminates else order - 2 * depth
    return classical_symbol(terms, n, order=int(round(order)),
                            exact_floor=floor)


# ---------------------------------------------------------------------------
# composition (Leibniz product)


@functools.cache
def multi_indices(n, total):
    """All multi-indices of length n summing to ``total`` (lexicographic),
    as a tuple built once per argument pair."""
    if n == 1:
        return ((total,),)
    return tuple((first,) + rest for first in range(total, -1, -1)
                 for rest in multi_indices(n - 1, total - first))


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


def leibniz_component(a, b, degree, mean=False):
    """``leibniz_compose(a, b, a.order + b.order - degree).component(degree)``
    bit for bit (zero above the order, ValueError off the integer ladder),
    composing only the products of that degree.

    With ``mean``, only the zero-frequency atoms of that component, the
    x-mean that a torus residue reads; they too are bit for bit those of
    the full component, since merges act per key and a key carries its
    frequency.  Other readers (a cylinder reads every normal frequency)
    need the full component.
    """
    top = a.order + b.order
    depth = round(top - degree)
    if abs(top - degree - depth) > _DEG_TOL:
        raise ValueError(f"degree {degree} off the ladder below {top}")
    return _leibniz(a, b, depth, lowest=True, mean=mean).component(degree)


def _leibniz(a, b, depth, lowest=False, mean=False):
    """:func:`leibniz_compose`; with ``lowest``, its slot ``depth`` only,
    and with ``mean`` as well, that slot's zero-frequency atoms only."""
    if a.n != b.n:
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
        return classical_symbol([], n, order=top)
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
    product = _mean_product if mean else _product
    # each product is merged, scaled and folded straight into its slot, with
    # the sums of classical_symbol over the scaled product terms
    slots = {}
    for total in range(depth + 1):
        for alpha in multi_indices(n, total):
            pref = (-1j) ** total
            for d in alpha:
                pref /= fact[d]
            das, dbs = da[alpha], db[alpha]
            if lowest:
                # component j of d^alpha a meets the one component of
                # d^alpha b that lands in slot depth: depth - |alpha| - j
                pairs = [(ta, dbs[depth - total - j])
                         for j, ta in enumerate(das)
                         if depth - total - j < len(dbs)]
            else:
                pairs = [(ta, tb) for ta in das for tb in dbs]
            for ta, tb in pairs:
                if ta.is_zero or tb.is_zero:
                    continue
                deg = ta.degree + tb.degree
                if deg < trunc - _DEG_TOL:
                    continue
                if floor is not None and deg < floor - _DEG_TOL:
                    continue
                atoms = _drop_zeros(
                    [(c * pref, k, al, w)
                     for (k, al, w), c in product(ta, tb).items()])
                if atoms:
                    _merge_into(slots.setdefault(round(top - deg), {}),
                                atoms, fold=True)
    return _ladder_symbol(top, n, slots, floor)


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
    plus = (0.0,) * (n - 1) + (1.0,)
    minus = tuple(-v for v in plus)
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
                    defect = max((abs(c) for c, *_ in
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
                                     for c, k, a, w in trig.atoms])


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
                            for c, k, a, _ in term.atoms])
