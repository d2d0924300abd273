"""Resolvent-power expansions and their logarithmic coefficients.

For an elliptic auxiliary symbol ``a`` of order m, the resolvent power

    (a - mu^m)^(-k) = (-1)^k mu^(-mk) (1 - a/mu^m)^(-k)
                    = (-1)^k sum_i binom(k-1+i, i) a^i mu^(-m(k+i))

is stored as a finite list of (mu exponent, coefficient symbol) groups; the
pointwise powers a^i stay inside the exact symbol span, and the mu exponent
rides along as inert metadata through compositions.  The coefficient of
mu^(d-kk) ln mu in the kernel expansion of a composed family is then the
sphere integral of a single stored component, which here reduces to picking
the (homogeneity -n, mu exponent d-kk) group: exactly the Taylor-coefficient
prescription (1/kk!) d^kk_z (z^d p_j(x, xi, 1/z)) |_{z=0} for pure powers.

Two independent routes to the ln lambda coefficient of the traced resolvent
power are provided: the expansion route above and the closed form

    (2pi)^(-n) (-1)^k / m * int int p_{-n} sigma dx ,

which is manifestly independent of the auxiliary symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import MissingComponentError
from .residue import TWO_PI, wodzicki_residue
from .symbols import identity_symbol, leibniz_compose, sphere_integrate


@dataclass(frozen=True, eq=False)
class WPTermList:
    """Finite (mu exponent -> coefficient symbol) family of one resolvent
    power; ``levels`` counts the retained powers of a/mu^m."""

    groups: tuple  # ((mu_exp, ClassicalSymbol), ...) descending mu_exp
    aux_order: int
    power: int
    levels: int
    n: int

    def group(self, mu_exp):
        for e, sym in self.groups:
            if e == mu_exp:
                return sym
        raise MissingComponentError(f"no stored group at mu^{mu_exp}")

    def eval(self, x, xi, mu):
        out = 0j
        for e, sym in self.groups:
            out += mu ** e * sym.eval(x, xi)
        return out


def expand_resolvent(a, m, k, levels=10):
    """Expand (a - mu^m)^(-k) into mu-exponent groups.

    ``a`` must be the exact symbol of order m (elliptic model: leading term
    |xi|^m times an invertible constant).  The evaluation of the result
    matches the scalar resolvent power to a relative error of order
    (|a|/|mu|^m)^levels, so about 1e-6 already at |mu| >= 4 |a|^(1/m) with
    ten levels.
    """
    if a.order != m:
        raise ValueError(f"auxiliary symbol order {a.order} != {m}")
    if k < 1:
        raise ValueError("resolvent power k must be >= 1")
    sign = (-1.0) ** k
    groups = []
    power = identity_symbol(a.n, a.matrix_dim)
    for i in range(levels):
        coeff = sign * math.comb(k - 1 + i, i)
        groups.append((-m * (k + i), power.scaled(coeff)))
        if i < levels - 1:
            power = power.pointwise(a)
    return WPTermList(tuple(groups), m, k, levels, a.n)


def mu_derivative(terms):
    """Differentiate the family in lambda = mu^m at the term level.

    Each group c * mu^e maps to (e/m) c * mu^(e-m); by the resolvent
    identity the result equals k times the (k+1)-power expansion.
    """
    m = terms.aux_order
    groups = tuple((e - m, sym.scaled(e / m)) for e, sym in terms.groups)
    return WPTermList(groups, m, terms.power + 1, terms.levels, terms.n)


def compose_with(p, terms, depth):
    """Compose a mu-independent symbol with the family, group by group.

    The Leibniz derivatives act on the (x, xi) factors only; mu exponents
    are untouched metadata.
    """
    groups = tuple((e, leibniz_compose(p, sym, depth))
                   for e, sym in terms.groups)
    return WPTermList(groups, terms.aux_order, terms.power, terms.levels,
                      terms.n)


def wp_log_coefficient(terms, d, kk, x_integrate=True, geometry=None):
    """Coefficient of mu^(d-kk) ln mu in the kernel expansion of ``terms``.

    Picks the stored group with mu exponent d - kk, sphere-integrates its
    homogeneity -n component and multiplies by (2pi)^(-n).  With
    ``x_integrate`` the x-average is taken over the geometry (default: the
    defining torus); otherwise the local density (a trig polynomial) is
    returned.
    """
    n = terms.n
    sym = terms.group(d - kk)
    comp = sym.component(-n).trace_part()
    tp = sphere_integrate(comp, n)
    if not x_integrate:
        return tp.scaled(TWO_PI ** (-n))
    if geometry is None:
        from .residue import Torus
        geometry = Torus(n)
    return TWO_PI ** (-n) * geometry.interior_integral(tp)


def resolvent_log_coefficient_closed(p, ord_a, k):
    """Closed form for the ln lambda coefficient of the traced k-th
    resolvent power:  (2pi)^(-n) (-1)^k / ord_a * int int p_{-n} sigma dx.

    Depends on the auxiliary operator only through its order."""
    from .residue import Torus
    n = p.n
    res = wodzicki_residue(p, Torus(n))
    return TWO_PI ** (-n) * ((-1.0) ** k / ord_a) * res


def resolvent_log_coefficient(p, a, k, depth=None):
    """Expansion route to the same ln lambda coefficient.

    Expands the resolvent power of ``a``, composes with ``p``, extracts the
    mu^(-mk) ln mu coefficient and converts to the lambda normalization
    (ln lambda = m ln mu against lambda^-k = mu^-mk leaves a net 1/m).
    Only the i = 0 group is read, so only that one is built.
    """
    m = a.order
    n = p.n
    if depth is None:
        # the read group has order 0, so p # group needs degree -n exact
        depth = max(p.order + n, 0)
    terms = expand_resolvent(a, m, k, levels=1)
    composed = compose_with(p, terms, depth)
    d = -m * k
    c_mu = wp_log_coefficient(composed, d, 0)
    return c_mu / m


def heat_log_coefficient_from_resolvent(value, k):
    """Convert the lambda-level ln coefficient of the k-th resolvent power
    into the ln t coefficient of the semigroup trace.

    The contour identities linking the two expansions contribute universal
    factors only; for the leading log they amount to a sign (-1)^(k+1), so
    the semigroup coefficient is k-independent as it must be.
    """
    return (-1.0) ** (k + 1) * value
