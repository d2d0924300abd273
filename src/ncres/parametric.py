"""Logarithmic coefficients of traced resolvent powers.

For an elliptic auxiliary symbol ``a`` of order m, the resolvent power
expands as

    (a - mu^m)^(-k) = (-1)^k mu^(-mk) (1 - a/mu^m)^(-k)
                    = (-1)^k sum_i binom(k-1+i, i) a^i mu^(-m(k+i)).

The coefficient of mu^(-mk) ln mu in the kernel expansion of
p # (a - mu^m)^(-k) comes from the i = 0 term alone, (-1)^k times the
identity: it is (2pi)^(-n) times the residue of p # (-1)^k.  Against
lambda = mu^m (ln lambda = m ln mu) the lambda^(-k) ln lambda coefficient
is that value over m.  Two routes to it are provided: the composition
route, which builds p # (-1)^k with the Leibniz product and reads its
residue, and the closed form

    (2pi)^(-n) (-1)^k / m * int int p_{-n} sigma dx ,

which is manifestly independent of the auxiliary symbol.
"""

from __future__ import annotations

from .errors import GradingError, TruncationFloorError, naming
from .residue import TWO_PI, Torus, wodzicki_residue
from .symbols import identity_symbol, leibniz_component


def _check_auxiliary_order(ord_a):
    # the expansion in powers of a / mu^m needs an elliptic a of order m > 0
    if ord_a <= 0:
        raise GradingError(f"auxiliary symbol order {ord_a} is not positive",
                           ("a",))


def resolvent_log_coefficient_closed(p, ord_a, k):
    """Closed form for the ln lambda coefficient of the traced k-th
    resolvent power:  (2pi)^(-n) (-1)^k / ord_a * int int p_{-n} sigma dx.

    Depends on the auxiliary operator only through its order, which must
    be positive (:class:`GradingError` otherwise)."""
    _check_auxiliary_order(ord_a)
    n = p.n
    with naming(("p",), TruncationFloorError):
        res = wodzicki_residue(p, Torus(n))
    return TWO_PI ** (-n) * ((-1.0) ** k / ord_a) * res


def resolvent_log_coefficient(p, a, k):
    """Composition route to the same ln lambda coefficient.

    Composes ``p`` with the i = 0 term (-1)^k of the resolvent power of
    ``a``, keeping only the x-mean of the degree -n slot, all that the
    torus residue reads, and returns (2pi)^(-n) res(p # (-1)^k) / ord a;
    an ``a`` of order <= 0 raises :class:`GradingError`.
    """
    if k < 1:
        raise ValueError("resolvent power k must be >= 1")
    _check_auxiliary_order(a.order)
    n = p.n
    group = identity_symbol(n).scaled((-1.0) ** k)
    with naming(("p",), TruncationFloorError):
        composed = leibniz_component(p, group, -n, mean=True)
    return TWO_PI ** (-n) * wodzicki_residue(composed, Torus(n)) / a.order


def heat_log_coefficient_from_resolvent(value, k):
    """Convert the lambda-level ln coefficient of the k-th resolvent power
    into the ln t coefficient of the semigroup trace.

    The contour identities linking the two expansions contribute universal
    factors only; for the leading log they amount to a sign (-1)^(k+1), so
    the semigroup coefficient is k-independent as it must be.
    """
    return (-1.0) ** (k + 1) * value
