"""Text form for symbol literals.

A symbol literal is a sum of atoms separated by top-level ``+``/``-``;
an atom is a ``*``-separated product of factors, each one of

    <number>              complex coefficient, python syntax: 2, -1.5, 3j, (1+2j)
    exp(i*(k1,...,kn).x)  trigonometric factor, integer frequencies
    xi1, xi2^3, ...       covector monomial factors (1-based axis)
    xi^(a1,...,an)        full multi-index form
    |xi|^w                radial factor, w real (may be negative)

Every atom's homogeneity degree is |alpha| + w; atoms are grouped by degree
automatically.  Examples::

    |xi|^-2
    xi1^2 * |xi|^-4 + 0.5 * exp(i*(1,0).x) * xi2 * |xi|^-2
    (1+2j) * xi^(2,1) * |xi|^-3

The same grammar, with n = 1 frequencies/monomials, serves boundary symbols.
"""

from __future__ import annotations

import math
import re

from .symbols import check_symbol_cap, classical_symbol, hom_term

_EXP_RE = re.compile(r"^exp\(\s*i\s*\*\s*[\(\[]([^\)\]]*)[\)\]]\s*\.\s*x\s*\)$")
_XI_RE = re.compile(r"^xi(\d+)(?:\^(\d+))?$")
_XIVEC_RE = re.compile(r"^xi\^[\(\[]([^\)\]]*)[\)\]]$")
_RAD_RE = re.compile(r"^\|xi\|\^([+-]?[0-9.]+)$")


def _split_signed(expr):
    """Split on top-level +/- into (sign, part) pairs, honoring nesting."""
    out = []
    depth = 0
    sign = "+"
    cur = []
    for ch in expr:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if depth == 0 and ch in "+-" and cur and cur[-1] not in "eE*^(,":
            out.append((sign, "".join(cur).strip()))
            sign = ch
            cur = []
        elif depth == 0 and ch in "+-" and not cur:
            sign = "-" if (sign != ch) and "-" in (sign, ch) else "+"
        else:
            cur.append(ch)
    if cur:
        out.append((sign, "".join(cur).strip()))
    return out


def _split_factors(expr):
    out = []
    depth = 0
    cur = []
    for ch in expr:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if depth == 0 and ch == "*" and cur:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur).strip())
    return out


def _parse_int_tuple(body, n, what):
    items = [s.strip() for s in body.split(",") if s.strip()]
    if len(items) != n:
        raise ValueError(f"{what} needs {n} entries, got {len(items)}")
    try:
        return tuple(int(s) for s in items)
    except ValueError as exc:
        raise ValueError(f"bad integer in {what}: {body!r}") from exc


def parse_atom(text, n):
    """One atom -> (coeff, freq, alpha, w)."""
    coeff = 1 + 0j
    freq = [0] * n
    alpha = [0] * n
    w = 0.0
    for factor in _split_factors(text):
        if not factor:
            raise ValueError(f"empty factor in atom {text!r}")
        m = _EXP_RE.match(factor)
        if m:
            k = _parse_int_tuple(m.group(1), n, "frequency")
            freq = [a + b for a, b in zip(freq, k)]
            continue
        m = _XIVEC_RE.match(factor)
        if m:
            a = _parse_int_tuple(m.group(1), n, "multi-index")
            if any(v < 0 for v in a):
                raise ValueError(f"negative monomial exponent in {factor!r}")
            alpha = [x + y for x, y in zip(alpha, a)]
            continue
        m = _XI_RE.match(factor)
        if m:
            axis = int(m.group(1))
            if not 1 <= axis <= n:
                raise ValueError(f"xi axis {axis} out of range 1..{n}")
            alpha[axis - 1] += int(m.group(2) or 1)
            continue
        m = _RAD_RE.match(factor)
        if m:
            try:
                w += float(m.group(1))
            except ValueError as exc:
                raise ValueError(
                    f"bad radial exponent in {factor!r}") from exc
            if not math.isfinite(w):
                raise ValueError(f"radial exponent in {factor!r} passes "
                                 f"the float range")
            continue
        try:
            coeff *= complex(factor.replace(" ", ""))
        except ValueError as exc:
            raise ValueError(
                f"unrecognized factor {factor!r} in atom {text!r}") from exc
    return coeff, tuple(freq), tuple(alpha), w


def parse_symbol(text, n, order=None, exact_floor=None):
    """Parse a symbol literal into a :class:`ClassicalSymbol`; a literal
    outside the grammar, or an ``order`` or ``exact_floor`` its atoms do
    not fit, raises :class:`ValueError`.  A symbol past the caps of
    :func:`check_symbol_cap` raises :class:`ResourceCapError` before it is
    built, at the entry ``order`` or ``exact_floor`` where that sets it,
    else at none (the literal)."""
    if not text.strip():
        raise ValueError("empty symbol literal")
    atoms = []
    for sign, part in _split_signed(text.strip()):
        c, k, a, w = parse_atom(part, n)
        if sign == "-":
            c = -c
        atoms.append((c, k, a, w))
    by_degree = {}
    for c, k, a, w in atoms:
        by_degree.setdefault(sum(a) + w, []).append((c, k, a, w))
    top = max(by_degree) if order is None else order
    low = min(by_degree)
    floored = exact_floor is not None and exact_floor < low
    bottom = exact_floor if floored else low
    try:
        span = top - bottom + 1
    except OverflowError:   # an int past the float range beside a float
        span = math.inf if top > bottom else 0
    check_symbol_cap(top, span, () if order is None else ("order",),
                     ("exact_floor",) if floored else ())
    terms = [hom_term(d, n, lst) for d, lst in sorted(by_degree.items())]
    return classical_symbol(terms, n, order=order, exact_floor=exact_floor)


def format_symbol(sym):
    """Render a symbol back into the literal grammar (one atom per '+')."""
    parts = []
    for term in sym.terms:
        for c, k, a, w in term.atoms:
            factors = []
            if c != 1:
                r = repr(c)
                factors.append(r if r.startswith("(") else f"({r})")
            if any(k):
                factors.append("exp(i*(%s).x)" % ",".join(str(v) for v in k))
            for axis, av in enumerate(a):
                if av:
                    factors.append(f"xi{axis + 1}" + (f"^{av}" if av > 1 else ""))
            if w:
                factors.append(f"|xi|^{w:g}")
            parts.append(" * ".join(factors) if factors else "1")
    return " + ".join(parts) if parts else "0"
