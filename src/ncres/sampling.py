"""Seeded random inputs for property tests and the verification suite."""

from __future__ import annotations

from .halfline import rational, sg_symbol
from .symbols import classical_symbol, hom_term


def _random_coeff(rng):
    return complex(rng.normal(), rng.normal())


def random_symbol(rng, n=2, max_order=2, depth=5, atoms_per_term=2,
                  freq_range=1):
    """Exact finite symbol with components on degrees order .. order-depth."""
    order = int(rng.integers(0, max_order + 1))
    terms = []
    for j in range(depth + 1):
        degree = order - j
        atoms = []
        for _ in range(atoms_per_term):
            alpha_total = int(rng.integers(0, 3))
            alpha = [0] * n
            for _ in range(alpha_total):
                alpha[int(rng.integers(0, n))] += 1
            w = degree - alpha_total
            k = tuple(int(v) for v in
                      rng.integers(-freq_range, freq_range + 1, size=n))
            atoms.append((_random_coeff(rng), k, tuple(alpha), float(w)))
        terms.append(hom_term(float(degree), n, atoms))
    return classical_symbol(terms, n, order=order)


def random_plus_fn(rng):
    """Random member of the plus space: proper, 1-2 poles above the axis."""
    npoles = int(rng.integers(1, 3))
    terms = []
    for _ in range(npoles):
        pole = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2.5))
        terms.append((pole, 1, _random_coeff(rng)))
    return rational((), terms)


def random_minus_fn(rng, type_d=0):
    """Random member of the minus space of type d, with 1-2 lower poles."""
    npoles = int(rng.integers(1, 3))
    terms = []
    for _ in range(npoles):
        pole = complex(rng.uniform(-2, 2), -rng.uniform(0.5, 2.5))
        terms.append((pole, 1, _random_coeff(rng)))
    poly = []
    if type_d > 0 and rng.random() < 0.7:
        poly = [_random_coeff(rng) for _ in range(int(rng.integers(1, type_d + 1)))]
    return rational(poly, terms)


def random_sg(rng):
    """Random type-0 singular Green fiber symbol of rank 1 or 2."""
    pairs = [(random_plus_fn(rng), random_minus_fn(rng))
             for _ in range(int(rng.integers(1, 3)))]
    return sg_symbol(pairs)
