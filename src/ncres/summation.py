"""Deterministic compensated summation with fixed chunking.

Large lattice sums are split into chunks whose boundaries depend only on the
problem size.  Each chunk is reduced with numpy's pairwise summation, and the
per-chunk partials are combined in chunk order with a Neumaier-compensated
accumulator, so a given problem always rounds the same way and its output
bytes are reproducible.  Reductions run serially: on the hosts measured,
worker threads gave no speed-up.
"""

from __future__ import annotations

import numpy as np

DEFAULT_CHUNK = 1 << 18


def chunk_slices(n, chunk=DEFAULT_CHUNK):
    """Fixed [lo, hi) partition of range(n)."""
    return [(lo, min(lo + chunk, n)) for lo in range(0, max(n, 0), chunk)]


def _combine_vectors(parts):
    # Neumaier over chunk index, vectorised over the payload axis.
    s = np.zeros_like(parts[0])
    c = np.zeros_like(parts[0])
    for v in parts:
        t = s + v
        big = np.abs(s) >= np.abs(v)
        c += np.where(big, (s - t) + v, (v - t) + s)
        s = t
    return s + c


def chunked_sum(fn, n, chunk=DEFAULT_CHUNK):
    """Deterministic reduction of ``sum(fn(lo, hi) for fixed chunks)``.

    ``fn(lo, hi)`` returns a 1-D array (e.g. one value per sample time); the
    chunk partials are combined in chunk order with compensation.  An empty
    range reduces ``fn(0, 0)``.
    """
    parts = [np.asarray(fn(lo, hi), dtype=float)
             for lo, hi in chunk_slices(n, chunk) or [(0, 0)]]
    return _combine_vectors(parts)
