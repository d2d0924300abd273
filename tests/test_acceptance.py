"""Acceptance gate: one test per advertised criterion, pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion; the same checks back the command line's verify task.
The cylinder heat-trace criterion is marked slow but stays well inside its
budget here.
"""

import numpy as np
import pytest

from ncres import verify
from ncres.residue import TWO_PI, Torus, wodzicki_residue
from ncres.sampling import random_symbol
from ncres.symbols import commutator, identity_symbol, leibniz_compose


def _report(result):
    print(result.line())
    assert result.passed, result.line()


def test_criterion_01_residue_closed_form():
    _report(verify.check_residue_closed_form())


def test_criterion_02_trace_property():
    _report(verify.check_trace_property(seed=0))


def _full_route_log_coefficient(p, a, k):
    """resolvent_log_coefficient through the whole composition p # (-1)^k."""
    n = p.n
    group = identity_symbol(n, a.matrix_dim).scaled((-1.0) ** k)
    composed = leibniz_compose(p, group, max(p.order + n, 0))
    return TWO_PI ** (-n) * wodzicki_residue(composed, Torus(n)) / a.order


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_criteria_02_08_match_full_composition_bitwise(seed, monkeypatch):
    # criteria 02 and 08 compose only the degree -2 slot that the residue
    # reads; each residue they take equals the full-composition one bit for
    # bit, and so do criterion 02's value and criterion 08's worst deviation
    rng = np.random.default_rng(seed)
    full, worst = [], 0.0
    for _ in range(100):
        a = random_symbol(rng, n=2, max_order=2, depth=5)
        b = random_symbol(rng, n=2, max_order=2, depth=5)
        full.append(wodzicki_residue(commutator(a, b, a.order + b.order + 2),
                                     Torus(2)))
        worst = max(worst, abs(full[-1]) / (1.0 + a.norm1() * b.norm1()))
    seen = []

    def recorded(sym, geo):
        seen.append(wodzicki_residue(sym, geo))
        return seen[-1]

    monkeypatch.setattr(verify, "wodzicki_residue", recorded)
    value = verify.check_trace_property(seed=seed).value
    assert np.array(seen).tobytes() == np.array(full).tobytes()
    assert np.float64(value).tobytes() == np.float64(worst).tobytes()
    monkeypatch.undo()

    worst_08 = verify.check_parametric_routes(seed=seed).value
    component_route = verify.resolvent_log_coefficient

    def both_routes(p, a, k):
        got = component_route(p, a, k)
        want = _full_route_log_coefficient(p, a, k)
        assert np.complex128(got).tobytes() == np.complex128(want).tobytes()
        return want

    monkeypatch.setattr(verify, "resolvent_log_coefficient", both_routes)
    full_08 = verify.check_parametric_routes(seed=seed).value
    assert np.float64(worst_08).tobytes() == np.float64(full_08).tobytes()


def test_criterion_03_boundary_algebra():
    _report(verify.check_boundary_algebra(seed=0))


def test_criterion_04_connes_identity():
    _report(verify.check_connes_identity())


def test_criterion_05_boundary_dixmier():
    _report(verify.check_boundary_dixmier())


def test_criterion_06_heat_log_coefficient():
    _report(verify.check_heat_log_coefficient())


def test_criterion_07_zeta_residues():
    _report(verify.check_zeta_residues())


def test_criterion_08_parametric_routes():
    _report(verify.check_parametric_routes(seed=0))


@pytest.mark.slow
def test_criterion_09_boundary_heat():
    _report(verify.check_boundary_heat())


def test_criterion_10_determinism():
    _report(verify.check_determinism())
