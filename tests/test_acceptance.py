"""Acceptance gate: every advertised criterion at its pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion; the same checks back the command line's verify task,
which runs all ten.  Each criterion is a list of legs, one per comparison:
a failure names the legs that failed, and each defect below must fail
exactly the legs that it names.
"""

import dataclasses
import importlib
import itertools
import math

import numpy as np
import pytest

from ncres import verify
from ncres.residue import TWO_PI, Torus, wodzicki_residue
from ncres.sampling import random_symbol
from ncres.symbols import commutator, identity_symbol, leibniz_compose, \
    zero_term
from ncres.verify import CheckResult, Leg


def _failed(result):
    return {leg.name for leg in result.legs if not leg.passed}


@pytest.mark.parametrize(
    "check", verify.ALL_CHECKS,
    ids=[f"{i:02d}_{fn.__name__[len('check_'):]}"
         for i, fn in enumerate(verify.ALL_CHECKS, 1)])
def test_criterion(check):
    result = check()
    print(result.line())
    assert not _failed(result), f"failed legs {sorted(_failed(result))}: " \
        f"{result.line()}"


def test_leg_verdicts():
    for kind in ("rel", "abs", "exact"):
        assert not Leg("nan value", math.nan, 1.0, kind, 1.0).passed
        assert not Leg("nan expected", 1.0, math.nan, kind, 1.0).passed
    # an error equal to the tolerance passes; 'rel' divides by |expected|
    assert Leg("rel", 1.5, 1.0, "rel", 0.5).passed
    assert Leg("rel", 1.5, -1.0, "rel", 2.5).passed
    assert not Leg("rel", 1.5, -1.0, "rel", 2.4).passed
    assert Leg("abs", 3.0, 1.0, "abs", 2.0).passed
    assert not Leg("abs", 3.0, 1.0, "abs", 1.999).passed
    assert Leg("exact", 0.5 + 0j, 0.5, "exact").passed
    assert not Leg("exact", 0.5, 0.5 + 1e-16j, "exact", 1e300).passed
    good, bad = Leg("a", 2.0, 2.0, "exact"), Leg("b", 1.0, 2.0, "exact")
    for legs, passed in (([good, good], True), ([good, bad], False),
                         ([bad, good], False)):
        result = CheckResult("c", "t", legs)
        assert result.passed is passed
        assert result.line().startswith("[PASS]" if passed else "[FAIL]")
    # the headline is the first leg
    result = CheckResult("c", "t", [bad, good])
    assert (result.value, result.expected) == (1.0, 2.0)


def _times(fn, z, field=None):
    """``fn`` with its result, or that result's ``field``, times ``z``."""
    def defect(*args, **kwargs):
        out = fn(*args, **kwargs)
        if field is None:
            return out * z
        return dataclasses.replace(out, **{field: getattr(out, field) * z})
    return defect


def _counting(fn):
    """``fn`` whose output ends in the number of its calls so far."""
    calls = itertools.count()
    return lambda *args: fn(*args) + str(next(calls)).encode()


# (check, the callee it reads, the defect made of that callee, the legs
# that must fail)
DEFECTS = [
    ("check_residue_closed_form", "wodzicki_residue",
     lambda f: _times(f, 1.01), {"n=2", "n=3"}),
    ("check_trace_property", "leibniz_component",
     lambda f: lambda a, b, d, mean=False: zero_term(d, a.n),
     {"empty products"}),
    ("check_boundary_algebra", "pi_prime", lambda f: lambda h: -f(h),
     {"half"}),
    # each Dixmier leg reads its expected value off dixmier_formula of the
    # weight's operator, through residue.dixmier_reference; the cylinder's
    # slope sits 2.97% from 1.03 pi/2, past its 0.5% gate
    ("check_connes_identity", "residue.dixmier_formula",
     lambda f: _times(f, 1.03), {"estimate"}),
    ("check_boundary_dixmier", "residue.dixmier_formula",
     lambda f: _times(f, 1.03), {"cylinder", "circles"}),
    ("check_heat_log_coefficient", "heat_samples",
     lambda f: _times(f, 1.1, "values"), {"ln t"}),
    ("check_zeta_residues", "zeta_residue",
     lambda f: _times(f, 1.015, "residue"), {"s=1"}),
    ("check_parametric_routes", "heat_log_coefficient_from_resolvent",
     lambda f: _times(f, 1.01), {"residue loop"}),
    ("check_boundary_heat", "boundary_heat_test",
     lambda f: _times(f, 1.1, "log_coefficient"), {"ln t"}),
    ("check_determinism", "heat_csv", _counting, {"two runs"}),
]
DEFECT_IDS = [d[0] for d in DEFECTS]

# a mean that drops every product while the full slot keeps its own: the
# commutator reads 0, and only the check against the full slot sees it
DEFECTS.append(
    ("check_trace_property", "leibniz_component",
     lambda f: lambda a, b, d, mean=False:
     zero_term(d, a.n) if mean else f(a, b, d), {"empty products"}))
DEFECT_IDS.append("check_trace_property-empty-mean")

# the green term's Dixmier trace is verify's own call of dixmier_formula
DEFECTS.append(
    ("check_boundary_dixmier", "dixmier_formula", lambda f: _times(f, 1.03),
     {"green"}))
DEFECT_IDS.append("check_boundary_dixmier-green")

# the heat and zeta legs read their expected values off boundary_residue of
# the weight's operator, through residue.zeta_reference
DEFECTS.append(
    ("check_zeta_residues", "residue.boundary_residue",
     lambda f: _times(f, 1.03, "total"), {"s=1", "s=0"}))
DEFECT_IDS.append("check_zeta_residues-derived")


@pytest.mark.parametrize("check, callee, defect, failed", DEFECTS,
                         ids=DEFECT_IDS)
def test_defect_fails_its_legs(monkeypatch, check, callee, defect, failed):
    # a callee that verify reads, or "module.name" of another ncres module
    owner, _, name = callee.rpartition(".")
    module = importlib.import_module(f"ncres.{owner}") if owner else verify
    monkeypatch.setattr(module, name, defect(getattr(module, name)))
    assert _failed(getattr(verify, check)()) == failed


def _full_route_log_coefficient(p, a, k):
    """resolvent_log_coefficient through the whole composition p # (-1)^k."""
    n = p.n
    group = identity_symbol(n).scaled((-1.0) ** k)
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
