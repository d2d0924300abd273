"""Command line: config validation, artifacts, exit codes, determinism."""

import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ncres import cli, spectral
from ncres.cli import main
from ncres.config import SCHEMA, build_bdm, build_rational, config_hash
from ncres.errors import (ConfigError, DimensionMismatchError,
                          GradingError, NcresError, RealPoleError,
                          TransmissionError, TruncationFloorError)
from ncres.halfline import rational
from ncres.literals import parse_symbol
from ncres.parametric import (resolvent_log_coefficient,
                              resolvent_log_coefficient_closed)
from ncres.residue import (BdMSymbol, Cylinder, Torus, boundary_residue,
                           dixmier_formula)
from ncres.symbols import COMPONENT_CAP, ORDER_CAP, laplace_shift_power

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"


def run(args):
    return main([str(a) for a in args])


def test_residue_packaged_example(tmp_path, capsys):
    code = run(["residue", "--config", CONFIGS / "residue_torus.json",
                "--out", tmp_path])
    out = capsys.readouterr().out
    assert code == 0
    assert "248.050213" in out            # 8 pi^3
    csv = (tmp_path / "residue.csv").read_text()
    assert "config_sha256=" in csv
    assert "ncres 0.1.0" in csv
    total = [l for l in csv.splitlines() if l.startswith("total")][0]
    assert float(total.split(",")[1]) == pytest.approx(8 * math.pi ** 3)


def test_residue_cylinder_blocks(tmp_path, capsys):
    code = run(["residue", "--config", CONFIGS / "residue_cylinder_green.json",
                "--out", tmp_path])
    assert code == 0
    rows = {}
    for line in (tmp_path / "residue.csv").read_text().splitlines():
        if line.startswith("#") or line.startswith("block"):
            continue
        name, re, im = line.split(",")
        rows[name] = float(re)
    assert rows["interior"] == pytest.approx(4 * math.pi ** 3)
    assert rows["green"] == pytest.approx(8 * math.pi ** 2)
    assert rows["boundary_pdo"] == pytest.approx(16 * math.pi ** 2)
    assert rows["total"] == pytest.approx(
        4 * math.pi ** 3 + 24 * math.pi ** 2)


def test_parametric_subcommand(tmp_path, capsys):
    code = run(["parametric", "--config",
                CONFIGS / "parametric_resolvent.json", "--out", tmp_path])
    out = capsys.readouterr().out
    assert code == 0
    assert "difference" in out or "difference" in \
        (tmp_path / "parametric.txt").read_text()
    txt = (tmp_path / "parametric.txt").read_text()
    assert "3.14159" in txt


def test_parametric_dim_one(tmp_path):
    cfg = tmp_path / "p1.json"
    cfg.write_text(json.dumps({
        "task": "parametric",
        "parametric": {
            "dim": 1,
            "p": {"literal": "|xi|^-1 + 0.5 * exp(i*(1).x) * |xi|^-1"
                             " + xi1 * |xi|^-2"},
            "a": {"literal": "|xi|^2", "order": 2},
            "power": 3}}))
    assert run(["parametric", "--config", cfg, "--out", tmp_path]) == 0
    rows = {}
    for line in (tmp_path / "parametric.csv").read_text().splitlines():
        if line.startswith("#") or line.startswith("route"):
            continue
        name, re, im = line.split(",")
        rows[name] = complex(float(re), float(im))
    # (2 pi)^-1 (-1)^3 / 2 * (1 + 1) * 2 pi: the two-point rule at xi = +-1
    assert rows["closed_form"] == pytest.approx(-1.0)
    assert rows["expansion_route"] == rows["closed_form"]


def test_dixmier_subcommand(tmp_path):
    code = run(["dixmier", "--config", CONFIGS / "dixmier_torus.json",
                "--out", tmp_path])
    assert code == 0
    head = (tmp_path / "dixmier.csv").read_text().splitlines()[:12]
    slope_line = [l for l in head if l.startswith("# slope=")][0]
    slope = float(slope_line.split("=")[1])
    assert slope == pytest.approx(math.pi, rel=5e-3)


def test_dixmier_copies_triple_the_slope(tmp_path):
    slopes = {}
    for copies in (1, 3):
        out = tmp_path / f"c{copies}"
        code = run(["dixmier", "--config", CONFIGS / "dixmier_torus.json",
                    "--out", out, "--set", "dixmier.model.cutoff=300",
                    "--set", f"dixmier.model.copies={copies}"])
        assert code == 0
        text = (out / "dixmier.csv").read_text()
        slopes[copies] = float(text.split("# slope=")[1].split("\n")[0])
    assert slopes[3] == pytest.approx(3 * slopes[1], rel=1e-3)


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"task": "residue"')          # syntax error
    assert run(["residue", "--config", bad]) == 2
    err = capsys.readouterr().err
    assert "1:" in err                             # line-precise location
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"task": "residue"}))
    assert run(["residue", "--config", bad2]) == 2  # missing section
    bad3 = tmp_path / "bad3.json"
    bad3.write_text(json.dumps({
        "task": "residue",
        "residue": {"geometry": {"kind": "moebius", "dim": 2}}}))
    assert run(["residue", "--config", bad3]) == 2
    err = capsys.readouterr().err
    assert "kind" in err
    bad4 = tmp_path / "bad4.json"
    bad4.write_text("[1, 2]")                     # not an object
    assert run(["residue", "--config", bad4, "--set", "seed=1"]) == 2
    assert "bad4.json" in capsys.readouterr().err


def _one_config_error_line(capsys):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err
    return err[0]


def test_bad_radial_exponent_exit_code(tmp_path, capsys):
    code = run(["residue", "--config", CONFIGS / "residue_torus.json",
                "--out", tmp_path,
                "--set", 'residue.p={"literal": "|xi|^-1.2.3"}'])
    assert code == 2
    assert "|xi|^-1.2.3" in _one_config_error_line(capsys)
    assert not (tmp_path / "residue.csv").exists()


@pytest.mark.parametrize("task, cfgfile, key", [
    ("residue", "residue_torus.json", "residue.p"),
    ("parametric", "parametric_resolvent.json", "parametric.p"),
    ("parametric", "parametric_resolvent.json", "parametric.a")])
@pytest.mark.parametrize("exponent", [0.25, 1e308])
def test_shifted_laplacian_exponent_exit_code(tmp_path, capsys, task, cfgfile,
                                              key, exponent):
    # 2*exponent off the integers (1e308 doubles to inf) is a fault of the
    # document at the exponent's key
    power = {"exponent": exponent, "depth": 2}
    code = run([task, "--config", CONFIGS / cfgfile, "--out", tmp_path,
                "--set", f"{key}=" + json.dumps(
                    {"shifted_laplacian_power": power})])
    assert code == 2
    where = key.replace(".", "/") + "/shifted_laplacian_power/exponent"
    assert (f"at {where}: 2*exponent must be an integer"
            in _one_config_error_line(capsys))
    assert not (tmp_path / f"{task}.csv").exists()


def test_shifted_laplacian_exponent_keeps_its_type_for_library_callers():
    for exponent in (0.25, 1e308):
        with pytest.raises(ValueError, match="2\\*exponent"):
            laplace_shift_power(2, exponent, 2)


@pytest.mark.parametrize("literal", ["|xi|^0", "|xi|^-2"])
def test_auxiliary_order_not_positive_exit_code(tmp_path, capsys, literal):
    # the resolvent expansion needs an auxiliary symbol of positive order;
    # order 0 divided by zero, order -2 gave a quiet -pi
    code = run(["parametric", "--config",
                CONFIGS / "parametric_resolvent.json", "--out", tmp_path,
                "--set", "parametric.a=" + json.dumps({"literal": literal})])
    assert code == 2
    order = literal.partition("^")[2]
    assert (f"at parametric/a: auxiliary symbol order {order} is not "
            f"positive" in _one_config_error_line(capsys))
    assert not (tmp_path / "parametric.csv").exists()


def test_auxiliary_order_keeps_its_type_for_library_callers():
    p = laplace_shift_power(2, -1.0, 2)
    for literal in ("|xi|^0", "|xi|^-2"):
        a = parse_symbol(literal, 2)
        with pytest.raises(GradingError, match="not positive") as info:
            resolvent_log_coefficient(p, a, 2)
        assert info.value.entry == ("a",)
        with pytest.raises(GradingError, match="not positive"):
            resolvent_log_coefficient_closed(p, a.order, 2)


def test_read_below_floor_names_p_for_library_callers():
    # the residue, the closed form and the composition route each read p
    # at degree -2, below its floor
    p = parse_symbol("|xi|^-1", 2, exact_floor=-1)
    a = parse_symbol("|xi|^2", 2)
    for read in (lambda: boundary_residue(BdMSymbol(Torus(2), p=p)),
                 lambda: resolvent_log_coefficient_closed(p, a.order, 1),
                 lambda: resolvent_log_coefficient(p, a, 1)):
        with pytest.raises(TruncationFloorError, match="floor -1") as info:
            read()
        assert info.value.entry == ("p",)


def _edited(tmp_path, name, path, value):
    """The demo document ``name`` with ``value`` at ``path`` (keys and list
    indices), written to a file."""
    cfg = json.loads((CONFIGS / name).read_text())
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    doc = tmp_path / name
    doc.write_text(json.dumps(cfg, indent=1))
    return doc


_SLP = {"exponent": -1.0, "depth": 2}
_UPPER = {"poles": [{"pole": [0, 1]}]}
FORM_ERRORS = [
    ("residue_cylinder_green.json", ("residue", "potential"),
     [{"degree": -1, "b": "|xi|^-1"}], "residue/potential/0"),
    ("residue_cylinder_green.json", ("residue", "trace"),
     [{"degree": -1, "b": "|xi|^-1"}], "residue/trace/0"),
    ("residue_cylinder_green.json", ("residue", "green", 0),
     {"degree": -2, "b": "|xi|^-2", "fiber": _UPPER}, "residue/green/0"),
    ("residue_torus.json", ("residue", "p"),
     {"shifted_laplacian_power": _SLP, "literal": "|xi|^-2"}, "residue/p"),
    ("residue_torus.json", ("residue", "p"),
     {"shifted_laplacian_power": _SLP, "order": 7, "exact_floor": 3},
     "residue/p"),
    ("parametric_resolvent.json", ("parametric", "p"),
     {"shifted_laplacian_power": _SLP, "exact_floor": 3}, "parametric/p"),
    ("residue_cylinder_green.json", ("residue", "green", 0, "pairs", 0, "k"),
     {"num": [1], "den": [[0, -1], 1], **_UPPER},
     "residue/green/0/pairs/0/k"),
    ("residue_cylinder_green.json", ("residue", "green", 0, "pairs", 0, "t"),
     {"poly": [1], "num": [1], "den": [[0, 1], 1]},
     "residue/green/0/pairs/0/t")]


@pytest.mark.parametrize("name, path, value, where", FORM_ERRORS,
                         ids=["potential-no-fiber", "trace-no-fiber",
                              "green-fiber-no-pairs", "power-and-literal",
                              "power-and-order", "parametric-power-and-floor",
                              "num-den-refused-beside-poles",
                              "num-den-refused-beside-poly"])
def test_two_forms_or_a_missing_part_exit_code(tmp_path, capsys, name, path,
                                               value, where):
    # a term or function with two forms, or without the part its kind
    # reads, is refused; no form is silently ignored
    task = name.partition("_")[0]
    doc = _edited(tmp_path, name, path, value)
    assert run([task, "--config", doc, "--out", tmp_path]) == 2
    assert f"at {where}: " in _one_config_error_line(capsys)
    assert not (tmp_path / f"{task}.csv").exists()


def test_pole_order_below_one_exit_code(tmp_path, capsys):
    k = {"poles": [{"pole": [0, 1], "order": 0}]}
    doc = _edited(tmp_path, "residue_cylinder_green.json",
                  ("residue", "green", 0, "pairs", 0, "k"), k)
    assert run(["residue", "--config", doc, "--out", tmp_path]) == 2
    assert ": at residue/green/0/pairs/0/k/poles/0/order: 0 is less than " \
        "the minimum of 1" in _one_config_error_line(capsys)


_LOWER = {"poles": [{"pole": [0, -1]}]}
_GREEN = ("residue", "green", 0)
FIBER_ERRORS = [
    ("pairs", 0, "k", {"poles": [{"pole": 0}]},
     "pole at 0j lies on or too close to the real axis"),
    ("pairs", 0, "t", {"poles": [{"pole": [1, 1e-300]}]},
     "lies on or too close to the real axis"),
    ("pairs", 0, "k", _LOWER, "left factor not in the plus space"),
    ("pairs", 0, "k", {"poly": [1]}, "left factor not in the plus space"),
    ("pairs", 0, "t", _UPPER, "right factor not in the minus space"),
    ("pairs", 1, "t", _UPPER, "right factor not in the minus space")]


@pytest.mark.parametrize("pair, i, factor, value, message", FIBER_ERRORS,
                         ids=["pole-at-0", "pole-at-1e-300i", "lower-k",
                              "polynomial-k", "upper-t", "second-pair-t"])
def test_fiber_outside_its_space_exit_code(tmp_path, capsys, pair, i,
                                           factor, value, message):
    # a rational with a real pole, or a factor outside its half-plane
    # space, is a fault of the document at its path, not of the program
    green = json.loads((CONFIGS / "residue_cylinder_green.json").read_text())[
        "residue"]["green"][0]
    green["pairs"] = [dict(green["pairs"][0]) for _ in range(i + 1)]
    green["pairs"][i][factor] = value
    code = run(["residue", "--config", CONFIGS / "residue_cylinder_green.json",
                "--out", tmp_path, "--set",
                f"residue.green={json.dumps([green])}"])
    assert code == 2
    line = _one_config_error_line(capsys)
    assert f"at residue/green/0/{pair}/{i}/{factor}: " in line
    assert message in line
    assert not (tmp_path / "residue.csv").exists()


@pytest.mark.parametrize("kind, value, message", [
    ("potential", _LOWER, "potential fiber not in the plus space"),
    ("trace", _UPPER, "trace fiber not in the minus space"),
    ("potential", {"poles": [{"pole": 0}]}, "too close to the real axis")],
    ids=["lower-potential", "upper-trace", "real-pole-potential"])
def test_boundary_fiber_outside_its_space_exit_code(tmp_path, capsys, kind,
                                                    value, message):
    term = {"degree": -1, "b": "|xi|^-1", "fiber": value}
    doc = _edited(tmp_path, "residue_cylinder_green.json", ("residue", kind),
                  [term])
    assert run(["residue", "--config", doc, "--out", tmp_path]) == 2
    line = _one_config_error_line(capsys)
    assert f"at residue/{kind}/0/fiber: " in line and message in line


def test_fiber_fault_keeps_its_type_for_library_callers():
    # the builder names the path; the typed error stays its cause
    with pytest.raises(ConfigError, match="at a/k: pole at 0j") as info:
        build_rational({"poles": [{"pole": 0}]}, ("a", "k"))
    assert isinstance(info.value.__cause__, RealPoleError)
    with pytest.raises(RealPoleError):
        rational((), [(0j, 1, 1.0)])


@pytest.mark.parametrize("k", [{"num": [1], "den": [[0, -1], 1]},
                               {"num": [1], "den": [0]}],
                         ids=["simple-pole", "zero-den"])
def test_ratio_form_exit_code(tmp_path, capsys, k):
    # a rational enters as poles and a polynomial part only
    doc = _edited(tmp_path, "residue_cylinder_green.json",
                  ("residue", "green", 0, "pairs", 0, "k"), k)
    assert run(["residue", "--config", doc, "--out", tmp_path]) == 2
    assert _one_config_error_line(capsys).endswith(
        "at residue/green/0/pairs/0/k: additional properties ['den', 'num'] "
        "not allowed")
    assert not (tmp_path / "residue.csv").exists()


def test_triple_pole_green_block(tmp_path):
    # k = 1/(tau - i)^3 against t = 1/(tau + i) on the cylinder: the green
    # block is -2 pi^2; a triple pole is where poles recovered from numeric
    # roots go wrong
    k = {"poles": [{"pole": [0, 1], "order": 3}]}
    doc = _edited(tmp_path, "residue_cylinder_green.json",
                  ("residue", "green", 0, "pairs", 0, "k"), k)
    assert run(["residue", "--config", doc, "--out", tmp_path]) == 0
    lines = [l for l in (tmp_path / "residue.csv").read_text().splitlines()
             if not l.startswith("#")]
    blocks = {name: complex(float(re), float(im))
              for name, re, im in csv.reader(lines[1:])}
    assert abs(blocks["green"] + 2 * math.pi ** 2) <= 1e-12


@pytest.mark.parametrize("item", ["seed.x=1", "seed.x.y=1",
                                  "residue.geometry.dim.x=1"])
def test_set_through_non_object_exit_code(tmp_path, capsys, item):
    code = run(["residue", "--config", CONFIGS / "residue_torus.json",
                "--out", tmp_path, "--set", item])
    assert code == 2
    assert item.partition("=")[0] in _one_config_error_line(capsys)
    assert not (tmp_path / "residue.csv").exists()


def test_override_error_names_the_config_file(tmp_path, capsys):
    code = run(["dixmier", "--config", CONFIGS / "dixmier_torus.json",
                "--out", tmp_path, "--set", 'dixmier.model.kind="moebius"'])
    assert code == 2
    line = _one_config_error_line(capsys)
    # the file and the line of "kind" in it, not a re-serialised document
    kind_line = 1 + (CONFIGS / "dixmier_torus.json").read_text().split(
        '"kind"')[0].count("\n")
    assert f"dixmier_torus.json:{kind_line}: at dixmier/model/kind" in line


# the line of the offending key comes from following its path, not from
# the first key of that name in the file
PATH_DOCUMENTS = [
    ("dixmier", ['{',
                 '  "task": "dixmier",',
                 '  "residue": {"geometry": {"kind": "torus", "dim": 2}},',
                 '  "dixmier": {',
                 '    "weight": {"power": -1.0, "shift": 1.0},',
                 '    "model": {"dim": 2, "cutoff": 800,',
                 '              "kind": "moebius"}',
                 '  }',
                 '}'], "7: at dixmier/model/kind:"),
    ("residue", ['{',
                 '  "task": "residue",',
                 '  "residue": {',
                 '    "geometry": {"kind": "cylinder", "dim": 2},',
                 '    "p": {"literal": "|xi|^-2", "order": -2},',
                 '    "green": [',
                 '      {"degree": -2, "b": "|xi|^-2", "pairs": [{"k": '
                 '{"poles": [{"pole": [0, 1]}]}, "t": {"poles": [{"pole": '
                 '[0, -1]}]}}]},',
                 '      {"degree": -2, "b": "|xi|^-2", "pairs": [{"k": '
                 '{"poles": [{"pole": "bad"}]}, "t": {}}]}',
                 '    ]',
                 '  }',
                 '}'], "8: at residue/green/1/pairs/0/k/poles/0/pole:")]


@pytest.mark.parametrize("task, lines, where", PATH_DOCUMENTS,
                         ids=[d[0] for d in PATH_DOCUMENTS])
def test_error_line_follows_the_path(tmp_path, capsys, task, lines, where):
    doc = tmp_path / "doc.json"
    doc.write_text("\n".join(lines) + "\n")
    assert run([task, "--config", doc, "--out", tmp_path]) == 2
    assert f"doc.json:{where}" in _one_config_error_line(capsys)


def _dixmier_text(path, literal):
    """dixmier_torus.json with the number at ``path`` written as ``literal``
    in the JSON text."""
    cfg = json.loads((CONFIGS / "dixmier_torus.json").read_text())
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "@"
    return json.dumps(cfg, indent=1).replace('"@"', literal)


@pytest.mark.parametrize("route", ["file", "set"])
@pytest.mark.parametrize("path, literal", [
    (("dixmier", "model", "cutoff"), "NaN"),
    (("dixmier", "weight", "power"), "1e400"),
    (("dixmier", "weight", "scale"), "Infinity"),
    (("seed",), "-Infinity")])
def test_non_finite_number_exit_code(tmp_path, capsys, route, path, literal):
    # Python's json reads NaN, Infinity and 1e400; none is a JSON number
    doc = CONFIGS / "dixmier_torus.json"
    extra = ["--set", f"{'.'.join(path)}={literal}"]
    if route == "file":
        doc = tmp_path / "doc.json"
        doc.write_text(_dixmier_text(path, literal))
        extra = []
    code = run(["dixmier", "--config", doc, "--out", tmp_path] + extra)
    assert code == 2
    assert f": at {'/'.join(path)}: " in _one_config_error_line(capsys)
    assert not (tmp_path / "dixmier.csv").exists()


def _run_script(script):
    """Run ``script`` in a fresh interpreter on this checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(CONFIGS.parent.parent / "src"),
                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_runs_without_jsonschema(tmp_path):
    # jsonschema is a test oracle only: no job imports it
    argv = ["residue", "--config", str(CONFIGS / "residue_torus.json"),
            "--out", str(tmp_path)]
    _run_script("import sys\n"
                "from ncres.cli import main\n"
                f"assert main({argv!r}) == 0\n"
                "assert 'jsonschema' not in sys.modules, 'jsonschema loaded'\n")


def test_symbolic_tasks_load_no_numeric_layer(tmp_path):
    # the package, the CLI, --version and the residue and parametric tasks
    # (a cylinder's transmission check included) run without numpy or the
    # numeric layers; a dixmier run in the same process then loads numpy
    # and the spectra only, and writes the bytes of a process that had
    # every layer from the start; heat and zeta runs add the heat sums but
    # never the verify suite
    jobs = [["residue", "--config", str(CONFIGS / "residue_torus.json")],
            ["residue", "--config",
             str(CONFIGS / "residue_cylinder_green.json")],
            ["parametric", "--config",
             str(CONFIGS / "parametric_resolvent.json")]]
    dixmier = ["dixmier", "--config", str(CONFIGS / "dixmier_torus.json")]
    heat_zeta = [["heat", "--config", str(CONFIGS / "heat_torus.json")],
                 ["zeta", "--config", str(CONFIGS / "zeta_epstein.json")]]
    _run_script(
        "import contextlib, io, sys\n"
        "numeric = ('numpy', 'ncres.spectral', 'ncres.heatzeta', "
        "'ncres.verify')\n"
        "def loaded():\n"
        "    return [m for m in numeric if m in sys.modules]\n"
        "import ncres\n"
        "assert not loaded(), loaded()\n"
        "from ncres.cli import main\n"
        "assert not loaded(), loaded()\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    try:\n"
        "        main(['--version'])\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, exc.code\n"
        "assert out.getvalue().startswith('ncres '), out.getvalue()\n"
        "assert not loaded(), loaded()\n"
        f"for i, argv in enumerate({jobs!r}):\n"
        f"    assert main(argv + ['--out', {str(tmp_path)!r} + f'/{{i}}'])"
        " == 0\n"
        "    assert not loaded(), (argv, loaded())\n"
        f"assert main({dixmier!r} + ['--out', {str(tmp_path / 'lazy')!r}])"
        " == 0\n"
        "assert loaded() == ['numpy', 'ncres.spectral'], loaded()\n"
        f"for i, argv in enumerate({heat_zeta!r}):\n"
        f"    assert main(argv + ['--out', {str(tmp_path)!r} + f'/hz{{i}}'])"
        " == 0\n"
        "    assert loaded() == ['numpy', 'ncres.spectral', "
        "'ncres.heatzeta'], (argv, loaded())\n")
    # this process imported every layer before its first job
    assert run(dixmier + ["--out", tmp_path / "eager"]) == 0
    assert ((tmp_path / "lazy" / "dixmier.csv").read_bytes()
            == (tmp_path / "eager" / "dixmier.csv").read_bytes())
    assert ((tmp_path / "lazy" / "dixmier.txt").read_bytes()
            == (tmp_path / "eager" / "dixmier.txt").read_bytes())


def test_package_names_resolve_to_their_modules():
    # the numeric names of ncres are resolved on first access, and every
    # name in __all__ is the object its defining module holds
    import importlib
    import ncres
    for name in ncres.__all__:
        obj = getattr(ncres, name)
        assert obj is getattr(importlib.import_module(obj.__module__), name)
    namespace = {}
    exec("from ncres import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(ncres.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        ncres.no_such_name
    assert not hasattr(ncres, "spectrum_model")
    _run_script("from ncres import SpectrumModel, dixmier_estimate\n"
                "import ncres, ncres.spectral as s\n"
                "assert SpectrumModel is s.SpectrumModel\n"
                "assert dixmier_estimate is ncres.dixmier_estimate\n")


def test_parser_keeps_no_state_between_runs(tmp_path):
    # the parser is built once per process; argparse's append action copies
    # its default, so a --set of one run must not reach the next
    doc = CONFIGS / "residue_torus.json"
    assert run(["residue", "--config", doc, "--out", tmp_path / "a",
                "--set", "seed=3", "--seed", 5]) == 0
    assert run(["residue", "--config", doc, "--out", tmp_path / "b"]) == 0
    fresh = config_hash(json.loads(doc.read_text()))
    stamps = [(tmp_path / d / "residue.csv").read_text() for d in "ab"]
    assert f"config_sha256={fresh}" not in stamps[0]
    assert f"config_sha256={fresh}" in stamps[1]


def test_flags_before_the_task(tmp_path):
    blobs = []
    for argv in (["residue", "--config", CONFIGS / "residue_torus.json",
                  "--out", tmp_path / "after", "--seed", 3],
                 ["--seed", 3, "--out", tmp_path / "before", "--config",
                  CONFIGS / "residue_torus.json", "residue"]):
        assert run(argv) == 0
        blobs.append((argv[argv.index("--out") + 1] / "residue.csv")
                     .read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("argv", [
    ["residue"],
    ["heat"],
    ["verify", "--set", 'verify={"fast": true}']])
def test_flag_misuse_exit_code(tmp_path, capsys, argv):
    # --config may be left out for verify only, and verify has no section
    assert run(argv + ["--out", tmp_path]) == 2
    _one_config_error_line(capsys)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("formula", [
    "{}",
    '{"geometry": {"kind": "torus", "dim": 2}, "p": {"literal": 5}}',
    '{"geometry": {"kind": "torus", "dim": 2}, "q": {"literal": "1"}}',
    '{"geometry": {"kind": "torus", "dim": 2}, "p": {"literal": "|xi|^-2"}}'])
def test_dixmier_formula_is_refused(tmp_path, capsys, formula):
    # the reference is derived from the weight; the section that restated
    # the weight's operator is gone, and a document that keeps it is
    # refused, not read with the key ignored
    code = run(["dixmier", "--config", CONFIGS / "dixmier_torus.json",
                "--out", tmp_path, "--set", f"dixmier.formula={formula}"])
    assert code == 2
    assert "at dixmier: additional properties ['formula'] not allowed" in \
        _one_config_error_line(capsys)
    assert not (tmp_path / "dixmier.csv").exists()


def test_dixmier_report_with_formula_is_written_once(tmp_path, capsys):
    # the formula's reference, derived from the weight, is one line
    code = run(["dixmier", "--config", CONFIGS / "dixmier_torus.json",
                "--out", tmp_path, "--set", "dixmier.model.cutoff=300"])
    assert code == 0
    for report in (capsys.readouterr().out,
                   (tmp_path / "dixmier.txt").read_text()):
        lines = report.splitlines()
        assert sum(l.lstrip().startswith("slope estimate") for l in lines) == 1
        assert sum(l.lstrip().startswith("reference") for l in lines) == 1


@pytest.mark.parametrize("overrides, reference", [
    ([], math.pi),
    (["dixmier.weight.scale=2.5"], 2.5 * math.pi),
    (["dixmier.model.kind=boundary_lattice", "dixmier.model.dim=1",
      "dixmier.model.copies=2", "dixmier.model.cutoff=10000",
      "dixmier.weight.power=-0.5"], 4.0),
    (["dixmier.model.kind=dirichlet_cylinder", "dixmier.model.dim=1",
      "dixmier.model.cutoff=10000", "dixmier.weight.power=-0.5"], None),
    (["dixmier.model.kind=dirichlet_cylinder", "dixmier.model.dim=3",
      "dixmier.model.cutoff=40", "dixmier.weight.power=-1.5"], None),
    (["dixmier.weight.power=-1.5"], None)],
    ids=["torus", "scale", "circles", "cylinder-dim1", "cylinder-odd",
         "trace-class"])
def test_dixmier_reference_from_the_weight(tmp_path, overrides, reference):
    # the reference is Dixmier's formula of the weight's own operator where
    # its order is -dim and the calculus holds that operator
    argv = ["dixmier", "--config", CONFIGS / "dixmier_torus.json",
            "--out", tmp_path, "--set", "dixmier.model.cutoff=300"]
    for item in overrides:
        argv += ["--set", item]
    assert run(argv) == 0
    found = re.findall(r"^  reference\s+(\S+) ",
                       (tmp_path / "dixmier.txt").read_text(), re.M)
    if reference is None:
        assert found == []
    else:
        assert [float(v) for v in found] == [pytest.approx(reference,
                                                           rel=1e-9)]


# the bench's reader of the heat report's ln t coefficient
_HEAT_LOG = re.compile(r"^\s*t\^0 \* ln t\s+(\S+)\s*$", re.M)


@pytest.mark.parametrize("task, doc, overrides, label, reference, gate", [
    ("heat", "heat_torus", [], "ln t reference", -math.pi, 0.02),
    ("zeta", "zeta_epstein", [], "reference", math.pi, 0.01),
    ("heat", "heat_torus", ["heat.model.kind=dirichlet_cylinder"],
     "ln t reference", -math.pi / 2, 0.02),
    ("zeta", "zeta_epstein",
     ["zeta.p_weight={\"power\": -1, \"shift\": 1}", "zeta.sigma=0",
      "zeta.exponents=[0, 0.5, 1, 1.5, 2]", "zeta.log_exponents=[0, 1]"],
     "reference", math.pi, 0.02),
    # no line: P neither constant nor sharing A's shift, no ln t slot, and
    # no operator for the Dirichlet cylinder of dim 1
    ("zeta", "zeta_epstein", ["zeta.p_weight={\"power\": -1, \"shift\": 2}"],
     "reference", None, None),
    ("heat", "heat_torus", ["heat.log_exponents=[1.0]"], "ln t reference",
     None, None),
    ("heat", "heat_torus", ["heat.model.kind=dirichlet_cylinder",
                            "heat.model.dim=1", "heat.model.cutoff=3000",
                            "heat.p_weight.power=-0.5"],
     "ln t reference", None, None)],
    ids=["heat", "zeta", "heat-cylinder", "zeta-s0", "zeta-other-shift",
         "heat-no-log-slot", "heat-cylinder-dim1"])
def test_heat_and_zeta_reports_state_their_reference(
        tmp_path, task, doc, overrides, label, reference, gate):
    # the value that P's own operator derives, and the deviation of the
    # fitted ln t coefficient or residue from it, on one line where the map
    # holds that operator; the CSV is the parent's, and the heat report's
    # ln t coefficient stays the one line the benchmark reads
    argv = [task, "--config", CONFIGS / f"{doc}.json", "--out", tmp_path]
    for item in overrides:
        argv += ["--set", item]
    assert run(argv) == 0
    report = (tmp_path / f"{task}.txt").read_text()
    found = re.findall(rf"^  {label}\s+(\S+) \(rel dev (\S+)\)$", report,
                       re.M)
    if reference is None:
        assert found == [] and "dev" not in report
        return
    (value, dev), = found
    if task == "heat":
        assert len(_HEAT_LOG.findall(report)) == 1
    assert float(value) == pytest.approx(reference, rel=1e-9)
    assert 0 < float(dev) <= gate


def test_builders_leave_defaults_to_the_dataclasses(tmp_path):
    # a field that the document leaves out takes the dataclass default: the
    # data rows equal those of the explicit default, the hash apart.  On
    # the cylinder, whose eigenvalues start at 1, the weight needs no shift
    model = {"kind": "dirichlet_cylinder", "dim": 2, "cutoff": 300}
    weight = {"power": -1.0}
    for section, absent, explicit in [
            ("model", model, dict(model, copies=1)),
            ("weight", weight, dict(weight, shift=0.0, scale=1.0))]:
        rows = []
        for spec in (absent, explicit):
            out = tmp_path / f"{section}{len(rows)}"
            out.mkdir()
            doc = _edited(out, "dixmier_torus.json", ("dixmier", section),
                          spec)
            assert run(["dixmier", "--config", doc, "--out", out,
                        "--set", "dixmier.model.kind=dirichlet_cylinder",
                        "--set", "dixmier.model.cutoff=300"]) == 0
            rows.append([l for l in (out / "dixmier.csv").read_text()
                         .splitlines()
                         if not l.startswith("# config_sha256=")])
        assert rows[0] == rows[1], section


def test_task_mismatch_rejected(tmp_path):
    assert run(["dixmier", "--config", CONFIGS / "residue_torus.json"]) == 2


def test_resource_cap_exit_code(tmp_path):
    code = run(["dixmier", "--config", CONFIGS / "dixmier_torus.json",
                "--out", tmp_path,
                "--set", "dixmier.model.cutoff=100000"])
    assert code == 4


@pytest.mark.parametrize("cutoff", ["1e300", "9" * 400],
                         ids=["float", "long-int"])
def test_huge_cutoff_resource_cap(tmp_path, capsys, cutoff):
    # the mode estimate is an exact int: no float power or int-to-float
    # conversion overflows before the cap is read
    code = run(["dixmier", "--config", CONFIGS / "dixmier_torus.json",
                "--out", tmp_path, "--set", f"dixmier.model.cutoff={cutoff}"])
    assert code == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("resource cap:"), err
    assert not (tmp_path / "dixmier.csv").exists()


def test_dim1_array_cap_with_huge_mode_cap(tmp_path, capsys):
    # MODE_CAP bounds the dim-1 mode array too: 2e300 modes are refused
    # before np.arange, which could not build them, is reached
    code = run(["dixmier", "--config", CONFIGS / "dixmier_torus.json",
                "--out", tmp_path,
                "--set", "dixmier.model.dim=1",
                "--set", "dixmier.model.kind=boundary_lattice",
                "--set", "dixmier.model.cutoff=1e300"])
    assert code == 4
    err = capsys.readouterr().err.splitlines()
    assert err == ["resource cap: at dixmier/model: ~2.00e+300 modes "
                   "exceed the cap 3.00e+8"]
    assert not (tmp_path / "dixmier.csv").exists()


@pytest.mark.parametrize("path", [("dixmier", "window_decades"),
                                  ("dixmier", "model", "mode_cap"),
                                  ("dixmier", "weight", "rate"),
                                  ("threads",)])
def test_removed_knob_exit_code(tmp_path, capsys, path):
    # the window is two decades, the mode cap a constant, a weight a plain
    # power and the threads field without effect; a document or override
    # that sets a removed knob is refused at its path
    doc = _edited(tmp_path, "dixmier_torus.json", path, 2)
    for source in (["--config", doc],
                   ["--config", CONFIGS / "dixmier_torus.json",
                    "--set", f"{'.'.join(path)}=2"]):
        assert run(["dixmier", "--out", tmp_path] + source) == 2
        line = _one_config_error_line(capsys)
        at = "/".join(path[:-1]) or "<root>"
        assert (f"at {at}: additional properties ['{path[-1]}'] not "
                "allowed") in line
    assert not (tmp_path / "dixmier.csv").exists()


@pytest.mark.parametrize("route", ["file", "set"])
def test_integer_past_the_digit_limit_exit_code(tmp_path, capsys, route):
    # Python's json refuses an int of more than 4300 digits with a plain
    # ValueError, not a JSONDecodeError
    literal = "1" * 5000
    doc = CONFIGS / "residue_torus.json"
    extra = ["--set", f"seed={literal}"]
    if route == "file":
        doc = tmp_path / "doc.json"
        doc.write_text((CONFIGS / "residue_torus.json").read_text()
                       .replace('"seed": 0', f'"seed": {literal}'))
        extra = []
    code = run(["residue", "--config", doc, "--out", tmp_path] + extra)
    assert code == 2
    line = _one_config_error_line(capsys)
    assert ("doc.json: " if route == "file" else "--set seed: ") in line
    assert not (tmp_path / "residue.csv").exists()


def test_set_text_that_is_not_json_stays_a_string(tmp_path, capsys):
    code = run(["residue", "--config", CONFIGS / "residue_torus.json",
                "--out", tmp_path, "--set", "seed=1x"])
    assert code == 2
    assert "'1x' is not of type 'integer'" in _one_config_error_line(capsys)


def test_tolerance_failure_exit_code(tmp_path):
    # cutoff far too small for the t grid: the certified tail overwhelms
    # the fit and the run must fail with the tolerance exit code
    code = run(["zeta", "--config", CONFIGS / "zeta_epstein.json",
                "--out", tmp_path, "--set", "zeta.model.cutoff=40"])
    assert code == 3


@pytest.mark.parametrize("scale", [1e-15, 1.0, 1e15])
def test_tail_gate_exit_code_ignores_the_scale_of_p(tmp_path, scale):
    # the tail scales with P as the samples do, so scaling P must not
    # switch the certified-tail check off
    code = run(["heat", "--config", CONFIGS / "heat_torus.json",
                "--out", tmp_path, "--set", "heat.model.cutoff=20",
                "--set", f"heat.p_weight.scale={scale!r}"])
    assert code == 3


def test_other_library_error_exit_code(tmp_path, capsys, monkeypatch):
    # a library error of no fault's kind is a defect of the program: it
    # exits 1 with one "error:" line and writes nothing
    def defect(A):
        raise NcresError("injected defect")

    monkeypatch.setattr(cli, "boundary_residue", defect)
    code = run(["residue", "--config", CONFIGS / "residue_torus.json",
                "--out", tmp_path])
    assert code == 1
    assert capsys.readouterr().err == "error: injected defect\n"
    assert not (tmp_path / "residue.csv").exists()


def _members(node, path=()):
    """The path of every member below ``node``, depth first."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _members(value, path + (key,))


# "at <path>: " after the "config error: " and any "file:line: " prefix
_AT = re.compile(r"(?:^config error: |: )at ([^ :]+): ")


def _path_in_document(line, cfg):
    """The one JSON path that ``line`` names, which ``cfg`` must hold."""
    paths = _AT.findall(line)
    assert len(paths) == 1, line
    members = {"/".join(map(str, path)) for path in _members(cfg)}
    assert paths[0] in members, (paths[0], line)
    return paths[0]


_FLOOR = {"literal": "|xi|^-1", "exact_floor": -1}
# no t_grid: the default grid's 40 points are too few for 23 coefficients
_ZETA_DEFAULT_GRID = {"model": {"kind": "torus_lattice", "dim": 2,
                                "cutoff": 300},
                      "p_weight": {"power": 0.0},
                      "a_weight": {"power": 1.0, "shift": 1.0},
                      "sigma": 1.0, "exponents": [i / 2 for i in range(20)]}
# every fault of a document that the library finds: a literal outside the
# grammar, or with an order or exactness floor it does not have; a t grid
# whose points repeat; a weight outside the heat sum's domain; a window
# too small for a fit; a component read below the exactness floor
DOCUMENT_FAULTS = [
    ("residue_torus.json", ("residue", "p"), {"literal": "foo"},
     "residue/p"),
    ("residue_cylinder_green.json", ("residue", "green", 0, "b"), "foo",
     "residue/green/0/b"),
    ("parametric_resolvent.json", ("parametric", "p"), {"literal": "foo"},
     "parametric/p"),
    ("parametric_resolvent.json", ("parametric", "a"), {"literal": "foo"},
     "parametric/a"),
    ("residue_torus.json", ("residue", "p"),
     {"literal": "|xi|^-2", "order": -3}, "residue/p"),
    ("residue_torus.json", ("residue", "p"),
     {"literal": "|xi|^-2", "exact_floor": 0}, "residue/p"),
    ("heat_torus.json", ("heat", "t_grid", "stop"), 0.0010000000000000002,
     "heat/t_grid"),
    ("heat_torus.json", ("heat", "a_weight", "power"), 2, "heat/a_weight"),
    ("heat_torus.json", ("heat", "p_weight"),
     {"power": -3, "shift": 1e-300}, "heat/p_weight"),
    ("heat_torus.json", ("heat", "t_grid", "points"), 5, "heat/t_grid"),
    ("heat_torus.json", ("heat", "t_grid", "stop"), 0.002, "heat/t_grid"),
    ("dixmier_torus.json", ("dixmier", "model", "cutoff"), 3,
     "dixmier/model"),
    ("residue_torus.json", ("residue", "p"), _FLOOR, "residue/p"),
    ("parametric_resolvent.json", ("parametric", "p"), _FLOOR,
     "parametric/p"),
    ("residue_torus.json", ("residue", "p"),
     {"shifted_laplacian_power": {"exponent": -0.5, "depth": 0}},
     "residue/p"),
    # zeta's window names its grid where the document holds one, and the
    # section where the default grid is too small for the exponents
    ("zeta_epstein.json", ("zeta", "t_grid", "points"), 5, "zeta/t_grid"),
    ("zeta_epstein.json", ("zeta",), _ZETA_DEFAULT_GRID, "zeta"),
    # a radial exponent past the float range: a fault, not an order past
    # the symbol cap
    ("residue_torus.json", ("residue", "p"), {"literal": "|xi|^-" + "9" * 400},
     "residue/p")]


@pytest.mark.parametrize("name, path, value, where", DOCUMENT_FAULTS,
                         ids=["residue-literal", "green-b-literal",
                              "parametric-p-literal", "parametric-a-literal",
                              "literal-order", "literal-floor",
                              "repeated-t-grid", "non-affine-a-weight",
                              "infinite-p-weight", "heat-window-points",
                              "heat-window-decades", "dixmier-window",
                              "residue-below-floor", "parametric-below-floor",
                              "shifted-power-below-floor",
                              "zeta-window-points", "zeta-window-default",
                              "literal-infinite-degree"])
def test_document_fault_exit_code(tmp_path, capsys, name, path, value,
                                  where):
    # each is one config error line at the JSON path of the entry at
    # fault, and no CSV is written
    task = name.partition("_")[0]
    doc = _edited(tmp_path, name, path, value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([task, "--config", doc, "--out", tmp_path]) == 2
    line = _one_config_error_line(capsys)
    assert _path_in_document(line, json.loads(doc.read_text())) == where
    assert not (tmp_path / f"{task}.csv").exists()


# integers of the document given as integral floats, which Draft 2020-12
# admits as integers: each but the type reached the library as a float and
# ended in a traceback, and every one moved the config hash
INTEGRAL_FLOATS = [
    ("parametric_resolvent.json", "parametric.p.shifted_laplacian_power.depth",
     5),
    ("heat_torus.json", "heat.t_grid.points", 40),
    ("dixmier_torus.json", "dixmier.model.copies", 2),
    ("residue_torus.json", "residue.geometry.dim", 2),
    ("dixmier_torus.json", "dixmier.model.dim", 2),
    ("residue_cylinder_green.json", "residue.type", 0)]


@pytest.mark.parametrize("name, path, value", INTEGRAL_FLOATS,
                         ids=["depth", "points", "copies", "geometry-dim",
                              "model-dim", "type"])
def test_integral_float_runs_as_its_int(tmp_path, capsys, name, path, value):
    # the run reads the int, and writes the bytes of the int override, its
    # config hash included
    task = name.partition("_")[0]
    blobs = []
    for literal in (f"{value}", f"{value}.0"):
        out = tmp_path / literal
        assert run([task, "--config", CONFIGS / name, "--out", out,
                    "--set", f"{path}={literal}"]) == 0
        blobs.append([(out / f"{task}.{ext}").read_bytes()
                      for ext in ("csv", "txt")])
    assert capsys.readouterr().err == ""
    assert blobs[0] == blobs[1]


# a symbol past a cap: its order (twice a shifted power's exponent, a
# literal's order or degree), or the components it would store (a shifted
# power's depth, a literal's span down to its exactness floor or lowest
# degree), each refused before any work at its JSON path
SYMBOL_CAPS = [
    ("parametric_resolvent.json", ("parametric", "p"),
     {"shifted_laplacian_power": {"exponent": ORDER_CAP / 2 + 1,
                                  "depth": 2}},
     "parametric/p/shifted_laplacian_power/exponent"),
    ("parametric_resolvent.json", ("parametric", "a"),
     {"literal": "|xi|^2", "order": ORDER_CAP + 1}, "parametric/a/order"),
    ("residue_torus.json", ("residue", "p"),
     {"literal": f"|xi|^{ORDER_CAP + 1}"}, "residue/p/literal"),
    ("parametric_resolvent.json", ("parametric", "p"),
     {"shifted_laplacian_power": {"exponent": -1.0, "depth": 10 ** 9}},
     "parametric/p/shifted_laplacian_power/depth"),
    ("residue_torus.json", ("residue", "p"),
     {"literal": "|xi|^-2", "exact_floor": -200000}, "residue/p/exact_floor"),
    ("residue_torus.json", ("residue", "p"),
     {"literal": f"|xi|^2 + |xi|^{-COMPONENT_CAP}"}, "residue/p/literal"),
    ("residue_cylinder_green.json", ("residue", "green", 0, "b"),
     f"|xi|^-2 + |xi|^{-COMPONENT_CAP - 2}", "residue/green/0/b")]


@pytest.mark.parametrize("name, path, value, where", SYMBOL_CAPS,
                         ids=["exponent", "literal-order", "literal-degree",
                              "depth", "exact-floor", "literal-span",
                              "green-b-span"])
def test_symbol_cap_exit_code(tmp_path, capsys, name, path, value, where):
    # one resource cap line at the JSON path of the entry past the cap, and
    # no CSV; nothing past the cap is built (a floor of -200000 stored
    # 199,999 empty components in 2 s, and a depth of 10^9 ran for good)
    task = name.partition("_")[0]
    doc = _edited(tmp_path, name, path, value)
    assert run([task, "--config", doc, "--out", tmp_path]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("resource cap:"), err
    assert _path_in_document(err[0], json.loads(doc.read_text())) == where
    assert not (tmp_path / f"{task}.csv").exists()


@pytest.mark.parametrize("name, path, value", [
    ("residue_torus.json", ("residue", "p"), {"literal": "|xi|^-25"}),
    ("parametric_resolvent.json", ("parametric", "p"),
     {"literal": f"|xi|^{-10 ** 9}"}),
    ("parametric_resolvent.json", ("parametric", "p"),
     {"shifted_laplacian_power": {"exponent": -11, "depth": 2}})],
                         ids=["literal", "literal-far", "exponent"])
def test_negative_order_past_the_order_cap_runs(tmp_path, capsys, name,
                                                path, value):
    # the order cap bounds a positive order only: below degree -dim every
    # component is one the residue and the composition skip
    task = name.partition("_")[0]
    doc = _edited(tmp_path, name, path, value)
    assert run([task, "--config", doc, "--out", tmp_path]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / f"{task}.csv").exists()


# factors of the literal grammar, a few outside it
_FACTORS = ["2", "-1.5", "3j", "(1+2j)", "xi1", "xi2^3", "xi^(1,0)", "xi3",
            "|xi|^-2", "|xi|^-1", "|xi|^0.5", "|xi|^-1.2.3", "exp(i*(1,0).x)",
            "exp(i*(1).x)", "frog", ""]
_LITERALS = st.lists(st.lists(st.sampled_from(_FACTORS), min_size=1,
                              max_size=3).map(" * ".join),
                     min_size=1, max_size=3).map(" + ".join)


# values past the symbol caps (as an order, twice an exponent, a depth or
# an exactness floor), each refused before any work, and their negatives,
# which the order cap admits
_PAST_CAPS = [s * v for v in (ORDER_CAP + 1, COMPONENT_CAP + 1, 10 ** 9)
              for s in (1, -1)]


def _values(schema, wide=False):
    """JSON values for ``schema``, drawn by walking the keywords that the
    validator implements, inside its bounds.  Numbers are at most 6 in
    size, so a drawn cutoff stays far under 300 and a shifted power's
    order under 12: the parametric composition grows about like the order
    to the sixth, and takes 5.5 s at order 48 in dim 3.  The numbers of a
    symbol (``wide``) are also drawn past its caps, up to 1e9."""
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    if "oneOf" in schema:
        return st.one_of([_values(sub, wide) for sub in schema["oneOf"]])
    kind = schema["type"]
    if kind in ("number", "integer"):
        exclusive = "exclusiveMinimum" in schema
        lo = schema.get("minimum", schema.get("exclusiveMinimum", -6))
        hi = schema.get("maximum", 6)
        ints = st.integers(lo + exclusive, hi)
        if wide:
            ints = st.one_of(ints, st.sampled_from(
                [v for v in _PAST_CAPS if v >= lo + exclusive]))
        if kind == "integer":
            # Draft 2020-12 admits an integral float as an integer
            return st.one_of(ints, ints.map(float))
        # halves hit the integer ladders that shifted powers need
        return st.one_of(ints, ints.map(lambda k: k / 2),
                         st.floats(lo, hi, exclude_min=exclusive))
    if kind == "string":
        return _LITERALS
    if kind == "array":
        return st.lists(_values(schema["items"], wide),
                        min_size=schema.get("minItems", 0),
                        max_size=schema.get("maxItems", 2))
    wide = wide or _is_symbol(schema)
    props = {key: _values(sub, wide)
             for key, sub in schema["properties"].items()}
    required = schema.get("required", [])
    return st.fixed_dictionaries(
        {key: props[key] for key in required},
        optional={key: v for key, v in props.items() if key not in required})


def _is_symbol(schema):
    return "shifted_laplacian_power" in schema.get("properties", {})


def _schema_at(path):
    """The schema of the member at ``path``; None inside a complex pair."""
    schema = SCHEMA
    for key in path:
        if "oneOf" in schema:
            return None
        schema = schema["items"] if isinstance(key, int) else \
            schema["properties"][key]
    return schema


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), name=st.sampled_from(
    ["residue_torus.json", "residue_cylinder_green.json",
     "parametric_resolvent.json", "heat_torus.json", "dixmier_torus.json"]))
def test_perturbed_document_exit_code(data, name):
    # one value of a demo document swapped for another its schema admits:
    # the run succeeds with finite cells, or is refused at a path of the
    # document, for tolerance or for a resource cap; exit 1 or a traceback
    # is a defect of the program
    cfg = json.loads((CONFIGS / name).read_text())
    path = data.draw(st.sampled_from(
        [p for p in _members(cfg) if p != ("output_dir",) and _schema_at(p)]))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    # a symbol's numbers are drawn past its caps too
    wide = any(_is_symbol(_schema_at(path[:i]) or {})
               for i in range(len(path)))
    node[path[-1]] = data.draw(_values(_schema_at(path), wide))
    task = name.partition("_")[0]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        doc = Path(tmp) / name
        doc.write_text(json.dumps(cfg, indent=1))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main([task, "--config", str(doc), "--out", tmp])
        assert code in (0, 2, 3, 4), err.getvalue()
        if code == 0:
            lines = [l for l in (Path(tmp) / f"{task}.csv").read_text()
                     .splitlines() if not l.startswith("#")]
            header, *rows = list(csv.reader(lines))
            for row in rows:
                for col, field in zip(header, row):
                    assert col in TEXT_COLUMNS or math.isfinite(
                        float(field)), (col, field)
    if code in (2, 4):
        _path_in_document(err.getvalue(), cfg)


def _boundary_term(degree, part, **extra):
    """A boundary term of ``degree`` with its fiber ``part``."""
    return {"degree": degree, "b": f"|xi|^{degree}", **part, **extra}


_PAIR = {"pairs": [{"k": _UPPER, "t": _LOWER}]}


@pytest.mark.parametrize("task, cfgfile, override, where, message", [
    ("residue", "residue_cylinder_green.json",
     'residue.p={"literal": "|xi|^-3", "order": -3}', "residue/p",
     "interior symbol violates transmission"),
    ("residue", "residue_cylinder_green.json", "residue.order=7",
     "residue/order", "interior order -2 != declared 7"),
    ("residue", "residue_torus.json", "residue.order=7", "residue/order",
     "interior order -2 != declared 7"),
    ("residue", "residue_torus.json", 'residue.s={"literal": "|xi|^-1"}',
     "residue/s", "boundary entries on a geometry without boundary"),
    ("dixmier", "dixmier_torus.json",
     'dixmier.formula={"geometry": {"kind": "cylinder", "dim": 1}, '
     '"p": {"literal": "|xi|^-1"}}',
     "dixmier", "additional properties ['formula'] not allowed"),
    ("residue", "residue_torus.json",
     'residue.geometry={"kind": "cylinder", "dim": 1}',
     "residue/geometry/dim", "a cylinder needs dim >= 2")],
    ids=["transmission", "order", "order-torus", "boundary-on-torus",
         "formula-cylinder-dim1", "cylinder-dim1"])
def test_operator_grading_fault_exit_code(tmp_path, capsys, task, cfgfile,
                                          override, where, message):
    # a p without the transmission property on a cylinder, a declared order
    # the symbols do not have, boundary entries on a torus, a cylinder with
    # no boundary torus, or a Dixmier formula section (the reference is
    # derived from the weight): faults of the document at their path, not
    # of the program
    code = run([task, "--config", CONFIGS / cfgfile, "--out", tmp_path,
                "--set", override])
    assert code == 2
    line = _one_config_error_line(capsys)
    assert f"at {where}: {message}" in line
    assert not (tmp_path / f"{task}.csv").exists()


def test_operator_grading_fault_keeps_its_type_for_library_callers():
    bad = parse_symbol("|xi|^-3", 2)
    with pytest.raises(TransmissionError):
        boundary_residue(BdMSymbol(Cylinder(2), p=bad))
    with pytest.raises(GradingError, match="declared 7"):
        BdMSymbol(Cylinder(2), p=bad, order=7)
    # Dixmier's grading names the entry at fault; a cylinder of dim 1 has
    # no boundary torus
    with pytest.raises(GradingError, match="order -3 != -2") as info:
        dixmier_formula(BdMSymbol(Cylinder(2), p=bad))
    assert info.value.entry == ("p",)
    with pytest.raises(DimensionMismatchError, match="dim >= 2") as info:
        boundary_residue(BdMSymbol(Cylinder(1), p=parse_symbol("|xi|^-1", 1)))
    assert info.value.entry == ("geometry", "dim")


@pytest.mark.parametrize("entries, error, entry, message", [
    ({"p": {"literal": "|xi|^-2 + |xi|^-3"}}, TransmissionError, ("p",),
     "interior symbol violates transmission"),
    ({"p": {"literal": "|xi|^-3"}}, GradingError, ("p",),
     "interior symbol order -3 != -2"),
    ({"s": {"literal": "|xi|^-2"}}, GradingError, ("s",),
     "boundary symbol order -2 != -1"),
    ({"type": 1}, GradingError, ("type",), "Dixmier trace needs type 0"),
    ({"green": [_boundary_term(-2, _PAIR), _boundary_term(-1, _PAIR)]},
     GradingError, ("green", 1), "singular Green term above order -n"),
    ({"green": [_boundary_term(-2, _PAIR, type=1)]}, GradingError,
     ("green", 0), "singular Green term must have type 0"),
    ({"potential": [_boundary_term(-2, {"fiber": _UPPER}),
                    _boundary_term(-1, {"fiber": _UPPER})]},
     GradingError, ("potential", 1), "potential term above order -n"),
    ({"trace": [_boundary_term(0, {"fiber": _LOWER})]}, GradingError,
     ("trace", 0), "trace term above order -n+1")],
    ids=["transmission", "p-order", "s-order", "type", "green-order",
         "green-type", "potential-order", "trace-order"])
def test_dixmier_grading_names_its_entry(entries, error, entry, message):
    # Dixmier's formula of an operator off the grading of order -n names
    # the entry at fault, as the residue task's document would
    A = build_bdm({"geometry": {"kind": "cylinder", "dim": 2}, **entries}, ())
    with pytest.raises(error, match=re.escape(message)) as info:
        dixmier_formula(A)
    assert info.value.entry == entry


def test_zeta_at_zero_without_log_slots(tmp_path):
    # the s = 0 residue is read off the t^0 ln t slot, which the fit adds
    # when the document lists none; the Epstein zeta is regular at 0
    code = run(["zeta", "--config", CONFIGS / "zeta_epstein.json",
                "--out", tmp_path, "--set", "zeta.sigma=0",
                "--set", "zeta.log_exponents=[]"])
    assert code == 0
    lines = (tmp_path / "zeta.csv").read_text().splitlines()
    residue = [l for l in lines if l.startswith("# residue=")][0]
    assert abs(float(residue.partition("=")[2])) < 1e-4
    assert any(l.startswith("0.0,1,") for l in lines)


def test_set_override_and_hash_changes(tmp_path):
    cfg1 = json.loads((CONFIGS / "residue_torus.json").read_text())
    csvs = []
    for extra in ([], ["--set", "seed=5"]):
        out = tmp_path / f"run{len(csvs)}"
        code = run(["residue", "--config", CONFIGS / "residue_torus.json",
                    "--out", out] + extra)
        assert code == 0
        csvs.append((out / "residue.csv").read_text())
    assert config_hash(cfg1) in csvs[0]
    assert config_hash(cfg1) not in csvs[1]    # override changed the hash


def test_byte_identical_across_threads(tmp_path):
    # --threads is accepted for older commands and changes nothing; it is
    # never validated, so no value of it can fail a run
    blobs, counts = {}, (0, 1, 4, 8, 65)
    for threads in counts:
        out = tmp_path / f"t{threads}"
        for task, cfgfile in [("dixmier", "dixmier_torus.json"),
                              ("heat", "heat_torus.json"),
                              ("zeta", "zeta_epstein.json")]:
            code = run([task, "--config", CONFIGS / cfgfile, "--out", out,
                        "--threads", threads])
            assert code == 0
            blobs[(task, threads)] = (out / f"{task}.csv").read_bytes()
    for task in ("dixmier", "heat", "zeta"):
        assert len({blobs[(task, n)] for n in counts}) == 1


@pytest.mark.parametrize("task, cfgfile, override", [
    ("heat", "heat_torus.json", "heat.a_weight.power=2"),
    ("heat", "heat_torus.json", "heat.a_weight.scale=-1"),
    ("zeta", "zeta_epstein.json", "zeta.a_weight.power=0")])
def test_non_affine_a_weight_exit_code(tmp_path, capsys, task, cfgfile,
                                       override):
    code = run([task, "--config", CONFIGS / cfgfile,
                "--out", tmp_path, "--set", override])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize("task, cfgfile, stop", [
    ("heat", "heat_torus.json", 0.0010000000000000002),   # next float
    ("zeta", "zeta_epstein.json", 1e-3),
    ("zeta", "zeta_epstein.json", 1e-4)])
def test_colliding_t_grid_exit_code(tmp_path, capsys, task, cfgfile, stop):
    # start is 1e-3 in both files: 40 points up to its next float hold 2
    # distinct values, and a stop at or below the start gives no increase
    code = run([task, "--config", CONFIGS / cfgfile, "--out", tmp_path,
                "--set", f"{task}.t_grid.stop={stop!r}"])
    assert code == 2
    assert "strictly increasing" in _one_config_error_line(capsys)
    assert not (tmp_path / f"{task}.csv").exists()


def test_overflowing_p_weight_exit_code(tmp_path, capsys):
    # P overflows at the zero mode: one config error line and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["heat", "--config", CONFIGS / "heat_torus.json",
                    "--out", tmp_path, "--set",
                    'heat.p_weight={"power": -3, "shift": 1e-300}'])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def test_growing_p_weight_exit_code(tmp_path):
    # an empty weight is P = lam, which has no certified tail bound
    code = run(["heat", "--config", CONFIGS / "heat_torus.json",
                "--out", tmp_path, "--set", "heat.p_weight={}"])
    assert code == 3


def test_growing_dixmier_weight_exit_code(tmp_path, capsys):
    # a growing weight is outside the Dixmier estimator's domain
    code = run(["dixmier", "--config", CONFIGS / "dixmier_torus.json",
                "--out", tmp_path, "--set", "dixmier.weight.power=1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "non-increasing" in err


@pytest.mark.parametrize("override", ["dixmier.weight.shift=0",
                                      "dixmier.weight.power=0.5"])
def test_dixmier_weight_outside_domain_exit_code(tmp_path, capsys, override):
    # infinite at the zero mode, or growing far out: no quiet wrong slope
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["dixmier", "--config", CONFIGS / "dixmier_torus.json",
                    "--out", tmp_path, "--set", override])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def test_dixmier_weight_outside_the_ideal_exit_code(tmp_path, capsys):
    # (1 + Delta)^-1 on T^3 has order -2 > -3: sigma_N grows like N^(1/3)
    # and its slope is no Dixmier trace; (1 + Delta)^(-3/2) is T^3's own
    argv = ["dixmier", "--config", CONFIGS / "dixmier_torus.json",
            "--set", "dixmier.model.dim=3", "--set",
            "dixmier.model.cutoff=120"]
    assert run(argv + ["--out", tmp_path / "inv"]) == 2
    assert "at dixmier/weight: weight of order -2 above -3 is outside the " \
        "Dixmier ideal" in _one_config_error_line(capsys)
    assert not (tmp_path / "inv" / "dixmier.csv").exists()
    assert run(argv + ["--out", tmp_path / "edge", "--set",
                       "dixmier.weight.power=-1.5"]) == 0
    assert (tmp_path / "edge" / "dixmier.csv").exists()


@pytest.mark.parametrize("shift", ["1e-300", "1e-150", "1e-30", "1e-320"])
def test_degenerate_dixmier_fit_exit_code(tmp_path, capsys, shift):
    # one weight dwarfs the log growth of the partial sums; at 1e-320 it
    # overflows to inf, which no warning may turn into a crash
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["dixmier", "--config", CONFIGS / "dixmier_torus.json",
                    "--out", tmp_path, "--set",
                    f'dixmier.weight={{"power": -1, "shift": {shift}}}'])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("tolerance failure:") and err.count("\n") == 1


def test_parametric_levels_inert(tmp_path):
    # levels has no effect, so it stays out of the header's config hash too
    blobs = []
    for levels in (1, 3):
        out = tmp_path / f"levels{levels}"
        code = run(["parametric", "--config",
                    CONFIGS / "parametric_resolvent.json", "--out", out,
                    "--set", f"parametric.levels={levels}"])
        assert code == 0
        blobs.append((out / "parametric.csv").read_bytes())
    assert blobs[0] == blobs[1]


# columns holding labels; every other column must parse as a float
TEXT_COLUMNS = {"block", "route", "check", "tolerance"}


@pytest.fixture(scope="module")
def demo_outputs(tmp_path_factory):
    out = {}
    for cfgfile in sorted(CONFIGS.glob("*.json")):
        task = json.loads(cfgfile.read_text())["task"]
        path = tmp_path_factory.mktemp(cfgfile.stem)
        assert run([task, "--config", cfgfile, "--out", path]) == 0
        out[cfgfile.stem] = path / f"{task}.csv"
    return out


def test_demo_csvs_well_formed(demo_outputs):
    for name, path in demo_outputs.items():
        lines = [l for l in path.read_text().splitlines()
                 if not l.startswith("#")]
        header, *rows = list(csv.reader(lines))
        assert rows, name
        for row in rows:
            assert len(row) == len(header), (name, row)
            for col, field in zip(header, row):
                if col not in TEXT_COLUMNS:
                    float(field)


def test_verify_csv_byte_reproducible(demo_outputs, tmp_path, capsys):
    code = run(["verify", "--config", CONFIGS / "verify.json",
                "--out", tmp_path])
    assert code == 0
    assert (tmp_path / "verify.csv").read_bytes() == \
        demo_outputs["verify"].read_bytes()


def test_verify_smoke(tmp_path, capsys, monkeypatch):
    # every lattice plane is counted once per run: criteria 04-05 share
    # torus 4000 and 06-07 torus 300, criterion 09's half-space bracket
    # counts none; criterion 10 counts its three twice, once per pass
    tables = Counter()
    plane_blocks = spectral._plane_blocks

    def counted(R2, sq):
        tables[R2] += 1
        return plane_blocks(R2, sq)

    monkeypatch.setattr(spectral, "_plane_blocks", counted)
    code = run(["verify", "--config", CONFIGS / "verify.json",
                "--out", tmp_path])
    # the whole suite; asserts its own tolerances internally
    assert code == 0
    out = capsys.readouterr().out
    assert "residue_closed_form" in out
    assert "FAIL" not in out
    assert tables == {4000 ** 2: 1, 300 ** 2: 1, 800 ** 2: 2, 200 ** 2: 2,
                      500 ** 2: 2}
