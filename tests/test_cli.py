"""Command line: config validation, artifacts, exit codes, determinism."""

import csv
import json
import math
import warnings
from pathlib import Path

import pytest

from ncres.cli import main
from ncres.config import build_model, build_weight, config_hash
from ncres.spectral import SpectralWeight, SpectrumModel

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
    ["residue", "--config", CONFIGS / "residue_torus.json", "--fast"],
    ["--fast", "heat", "--config", CONFIGS / "heat_torus.json"]])
def test_flag_misuse_exit_code(tmp_path, capsys, argv):
    # --config may be left out for verify only; --fast is for verify only
    assert run(argv + ["--out", tmp_path]) == 2
    _one_config_error_line(capsys)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("formula", [
    "{}",
    '{"geometry": {"kind": "torus", "dim": 2}, "p": {"literal": 5}}',
    '{"geometry": {"kind": "torus", "dim": 2}, "q": {"literal": "1"}}'])
def test_dixmier_formula_validated_as_residue(tmp_path, capsys, formula):
    code = run(["dixmier", "--config", CONFIGS / "dixmier_torus.json",
                "--out", tmp_path, "--set", f"dixmier.formula={formula}"])
    assert code == 2
    assert "dixmier/formula" in _one_config_error_line(capsys)
    assert not (tmp_path / "dixmier.csv").exists()


def test_builders_leave_defaults_to_the_dataclasses():
    assert build_weight({}) == SpectralWeight()
    assert build_weight({"power": -1, "shift": 2.0}) == \
        SpectralWeight(-1, 2.0, 0.0, 1.0)
    plain = build_model({"kind": "torus_lattice", "dim": 2, "cutoff": 50})
    assert plain == SpectrumModel("torus_lattice", 2, 50)
    assert repr(plain) == repr(SpectrumModel("torus_lattice", 2, 50))
    full = build_model({"kind": "dirichlet_cylinder", "dim": 2, "cutoff": 9,
                        "copies": 2, "mode_cap": 1e6})
    assert full == SpectrumModel("dirichlet_cylinder", 2, 9, 2, 1_000_000)
    assert type(full.mode_cap) is int


def test_task_mismatch_rejected(tmp_path):
    assert run(["dixmier", "--config", CONFIGS / "residue_torus.json"]) == 2


def test_resource_cap_exit_code(tmp_path):
    code = run(["dixmier", "--config", CONFIGS / "dixmier_torus.json",
                "--out", tmp_path,
                "--set", "dixmier.model.cutoff=100000"])
    assert code == 4


def test_tolerance_failure_exit_code(tmp_path):
    # cutoff far too small for the t grid: the certified tail overwhelms
    # the fit and the run must fail with the tolerance exit code
    code = run(["zeta", "--config", CONFIGS / "zeta_epstein.json",
                "--out", tmp_path, "--set", "zeta.model.cutoff=40"])
    assert code == 3


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
    # --threads is accepted for older commands and changes nothing
    blobs = {}
    for threads in (1, 4, 8):
        out = tmp_path / f"t{threads}"
        for task, cfgfile in [("dixmier", "dixmier_torus.json"),
                              ("heat", "heat_torus.json"),
                              ("zeta", "zeta_epstein.json")]:
            code = run([task, "--config", CONFIGS / cfgfile, "--out", out,
                        "--threads", threads])
            assert code == 0
            blobs[(task, threads)] = (out / f"{task}.csv").read_bytes()
    for task in ("dixmier", "heat", "zeta"):
        assert blobs[(task, 1)] == blobs[(task, 4)] == blobs[(task, 8)]


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
                                      "dixmier.weight.rate=-1e-6"])
def test_dixmier_weight_outside_domain_exit_code(tmp_path, capsys, override):
    # infinite at the zero mode, or growing far out: no quiet wrong slope
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["dixmier", "--config", CONFIGS / "dixmier_torus.json",
                    "--out", tmp_path, "--set", override])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


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
    code = run(["verify", "--config", CONFIGS / "verify_fast.json",
                "--out", tmp_path])
    assert code == 0
    assert (tmp_path / "verify.csv").read_bytes() == \
        demo_outputs["verify_fast"].read_bytes()


def test_verify_fast_smoke(tmp_path, capsys):
    code = run(["verify", "--config", CONFIGS / "verify_fast.json",
                "--out", tmp_path,
                "--set", "verify.fast=true"])
    # full fast suite; asserts its own tolerances internally
    assert code == 0
    out = capsys.readouterr().out
    assert "residue_closed_form" in out
    assert "FAIL" not in out
