"""Command-line front end: ``ncres TASK [flags]``.

One parser declares every flag once, and flags may stand before or after
the task.  Every task is driven by a JSON configuration document (see
:mod:`ncres.config`); flags only pick the file, override dotted paths and
redirect output.  ``--config`` may be left out for ``verify`` only, and
``--fast`` applies to ``verify`` only; either misuse is a configuration
error.  Each run writes ``<task>.csv`` and ``<task>.txt`` into the output
directory, both stamped with the library version and the sha256 of the
effective configuration, and is bit-reproducible for a fixed document:
reductions are serial and chunk-ordered.  ``--threads`` and the
``threads`` field are accepted so that older commands and documents still
run; they have no effect.

Exit codes: 0 success, 2 configuration error, 3 tolerance/verification
failure, 4 resource cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ._version import __version__
from .config import (TASKS, build_bdm, build_model, build_symbol,
                     build_t_grid, build_weight, config_hash, decode_config,
                     validate_config)
from .errors import (ConfigError, GradingError, IllConditionedFitError,
                     NcresError, ResourceCapError, TailBoundError)
from .heatzeta import fit_expansion, heat_samples, zeta_residue
from .parametric import (resolvent_log_coefficient,
                         resolvent_log_coefficient_closed)
from .residue import boundary_residue, dixmier_formula
from .spectral import dixmier_estimate, enumerate_spectrum
from . import writers
from .verify import run_all


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ncres",
        description="residue / Dixmier / heat-zeta cross-checks on model "
                    "geometries")
    parser.add_argument("--version", action="version",
                        version=f"ncres {__version__}")
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--config",
                        help="JSON job document (optional for verify only)")
    parser.add_argument("--fast", action="store_true",
                        help="verify only: skip the slow cylinder heat-trace "
                             "check")
    parser.add_argument("--set", action="append", default=[],
                        metavar="PATH=JSON",
                        help="override a config entry, e.g. --set seed=3")
    parser.add_argument("--out", help="output directory (overrides output_dir)")
    parser.add_argument("--seed", type=int, help="override the RNG seed")
    parser.add_argument("--threads", type=int,
                        help="accepted for older commands; no effect")
    args = parser.parse_args(argv)
    try:
        cfg = _effective_config(args)
        return _dispatch(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 4
    except (TailBoundError, IllConditionedFitError) as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return 3
    except NcresError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _effective_config(args):
    """The document with every override applied, validated once against
    the file's own text, so errors name the file and its lines."""
    if args.task != "verify":
        if not args.config:
            raise ConfigError(f"{args.task} needs --config")
        if args.fast:
            raise ConfigError("--fast applies to verify only")
    text, source = "", "<config>"
    if args.config:
        source = str(args.config)
        text = Path(source).read_text(encoding="utf-8")
        cfg = decode_config(text, source)
        if not isinstance(cfg, dict):
            raise ConfigError(f"{source}: the document is not a JSON object")
    else:
        cfg = {"task": args.task}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set needs PATH=VALUE, got {item!r}")
        path, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        keys = path.split(".")
        for i, key in enumerate(keys[:-1]):
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set {path}: "
                                  f"{'.'.join(keys[:i + 1])} is not an object")
        node[keys[-1]] = value
    if args.out:
        cfg["output_dir"] = args.out
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.threads is not None:
        cfg["threads"] = args.threads
    if args.fast:
        cfg.setdefault("verify", {})["fast"] = True
    validate_config(cfg, text, source)
    if cfg["task"] != args.task:
        raise ConfigError(
            f"config task {cfg['task']!r} != task argument {args.task!r}")
    return cfg


def _outputs(cfg):
    out = Path(cfg.get("output_dir", "out"))
    out.mkdir(parents=True, exist_ok=True)
    meta = {"config_sha256": config_hash(cfg), "seed": cfg.get("seed", 0)}
    return out, meta


def _write(out_dir, task, csv_data, report):
    (out_dir / f"{task}.csv").write_bytes(csv_data)
    (out_dir / f"{task}.txt").write_text(report)
    sys.stdout.write(report)


def _dispatch(cfg):
    task = cfg["task"]
    out_dir, meta = _outputs(cfg)

    if task == "residue":
        A = build_bdm(cfg["residue"])
        breakdown = boundary_residue(A)
        _write(out_dir, task, writers.residue_csv(breakdown, meta),
               writers.residue_report(breakdown, meta))
        return 0

    if task == "dixmier":
        section = cfg["dixmier"]
        spec = enumerate_spectrum(build_model(section["model"]))
        try:
            est = dixmier_estimate(
                spec, build_weight(section["weight"]),
                window_decades=section.get("window_decades", 2.0))
        except GradingError as exc:
            # a growing or non-positive weight is outside the estimator's
            # domain: an input error, not a failed computation
            raise ConfigError(f"dixmier.weight: {exc}") from exc
        report = writers.dixmier_report(est, meta)
        if "formula" in section:
            ref = dixmier_formula(build_bdm(section["formula"])).real
            report += writers.dixmier_report(est, meta, expected=ref)
        _write(out_dir, task, writers.dixmier_csv(est, meta), report)
        return 0

    if task == "heat":
        section = cfg["heat"]
        spec = enumerate_spectrum(build_model(section["model"]))
        samples = heat_samples(build_weight(section["p_weight"]),
                               build_weight(section["a_weight"]),
                               spec, build_t_grid(section["t_grid"]))
        report = writers._report_head("heat", meta) + "\n"
        if "exponents" in section:
            fit = fit_expansion(samples, section["exponents"],
                                section.get("log_exponents", []))
            report += writers.fit_report(fit, meta, title="heat fit")
        _write(out_dir, task, writers.heat_csv(samples, meta), report)
        return 0

    if task == "zeta":
        section = cfg["zeta"]
        spec = enumerate_spectrum(build_model(section["model"]))
        result = zeta_residue(build_weight(section["p_weight"]),
                              build_weight(section["a_weight"]),
                              spec, section["sigma"],
                              t_grid=build_t_grid(section["t_grid"])
                              if "t_grid" in section else None,
                              exponents=section.get("exponents"),
                              log_exponents=section.get("log_exponents"))
        report = writers._report_head("zeta", meta) + "\n"
        report += (f"  residue at s={result.sigma:g}: {result.residue!r}\n"
                   f"  entire part (diagnostic): {result.entire_part!r}\n")
        report += writers.fit_report(result.fit, meta, title="zeta fit")
        _write(out_dir, task, writers.zeta_csv(result, meta), report)
        return 0

    if task == "parametric":
        section = cfg["parametric"]
        n = section["dim"]
        p = build_symbol(section["p"], n)
        a = build_symbol(section["a"], n)
        k = section["power"]
        closed = resolvent_log_coefficient_closed(p, a.order, k)
        route = resolvent_log_coefficient(p, a, k)
        report = writers._report_head("parametric", meta) + "\n"
        report += (f"  closed form      {closed:.12g}\n"
                   f"  expansion route  {route:.12g}\n"
                   f"  difference       {abs(route - closed):.3e}\n")
        _write(out_dir, task,
               writers.parametric_csv(closed, route, meta), report)
        return 0

    if task == "verify":
        fast = cfg.get("verify", {}).get("fast", False)
        results, ok = run_all(fast=fast, seed=cfg.get("seed", 0),
                              progress=lambda r: print(r.line(), flush=True))
        (out_dir / "verify.csv").write_bytes(writers.verify_csv(results, meta))
        (out_dir / "verify.txt").write_text(
            "\n".join(r.line() for r in results) + "\n")
        print("all checks passed" if ok else "FAILURES above", flush=True)
        return 0 if ok else 3

    raise ConfigError(f"unknown task {task!r}")


if __name__ == "__main__":
    sys.exit(main())
