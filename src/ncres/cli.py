"""Command-line front end: ``ncres TASK [flags]``.

One parser, built at import, declares every flag once, and flags may
stand before or after the task.  Every task is driven by a JSON
configuration document (see :mod:`ncres.config`); flags only pick the
file, override dotted paths and redirect output.  ``--config`` may be
left out for ``verify`` only, which runs every criterion and has no
section of its own; leaving it out elsewhere is a configuration error.
Each run writes ``<task>.csv`` and ``<task>.txt`` into the output
directory, both stamped with the library version and the sha256 of the
effective configuration, and is bit-reproducible for a fixed document:
reductions are serial, over fixed blocks in order.  ``--threads`` and the
``threads`` field are accepted so that older commands and documents still
run; they have no effect, and the flag is parsed and dropped, never
validated or copied into the document.

Exit codes: 0 success, 2 a fault of the document at its JSON path (each
task runs in :class:`ncres.config.faults_at` at its section), 3 tolerance
failure, 4 resource cap, 1 a program defect; one error line, no output.

The numeric layers (:mod:`ncres.spectral`, :mod:`ncres.heatzeta`,
:mod:`ncres.verify`) and numpy are imported by the ``dixmier``, ``heat``,
``zeta`` and ``verify`` branches that use them, so ``residue`` and
``parametric`` runs, and ``--version``, start without numpy.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ._version import __version__
from .config import (TASKS, build_bdm, build_model, build_symbol,
                     build_t_grid, build_weight, config_hash, decode_config,
                     faults_at, validate_config)
from .errors import (ConfigError, IllConditionedFitError, NcresError,
                     ResourceCapError, TailBoundError)
from .parametric import (resolvent_log_coefficient,
                         resolvent_log_coefficient_closed)
from .residue import (boundary_residue, dixmier_formula, heat_log_reference,
                      weight_operator, zeta_reference)
from . import writers


_PARSER = argparse.ArgumentParser(
    prog="ncres", description="residue / Dixmier / heat-zeta cross-checks "
                              "on model geometries")
_PARSER.add_argument("--version", action="version",
                     version=f"ncres {__version__}")
_PARSER.add_argument("task", choices=TASKS)
_PARSER.add_argument("--config",
                     help="JSON job document (optional for verify only)")
_PARSER.add_argument("--set", action="append", default=[], metavar="PATH=JSON",
                     help="override a config entry, e.g. --set seed=3")
_PARSER.add_argument("--out", help="output directory (overrides output_dir)")
_PARSER.add_argument("--seed", type=int, help="override the RNG seed")
_PARSER.add_argument("--threads", type=int,
                     help="accepted for older commands; no effect")


def main(argv=None):
    args = _PARSER.parse_args(argv)
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
    if args.task != "verify" and not args.config:
        raise ConfigError(f"{args.task} needs --config")
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
        except ValueError as exc:   # an integer past the int-string limit
            raise ConfigError(
                f"--set {path}: {str(exc).partition(';')[0]}") from exc
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
    validate_config(cfg, text, source)
    if cfg["task"] != args.task:
        raise ConfigError(f"at task: config task {cfg['task']!r} != task "
                          f"argument {args.task!r}")
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
        with faults_at(("residue",)):
            breakdown = boundary_residue(build_bdm(cfg["residue"],
                                                   ("residue",)))
        _write(out_dir, task, writers.residue_csv(breakdown, meta),
               writers.residue_report(breakdown, meta))
        return 0

    if task == "dixmier":
        from .spectral import dixmier_estimate, enumerate_spectrum
        section = cfg["dixmier"]
        with faults_at(("dixmier",)):
            model = build_model(section["model"])
            weight = build_weight(section["weight"])
            est = dixmier_estimate(enumerate_spectrum(model), weight)
            # the weight's own operator, where it has order -dim
            op = weight_operator(model, weight) \
                if 2.0 * weight.power == -model.dim else None
            ref = None if op is None else dixmier_formula(op).real
        _write(out_dir, task, writers.dixmier_csv(est, meta),
               writers.dixmier_report(est, meta, expected=ref))
        return 0

    if task == "heat":
        from .heatzeta import fit_expansion, heat_samples
        from .spectral import enumerate_spectrum
        section = cfg["heat"]
        with faults_at(("heat",)):
            model = build_model(section["model"])
            p, a = (build_weight(section[k]) for k in ("p_weight", "a_weight"))
            samples = heat_samples(p, a, enumerate_spectrum(model),
                                   build_t_grid(section["t_grid"],
                                                ("heat", "t_grid")))
            report = writers._report_head("heat", meta) + "\n"
            if "exponents" in section:
                # the fit's window weighs the document's grid
                with faults_at(("heat", "t_grid")):
                    fit = fit_expansion(samples, section["exponents"],
                                        section.get("log_exponents", []))
                report += writers.fit_report(fit, meta, title="heat fit")
                # the ln t coefficient that P's own operator derives
                ref = heat_log_reference(model, p, a)
                if ref is not None and (0.0, True) in fit.coefficients:
                    report += writers.reference_line(
                        "ln t reference", fit.coefficient(0.0, log=True),
                        ref) + "\n"
        _write(out_dir, task, writers.heat_csv(samples, meta), report)
        return 0

    if task == "zeta":
        from .heatzeta import zeta_residue
        from .spectral import enumerate_spectrum
        section = cfg["zeta"]
        with faults_at(("zeta",)):
            model = build_model(section["model"])
            p, a = (build_weight(section[k]) for k in ("p_weight", "a_weight"))
            result = zeta_residue(
                p, a, enumerate_spectrum(model), section["sigma"],
                t_grid=build_t_grid(section["t_grid"], ("zeta", "t_grid"))
                if "t_grid" in section else None,
                exponents=section.get("exponents"),
                log_exponents=section.get("log_exponents"))
            ref = zeta_reference(model, p, a, result.sigma)
        report = writers._report_head("zeta", meta) + "\n"
        report += (f"  residue at s={result.sigma:g}: {result.residue!r}\n"
                   f"  entire part (diagnostic): {result.entire_part!r}\n")
        if ref is not None:
            report += writers.reference_line("reference", result.residue,
                                             ref) + "\n"
        report += writers.fit_report(result.fit, meta, title="zeta fit")
        _write(out_dir, task, writers.zeta_csv(result, meta), report)
        return 0

    if task == "parametric":
        section = cfg["parametric"]
        n = section["dim"]
        with faults_at(("parametric",)):
            p = build_symbol(section["p"], n, ("parametric", "p"))
            a = build_symbol(section["a"], n, ("parametric", "a"))
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

    from .verify import run_all   # the task is verify
    results, ok = run_all(seed=cfg.get("seed", 0),
                          progress=lambda r: print(r.line(), flush=True))
    (out_dir / "verify.csv").write_bytes(writers.verify_csv(results, meta))
    (out_dir / "verify.txt").write_text(
        "\n".join(r.line() for r in results) + "\n")
    print("all checks passed" if ok else "FAILURES above", flush=True)
    return 0 if ok else 3


if __name__ == "__main__":
    sys.exit(main())
