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
reductions are serial, over fixed blocks in order.  ``--threads`` is
accepted so that older commands still run; it has no effect, and is
parsed and dropped, never validated or copied into the document.

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
from .config import (TASKS, build_bdm, build_symbol, build_t_grid,
                     config_hash, decode_config, faults_at, validate_config)
from .errors import (ConfigError, IllConditionedFitError, NcresError,
                     ResourceCapError, TailBoundError)
from .parametric import (resolvent_log_coefficient,
                         resolvent_log_coefficient_closed)
from .residue import (boundary_residue, dixmier_reference,
                      heat_log_reference, zeta_reference)
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
    cfg = validate_config(cfg, text, source)
    if cfg["task"] != args.task:
        raise ConfigError(f"at task: config task {cfg['task']!r} != task "
                          f"argument {args.task!r}")
    return cfg


def _dispatch(cfg):
    task = cfg["task"]
    out_dir = Path(cfg.get("output_dir", "out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = {"config_sha256": config_hash(cfg), "seed": cfg.get("seed", 0)}
    if task == "verify":
        from .verify import run_all
        results, ok = run_all(seed=cfg.get("seed", 0),
                              progress=lambda r: print(r.line(), flush=True))
        (out_dir / "verify.csv").write_bytes(writers.verify_csv(results, meta))
        (out_dir / "verify.txt").write_text(
            "\n".join(r.line() for r in results) + "\n")
        print("all checks passed" if ok else "FAILURES above", flush=True)
        return 0 if ok else 3

    section = cfg[task]
    with faults_at((task,)):
        if task == "residue":
            breakdown = boundary_residue(build_bdm(section, (task,)))
            csv_data = writers.residue_csv(breakdown, meta)
            report = writers.residue_report(breakdown, meta)
        elif task == "parametric":
            n, k = section["dim"], section["power"]
            p = build_symbol(section["p"], n, (task, "p"))
            a = build_symbol(section["a"], n, (task, "a"))
            closed = resolvent_log_coefficient_closed(p, a.order, k)
            route = resolvent_log_coefficient(p, a, k)
            csv_data = writers.parametric_csv(closed, route, meta)
            report = writers.parametric_report(closed, route, meta)
        else:
            from .spectral import (SpectralWeight, SpectrumModel,
                                   dixmier_estimate, enumerate_spectrum)
            model = SpectrumModel(**section["model"])
            weights = [SpectralWeight(**section[key])
                       for key in ("weight", "p_weight", "a_weight")
                       if key in section]
            spectrum = enumerate_spectrum(model)
            grid = build_t_grid(section["t_grid"], (task, "t_grid")) \
                if "t_grid" in section else None
            if task == "dixmier":
                est = dixmier_estimate(spectrum, *weights)
                csv_data = writers.dixmier_csv(est, meta)
                report = writers.dixmier_report(
                    est, meta, dixmier_reference(model, *weights))
            elif task == "heat":
                from .heatzeta import fit_expansion, heat_samples
                samples = heat_samples(*weights, spectrum, grid)
                fit = ref = None
                if "exponents" in section:
                    # the fit's window weighs the document's grid
                    with faults_at((task, "t_grid")):
                        fit = fit_expansion(samples, section["exponents"],
                                            section.get("log_exponents", []))
                    ref = heat_log_reference(model, *weights)
                csv_data = writers.heat_csv(samples, meta)
                report = writers.heat_report(fit, meta, ref)
            else:
                from .heatzeta import zeta_residue
                result = zeta_residue(
                    *weights, spectrum, section["sigma"], t_grid=grid,
                    exponents=section.get("exponents"),
                    log_exponents=section.get("log_exponents"))
                csv_data = writers.zeta_csv(result, meta)
                report = writers.zeta_report(
                    result, meta,
                    zeta_reference(model, *weights, result.sigma))
    (out_dir / f"{task}.csv").write_bytes(csv_data)
    (out_dir / f"{task}.txt").write_text(report)
    sys.stdout.write(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
