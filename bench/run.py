"""ncres benchmark: one seeded workload, checked against independent oracles.

Run from the root of a checkout:

    python3 bench/run.py --workload spectral_jobs --seed 1 --seconds 30 \
        --trace 0

It builds the job list from (workload, seed), computes every expected
value itself (``oracles.py``), times fresh interpreters until ``ncres.cli``
is imported (``setup_s``), runs the jobs in one worker process for
``--seconds`` and checks every output.  The last line of standard output
is one JSON object: end-to-end metrics with ``--trace 0``, per-layer
metrics from a traced run with ``--trace 1``.  A record of the run goes to
``.bench_out/``.  It exits non-zero without a result when the program
cannot be imported from ``src/``.

Workloads, metrics and their reasons are described in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import jobs as joblists  # noqa: E402
import oracles  # noqa: E402
from tracer import metric_names  # noqa: E402

SETUP_PROBES = 8
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def percentile(values, q):
    """Linear interpolation between order statistics (inclusive)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def start_worker(extra, timeout):
    """Start the worker; return (process, seconds until it printed ready).

    A watchdog kills the worker when ``timeout`` runs out."""
    cmd = [sys.executable, str(HERE / "worker.py")] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    proc.watchdog = watchdog
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc)
        raise BenchError("the worker could not import ncres from src/ "
                         f"(exit code {proc.returncode})")
    return proc, ready


def finish(proc):
    """Drain, wait for and reap a worker; returns its exit code."""
    proc.stdout.read()
    rc = proc.wait()
    proc.watchdog.cancel()
    proc.stdout.close()
    return rc


def run_worker(workload, seed, seconds, trace, work, out_dir, deadline):
    jobs_path = work / "jobs.json"
    result_path = work / "result.json"
    setup = []
    for _ in range(SETUP_PROBES):
        proc, ready = start_worker(["--probe"], 60.0)
        if finish(proc) != 0:
            raise BenchError("set-up probe failed")
        setup.append(ready)
    extra = ["--jobs", str(jobs_path), "--work", str(work),
             "--result", str(result_path), "--seconds", str(seconds),
             "--trace", str(trace)]
    if trace:
        extra += ["--spans",
                  str(out_dir / f"spans-{workload}-s{seed}.csv.gz")]
    proc, ready = start_worker(extra, deadline - time.monotonic())
    setup.append(ready)
    rc = finish(proc)
    if rc != 0:
        raise BenchError(f"worker exited with code {rc}")
    return setup, json.loads(result_path.read_text())


def check(jobs, expect, result):
    """Check every operation; returns (attempted, failed, worst ratio,
    failure notes, observations by job type)."""
    outputs = result["outputs"]
    seen = {}
    attempted = failed = 0
    worst = 0.0
    notes = []
    samples = {}
    for p in result["passes"]:
        heat = []
        for i, _, rc, err, digest in p["ops"]:
            attempted += 1
            job = jobs[i]
            key = (i, digest)
            if key not in seen:
                try:
                    if err:
                        raise ValueError(err)
                    obs = oracles.observe(job, outputs[digest])
                    ratios = oracles.compare(expect[i], obs)
                    seen[key] = (obs, ratios, None)
                    samples.setdefault(job["truth"]["type"], (i, obs))
                except (ValueError, KeyError, IndexError) as exc:
                    seen[key] = (None, None, f"{job['id']}: {exc}")
            obs, ratios, note = seen[key]
            if note is None:
                bad = [(lab, r) for lab, r in ratios if not r <= 1.0]
                worst = max([worst] + [r for _, r in ratios])
                if bad:
                    note = f"{job['id']}: oracle miss {bad}"
            if note is not None:
                failed += 1
                if len(notes) < 10:
                    notes.append(note)
            elif job["truth"]["type"] == "heat_log":
                heat.append(obs["log_coefficient"])
        spread = oracles.heat_shift_spread(heat)
        worst = max(worst, spread)
        if spread > 1.0:
            failed += len(heat) - 1
            notes.append(f"heat shift invariance {spread:.2f} x tolerance")
    return attempted, failed, worst, notes, samples


def self_check(expect, samples):
    """Feed one result per job type, perturbed to twice its tolerance,
    back through the checker; returns (counted as failed, fed)."""
    fed = caught = 0
    for i, obs in samples.values():
        label, value, tol = expect[i][0]
        bad = dict(obs)
        bad[label] = obs[label] + 2.0 * tol
        fed += 1
        caught += any(not r <= 1.0 for _, r in oracles.compare(expect[i], bad))
    return caught, fed


def end_to_end(setup, result, worst):
    """Medians over the warm untraced passes.  The job percentiles are
    taken within each pass, then the median over passes: a pooled
    percentile would sit on the extreme latencies of whichever job group
    straddles it."""
    warm = [p for p in result["passes"] if not p["cold"] and not p["traced"]]

    def job_percentile(q):
        return statistics.median(percentile([op[1] for op in p["ops"]], q)
                                 for p in warm)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p["wall"] for p in warm), "s"),
        "job_p50_s": (job_percentile(0.5), "s"),
        "job_p90_s": (job_percentile(0.9), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "err_to_tol": (max(worst, oracles.ERR_FLOOR), "ratio"),
    }


def per_layer(result):
    """Counts from the first traced pass, times as medians over traced
    passes; plus the cold pass and the tracing overhead."""
    layers = result["layers"]
    passes = result["passes"]
    traced = [p["wall"] for p in passes if p["traced"]]
    untraced = [p["wall"] for p in passes if not p["traced"] and not p["cold"]]
    out = {}
    for name, unit in metric_names():
        if unit == "s":
            value = statistics.median(layer[name] for layer in layers)
        else:
            value = layers[0][name]
        out[name] = (value, unit)
    out["cold_pass_s"] = (passes[0]["wall"], "s")
    out["trace.overhead_s"] = (statistics.median(traced)
                               - statistics.median(untraced), "s")
    counts = [{k: v for k, v in layer.items()
               if not k.endswith(("_s",))} for layer in layers]
    repeatable = all(c == counts[0] for c in counts)
    return out, repeatable


def absent_metrics(absent):
    return [name for name, _ in metric_names()
            if name in absent or name.rpartition(".")[0] in absent]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=joblists.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "ncres" / "cli.py").is_file():
        print(f"no program at {ROOT / 'src' / 'ncres'}", file=sys.stderr)
        return 2

    jobs = joblists.make_jobs(args.workload, args.seed)
    digest = joblists.digest(jobs)
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs, "
          f"job list sha256 {digest}", flush=True)
    expect = [oracles.expected(job) for job in jobs]

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-",
                                 dir=ROOT / ".bench_work"))
    try:
        (work / "jobs.json").write_text(json.dumps(jobs))
        setup, result = run_worker(args.workload, args.seed, args.seconds,
                                   args.trace, work, out_dir, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, worst, notes, samples = check(jobs, expect, result)
    caught, fed = self_check(expect, samples)
    correct = failed == 0 and fed > 0 and caught == fed
    machine = {"nproc": result["threads"], "python": result["python"],
               "numpy": result["numpy"], "blas": result["blas"],
               "threads": result["threads"] if any(
                   j.get("threads") == "nproc" for j in jobs) else 1}
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    for note in notes:
        print(f"FAILED {note}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} "
          f"operations)")
    print(f"oracle self-check: {caught} of {fed} results perturbed to twice "
          f"their tolerance were counted as failures")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "job_list_sha256": digest, "machine": machine,
              "attempted": attempted, "failed": failed,
              "fail_ratio": failed / attempted, "correct": correct,
              "self_check": [caught, fed], "worst_ratio": worst,
              "setup_samples_s": setup,
              "pass_walls_s": [p["wall"] for p in result["passes"]],
              "pass_traced": [p["traced"] for p in result["passes"]],
              "job_ids": [job["id"] for job in jobs],
              "job_latencies_s": [[op[1] for op in p["ops"]]
                                  for p in result["passes"]]}
    if args.trace:
        metrics, repeatable = per_layer(result)
        absent = absent_metrics(result["absent"])
        record.update(absent=absent, counts_repeat=repeatable,
                      spans_recorded=result["spans_recorded"])
        print(f"spans recorded: {result['spans_recorded']}; computed "
              f"counts equal across traced passes: {repeatable}")
        if absent:
            print(f"absent: {' '.join(absent)}")
    else:
        metrics = end_to_end(setup, result, worst)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    name = f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1))

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
