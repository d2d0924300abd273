"""The workload process: imports ``ncres`` from the checkout and runs jobs.

Started by ``run.py`` in a fresh interpreter so that its start-up, memory
and timings belong to the program alone.  It prints ``ready`` once
``ncres.cli`` is imported; with ``--probe`` it stops there.  Otherwise it
reads a job list, runs passes over it until ``--seconds`` have passed (the
first pass is the cold one) and writes timings, outputs and, with
``--trace 1``, per-layer aggregates to ``--result``.

Job outputs are read back from the files the program wrote, outside the
timed region, and stored once per distinct content.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_program():
    """Import ``ncres.cli`` from ``<checkout>/src`` and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import ncres.cli
    src = (ROOT / "src" / "ncres").resolve()
    if Path(ncres.cli.__file__).resolve().parent != src:
        raise ImportError(f"ncres imported from {ncres.cli.__file__}, "
                          f"not from {src}")
    return ncres.cli


def nproc():
    return len(os.sched_getaffinity(0))


def _read_csv(path):
    meta, rows = {}, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        else:
            rows.append(line.split(","))
    return meta, rows


class Runner:
    def __init__(self, cli, jobs, work):
        import numpy as np
        from ncres import heatzeta
        self.cli, self.jobs, self.work = cli, jobs, Path(work)
        self.np, self.heatzeta = np, heatzeta
        self.threads = nproc()
        self.outputs = {}
        self.argv = [self._argv(i, job) for i, job in enumerate(jobs)]

    def _argv(self, i, job):
        if job["kind"] != "cli":
            return None
        out = self.work / "out" / f"{i:04d}-{job['id']}"
        argv = [job["task"]]
        if "config" in job:
            cfg = self.work / "cfg" / f"{i:04d}-{job['id']}.json"
            cfg.parent.mkdir(parents=True, exist_ok=True)
            cfg.write_text(json.dumps(job["config"], indent=1))
            argv += ["--config", str(cfg)]
        argv += list(job.get("args", [])) + ["--out", str(out)]
        if job.get("threads") == "nproc":
            argv += ["--threads", str(self.threads)]
        return argv

    def run_job(self, i):
        """(latency, exit code, error text, output digest) of one job."""
        job, argv = self.jobs[i], self.argv[i]
        stdout = io.StringIO()
        err, rc, payload = "", None, None
        t0 = time.perf_counter()
        try:
            if argv is not None:
                with contextlib.redirect_stdout(stdout):
                    rc = self.cli.main(argv)
            else:
                kw = job["kwargs"]
                res = self.heatzeta.boundary_heat_test(
                    t_grid=self.np.geomspace(kw["t_start"], kw["t_stop"],
                                             kw["points"]),
                    shift=kw["shift"], m_cutoff=kw["m_cutoff"],
                    threads=self.threads)
                rc = 0
        except Exception as exc:  # a failed job is counted, not fatal
            err = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if not err:
            try:
                if argv is None:
                    payload = {"log_coefficient": repr(res.log_coefficient)}
                else:
                    payload = self._read_outputs(job, argv, rc, stdout)
            except (OSError, ValueError) as exc:
                err = f"output: {type(exc).__name__}: {exc}"
        digest = None
        if payload is not None:
            text = json.dumps(payload, sort_keys=True)
            digest = hashlib.sha256(text.encode()).hexdigest()[:20]
            self.outputs.setdefault(digest, payload)
        return latency, rc, err, digest

    def _read_outputs(self, job, argv, rc, stdout):
        out = Path(argv[argv.index("--out") + 1])
        task = job["task"]
        payload = {"rc": rc}
        if rc == 0:
            meta, rows = _read_csv(out / f"{task}.csv")
            payload["csv_meta"] = meta
            if len(rows) <= 64:
                payload["csv_rows"] = rows
            if task == "heat":
                payload["report"] = (out / f"{task}.txt").read_text()
        if task == "verify":
            payload["stdout"] = stdout.getvalue()
        return payload

    def run_pass(self):
        """One pass over the job list: (wall, [(job, latency, rc, err,
        digest)]).  Wall time is the sum of the job latencies."""
        gc.collect()
        ops = [(i,) + self.run_job(i) for i in range(len(self.jobs))]
        return sum(op[1] for op in ops), ops


def blas_facts(np):
    """numpy's BLAS build and the thread count it runs with."""
    facts = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts = {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")}
    except (KeyError, TypeError):
        pass
    facts["env"] = {k: os.environ[k] for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS") if k in os.environ}
    try:
        import ctypes
        libs = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                      .glob("*openblas*"))
        for path in libs:
            lib = ctypes.CDLL(str(path))
            for fn in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
                f = getattr(lib, fn, None)
                if f is not None:
                    f.restype = ctypes.c_int
                    facts["threads"] = int(f())
                    break
    except OSError:
        pass
    return facts


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--jobs")
    ap.add_argument("--work")
    ap.add_argument("--result")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    cli = import_program()
    print("ready", flush=True)
    if args.probe:
        return 0

    jobs = json.loads(Path(args.jobs).read_text())
    runner = Runner(cli, jobs, args.work)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    passes = []
    t_start = time.perf_counter()
    wall, ops = runner.run_pass()
    passes.append({"cold": True, "traced": False, "wall": wall, "ops": ops})
    # the high-water mark of one pass over the job list; repeated passes
    # only add what the allocator keeps from earlier threaded jobs, which
    # differs from run to run
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = []
    # at least two warm passes; a traced run alternates untraced and traced
    while time.perf_counter() - t_start < args.seconds or len(passes) < 3:
        traced = tracer is not None and len(passes) % 2 == 0
        if traced:
            tracer.install()
        try:
            wall, ops = runner.run_pass()
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            layers.append(tracer.take_pass())
        passes.append({"cold": False, "traced": traced, "wall": wall,
                       "ops": ops})

    result = {
        "passes": passes,
        "outputs": runner.outputs,
        "peak_rss_mb": peak_rss_mb,
        "threads": runner.threads,
        "python": sys.version.split()[0],
        "numpy": runner.np.__version__,
        "blas": blas_facts(runner.np),
    }
    if tracer is not None:
        result["layers"] = layers
        result["absent"] = tracer.absent
        result["spans_recorded"] = len(tracer.spans)
        if args.spans:
            tracer.write_spans(args.spans)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())
