"""Seeded job lists for the benchmark workloads.

A job list is a pure function of (workload, seed): the same pair always
gives the same list, and :func:`digest` names it.  Each job carries the
document or arguments the program sees (``config`` / ``args``) and, under
``truth``, the generated parameters the oracle needs.  The program never
sees ``truth``; the oracle never calls the program.

Thread counts are machine facts, not inputs: a job says ``"threads":
"nproc"`` and the worker fills in the number, so the digest does not depend
on the machine.

Why the draws look the way they do: every end-to-end metric is compared
across seeds, so the seed moves *where* inside each stratum a cutoff, grid
or literal falls, not how much work a pass does.  Cutoff strata span the
range in which the verify gates hold; their jitter is a few percent.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("verify_full", "spectral_jobs", "symbolic_jobs")

# (centre cutoff, relative jitter) per stratum.  The top strata set the
# peak memory and the slowest latencies, so they do not move; the lowest
# cylinder stratum sets err_to_tol (its error is about 2.3/cutoff), so it
# moves little.  The top heat job has two summation chunks (283k distinct
# eigenvalues against chunks of 262k), so the thread pool runs, while its
# peak memory stays below that of the top enumerations.
TORUS_CUTOFFS = ((320, 0.04), (700, 0.04), (1500, 0.03), (2600, 0.02),
                 (3900, 0.0))
CYLINDER_CUTOFFS = ((320, 0.02), (700, 0.04), (1500, 0.03), (2600, 0.02),
                    (3900, 0.0))
BOUNDARY_CUTOFFS = ((20_000, 0.04), (150_000, 0.04), (900_000, 0.02))
HEAT_CUTOFFS = ((160, 0.04), (400, 0.04), (1150, 0.0))
ZETA_CUTOFFS = ((260, 0.04), (500, 0.04))

SYMBOLIC_MIX = (("torus2", 36), ("torus3", 20), ("laplace_power", 10),
                ("cylinder", 30), ("parametric", 24))


def make_jobs(workload, seed):
    """The job list of ``workload`` for ``seed`` (a non-negative integer)."""
    rng = random.Random(f"{workload}/{int(seed)}")
    if workload == "verify_full":
        # the command users run, at its default seed: verify's seed changes
        # the work of criterion 02 by about 10%, more than a timing bound
        # can absorb, so the benchmark seed does not enter this workload
        return [{"id": "verify", "kind": "cli", "task": "verify",
                 "args": ["--seed", "0", "--threads", "1"],
                 "truth": {"type": "verify"}}]
    if workload == "spectral_jobs":
        return _spectral_jobs(rng)
    if workload == "symbolic_jobs":
        return _symbolic_jobs(rng)
    raise ValueError(f"unknown workload {workload!r}")


def digest(jobs):
    """sha256 of the canonical JSON form of a job list (16 hex digits)."""
    text = json.dumps(jobs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _jitter(rng, centre, rel):
    return centre * (1.0 + rel * (2.0 * rng.random() - 1.0))


def _r(x, digits=3):
    return round(x, digits)


# ---------------------------------------------------------------------------
# spectral_jobs: dixmier / heat / zeta CLI jobs and half-space calls


def _spectral_jobs(rng):
    jobs = []

    def cli(job_id, task, section, truth):
        jobs.append({"id": job_id, "kind": "cli", "task": task,
                     "threads": "nproc",
                     "config": {"task": task, "seed": 0, task: section},
                     "truth": truth})

    for i, (c, rel) in enumerate(TORUS_CUTOFFS):
        scale = _r(rng.uniform(0.5, 2.0))
        cli(f"dixmier-torus-{i}", "dixmier", {
            "model": {"kind": "torus_lattice", "dim": 2,
                      "cutoff": int(_jitter(rng, c, rel))},
            "weight": {"power": -1.0, "shift": 1.0, "scale": scale}},
            {"type": "dixmier", "model": "torus", "scale": scale})
    for i, (c, rel) in enumerate(CYLINDER_CUTOFFS):
        scale = _r(rng.uniform(0.5, 2.0))
        cli(f"dixmier-cylinder-{i}", "dixmier", {
            "model": {"kind": "dirichlet_cylinder", "dim": 2,
                      "cutoff": int(_jitter(rng, c, rel))},
            "weight": {"power": -1.0, "shift": 0.0, "scale": scale}},
            {"type": "dixmier", "model": "cylinder", "scale": scale})
    for i, (c, rel) in enumerate(BOUNDARY_CUTOFFS):
        scale = _r(rng.uniform(0.5, 2.0))
        cli(f"dixmier-boundary-{i}", "dixmier", {
            "model": {"kind": "boundary_lattice", "dim": 1, "copies": 2,
                      "cutoff": int(_jitter(rng, c, rel))},
            "weight": {"power": -0.5, "shift": 1.0, "scale": scale}},
            {"type": "dixmier", "model": "boundary", "scale": scale})
    for i, (c, rel) in enumerate(HEAT_CUTOFFS):
        cli(f"heat-torus-{i}", "heat", {
            "model": {"kind": "torus_lattice", "dim": 2,
                      "cutoff": int(_jitter(rng, c, rel))},
            "p_weight": {"power": -1.0, "shift": 1.0},
            "a_weight": {"power": 1.0, "shift": _r(rng.uniform(1.0, 2.0))},
            "t_grid": _t_grid(rng, 1e-3, 5e-2, 40),
            "exponents": [0.0, 0.5, 1.0, 1.5, 2.0],
            "log_exponents": [0.0, 1.0]},
            {"type": "heat_log"})
    for i, ((c, rel), sigma) in enumerate(zip(ZETA_CUTOFFS, (1.0, 0.0))):
        model = {"kind": "torus_lattice", "dim": 2,
                 "cutoff": int(_jitter(rng, c, rel))}
        a_weight = {"power": 1.0, "shift": _r(rng.uniform(1.0, 2.0))}
        if sigma == 1.0:
            section = {"model": model, "p_weight": {"power": 0.0},
                       "a_weight": a_weight, "sigma": 1.0,
                       "t_grid": _t_grid(rng, 1e-3, 5e-2, 40),
                       "exponents": [-1.0, 0.0, 1.0, 2.0, 3.0],
                       "log_exponents": []}
        else:
            section = {"model": model,
                       "p_weight": {"power": -1.0, "shift": 1.0},
                       "a_weight": a_weight, "sigma": 0.0,
                       "t_grid": _t_grid(rng, 1e-3, 5e-2, 40),
                       "exponents": [0.0, 0.5, 1.0, 1.5, 2.0],
                       "log_exponents": [0.0, 1.0]}
        cli(f"zeta-torus-{i}", "zeta", section,
            {"type": "zeta", "sigma": sigma})
    for i in range(2):
        grid = _t_grid(rng, 1.5e-3, 5e-2, 30)
        jobs.append({"id": f"halfspace-{i}", "kind": "halfspace",
                     "threads": "nproc",
                     "kwargs": {"t_start": grid["start"],
                                "t_stop": grid["stop"],
                                "points": grid["points"],
                                "shift": _r(rng.uniform(0.5, 2.0)),
                                "m_cutoff": 4000},
                     "truth": {"type": "halfspace"}})
    return jobs


def _t_grid(rng, start, stop, points):
    """Geometric t grid widened by up to 10% at each end: the fits need at
    least 1.5 decades, and the unjittered grids are the verify ones."""
    return {"start": float(f"{start * (1.0 - 0.1 * rng.random()):.4g}"),
            "stop": float(f"{stop * (1.0 + 0.1 * rng.random()):.4g}"),
            "points": points + rng.randint(-3, 3)}


# ---------------------------------------------------------------------------
# symbolic_jobs: residue and parametric CLI jobs from generated literals


def _symbolic_jobs(rng):
    kinds = [k for k, count in SYMBOLIC_MIX for _ in range(count)]
    rng.shuffle(kinds)
    jobs = []
    for i, kind in enumerate(kinds):
        job_id = f"{kind}-{i}"
        if kind in ("torus2", "torus3"):
            n = int(kind[-1])
            atoms = _torus_atoms(rng, n, rng.randint(2, 6), top=-n + 2)
            jobs.append(_residue_job(job_id, {
                "geometry": {"kind": "torus", "dim": n},
                "p": {"literal": literal(atoms)}},
                {"type": "residue_torus", "n": n, "p": atoms}))
        elif kind == "laplace_power":
            n, exponent = rng.choice([(2, -1.0), (2, -2.0), (2, -0.5),
                                      (2, 0.5), (2, 1.0), (3, -1.5),
                                      (3, -0.5), (3, -1.0), (3, 0.5)])
            depth = max(math.ceil(exponent + n / 2.0), 0) + rng.randint(0, 2)
            jobs.append(_residue_job(job_id, {
                "geometry": {"kind": "torus", "dim": n},
                "p": {"shifted_laplacian_power": {"exponent": exponent,
                                                  "depth": depth}}},
                {"type": "residue_laplace_power", "n": n,
                 "exponent": exponent, "depth": depth}))
        elif kind == "cylinder":
            jobs.append(_cylinder_job(rng, job_id))
        else:
            jobs.append(_parametric_job(rng, job_id))
    return jobs


def _residue_job(job_id, section, truth):
    return {"id": job_id, "kind": "cli", "task": "residue",
            "config": {"task": "residue", "seed": 0, "residue": section},
            "truth": truth}


def _coeff(rng, floor=0.0):
    """Complex coefficient with 3 decimals; |re| >= floor when floor > 0."""
    re = rng.uniform(floor, 2.0) * rng.choice((-1.0, 1.0))
    return [_r(re), _r(rng.uniform(-2.0, 2.0))]


def _split(rng, total, n):
    """Random multi-index of length n summing to total."""
    alpha = [0] * n
    for _ in range(total):
        alpha[rng.randrange(n)] += 1
    return alpha


def _freq(rng, n, p_zero=0.5):
    if rng.random() < p_zero:
        return [0] * n
    return [rng.randint(-2, 2) for _ in range(n)]


def _torus_atoms(rng, n, count, top):
    """Atoms [coeff, freq, alpha, w] with integer degrees <= top.

    The first atom is a zero-frequency atom of degree -n with an even
    multi-index, so the residue is not trivially zero."""
    atoms = []
    for i in range(count):
        if i == 0:
            alpha = [0] * n
            alpha[rng.randrange(n)] = rng.choice((0, 2))
            atoms.append([_coeff(rng, 0.1), [0] * n, alpha,
                          -n - sum(alpha)])
            continue
        deg = rng.choice((-n, -n, -n + 1, -n - 1, top))
        alpha = _split(rng, rng.randint(0, 3), n)
        atoms.append([_coeff(rng), _freq(rng, n), alpha, deg - sum(alpha)])
    return atoms


def _even_atoms(rng, n, count, degrees):
    """Atoms whose radial power w is even: each is then even or odd in xi
    with the parity of its degree, which is the transmission condition the
    cylinder residue checks before it reads the interior symbol."""
    atoms = []
    for i in range(count):
        deg = -n if i == 0 else rng.choice(degrees)
        total = rng.choice([t for t in range(4) if (t - deg) % 2 == 0])
        atoms.append([_coeff(rng, 0.1 if i == 0 else 0.0),
                      [0] * n if i == 0 else _freq(rng, n),
                      _split(rng, total, n), deg - total])
    return atoms


def _boundary_atoms(rng, count, degree, others):
    """1-D atoms; the first has the given degree and zero frequency."""
    atoms = []
    for i in range(count):
        deg = degree if i == 0 else rng.choice((degree,) + others)
        a = rng.randint(0, 2)
        atoms.append([_coeff(rng, 0.1 if i == 0 else 0.0),
                      [0] if i == 0 else _freq(rng, 1), [a], deg - a])
    return atoms


def _pole_fn(rng, upper):
    """Rational function in split form with poles off the real axis."""
    poles = []
    for _ in range(rng.randint(1, 2)):
        im = _r(rng.uniform(0.5, 2.0), 2)
        poles.append({"pole": [_r(rng.uniform(-1.0, 1.0), 2),
                               im if upper else -im],
                      "order": rng.randint(1, 2),
                      "coeff": _coeff(rng, 0.1)})
    return {"poles": poles}


def _cylinder_job(rng, job_id):
    p = _even_atoms(rng, 2, rng.randint(1, 4), (-2, -1, -3, 0))
    s = _boundary_atoms(rng, rng.randint(1, 3), -1, (0, -2))
    green = []
    for _ in range(rng.randint(1, 2)):
        b = _boundary_atoms(rng, rng.randint(1, 2), -2, (-1,))
        pairs = [{"k": _pole_fn(rng, True), "t": _pole_fn(rng, False)}
                 for _ in range(rng.randint(1, 2))]
        green.append({"degree": -2, "b": literal(b), "pairs": pairs,
                      "type": 0, "_b_atoms": b})
    section = {"geometry": {"kind": "cylinder", "dim": 2},
               "p": {"literal": literal(p)},
               "s": {"literal": literal(s)},
               "green": [{k: v for k, v in g.items() if k != "_b_atoms"}
                         for g in green]}
    truth = {"type": "residue_cylinder", "p": p, "s": s,
             "green": [{"b": g["_b_atoms"], "pairs": g["pairs"]}
                       for g in green]}
    return _residue_job(job_id, section, truth)


def _parametric_job(rng, job_id):
    p = _torus_atoms(rng, 2, rng.randint(1, 4), top=0)
    m = rng.randint(1, 2)
    a_literal = f"|xi|^{m}"
    if rng.random() < 0.5:
        c = _coeff(rng)
        a_literal += " + " + literal([[c, [1, 0], [0, 0], m - 1]])
    power = rng.randint(1, 3)
    section = {"dim": 2, "p": {"literal": literal(p)},
               "a": {"literal": a_literal, "order": m},
               "power": power, "levels": rng.randint(1, 3)}
    return {"id": job_id, "kind": "cli", "task": "parametric",
            "config": {"task": "parametric", "seed": 0,
                       "parametric": section},
            "truth": {"type": "parametric", "n": 2, "p": p, "m": m,
                      "power": power}}


def literal(atoms):
    """Render atoms [[re, im], freq, alpha, w] in the symbol grammar."""
    parts = []
    for (re, im), k, alpha, w in atoms:
        sign = "+" if im >= 0 else "-"
        factors = [f"({re!r}{sign}{abs(im)!r}j)"]
        if any(k):
            factors.append("exp(i*(%s).x)" % ",".join(str(v) for v in k))
        if any(alpha):
            factors.append("xi^(%s)" % ",".join(str(v) for v in alpha))
        if w:
            factors.append(f"|xi|^{int(w)}")
        parts.append(" * ".join(factors))
    return " + ".join(parts)
