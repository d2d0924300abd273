"""Spans around the public functions of each ``ncres`` layer.

The tracer lives in the benchmark, not in the program: :meth:`Tracer.install`
rebinds each traced name in every ``ncres.*`` module that holds it (module
globals, lists of functions such as ``verify.ALL_CHECKS``, class
attributes), and :meth:`Tracer.uninstall` puts the originals back.  The
wrappers are generated with the original's parameter list, so code that
inspects a function's signature or ``__code__`` (``verify.run_all`` does)
sees the same thing.  A name that no longer exists is reported absent.

Self time is a span's duration minus the durations of its child spans on
the same thread.  Spans are kept in memory and written out at the end.
The counts below are computed from call arguments and results, never
timed, so they repeat exactly for one job list.
"""

from __future__ import annotations

import gzip
import inspect
import math
import sys
import threading
import time

# (metric prefix, module, attribute path, computed counts)
TARGETS = (
    ("symbols.hom_term", "symbols", "hom_term", ("atoms_in", "atoms_out")),
    ("symbols.classical_symbol", "symbols", "classical_symbol", ()),
    ("symbols.leibniz_compose", "symbols", "leibniz_compose", ()),
    ("symbols.HomTerm.times", "symbols", "HomTerm.times", ()),
    ("residue.wodzicki_residue", "residue", "wodzicki_residue", ()),
    ("residue.boundary_residue", "residue", "boundary_residue", ()),
    ("halfline.rational", "halfline", "rational", ()),
    ("halfline.pi_prime", "halfline", "pi_prime", ()),
    ("halfline.sg_trace", "halfline", "sg_trace", ()),
    ("halfline.compose_gg", "halfline", "compose_gg", ()),
    ("parametric.resolvent_log_coefficient", "parametric",
     "resolvent_log_coefficient", ()),
    ("cli.main", "cli", "main", ()),
    ("config.validate_config", "config", "validate_config", ()),
    ("literals.parse_symbol", "literals", "parse_symbol", ()),
    ("spectral.enumerate_spectrum", "spectral", "enumerate_spectrum",
     ("modes", "table_bytes", "repeat_share")),
    ("spectral.dixmier_estimate", "spectral", "dixmier_estimate", ()),
    ("heatzeta.fit_expansion", "heatzeta", "fit_expansion", ()),
    ("heatzeta.zeta_residue", "heatzeta", "zeta_residue", ()),
    ("heatzeta.heat_samples", "heatzeta", "heat_samples", ("exp_evals",)),
    ("heatzeta.halfspace_heat_samples", "heatzeta",
     "halfspace_heat_samples", ("bracket_flops",)),
    ("heatzeta.boundary_heat_test", "heatzeta", "boundary_heat_test", ()),
    ("summation.chunked_sum", "summation", "chunked_sum", ("chunks",)),
)

# every public function of the module is traced and reported under one
# prefix
MODULE_TARGETS = (("writers", "writers"),)

VERIFY_CHECKS = ("check_residue_closed_form", "check_trace_property",
                 "check_boundary_algebra", "check_connes_identity",
                 "check_boundary_dixmier", "check_heat_log_coefficient",
                 "check_zeta_residues", "check_parametric_routes",
                 "check_boundary_heat", "check_determinism")

COUNT_UNITS = {"atoms_in": "count", "atoms_out": "count", "modes": "count",
               "table_bytes": "B", "repeat_share": "ratio",
               "exp_evals": "count", "bracket_flops": "flop",
               "chunks": "count"}


def metric_names():
    """[(name, unit)] of every per-layer metric the tracer reports."""
    out = []
    for prefix, _, _, counts in TARGETS:
        out += [(f"{prefix}.calls", "count"), (f"{prefix}.self_s", "s")]
        out += [(f"{prefix}.{c}", COUNT_UNITS[c]) for c in counts]
    for prefix, _ in MODULE_TARGETS:
        out += [(f"{prefix}.calls", "count"), (f"{prefix}.self_s", "s")]
    out += [(f"verify.{c}.total_s", "s") for c in VERIFY_CHECKS]
    return out


class _Frame:
    __slots__ = ("key", "t0", "child", "notes")

    def __init__(self, key, t0):
        self.key = key
        self.t0 = t0
        self.child = 0.0
        self.notes = None


class Tracer:
    """Install with :meth:`install`, run, :meth:`uninstall`; one pass's
    aggregates come from :meth:`take_pass`."""

    def __init__(self):
        self._tls = threading.local()
        self._keys = []          # span key index -> (prefix, function)
        self.spans = []          # (key index, depth, t0, t1), all passes
        self.absent = []         # names that could not be resolved
        self._restore = []
        self._reset_pass()

    # -- per-pass aggregates -------------------------------------------------

    def _reset_pass(self):
        self.stats = {}          # prefix -> {"calls", "self_s", "total_s"}
        self.counts = {}         # metric name -> computed count
        self._seen_models = set()
        self._enumerations = 0
        self._repeats = 0

    def take_pass(self):
        """Return this pass's {metric: value} and start a new pass."""
        out = {}
        for name, _ in metric_names():
            prefix, _, stat = name.rpartition(".")
            out[name] = self.stats.get(prefix, {}).get(stat, 0)
        out.update(self.counts)
        if self._enumerations:
            out["spectral.enumerate_spectrum.repeat_share"] = \
                self._repeats / self._enumerations
        self._reset_pass()
        return out

    def _count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    # -- span bookkeeping ----------------------------------------------------

    def _stack(self):
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _push(self, key):
        frame = _Frame(key, time.perf_counter())
        self._stack().append(frame)
        return frame

    def _pop(self, frame):
        t1 = time.perf_counter()
        stack = self._stack()
        stack.pop()
        dur = t1 - frame.t0
        if stack:
            stack[-1].child += dur
        self.spans.append((frame.key, len(stack), frame.t0, t1))
        prefix = self._keys[frame.key][0]
        st = self.stats.get(prefix)
        if st is None:
            st = self.stats[prefix] = {"calls": 0, "self_s": 0.0,
                                       "total_s": 0.0}
        st["calls"] += 1
        st["self_s"] += dur - frame.child
        st["total_s"] += dur
        return stack[-1] if stack else None

    # -- installation --------------------------------------------------------

    def install(self):
        """Rebind every traced name; unresolved ones go to ``absent``."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "ncres" or name.startswith("ncres.")}
        targets = [(prefix, module, path,
                    getattr(self, f"_hook_{path}") if counts else None)
                   for prefix, module, path, counts in TARGETS]
        for prefix, module in MODULE_TARGETS:
            mod = mods.get(f"ncres.{module}")
            if mod is None:
                self._mark_absent(prefix)
                continue
            targets += [(prefix, module, attr, None)
                        for attr, val in sorted(vars(mod).items())
                        if inspect.isfunction(val) and not attr.startswith("_")
                        and val.__module__ == mod.__name__]
        targets += [(f"verify.{check}", "verify", check, None)
                    for check in VERIFY_CHECKS]
        for prefix, module, path, hook in targets:
            mod = mods.get(f"ncres.{module}")
            owner, _, attr = path.rpartition(".")
            try:
                owner = getattr(mod, owner) if owner else mod
                orig = getattr(owner, attr)
            except AttributeError:
                self._mark_absent(prefix)
                continue
            if not inspect.isfunction(orig):
                self._mark_absent(prefix)
                continue
            key = len(self._keys)
            self._keys.append((prefix, f"{module}.{path}"))
            wrapper = self._wrap(orig, key, hook)
            if owner is not mod:
                setattr(owner, attr, wrapper)
                self._restore.append((setattr, owner, attr, orig))
            else:
                self._rebind_everywhere(mods, orig, wrapper)

    def _mark_absent(self, prefix):
        if prefix not in self.absent:
            self.absent.append(prefix)

    def _rebind_everywhere(self, mods, orig, wrapper):
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)
                    self._restore.append((setattr, mod, attr, orig))
                elif isinstance(val, list) and any(v is orig for v in val):
                    for i, v in enumerate(val):
                        if v is orig:
                            val[i] = wrapper
                            self._restore.append(
                                (list.__setitem__, val, i, orig))
                elif isinstance(val, tuple) and any(v is orig for v in val):
                    setattr(mod, attr, tuple(wrapper if v is orig else v
                                             for v in val))
                    self._restore.append((setattr, mod, attr, val))

    def uninstall(self):
        for fn, owner, attr, orig in reversed(self._restore):
            fn(owner, attr, orig)
        self._restore = []

    def _wrap(self, orig, key, hook):
        """A function with ``orig``'s parameter list that records a span."""
        sig = inspect.signature(orig)
        params, call, bound, ns = [], [], [], {}
        star_done = False
        for i, p in enumerate(sig.parameters.values()):
            text = p.name
            if p.kind is p.VAR_POSITIONAL:
                text, star_done = "*" + p.name, True
                call.append("*" + p.name)
            elif p.kind is p.VAR_KEYWORD:
                text = "**" + p.name
                call.append("**" + p.name)
            elif p.kind is p.KEYWORD_ONLY:
                if not star_done:
                    params.append("*")
                    star_done = True
                call.append(f"{p.name}={p.name}")
            else:
                call.append(p.name)
            if p.default is not p.empty:
                ns[f"_d{i}"] = p.default
                text += f"=_d{i}"
            params.append(text)
            bound.append(f"{p.name!r}: {p.name}")
        name = orig.__name__
        hook_line = ("    _hook({%s}, _r, _f, _parent)\n" % ", ".join(bound)
                     if hook else "")
        src = (f"def {name}({', '.join(params)}):\n"
               f"    _f = _push(_key)\n"
               f"    try:\n"
               f"        _r = _orig({', '.join(call)})\n"
               f"    except BaseException:\n"
               f"        _pop(_f)\n"
               f"        raise\n"
               f"    _parent = _pop(_f)\n"
               f"{hook_line}"
               f"    return _r\n")
        ns.update(_push=self._push, _pop=self._pop, _orig=orig, _key=key,
                  _hook=hook and self._safe(hook, key))
        exec(compile(src, f"<trace {name}>", "exec"), ns)
        wrapper = ns[name]
        wrapper.__wrapped__ = orig
        wrapper.__doc__ = orig.__doc__
        wrapper.__qualname__ = orig.__qualname__
        wrapper.__module__ = orig.__module__
        return wrapper

    def _safe(self, hook, key):
        """A hook that fails (a refactor renamed an argument) marks its
        counts absent instead of stopping the run."""
        prefix = self._keys[key][0]
        counts = next(c for p, _, _, c in TARGETS if p == prefix)

        def run(bound, result, frame, parent):
            try:
                hook(bound, result, frame, parent)
            except Exception:
                for c in counts:
                    self._mark_absent(f"{prefix}.{c}")
        return run

    # -- computed counts -----------------------------------------------------

    def _hook_hom_term(self, bound, result, frame, parent):
        self._count("symbols.hom_term.atoms_in", len(bound["atoms"]))
        self._count("symbols.hom_term.atoms_out", len(result.atoms))

    def _hook_enumerate_spectrum(self, bound, result, frame, parent):
        model = bound["model"]
        key = repr(model)
        self._enumerations += 1
        if key in self._seen_models:
            self._repeats += 1
        self._seen_models.add(key)
        self._count("spectral.enumerate_spectrum.modes",
                    int(result.counts.sum()))
        # dense eigenvalue-indexed int64 table (R^2 + 1 entries) for dim >= 2,
        # plus the returned arrays
        table = 0
        if model.dim >= 2:
            r = int(model.cutoff)
            table = 8 * (r * r + 1)
        table += result.values.nbytes + result.counts.nbytes \
            + result.weights.nbytes
        self._count("spectral.enumerate_spectrum.table_bytes", table)
        if parent is not None:
            parent.notes = {"eigenvalues": int(result.values.size)}

    def _hook_heat_samples(self, bound, result, frame, parent):
        size = (frame.notes or {}).get("eigenvalues")
        if size is None:  # a spectrum passed in instead of enumerated
            size = next(int(v.values.size) for v in bound.values()
                        if hasattr(v, "values") and hasattr(v, "counts"))
        self._count("heatzeta.heat_samples.exp_evals",
                    len(bound["t_grid"]) * size)

    def _hook_halfspace_heat_samples(self, bound, result, frame, parent):
        if bound["identity_p"]:
            return
        jmax = int(math.ceil(9.0 / math.sqrt(min(bound["t_grid"]))))
        m = 2 * int(bound["m_cutoff"]) + 1
        # one multiply-add per (j, m, k) in the bracket sum; k runs 0..jmax
        self._count("heatzeta.halfspace_heat_samples.bracket_flops",
                    2 * jmax * m * (jmax + 1))

    def _hook_chunked_sum(self, bound, result, frame, parent):
        n, chunk = int(bound["n"]), int(bound["chunk"])
        self._count("summation.chunked_sum.chunks",
                    max(0, -(-n // chunk)))

    # -- output --------------------------------------------------------------

    def write_spans(self, path):
        """Write every recorded span: key, depth, start and end (ns)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("key,function,depth,t0_ns,t1_ns\n")
            names = [f"{p},{f}" for p, f in self._keys]
            for key, depth, t0, t1 in self.spans:
                fh.write(f"{names[key]},{depth},{int(t0 * 1e9)},"
                         f"{int(t1 * 1e9)}\n")
