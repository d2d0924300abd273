"""Job configuration: JSON schema, validation and object construction.

A job is one JSON document.  Shared fields: ``task``, ``seed``, ``threads``,
``output_dir``; one section per task carries the inputs (symbol literals in
the grammar of :mod:`ncres.literals`, rational functions as pole lists or
coefficient ratios, spectrum models, t grids).  Runs are fully determined
by the document plus the seed; reports embed the document's sha256.

Validation is two-stage: JSON syntax errors carry the exact line/column
from the decoder; schema violations carry the JSON path and a best-effort
line number located by scanning the source for the offending key.
"""

from __future__ import annotations

import hashlib
import json
import re

import jsonschema
import numpy as np

from .errors import ConfigError
from .halfline import boundary_term, from_ratio, rational, sg_symbol
from .literals import parse_symbol
from .residue import BdMSymbol, Cylinder, Torus
from .spectral import SpectralWeight, SpectrumModel
from .symbols import laplace_shift_power

TASKS = ("residue", "dixmier", "heat", "zeta", "parametric", "verify")

_COMPLEX = {"oneOf": [{"type": "number"},
                      {"type": "array", "items": {"type": "number"},
                       "minItems": 2, "maxItems": 2}]}
_RATIONAL = {
    "type": "object",
    "properties": {
        "poles": {"type": "array", "items": {
            "type": "object",
            "properties": {"pole": _COMPLEX, "order": {"type": "integer"},
                           "coeff": _COMPLEX},
            "required": ["pole"], "additionalProperties": False}},
        "poly": {"type": "array", "items": _COMPLEX},
        "num": {"type": "array", "items": _COMPLEX},
        "den": {"type": "array", "items": _COMPLEX},
    },
    "additionalProperties": False,
}
_SYMBOL = {
    "type": "object",
    "properties": {
        "literal": {"type": "string"},
        "shifted_laplacian_power": {
            "type": "object",
            "properties": {"exponent": {"type": "number"},
                           "depth": {"type": "integer", "minimum": 0}},
            "required": ["exponent", "depth"], "additionalProperties": False},
        "order": {"type": "integer"},
        "exact_floor": {"type": "number"},
    },
    "additionalProperties": False,
}
_WEIGHT = {
    "type": "object",
    "properties": {"power": {"type": "number"}, "shift": {"type": "number"},
                   "rate": {"type": "number"}, "scale": {"type": "number"}},
    "additionalProperties": False,
}
_MODEL = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["torus_lattice", "dirichlet_cylinder",
                          "boundary_lattice"]},
        "dim": {"type": "integer", "minimum": 1, "maximum": 3},
        "cutoff": {"type": "number", "minimum": 1},
        "copies": {"type": "integer", "minimum": 1},
        "mode_cap": {"type": "number", "minimum": 1},
    },
    "required": ["kind", "dim", "cutoff"],
    "additionalProperties": False,
}
_GEOMETRY = {
    "type": "object",
    "properties": {"kind": {"enum": ["torus", "cylinder"]},
                   "dim": {"type": "integer", "minimum": 1, "maximum": 3}},
    "required": ["kind", "dim"],
    "additionalProperties": False,
}
_BOUNDARY_TERM = {
    "type": "object",
    "properties": {
        "degree": {"type": "number"},
        "b": {"type": "string"},
        "pairs": {"type": "array", "items": {
            "type": "object",
            "properties": {"k": _RATIONAL, "t": _RATIONAL},
            "required": ["k", "t"], "additionalProperties": False}},
        "fiber": _RATIONAL,
        "type": {"type": "integer", "minimum": 0},
    },
    "required": ["degree", "b"],
    "additionalProperties": False,
}
_TGRID = {
    "type": "object",
    "properties": {"start": {"type": "number", "exclusiveMinimum": 0},
                   "stop": {"type": "number", "exclusiveMinimum": 0},
                   "points": {"type": "integer", "minimum": 4}},
    "required": ["start", "stop", "points"],
    "additionalProperties": False,
}
# an operator-matrix (BdM) symbol: the residue task and dixmier.formula
_RESIDUE = {
    "type": "object",
    "properties": {
        "geometry": _GEOMETRY,
        "p": _SYMBOL,
        "s": _SYMBOL,
        "green": {"type": "array", "items": _BOUNDARY_TERM},
        "potential": {"type": "array", "items": _BOUNDARY_TERM},
        "trace": {"type": "array", "items": _BOUNDARY_TERM},
        "order": {"type": "integer"},
        "type": {"type": "integer", "minimum": 0},
    },
    "required": ["geometry"],
    "additionalProperties": False,
}

SCHEMA = {
    "type": "object",
    "properties": {
        "task": {"enum": list(TASKS)},
        "seed": {"type": "integer", "minimum": 0},
        "threads": {"type": "integer", "minimum": 1, "maximum": 64},
        "output_dir": {"type": "string"},
        "residue": _RESIDUE,
        "dixmier": {
            "type": "object",
            "properties": {
                "model": _MODEL,
                "weight": _WEIGHT,
                "window_decades": {"type": "number", "minimum": 0.5},
                "formula": _RESIDUE,
            },
            "required": ["model", "weight"],
            "additionalProperties": False,
        },
        "heat": {
            "type": "object",
            "properties": {
                "model": _MODEL,
                "p_weight": _WEIGHT,
                "a_weight": _WEIGHT,
                "t_grid": _TGRID,
                "exponents": {"type": "array", "items": {"type": "number"}},
                "log_exponents": {"type": "array",
                                  "items": {"type": "number"}},
            },
            "required": ["model", "p_weight", "a_weight", "t_grid"],
            "additionalProperties": False,
        },
        "zeta": {
            "type": "object",
            "properties": {
                "model": _MODEL,
                "p_weight": _WEIGHT,
                "a_weight": _WEIGHT,
                "sigma": {"type": "number", "minimum": 0},
                "t_grid": _TGRID,
                "exponents": {"type": "array", "items": {"type": "number"}},
                "log_exponents": {"type": "array",
                                  "items": {"type": "number"}},
            },
            "required": ["model", "p_weight", "a_weight", "sigma"],
            "additionalProperties": False,
        },
        "parametric": {
            "type": "object",
            "properties": {
                "dim": {"type": "integer", "minimum": 1, "maximum": 3},
                "p": _SYMBOL,
                "a": _SYMBOL,
                "power": {"type": "integer", "minimum": 1},
                "levels": {"type": "integer", "minimum": 1},
            },
            "required": ["dim", "p", "a", "power"],
            "additionalProperties": False,
        },
        "verify": {
            "type": "object",
            "properties": {"fast": {"type": "boolean"}},
            "additionalProperties": False,
        },
    },
    "required": ["task"],
    "additionalProperties": False,
}


def config_hash(cfg):
    """sha256 of the semantic configuration.

    The output directory, ``threads`` and ``parametric.levels`` (both
    accepted so that older documents load, and without effect) are not
    inputs, so they stay out of the hash.
    """
    clean = {k: v for k, v in cfg.items()
             if k not in ("threads", "output_dir")}
    if "parametric" in clean:
        clean["parametric"] = {k: v for k, v in clean["parametric"].items()
                               if k != "levels"}
    return hashlib.sha256(
        json.dumps(clean, sort_keys=True).encode()).hexdigest()[:16]


def _find_line(text, key):
    m = re.search(r'"%s"\s*:' % re.escape(str(key)), text)
    if m:
        return text.count("\n", 0, m.start()) + 1
    return None


def decode_config(text, source="<config>"):
    """The JSON document in ``text``, not yet validated; syntax errors
    carry ``source:line:col``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def validate_config(cfg, text="", source="<config>"):
    validator = jsonschema.Draft202012Validator(SCHEMA)
    errors = sorted(validator.iter_errors(cfg),
                    key=lambda e: list(e.absolute_path))
    if errors:
        e = errors[0]
        path = "/".join(str(p) for p in e.absolute_path) or "<root>"
        key = list(e.absolute_path)[-1] if e.absolute_path else ""
        line = _find_line(text, key) if text else None
        at = f"{source}:{line}: " if line else f"{source}: "
        raise ConfigError(f"{at}at {path}: {e.message}")
    task = cfg["task"]
    if task != "verify" and task not in cfg:
        line = _find_line(text, "task") if text else None
        at = f"{source}:{line}: " if line else f"{source}: "
        raise ConfigError(f"{at}missing section {task!r} for the chosen task")
    return cfg


# ---------------------------------------------------------------------------
# object construction


def _complex(v):
    if isinstance(v, (int, float)):
        return complex(v)
    return complex(v[0], v[1])


def build_rational(spec):
    if "num" in spec or "den" in spec:
        if not ("num" in spec and "den" in spec):
            raise ConfigError("rational ratio form needs both num and den")
        return from_ratio([_complex(c) for c in spec["num"]],
                          [_complex(c) for c in spec["den"]])
    terms = []
    for item in spec.get("poles", []):
        terms.append((_complex(item["pole"]), int(item.get("order", 1)),
                      _complex(item.get("coeff", 1.0))))
    poly = [_complex(c) for c in spec.get("poly", [])]
    return rational(poly, terms)


def build_symbol(spec, n):
    order = spec.get("order")
    floor = spec.get("exact_floor")
    if "shifted_laplacian_power" in spec:
        pw = spec["shifted_laplacian_power"]
        return laplace_shift_power(n, pw["exponent"], pw["depth"])
    if "literal" not in spec:
        raise ConfigError("symbol needs 'literal' or 'shifted_laplacian_power'")
    return parse_symbol(spec["literal"], n, order=order, exact_floor=floor)


def build_geometry(spec):
    if spec["kind"] == "torus":
        return Torus(spec["dim"])
    return Cylinder(spec["dim"])


def build_weight(spec):
    return SpectralWeight(**spec)


def build_model(spec):
    """A validated model section; an absent field takes the dataclass
    default."""
    fields = dict(spec)
    if "mode_cap" in fields:
        fields["mode_cap"] = int(fields["mode_cap"])
    return SpectrumModel(**fields)


def build_boundary_term(spec, n, kind):
    b = parse_symbol(spec["b"], n - 1)
    degree = float(spec["degree"])
    comp = b.component(degree)
    if comp.is_zero:
        raise ConfigError(
            f"boundary literal has no component at degree {degree}")
    type_d = int(spec.get("type", 0))
    if kind == "green":
        pairs = [(build_rational(p["k"]), build_rational(p["t"]))
                 for p in spec.get("pairs", [])]
        fiber = sg_symbol(pairs, type_d)
    else:
        fiber = build_rational(spec["fiber"])
    return boundary_term(comp, fiber, kind=kind, type_d=type_d)


def build_bdm(spec):
    geo = build_geometry(spec["geometry"])
    n = geo.dim
    p = build_symbol(spec["p"], n) if "p" in spec else None
    s = build_symbol(spec["s"], n - 1) if "s" in spec else None
    green = tuple(build_boundary_term(g, n, "green")
                  for g in spec.get("green", []))
    pot = tuple(build_boundary_term(g, n, "potential")
                for g in spec.get("potential", []))
    tr = tuple(build_boundary_term(g, n, "trace")
               for g in spec.get("trace", []))
    return BdMSymbol(geo, p=p, green=green, potential=pot, trace_terms=tr,
                     s=s, order=spec.get("order"),
                     type_d=int(spec.get("type", 0)))


def build_t_grid(spec):
    grid = np.geomspace(spec["start"], spec["stop"], spec["points"])
    if not np.all(np.diff(grid) > 0):
        raise ConfigError(
            f"t grid needs strictly increasing points: start {spec['start']}, "
            f"stop {spec['stop']} and {spec['points']} points give "
            f"{np.unique(grid).size} distinct")
    return grid
