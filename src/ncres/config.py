"""Job configuration: JSON schema, validation and object construction.

A job is one JSON document.  Shared fields: ``task``, ``seed``,
``output_dir``; one section per task other than ``verify``, which has
none, carries the inputs (symbol literals in the grammar of
:mod:`ncres.literals`, rational functions as pole lists plus a
polynomial part, spectrum models, t grids).  Runs are fully determined by the
document plus the seed; reports embed the document's sha256.

Validation is two-stage: JSON syntax errors carry the exact line/column
from the decoder, and an integer literal longer than the interpreter's
int-string limit (4300 digits) is an error of the document too; schema
violations carry the JSON path and the line that the path leads to when
followed through the source text.
"""

from __future__ import annotations

import hashlib
import json
import math
import re

from .errors import (ConfigError, IllConditionedFitError, NcresError,
                     ResourceCapError, TailBoundError, naming)
from .halfline import boundary_term, rational
from .literals import parse_symbol
from .residue import BdMSymbol, Cylinder, Torus
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
            "properties": {"pole": _COMPLEX, "coeff": _COMPLEX,
                           "order": {"type": "integer", "minimum": 1}},
            "required": ["pole"], "additionalProperties": False}},
        "poly": {"type": "array", "items": _COMPLEX},
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
                   "scale": {"type": "number"}},
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


def _term(part, schema):
    """A boundary term: a boundary symbol ``b`` at ``degree`` times the
    fiber ``part`` its kind reads."""
    return {"type": "object",
            "properties": {"degree": {"type": "number"},
                           "b": {"type": "string"}, part: schema,
                           "type": {"type": "integer", "minimum": 0}},
            "required": ["degree", "b", part],
            "additionalProperties": False}


# a green term carries rank-one pairs k(xi_n) t(eta_n), a potential or
# trace term one fiber function
_GREEN_TERM = _term("pairs", {"type": "array", "items": {
    "type": "object", "properties": {"k": _RATIONAL, "t": _RATIONAL},
    "required": ["k", "t"], "additionalProperties": False}})
_FIBER_TERM = _term("fiber", _RATIONAL)

_TGRID = {
    "type": "object",
    "properties": {"start": {"type": "number", "exclusiveMinimum": 0},
                   "stop": {"type": "number", "exclusiveMinimum": 0},
                   "points": {"type": "integer", "minimum": 4}},
    "required": ["start", "stop", "points"],
    "additionalProperties": False,
}
# an operator-matrix (BdM) symbol, the residue task's section
_RESIDUE = {
    "type": "object",
    "properties": {
        "geometry": _GEOMETRY,
        "p": _SYMBOL,
        "s": _SYMBOL,
        "green": {"type": "array", "items": _GREEN_TERM},
        "potential": {"type": "array", "items": _FIBER_TERM},
        "trace": {"type": "array", "items": _FIBER_TERM},
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
        "output_dir": {"type": "string"},
        "residue": _RESIDUE,
        "dixmier": {
            "type": "object",
            "properties": {
                "model": _MODEL,
                "weight": _WEIGHT,
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
    },
    "required": ["task"],
    "additionalProperties": False,
}


def config_hash(cfg):
    """sha256 of the semantic configuration.

    The output directory and ``parametric.levels`` (accepted so that older
    documents load, and without effect) are not inputs, so they stay out
    of the hash.
    """
    clean = {k: v for k, v in cfg.items() if k != "output_dir"}
    if "parametric" in clean:
        clean["parametric"] = {k: v for k, v in clean["parametric"].items()
                               if k != "levels"}
    return hashlib.sha256(
        json.dumps(clean, sort_keys=True).encode()).hexdigest()[:16]


# Draft 2020-12 types, finite only; float() of a long int would overflow
_TYPES = {"object": lambda v: isinstance(v, dict),
          "array": lambda v: isinstance(v, list),
          "string": lambda v: isinstance(v, str),
          "boolean": lambda v: isinstance(v, bool),
          "number": lambda v: (type(v) is int  # a bool is no number
                               or type(v) is float and math.isfinite(v)),
          "integer": lambda v: _TYPES["number"](v) and v == int(v)}
_KEYWORDS = {"type", "enum", "oneOf", "minimum", "maximum", "exclusiveMinimum",
             "items", "minItems", "maxItems", "properties", "required",
             "additionalProperties"}


def _schema_errors(value, schema, path=()):
    """Yield ``(path, message)`` for each way ``value`` breaks ``schema``, in
    the schema's keyword order: Draft 2020-12 for exactly the keywords
    ``SCHEMA`` uses, tested most frequent first; any other raises."""
    for keyword, arg in schema.items():
        if keyword not in _KEYWORDS or (keyword == "additionalProperties"
                                        and arg is not False):
            raise NotImplementedError(f"schema keyword {keyword}: {arg!r}")
        if keyword == "properties" and isinstance(value, dict):
            for key, sub in arg.items():
                if key in value:
                    yield from _schema_errors(value[key], sub, path + (key,))
        elif keyword == "type":
            if not _TYPES[arg](value):
                yield path, f"{value!r} is not of type {arg!r}"
        elif keyword == "items" and isinstance(value, list):
            for i, item in enumerate(value):
                yield from _schema_errors(item, arg, path + (i,))
        elif keyword == "required" and isinstance(value, dict):
            yield from ((path, f"{key!r} is a required property")
                        for key in arg if key not in value)
        elif keyword == "additionalProperties" and isinstance(value, dict):
            extra = sorted(value.keys() - schema["properties"].keys())
            if extra:
                yield path, f"additional properties {extra} not allowed"
        elif keyword == "oneOf" and sum(
                not any(_schema_errors(value, sub)) for sub in arg) != 1:
            yield path, f"{value!r} is not valid under exactly one schema"
        elif keyword == "enum" and value not in arg:
            yield path, f"{value!r} is not one of {arg!r}"
        elif keyword == "minimum" and _TYPES["number"](value) and value < arg:
            yield path, f"{value!r} is less than the minimum of {arg!r}"
        elif keyword == "maximum" and _TYPES["number"](value) and value > arg:
            yield path, f"{value!r} is greater than the maximum of {arg!r}"
        elif (keyword == "exclusiveMinimum" and _TYPES["number"](value)
              and value <= arg):
            yield path, f"{value!r} is not above the minimum of {arg!r}"
        elif (keyword == "minItems" and isinstance(value, list)
              and len(value) < arg):
            yield path, f"{value!r} is too short"
        elif (keyword == "maxItems" and isinstance(value, list)
              and len(value) > arg):
            yield path, f"{value!r} is too long"


_DECODE = json.JSONDecoder().raw_decode
# between two tokens of valid JSON: white space and one "," or ":"
_GAP = re.compile(r"[ \t\n\r,:]*")


def _where(source, text, path):
    """``source:line: `` of where ``path`` leads in the JSON ``text``, or
    ``source: `` where the text lacks it (a key only an override added)."""
    pos = start = 0
    for step in path:
        pos = _GAP.match(text, pos).end()
        if text[pos:pos + 1] != ("[" if isinstance(step, int) else "{"):
            return f"{source}: "
        pos, index = pos + 1, 0
        while True:
            start = pos = _GAP.match(text, pos).end()
            if text[pos:pos + 1] in "]}":
                return f"{source}: "
            key = index
            if isinstance(step, str):
                key, pos = _DECODE(text, pos)
                pos = _GAP.match(text, pos).end()
            if key == step:
                break
            _, pos = _DECODE(text, pos)
            index += 1
    line = text.count("\n", 0, start) + 1
    return f"{source}:{line}: " if path else f"{source}: "


def decode_config(text, source="<config>"):
    """The JSON document in ``text``, not yet validated; syntax errors
    carry ``source:line:col``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:   # an integer past the int-string limit
        raise ConfigError(
            f"{source}: {str(exc).partition(';')[0]}") from exc


def _with_ints(value, schema):
    """``value``, valid under ``schema``, with each integral float at an
    ``integer`` position made the int it equals (no ``oneOf`` of
    ``SCHEMA`` holds an integer)."""
    if "properties" in schema:
        props = schema["properties"]
        return {k: _with_ints(v, props[k]) for k, v in value.items()}
    if "items" in schema:
        return [_with_ints(v, schema["items"]) for v in value]
    return int(value) if schema.get("type") == "integer" else value


def validate_config(cfg, text="", source="<config>"):
    """``cfg`` checked against ``SCHEMA`` and returned with its integers as
    ints: Draft 2020-12 admits 5.0 as an integer, and the library reads
    the int."""
    # the first error by path; at one path, the first in keyword order
    errors = sorted(_schema_errors(cfg, SCHEMA), key=lambda e: e[0])
    if errors:
        path, message = errors[0]
        at = "/".join(map(str, path)) or "<root>"
        raise ConfigError(f"{_where(source, text, path)}at {at}: {message}")
    task = cfg["task"]
    if task != "verify" and task not in cfg:
        raise ConfigError(f"{_where(source, text, ('task',))}at task: missing "
                          f"section {task!r} for the chosen task")
    return _with_ints(cfg, SCHEMA)


# ---------------------------------------------------------------------------
# object construction


def _complex(v):
    if isinstance(v, (int, float)):
        return complex(v)
    return complex(v[0], v[1])


def _at(path):
    """The error prefix naming the JSON path of a section."""
    return f"at {'/'.join(map(str, path))}: "


class faults_at:
    """Raise a ``ValueError`` or typed library error met in the block as a
    :class:`ConfigError` at ``path`` plus the ``entry`` the error names.
    Passed on: a ``ConfigError``, so blocks nest and the innermost path
    wins, tolerance failures and a bare ``NcresError``.  A resource cap
    keeps its type and is placed at ``path`` plus its entry, once: the
    placed error's entry is None."""

    def __init__(self, path):
        self.path = path

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, ResourceCapError) and exc.entry is not None:
            raise ResourceCapError(_at(self.path + exc.entry) + str(exc),
                                   None) from exc
        if isinstance(exc, (ValueError, NcresError)) and not isinstance(exc, (
                ConfigError, ResourceCapError, TailBoundError,
                IllConditionedFitError)) and kind is not NcresError:
            raise ConfigError(_at(self.path + getattr(exc, "entry", ()))
                              + str(exc)) from exc


def build_rational(spec, path):
    """The split form: a ``poles`` list plus a ``poly`` part."""
    terms = []
    for item in spec.get("poles", []):
        terms.append((_complex(item["pole"]), item.get("order", 1),
                      _complex(item.get("coeff", 1.0))))
    poly = [_complex(c) for c in spec.get("poly", [])]
    with faults_at(path):
        return rational(poly, terms)


def build_symbol(spec, n, path):
    if "shifted_laplacian_power" in spec:
        extra = sorted(spec.keys() - {"shifted_laplacian_power"})
        if extra:
            raise ConfigError(f"{_at(path)}shifted_laplacian_power takes no "
                              f"{extra}")
        pw = spec["shifted_laplacian_power"]
        with faults_at(path + ("shifted_laplacian_power",)), \
                naming(("exponent",), ValueError):
            return laplace_shift_power(n, pw["exponent"], pw["depth"])
    if "literal" not in spec:
        raise ConfigError(
            f"{_at(path)}need literal or shifted_laplacian_power")
    with faults_at(path), naming(("literal",), ResourceCapError):
        return parse_symbol(spec["literal"], n, order=spec.get("order"),
                            exact_floor=spec.get("exact_floor"))


def build_boundary_term(spec, n, kind, path):
    with faults_at(path + ("b",)):
        b = parse_symbol(spec["b"], n - 1)
    degree = float(spec["degree"])
    comp = b.component(degree)
    if comp.is_zero:
        raise ConfigError(f"{_at(path)}b has no component at degree {degree}")
    type_d = spec.get("type", 0)
    if kind == "green":
        fiber = [(build_rational(p["k"], path + ("pairs", i, "k")),
                  build_rational(p["t"], path + ("pairs", i, "t")))
                 for i, p in enumerate(spec["pairs"])]
    else:
        fiber = build_rational(spec["fiber"], path + ("fiber",))
    with faults_at(path):
        return boundary_term(comp, fiber, kind=kind, type_d=type_d)


def build_bdm(spec, path):
    n = spec["geometry"]["dim"]
    geo = (Torus if spec["geometry"]["kind"] == "torus" else Cylinder)(n)
    p = build_symbol(spec["p"], n, path + ("p",)) if "p" in spec else None
    s = build_symbol(spec["s"], n - 1, path + ("s",)) if "s" in spec else None
    terms = {kind: tuple(build_boundary_term(g, n, kind, path + (kind, i))
                         for i, g in enumerate(spec.get(kind, [])))
             for kind in ("green", "potential", "trace")}
    with faults_at(path):
        return BdMSymbol(geo, p=p, green=terms["green"],
                         potential=terms["potential"],
                         trace_terms=terms["trace"], s=s,
                         order=spec.get("order"),
                         type_d=spec.get("type", 0))


def build_t_grid(spec, path):
    import numpy as np
    grid = np.geomspace(spec["start"], spec["stop"], spec["points"])
    if not np.all(np.diff(grid) > 0):
        raise ConfigError(
            f"{_at(path)}t grid needs strictly increasing points: start "
            f"{spec['start']}, stop {spec['stop']} and {spec['points']} "
            f"points give {np.unique(grid).size} distinct")
    return grid
