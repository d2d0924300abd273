"""Config validation: the schema walker against jsonschema as an oracle."""

import copy
import json
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from ncres.config import SCHEMA, _schema_errors, validate_config
from ncres.errors import ConfigError

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"
DOCUMENTS = [json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))]

# replacements of wrong type or out of range somewhere in the schema
VALUES = [None, True, False, -1, 0, 1, 2, 3, 4, 65, 0.0, 0.25, 0.5, 1.5,
          -1e9, 1e308, 10 ** 400, -10 ** 400, "", "torus", "moebius",
          "|xi|^-2", [], [1], [1, 2], [1.5, "x"], [1, 2, 3], ["x"], {},
          {"x": 1}, {"kind": "torus", "dim": 2}, {"pole": 1}]
KEYS = ["x", "kind", "dim", "literal", "order", "pole", "fast", "depth"]
# the words of the walker's message for each keyword jsonschema reports:
# at one path, the first error must come from the same keyword
WORDS = {"type": "is not of type", "enum": "is not one of",
         "oneOf": "exactly one schema", "minimum": "less than the minimum",
         "maximum": "greater than the maximum",
         "exclusiveMinimum": "not above the minimum",
         "minItems": "too short", "maxItems": "too long",
         "required": "is a required property",
         "additionalProperties": "additional properties"}


def _first_error(value, schema):
    """jsonschema's first error by path: (path, keyword), or None."""
    errors = sorted(jsonschema.Draft202012Validator(schema).iter_errors(value),
                    key=lambda e: list(e.absolute_path))
    return (tuple(errors[0].absolute_path), errors[0].validator) \
        if errors else None


def _subschemas(schema):
    """``schema`` and every schema below it."""
    yield schema
    subs = [*schema.get("properties", {}).values(), *schema.get("oneOf", [])]
    for sub in subs + ([schema["items"]] if "items" in schema else []):
        yield from _subschemas(sub)


def test_walker_matches_jsonschema_on_every_subschema():
    # every value against every subschema, and each bound approached from
    # both sides
    for schema in _subschemas(SCHEMA):
        bounds = [schema[k] for k in ("minimum", "maximum", "exclusiveMinimum")
                  if k in schema]
        extra = [b + d for b in bounds for d in (-1, -0.5, 0, 0.5, 1)]
        for value in VALUES + extra + [float(b) for b in bounds]:
            errors = sorted(_schema_errors(value, schema), key=lambda e: e[0])
            expected = _first_error(value, schema)
            assert bool(errors) == bool(expected), (schema, value)
            if errors:
                assert errors[0][0] == expected[0], (schema, value)
                assert WORDS[expected[1]] in errors[0][1], (schema, value)


def _members(node, path=()):
    """(path, value) of every member below ``node``, depth first."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,), value
        yield from _members(value, path + (key,))


def _mutate(data, doc):
    """Delete a member, add an unknown or misplaced key, or swap a value."""
    members = list(_members(doc))
    action = data.draw(st.sampled_from(["delete", "add", "swap"]))
    if action == "add":
        objects = [()] + [p for p, v in members if isinstance(v, dict)]
        path = data.draw(st.sampled_from(objects))
        key = data.draw(st.sampled_from(KEYS))
        value = data.draw(st.sampled_from(VALUES))
        path = path + (key,)
    elif not members:
        return
    else:
        path, _ = data.draw(st.sampled_from(members))
        value = data.draw(st.sampled_from(VALUES))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if action == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)


def _line_of(doc, path):
    """The line of ``path`` in ``json.dumps(doc, indent=1)``: the text before
    it does not change when its value is swapped for a marker."""
    marked = copy.deepcopy(doc)
    node = marked
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "@marker@"
    text = json.dumps(marked, indent=1)
    return text.count("\n", 0, text.index('"@marker@"')) + 1


@settings(max_examples=400, deadline=None)
@given(data=st.data(), index=st.integers(0, len(DOCUMENTS) - 1),
       mutations=st.integers(1, 4))
def test_walker_matches_jsonschema(data, index, mutations):
    doc = copy.deepcopy(DOCUMENTS[index])
    for _ in range(mutations):
        _mutate(data, doc)
    expected = _first_error(doc, SCHEMA)
    text = json.dumps(doc, indent=1)
    if expected is None:
        try:
            validate_config(doc, text, "doc.json")
        except ConfigError as exc:
            assert "missing section" in str(exc)
        return
    path, keyword = expected
    with pytest.raises(ConfigError) as exc:
        validate_config(doc, text, "doc.json")
    at = "/".join(map(str, path)) or "<root>"
    line = f"{_line_of(doc, path)}:" if path else ""
    assert str(exc.value).startswith(f"doc.json:{line} at {at}: ")
    assert WORDS[keyword] in str(exc.value)


@pytest.mark.parametrize("keyword, arg", [("multipleOf", 2),
                                          ("additionalProperties", True),
                                          ("pattern", "^[0-9]+$")])
def test_walker_raises_on_an_unimplemented_keyword(monkeypatch, keyword, arg):
    monkeypatch.setitem(SCHEMA["properties"], "seed",
                        {"type": "integer", keyword: arg})
    with pytest.raises(NotImplementedError, match=keyword):
        validate_config({"task": "verify", "seed": 3})
