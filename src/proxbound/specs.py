"""Spec strings ``kind(param=value,...)``: one parser, one table of
parameter rules and one builder.

A catalog maps each kind to its forms, pairs (parameter names, builder).
A spec builds when its parameters are exactly the names of one form of its
kind: each value is converted by the rule of its name (_RULES), and the
builder is called with the converted values in the form's order. Every
violation raises ValueError, with a message that reads after a
"[section] key: " prefix. A penalty's own floats pass as numbers; the
penalty class checks their range.
"""

import math
import os
import re

_SPEC_RE = re.compile(r"^\s*([a-zA-Z_][a-zA-Z0-9_]*)\s*(?:\((.*)\))?\s*$")


def parse_spec_string(text, what="spec"):
    """Split 'name(a=1,b=2)' into (name, {a: '1', b: '2'}); a malformed
    string or a parameter given twice raises ValueError."""
    m = _SPEC_RE.match(text)
    if not m:
        raise ValueError(f"malformed {what} string: {text!r}")
    params = {}
    body = m.group(2)
    if body is not None and body.strip():
        for piece in body.split(","):
            if "=" not in piece:
                raise ValueError(f"malformed parameter {piece!r} in {text!r}")
            key, val = piece.split("=", 1)
            key = key.strip().lower()
            if key in params:
                raise ValueError(f"parameter {key!r} given twice in {text!r}")
            params[key] = val.strip()
    return m.group(1).lower(), params


# (convert, requirement, predicate): a value that convert rejects or whose
# converted value fails predicate violates the requirement; NaN fails every
# comparison, so it is rejected wherever a bound is stated
_SIZE = (int, "must be an integer >= 1", lambda v: v >= 1)
_FILE = (str, "must name an existing file", os.path.isfile)
_FINITE = (float, "must be finite", math.isfinite)
_NUMBER = (float, "must be a number", lambda v: True)
_RULES = {
    **dict.fromkeys(("rows", "cols", "dim", "identity"), _SIZE),
    "seed": (int, "must be an integer >= 0", lambda v: v >= 0),
    **dict.fromkeys(("file", "rhs", "labels", "path"), _FILE),
    **dict.fromkeys(("mu", "curvature", "value"), _FINITE),
    **dict.fromkeys(("lambda", "lambda1", "lambda2", "lo", "hi", "epsilon",
                     "tau"), _NUMBER),
}


def _convert(kind, key, text):
    convert, requirement, admits = _RULES[key]
    try:
        value = convert(text)
        ok = admits(value)
    except ValueError:
        ok = False
    if not ok:
        raise ValueError(f"{kind} {key}={text} {requirement}")
    return value


def build_from_spec(text, what, catalog):
    """The object that spec string text names in catalog, a dict
    kind -> [(parameter names, builder), ...]; what names the catalog in
    messages. The parameters must be exactly one form's names."""
    kind, params = parse_spec_string(text, what)
    if kind not in catalog:
        raise ValueError(f"unknown {what} kind {kind!r}")
    for names, build in catalog[kind]:
        if set(names) == set(params):
            return build(*(_convert(kind, k, params[k]) for k in names))
    forms = " or ".join(f"({', '.join(names)})" for names, _ in catalog[kind])
    raise ValueError(f"{kind} takes {forms}, got ({', '.join(params)})")
