"""Correctness checks for every benchmark operation.

Each check returns None when the output is right and a one-line reason
when it is not.  The references are independent of the timed call:

* symbolic reports and CLI outputs are compared byte for byte with
  ``golden.json``, captured from the code before any optimisation
  (``capture_goldens.py``);
* a numeric twin must equal the golden symbolic report evaluated at the
  same point;
* a sheared copy must keep every basis-independent quantity of the golden
  symbolic report;
* ``regression_report`` must pass its hand-written expected values.
"""

from __future__ import annotations

import json
from fractions import Fraction

from nordenlab import parse_poly, rational_rank

_POLY_FIELDS = ("theta", "tau", "nabla_j_norm")
_MATRIX_FIELDS = ("ricci", "killing_form")


def same_texts(name: str, got: tuple[str, str, str],
               golden: dict[str, str]) -> str | None:
    for fmt, text in zip(("text", "csv", "json"), got):
        if text != golden[fmt]:
            return f"{name}: {fmt} report differs from golden"
    return None


def twin_matches(name: str, symbolic_json: str, twin_json: str,
                 params, point) -> str | None:
    """The numeric twin equals the symbolic report evaluated at ``point``."""
    sym, num = json.loads(symbolic_json), json.loads(twin_json)

    def value(text: str) -> Fraction:
        return parse_poly(text, params).evaluate(point)

    if sym["classification"] != num["classification"]:
        return f"{name}: twin class {num['classification']['label']!r}"
    if sym["locally_symmetric"] != num["locally_symmetric"]:
        return f"{name}: twin local symmetry differs"
    for key in _POLY_FIELDS:
        exp = sym[key] if isinstance(sym[key], list) else [sym[key]]
        got = num[key] if isinstance(num[key], list) else [num[key]]
        if [value(t) for t in exp] != [Fraction(t) for t in got]:
            return f"{name}: twin {key} differs"
    for key in _MATRIX_FIELDS:
        if ([[value(t) for t in row] for row in sym[key]]
                != [[Fraction(t) for t in row] for row in num[key]]):
            return f"{name}: twin {key} differs"
    for s, n in zip(sym["sectional"], num["sectional"], strict=True):
        if (s["plane"], s["type"]) != (n["plane"], n["type"]):
            return f"{name}: twin plane type of {s['plane']} differs"
        if (s["k"] is None) != (n["k"] is None) or (
                s["k"] is not None and value(s["k"]) != Fraction(n["k"])):
            return f"{name}: twin sectional curvature of {s['plane']}"
    return None


def killing_rank(report: dict, params, point) -> int:
    return rational_rank([[parse_poly(t, params).evaluate(point)
                           for t in row] for row in report["killing_form"]])


def sheared_matches(name: str, symbolic_json: str, sheared_json: str,
                    params, point) -> str | None:
    """A change of basis keeps every basis-independent quantity."""
    sym, new = json.loads(symbolic_json), json.loads(sheared_json)
    for key in ("classification", "tau", "nabla_j_norm",
                "locally_symmetric"):
        if sym[key] != new[key]:
            return f"{name}: sheared {key} {new[key]!r} != {sym[key]!r}"
    if killing_rank(sym, params, point) != killing_rank(new, params, point):
        return f"{name}: sheared Killing-form rank differs"
    return None
