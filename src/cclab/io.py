"""JSON loaders for quiver and module description files.

Quiver files: {"vertices": n, "arrows": [[s, t], ...]}.
Module files: {"dim": [d1, ..., dn], "matrices": [...]} with one
row-major matrix per arrow, parallel to the quiver's arrow list.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import InputError
from .quiver import Quiver, validate_quiver
from .reps import Representation, make_rep


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be an object")
    return doc


def load_quiver(path: str) -> Quiver:
    doc = _load_json(path)
    try:
        n = int(doc["vertices"])
        arrows = [list(a) for a in doc["arrows"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: expected 'vertices' and 'arrows'") from exc
    return validate_quiver(n, arrows)


def _entry(x):
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ValueError as exc:
            raise InputError(f"bad matrix entry {x!r}") from exc
    raise InputError(f"bad matrix entry {x!r}")


def load_module(path: str, q: Quiver) -> Representation:
    doc = _load_json(path)
    try:
        dim = tuple(int(d) for d in doc["dim"])
        raw = doc["matrices"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: expected 'dim' and 'matrices'") from exc
    if len(dim) != q.n:
        raise InputError(f"{path}: dim has {len(dim)} entries, quiver has {q.n}")
    if not isinstance(raw, list) or len(raw) != len(q.arrows):
        raise InputError(
            f"{path}: need one matrix per arrow ({len(q.arrows)})")
    mats = []
    for a, m in enumerate(raw):
        s, t = q.arrows[a]
        rows, cols = dim[t - 1], dim[s - 1]
        if m == [] and (rows == 0 or cols == 0):
            m = [[] for _ in range(rows)]
        if not isinstance(m, list) or len(m) != rows or any(
                not isinstance(r, list) or len(r) != cols for r in m):
            raise InputError(
                f"{path}: matrix {a} must be {rows}x{cols} row-major")
        mats.append([[_entry(x) for x in r] for r in m])
    try:
        return make_rep(q, dim, mats)
    except Exception as exc:
        raise InputError(f"{path}: {exc}") from exc

