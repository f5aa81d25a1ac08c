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
        n = doc["vertices"]
        arrows = [list(a) for a in doc["arrows"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: expected 'vertices' and 'arrows'") from exc
    return validate_quiver(n, arrows)


def _entry(x):
    """x with each matrix entry read: a list entry by entry, an int (not a
    bool) as it is and a string as a Fraction."""
    if isinstance(x, list):
        return [_entry(y) for y in x]
    if type(x) is int:
        return x
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad matrix entry {x!r}") from exc
    raise InputError(f"bad matrix entry {x!r}")


def load_module(path: str, q: Quiver) -> Representation:
    """The module file at path, checked by make_rep."""
    doc = _load_json(path)
    try:
        return make_rep(q, doc["dim"], _entry(doc["matrices"]))
    except KeyError as exc:
        raise InputError(f"{path}: expected 'dim' and 'matrices'") from exc
    except (InputError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from exc
