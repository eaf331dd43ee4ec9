"""JSON serialization conventions.

Lattice files: {"label": str, "gram": [[int, ...], ...]}. Integers with
|x| >= 2**53 are serialized as strings to survive double-precision JSON
readers. Rationals travel as "num/den" strings, the real place as "inf".
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import chain

from .errors import PreconditionError
from .lattice import QuadLattice, from_rows
from .padic import INF

SAFE_BOUND = 2**53


def encode_int(x: int):
    return x if abs(x) < SAFE_BOUND else str(x)


def decode_int(x) -> int:
    if isinstance(x, bool):
        raise PreconditionError("expected an integer")
    if isinstance(x, int):
        return x
    if isinstance(x, str) and x.removeprefix("-").isdecimal():
        return int(x)
    raise PreconditionError(f"expected an integer, got {x!r}")


def encode_fraction(q) -> str | int:
    return _encode_ratio(*Fraction(q).as_integer_ratio())


def _encode_ratio(num: int, den: int) -> str | int:
    """num / den for den > 0, in lowest terms: an integer, else "num/den"."""
    g = math.gcd(num, den)
    num, den = num // g, den // g
    return encode_int(num) if den == 1 else f"{num}/{den}"


def encode_matrix(mat):
    return [[encode_int(x) for x in row] for row in mat]


def encode_fraction_matrix(m, den: int):
    """The rational matrix m / den (den > 0), entry by entry in lowest terms."""
    return [[_encode_ratio(x, den) for x in row] for row in m]


def _decode_ratio(x) -> tuple[int, int]:
    """(num, den) in lowest terms with den > 0, for an integer or a
    "num/den" string."""
    if isinstance(x, str) and "/" in x:
        num, _, den = x.partition("/")
        den = decode_int(den)
        if den <= 0:
            raise PreconditionError(f"expected a positive denominator, got {x!r}")
        num = decode_int(num)
        g = math.gcd(num, den)
        return num // g, den // g
    return decode_int(x), 1


def decode_fraction_matrix(rows) -> tuple[list[list[int]], int]:
    """(m, den) for rows of "num/den" entries: den the least common
    denominator, m integral, and m / den the matrix the rows spell."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise PreconditionError("expected a list of rational rows")
    mat = [[_decode_ratio(x) for x in row] for row in rows]
    den = math.lcm(*(d for row in mat for _, d in row))
    return [[num * (den // d) for num, d in row] for row in mat], den


def decode_matrix(rows):
    """The integer matrix that JSON rows spell; rows of plain ints as they are."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise PreconditionError("expected a list of integer rows")
    if {int}.issuperset(map(type, chain.from_iterable(rows))):
        return rows
    return [[decode_int(x) for x in row] for row in rows]


def encode_vector(vec):
    return [encode_int(x) for x in vec]


def encode_place(place):
    return "inf" if place == INF else int(place)


def lattice_to_obj(latt: QuadLattice) -> dict:
    obj = {"gram": encode_matrix(latt.gram)}
    if latt.label:
        obj["label"] = latt.label
    return obj


def lattice_from_obj(obj: dict) -> QuadLattice:
    if not isinstance(obj, dict) or "gram" not in obj:
        raise PreconditionError('lattice JSON needs a "gram" field')
    return from_rows(decode_matrix(obj["gram"]), label=obj.get("label"))


def read_json(path: str | None, what: str):
    """Parsed content of a JSON input file; `what` names it in errors."""
    if path is None:
        raise PreconditionError(f"{what} is required")
    with open(path) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise PreconditionError(f"{what} {path!r} is not JSON: {exc}") from None


def load_lattice_file(path: str) -> QuadLattice:
    return lattice_from_obj(read_json(path, "lattice file"))


def dump_json(obj, path: str | None = None) -> str:
    """JSON text indented by 2 with sorted keys, each list of scalars (a
    vector, a matrix row) on one line."""
    text = _layout(obj, "\n")
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def _layout(obj, newline: str) -> str:
    """dump_json's text for obj, which starts at the indent in newline."""
    inner = newline + "  "
    if isinstance(obj, dict) and obj:
        items = (f"{json.dumps(k)}: {_layout(v, inner)}" for k, v in sorted(obj.items()))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if {int}.issuperset(map(type, obj)):  # json.dumps's text for a row of ints
            return "[" + ", ".join(map(str, obj)) + "]"
        if any(isinstance(x, (dict, list, tuple)) for x in obj):
            return "[" + inner + ("," + inner).join(_layout(x, inner) for x in obj) + newline + "]"
    return json.dumps(obj)
