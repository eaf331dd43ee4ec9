"""Named Gram matrices and the catalog name grammar.

Atoms: the entries U, E8 and A2, NAME(-1) for -1 times an entry NAME (a
literal entry of that name wins), K3 (= U+U+U+E8(-1)+E8(-1)), <k> for a
rank-1 lattice, and diag(a1,...,an) with a^k repetition shorthand. Atoms may be
joined with "+" for direct sums, e.g. "U+U+<2>"; a name builds a lattice
of rank at most MAX_RANK. The QFORGE_CATALOG environment variable points
at a JSON file whose entries extend or override the bundled ones.
"""
from __future__ import annotations

import importlib.resources
import json
import os
import re

from .errors import PreconditionError
from .jsonio import lattice_from_obj, read_json
from .lattice import QuadLattice, diag_lattice, direct_sum, rescale

_ENV_VAR = "QFORGE_CATALOG"

# Largest rank a catalog name may build, checked before any Gram is
# allocated; the largest ambient any command builds has rank 25.
MAX_RANK = 1000


def _bundled() -> dict:
    path = importlib.resources.files("qforge.data").joinpath("catalog.json")
    return json.loads(path.read_text())


def _external() -> dict:
    path = os.environ.get(_ENV_VAR)
    entries = read_json(path, _ENV_VAR) if path else {}
    if not isinstance(entries, dict):
        raise PreconditionError(f"{_ENV_VAR} must name a JSON object of catalog entries")
    return entries


_DIAG_RE = re.compile(r"^diag\((.*)\)$")
_RANK1_RE = re.compile(r"^<(-?\d+)>$")


def _parse_diag_args(body: str) -> list[int]:
    out: list[int] = []
    for part in body.split(","):
        part = part.strip()
        base, caret, count = part.partition("^")
        try:
            entry, repeat = int(base), int(count) if caret else 1
        except ValueError:
            raise PreconditionError(f"diag entry {part!r} must be an integer a or a^k") from None
        if repeat < 1:
            raise PreconditionError(f"diag entry {part!r} repeats fewer than once")
        if len(out) + repeat > MAX_RANK:
            raise PreconditionError(f"diag has more than {MAX_RANK} entries")
        out.extend([entry] * repeat)
    return out


def _atom(name: str, entries: dict) -> QuadLattice:
    if name in entries:
        return lattice_from_obj(entries[name])
    base = name.removesuffix("(-1)")
    if base != name and base in entries:
        return rescale(lattice_from_obj(entries[base]), -1, label=name)
    if name == "K3":
        u = _atom("U", entries)
        e8m = _atom("E8(-1)", entries)
        return direct_sum(u, u, u, e8m, e8m, label="K3")
    m = _RANK1_RE.match(name)
    if m:
        return diag_lattice(int(m.group(1)), label=name)
    m = _DIAG_RE.match(name)
    if m:
        return diag_lattice(*_parse_diag_args(m.group(1)), label=name)
    raise PreconditionError(f"unknown catalog name: {name!r}")


def resolve(name: str) -> QuadLattice:
    """Resolve a catalog name, possibly a "+"-joined direct sum."""
    parts = [p.strip() for p in _split_atoms(name)]
    if not parts:
        raise PreconditionError("empty catalog name")
    entries = _bundled() | _external()
    atoms, rank = [], 0
    for part in parts:
        atoms.append(_atom(part, entries))
        rank += atoms[-1].rank
        if rank > MAX_RANK:
            raise PreconditionError(f"the catalog name has rank above {MAX_RANK}")
    if len(atoms) == 1:
        return atoms[0]
    return direct_sum(*atoms, label=name)


def _split_atoms(name: str) -> list[str]:
    # "+" separates atoms except inside parentheses: diag(...) or NAME(-1)
    parts = []
    depth = 0
    cur = []
    for ch in name:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "+" and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p for p in (s.strip() for s in parts) if p]
