"""Workload definitions and the seeded input generator.

Every op is one `qforge hyperbolic|parabolic --verify` call on a lattice
file written here; the program under test sees only those files.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass

# One deadline for every op. The slowest op that succeeds today, K3 at
# N=13 with --verify, takes about 7-8 s; an op that does not end `ok` is
# charged this much in cost_s and op_p50_s.
DEADLINE_S = 15.0


@dataclass(frozen=True)
class Workload:
    command: str
    ops: tuple[tuple[str, int], ...]  # (catalog name, N)
    scramble: bool  # seeded unimodular change of basis on every input


# Why each workload was chosen, and the layer it loads, is recorded in
# BENCHMARK.json at the root of the repository.
WORKLOADS = {
    "rank2-oracle": Workload(
        command="hyperbolic",
        ops=(
            ("K3", 2), ("K3", 5),
            ("U+U+U", 2), ("U+U+U", 10),
            ("U+E8(-1)", 10),
            ("U+U+E8(-1)", 2), ("U+U+U+E8(-1)", 2),
            ("diag(1,1,-1,-1,-1)", 2),
        ),
        scramble=True,
    ),
    "rank2-hunt": Workload(
        command="hyperbolic",
        ops=(("K3", 10), ("K3", 13), ("K3", 1000)),
        scramble=False,
    ),
    "highrank": Workload(
        command="parabolic",
        ops=(
            ("diag(1,1,1,-1^11)", 3),
            ("U+U+U+diag(-1^8)", 3),
            ("K3", 2),
            ("U+U+U+E8(-1)", 3),
        ),
        scramble=False,
    ),
}


@dataclass(frozen=True)
class Op:
    id: str
    command: str
    source: str
    n_bound: int
    path: str
    gram: tuple[tuple[int, ...], ...]


def unimodular(rank: int, rng: random.Random) -> list[list[int]]:
    """Random product of a signed permutation and rank // 2 elementary row
    additions with coefficient +-1.

    The mix is kept this light on purpose: this workload measures the box
    oracles, and the vector hunts' cost depends on the basis. With 2 * rank
    additions some inputs (U+E8(-1) at seed 25, for one) hunt past the
    deadline; with rank // 2 every op on seeds 0-199 hunts in under 1 s.
    """
    perm = list(range(rank))
    rng.shuffle(perm)
    rows = [[0] * rank for _ in range(rank)]
    for i, j in enumerate(perm):
        rows[i][j] = rng.choice((1, -1))
    for _ in range(rank // 2):
        i, j = rng.sample(range(rank), 2)
        c = rng.choice((1, -1))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return rows


def generate(name: str, seed: int, outdir: str) -> list[Op]:
    """Write one lattice file per op of workload `name` and return the ops
    in their seeded order."""
    from qforge import catalog, jsonio, linalg
    from qforge.lattice import from_rows

    wl = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    order = list(wl.ops)
    rng.shuffle(order)
    ops = []
    for index, (source, n_bound) in enumerate(order):
        latt = catalog.resolve(source)
        gram = latt.gram
        if wl.scramble:
            u = unimodular(latt.rank, rng)
            if abs(linalg.det_bareiss(u)) != 1:
                raise RuntimeError("change of basis is not unimodular")
            # the Gram matrix in the basis given by the rows of u
            gram = linalg.mat_mul(linalg.mat_mul(u, gram), linalg.transpose(u))
        path = os.path.join(outdir, f"op{index}.json")
        jsonio.dump_json(jsonio.lattice_to_obj(from_rows(gram, label=source)), path)
        ops.append(Op(f"{source}@{n_bound}", wl.command, source, n_bound, path, gram))
    return ops
