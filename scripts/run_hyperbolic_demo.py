#!/usr/bin/env python3
"""Desk-scale hyperbolic runs: build a rank-2 sublattice avoiding small
nonzero values, whose one walk around the cycle of reduced forms gives its
exact minimum and an infinite-order automorph, for a few catalog lattices."""
import time

from qforge.catalog import resolve
from qforge.forge import check_certificate, find_rank2_avoiding
from qforge.isom import find_hyperbolic

RUNS = [("U+U+<2>", 4), ("K3", 2), ("U+U+U", 6)]


def main():
    for name, n_bound in RUNS:
        latt = resolve(name)
        t0 = time.monotonic()
        res = find_rank2_avoiding(latt, n_bound)
        sub = res.lattice.as_lattice()
        iso, cls = find_hyperbolic(sub, res.automorph)
        dt = time.monotonic() - t0
        print(f"=== {name}  (avoid |q| < {n_bound}) ===")
        print(f"  basis      : {res.lattice.basis}")
        print(f"  gram       : {res.lattice.gram()}")
        cert = res.certificate
        print(f"  certificate: p={cert.p} alpha=({cert.alpha1},{cert.alpha2}) "
              f"beta=({cert.beta1},{cert.beta2})  valid={check_certificate(cert, n_bound)[0]}")
        print(f"  min |q|    : {res.minimum} at {res.witness} (exact, over all of Z^2)")
        print(f"  automorph  : {iso.matrix}  [{cls.tag.value}]")
        print(f"  elapsed    : {dt:.2f}s")
        print()


if __name__ == "__main__":
    main()
