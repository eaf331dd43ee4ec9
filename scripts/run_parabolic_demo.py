#!/usr/bin/env python3
"""Desk-scale parabolic run: embed the source into the standard
unimodular lattice through the rank+3 rational extension, place a scaled
lattice beside it, build the final sublattice around the isotropic plane
of u +- n_0, and a unipotent isometry on it."""
import time

from qforge.glue import embed_pipeline
from qforge.isom import find_parabolic
from qforge.lattice import diag_lattice, signature


def main():
    source = diag_lattice(*([1] * 3 + [-1] * 11), label="st(3,11)")
    t0 = time.monotonic()
    rep = embed_pipeline(source, 3)
    print(f"source     : {source.label}, rank {source.rank}")
    print(f"extension  : b = ({rep.extension.b0}, {rep.extension.b1}, {rep.extension.b2}),"
          f" triples equal = {rep.extension.augmented_triple == rep.extension.standard_triple}")
    print(f"index d    : {rep.index_d},  prime P: {rep.prime}  (P > d^2 N = {rep.index_d**2 * 3})")
    final = rep.lambda_in_source
    print(f"sublattice : rank {final.rank}, signature {signature(final.as_lattice())}")
    print(f"  basis    : {final.basis}")
    print(f"  gram     : {final.gram()}")
    print(f"  oracle   : Gram ≡ 0 mod {rep.prime}, so every nonzero |value| >= {rep.prime}")
    iso, cls = find_parabolic(final.as_lattice(), rep.v, rep.a)
    print(f"isometry   : {iso.matrix}")
    print(f"  class    : {cls.tag.value}, fixes isotropic {cls.fixed_isotropic}")
    print(f"elapsed    : {time.monotonic() - t0:.2f}s")


if __name__ == "__main__":
    main()
