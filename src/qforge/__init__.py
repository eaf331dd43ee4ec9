"""qforge: exact constructions on integer quadratic lattices.

Given a lattice and a bound N, the toolkit builds primitive sublattices
that represent no nonzero number of absolute value below N, and explicit
infinite-order isometries (hyperbolic via the automorph from one walk
around the cycle of reduced binary forms, parabolic via unipotent
transvections), each with machine-checkable certificates.
"""

__version__ = "0.1.0"

from .lattice import (  # noqa: F401
    QuadLattice,
    Sublattice,
    diag_lattice,
    direct_sum,
    enumerate_values,
    from_rows,
    orthogonal_complement,
    pairing,
    qvalue,
    rescale,
    saturate,
    saturation_index,
    signature,
    span,
)
