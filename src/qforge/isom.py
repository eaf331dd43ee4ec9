"""Lattice isometries of signature (1, n): trichotomy and constructors.

classify() is exact and component-agnostic: the characteristic polynomial
is stripped of cyclotomic factors; a non-cyclotomic remainder forces an
eigenvalue off the unit circle (hyperbolic), otherwise the element is
quasi-unipotent and either has finite order (elliptic) or a rank-3
Jordan cell at a root of unity (parabolic).
"""
from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from fractions import Fraction

from .errors import InternalInconsistencyError, PreconditionError
from .lattice import (
    QuadLattice,
    Vector,
    gram_apply,
    gram_of,
    pairing,
    qvalue,
    signature,
)
from .linalg import (
    char_poly,
    det_bareiss,
    freeze,
    identity,
    mat_mul,
    mat_pow,
    mat_sub,
    mat_vec,
    is_zero,
    transpose,
)
from .polys import poly_eval, strip_cyclotomic


class Tag(Enum):
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


class Isometry(namedtuple("Isometry", "lattice matrix")):
    """Integer matrix g with g^T G g == G (columns are basis images)."""

    __slots__ = ()

    def __new__(cls, lattice: QuadLattice, matrix: tuple[tuple[int, ...], ...]):
        if not is_isometry(matrix, lattice):
            raise PreconditionError("matrix does not preserve the Gram matrix")
        return super().__new__(cls, lattice, matrix)

    def apply(self, v) -> Vector:
        return mat_vec(self.matrix, v)


class IsomClass(namedtuple("IsomClass", "tag order quasi_unipotent_order fixed_isotropic "
                                        "dominant_factor dominant_interval cyclotomic_orders "
                                        "preserves_positive_cone",
                           defaults=(None, None, None, None, None, (), None))):
    """Trichotomy tag with its defining evidence: elliptic, the exact finite
    order; parabolic, the least k with g^k unipotent (quasi_unipotent_order)
    and the fixed line of g^k; hyperbolic, the non-cyclotomic factor of the
    characteristic polynomial and a Fraction interval isolating the root
    |lambda| > 1; every tag, the (m, multiplicity) cyclotomic factors and
    whether g preserves the positive cone."""

    __slots__ = ()


def is_isometry(matrix, latt: QuadLattice) -> bool:
    n = latt.rank
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise PreconditionError("matrix rank != lattice rank")
    if gram_of(latt, transpose(matrix)) != freeze(latt.gram):
        return False
    return abs(det_bareiss(matrix)) == 1


def _exact_order(matrix, k: int) -> int:
    """Least divisor d of k with matrix^d == I (caller guarantees one exists)."""
    n = len(matrix)
    for d in sorted(
        d for d in range(1, k + 1) if k % d == 0
    ):
        if mat_pow(matrix, d) == identity(n):
            return d
    raise InternalInconsistencyError("no order divides the cyclotomic lcm")


def _dominant_root_interval(poly) -> tuple[Fraction, Fraction]:
    """Rational interval (lo, hi) outside [-1, 1] holding the real root
    lambda with |lambda| > 1 of the non-cyclotomic part, by 12 bisection
    steps.

    That part is the minimal polynomial of lambda: monic, of even degree,
    with p(1) < 0 when lambda > 1 and p(-1) < 0 when lambda < -1, while p
    is positive beyond the Cauchy bound B. So p changes sign on (1, B) or
    on (-B, -1). The bisection runs in integers: after k steps lo and hi
    are L / 2^k and H / 2^k, and the sign of p at M / 2^k is that of
    2^(k deg) p(M / 2^k), by Horner with the coefficient of x^i shifted by
    k (deg - i) bits. p keeps its sign at hi, so that sign is read once.
    A midpoint that is a root comes back centred in an interval half as
    wide as the one it splits.
    """
    deg = len(poly) - 1
    bound = 1 + max(abs(c) for c in poly)
    if poly_eval(poly, 1) < 0:
        lo, hi = 1, bound
    elif poly_eval(poly, -1) < 0:
        lo, hi = -bound, -1
    else:
        raise InternalInconsistencyError("the non-cyclotomic part changes sign on neither side")
    hi_positive = poly_eval(poly, hi) > 0
    for k in range(1, 13):
        mid = lo + hi  # the midpoint (lo + hi) / 2^k, with lo, hi still over 2^(k - 1)
        val = 0
        for i in range(deg, -1, -1):
            val = val * mid + (poly[i] << (k * (deg - i)))
        if val == 0:
            # the root mid / 2^k, with a quarter of the width on either side
            den = 1 << (k + 1)
            return Fraction(2 * mid - (hi - lo), den), Fraction(2 * mid + (hi - lo), den)
        if (val > 0) == hi_positive:
            lo, hi = 2 * lo, mid
        else:
            lo, hi = mid, 2 * hi
    return Fraction(lo, 1 << 12), Fraction(hi, 1 << 12)


def _positive_cone_flag(g: Isometry) -> bool:
    """Whether g keeps the cone of a positive vector w: b(g w, w) > 0. w is
    the first positive basis vector of the congruent diagonalization,
    scaled to integers; the sign of b(g w, w) does not depend on w's scale."""
    _, cols = g.lattice.pivots
    w = next(c for c, pos in zip(cols, g.lattice.positive) if pos)
    return pairing(g.lattice, g.apply(w), w) > 0


def classify(g: Isometry) -> IsomClass:
    """Exactly one of elliptic (finite order), hyperbolic (real eigenvalue
    off the unit circle) or parabolic (infinite order, quasi-unipotent)."""
    pos, neg = signature(g.lattice)
    if pos != 1 or neg < 1:
        raise PreconditionError("classification needs signature (1, n), n >= 1")
    cp = char_poly(g.matrix)
    rest, cyclo = strip_cyclotomic(cp)
    cone = _positive_cone_flag(g)
    orders = tuple(sorted(cyclo.items()))
    if rest != (1,):
        return IsomClass(
            tag=Tag.HYPERBOLIC,
            dominant_factor=rest,
            dominant_interval=_dominant_root_interval(rest),
            cyclotomic_orders=orders,
            preserves_positive_cone=cone,
        )
    k = math.lcm(*cyclo.keys())
    n = g.lattice.rank
    gk = mat_pow(g.matrix, k)
    if gk == identity(n):
        return IsomClass(
            tag=Tag.ELLIPTIC,
            order=_exact_order(g.matrix, k),
            cyclotomic_orders=orders,
            preserves_positive_cone=cone,
        )
    b = mat_sub(gk, identity(n))
    b2 = mat_mul(b, b)
    b3 = mat_mul(b2, b)
    if not is_zero(b3) or is_zero(b2):
        raise InternalInconsistencyError(
            "quasi-unipotent part is not a rank-3 Jordan cell"
        )
    fixed = _primitive_column(b2)
    if qvalue(g.lattice, fixed) != 0 or mat_vec(gk, fixed) != fixed:
        raise InternalInconsistencyError("fixed line of g^k is not isotropic")
    return IsomClass(
        tag=Tag.PARABOLIC,
        quasi_unipotent_order=k,
        fixed_isotropic=fixed,
        cyclotomic_orders=orders,
        preserves_positive_cone=cone,
    )


def _primitive_column(mat) -> Vector:
    cols = transpose(mat)
    col = next(c for c in cols if any(c))
    g = math.gcd(*col)
    col = tuple(x // g for x in col)
    for x in col:
        if x != 0:
            return col if x > 0 else tuple(-y for y in col)
    raise InternalInconsistencyError("zero column")


# ---------------------------------------------------------------------------
# Constructors


def eichler_transvection(
    latt: QuadLattice, v: Vector, a: Vector
) -> Isometry:
    """Unipotent isometry x -> x + b(x,a) v - b(x,v) a - q(a)/2 b(x,v) v
    attached to an isotropic v and a ⊥ v; a is doubled when q(a) is odd.

    Fixes v; (g - I)^3 = 0 with (g - I)^2 != 0 as long as q(a) != 0.
    """
    n = latt.rank
    if n < 3:
        raise PreconditionError("rank >= 3 required (the complement of v is too small)")
    if qvalue(latt, v) != 0:
        raise PreconditionError("v must be isotropic")
    if pairing(latt, v, a) != 0:
        raise PreconditionError("a must pair to zero with v")
    if _proportional(v, a):
        raise PreconditionError("a must not be proportional to v")
    qa = qvalue(latt, a)
    if qa == 0:
        raise PreconditionError(
            "q(a) = 0 gives a shear with a rank-2 Jordan cell; pick another a"
        )
    if qa % 2 != 0:
        a, qa = tuple(2 * x for x in a), 4 * qa
    # column i is the image of e_i, and b(e_i, x) = (G x)_i
    ga, gv = gram_apply(latt, a), gram_apply(latt, v)
    shift = [x + qa // 2 * y for x, y in zip(a, v)]  # a + q(a)/2 v
    matrix = tuple(
        tuple(int(r == i) + ga[i] * v[r] - gv[i] * shift[r] for i in range(n))
        for r in range(n)
    )
    iso = Isometry(latt, matrix)
    b = mat_sub(matrix, identity(n))
    b2 = mat_mul(b, b)
    if is_zero(b2):
        raise PreconditionError("transvection collapsed to a small Jordan cell")
    if not is_zero(mat_mul(b2, b)):
        raise InternalInconsistencyError("(g - I)^3 != 0 for a transvection")
    if iso.apply(v) != tuple(v):
        raise InternalInconsistencyError("transvection does not fix v")
    return iso


def _proportional(v, a) -> bool:
    return all(
        v[i] * a[j] == v[j] * a[i] for i in range(len(v)) for j in range(len(v))
    )


def find_parabolic(latt: QuadLattice, v: Vector, a: Vector) -> tuple[Isometry, IsomClass]:
    """The transvection attached to the isotropic v and a ⊥ v with q(a) != 0
    (eichler_transvection), verified parabolic, with its classification."""
    iso = eichler_transvection(latt, v, a)
    cls = classify(iso)
    if cls.tag is not Tag.PARABOLIC:
        raise InternalInconsistencyError(f"transvection classified {cls.tag}")
    return iso, cls


def find_hyperbolic(latt: QuadLattice, automorph) -> tuple[Isometry, IsomClass]:
    """The automorph of an anisotropic signature-(1,1) lattice that
    lattice.binary_cycle returns, verified hyperbolic, with its
    classification."""
    iso = Isometry(latt, automorph)
    cls = classify(iso)
    if cls.tag is not Tag.HYPERBOLIC:
        raise InternalInconsistencyError(f"cycle automorph classified {cls.tag}")
    return iso, cls
