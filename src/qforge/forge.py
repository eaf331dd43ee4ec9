"""Rank-2 sublattices avoiding small nonzero represented numbers.

The construction: take an isotropic vector v and build an isotropic v'
with b(v, v') != 0, set v1 = a*v + b*v' (so q(v1) = 2ab*b(v,v')), build w
in the complement of the pair with q(w) of p-valuation 1 at a prime
p > N, and choose a, b so that the diagonal lattice <v1, w> is
anisotropic mod p. Every integer value of q on its rational span is then
divisible by p, which is exactly what the emitted certificate witnesses.
v is constructed by padic.isotropic_vector; each later step is
guaranteed by a theorem.
"""
from __future__ import annotations

import math
from collections import namedtuple

from .errors import InternalInconsistencyError, PreconditionError
from .intmath import is_prime, primes_from, sqrt_mod
from .lattice import (
    QuadLattice,
    Sublattice,
    Vector,
    binary_cycle,
    gram_divisible_by,
    orthogonal_complement,
    pairing,
    qvalue,
    signature,
    span,
)
from .linalg import bilinear, freeze, identity, lll_gram, mat_mul, mat_vec, saturation, transpose
from .padic import isotropic_vector, legendre


class SmallnessCertificate(
        namedtuple("SmallnessCertificate", "p alpha1 alpha2 beta1 beta2 n1 n2")):
    """Witness that a diagonal rank-2 lattice only takes values divisible by p.

    alpha_i = beta_i * p**(2*n_i + 1) are the diagonal Gram entries; the
    mod-p anisotropy of (beta1, beta2) forces p | q(v) for every rational
    v with integer q(v), hence every nonzero represented number has
    absolute value >= p.
    """

    __slots__ = ()


class Rank2Result(namedtuple("Rank2Result", "lattice v1 w saturation_index certificate "
                                            "minimum witness automorph")):
    """lattice, a Sublattice: saturated, rank 2, signature (1, 1);
    saturation_index = [lattice : span(v1, w)]; the SmallnessCertificate.
    From the walk around the sublattice's rho-cycle (lattice.binary_cycle):
    minimum, the exact min |q| over nonzero vectors, >= max(N, 1); witness,
    which attains it, and automorph, of infinite order, both in the
    coordinates of the sublattice basis."""

    __slots__ = ()


def check_certificate(cert: SmallnessCertificate, n_bound: int) -> tuple[bool, str]:
    """Validity with a reason code; True proves min nonzero |value| >= p > N."""
    p = cert.p
    if p == 2 or not is_prime(p):
        return False, "p must be an odd prime"
    if p <= n_bound:
        return False, "p must exceed the bound strictly"
    for alpha, beta, n in ((cert.alpha1, cert.beta1, cert.n1), (cert.alpha2, cert.beta2, cert.n2)):
        if n < 0 or alpha == 0 or beta == 0:
            return False, "malformed certificate entries"
        # |alpha| >= p^(2n+1) > 2^(2n+1): a huge n is rejected without the power
        if 2 * n + 1 >= abs(alpha).bit_length() or alpha != beta * p ** (2 * n + 1):
            return False, "alpha != beta * p^(2n+1)"
        if beta % p == 0:
            return False, "beta divisible by p"
    # p ∤ beta1 beta2, so a zero (x, y) != 0 mod p has x, y != 0 and -beta1/beta2 = (y/x)^2
    rhs = (-cert.beta1 * pow(cert.beta2, -1, p)) % p
    if legendre(rhs, p) != -1:
        return False, "beta1 x^2 + beta2 y^2 is isotropic mod p"
    return True, "ok"


# ---------------------------------------------------------------------------
# Isotropic vectors


def find_isotropic_pair(latt: QuadLattice) -> tuple[Vector, Vector]:
    """Two primitive isotropic vectors with nonzero pairing: v from
    padic.isotropic_vector (the first basis vector with q = 0 when there is
    one) and, with c = (G v)_i the first nonzero entry of G v, v' = 2c e_i -
    q(e_i) v divided by its content (q(v') = 0, b(v, v') = 2c^2 before the
    division)."""
    v = isotropic_vector(latt.gram)
    i, c = next(((i, c) for i, c in enumerate(mat_vec(latt.gram, v)) if c), (0, 0))
    if c == 0:  # v is in the radical
        raise PreconditionError("form is degenerate")
    vp = [2 * c * (j == i) - latt.gram[i][i] * x for j, x in enumerate(v)]
    return v, tuple(x // math.gcd(*vp) for x in vp)


def find_w_odd_valuation(comp: Sublattice, p: int) -> tuple[Vector, int]:
    """(w, beta) with w primitive in comp, q(w) = beta * p and p ∤ beta.

    w is in comp's coordinates; q(w) < 0, or q(w) > 0 when comp has no
    negative vector. If no basis vector qualifies, p must be odd with
    p ∤ det(comp), and PreconditionError then means comp is anisotropic
    mod p, so that no such w exists. The signs, det(comp) and the
    direction that fixes the sign of q(w) all come from comp's congruent
    diagonalization (QuadLattice.pivots), which the caller may already
    have formed on comp.as_lattice().
    """
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    latt = comp.as_lattice()
    # diagonal entry k is minors[k] / prevs[k], and cols[k] / prevs[k] its basis vector
    minors, cols = latt.pivots
    prevs = [1, *minors[:-1]]
    want_negative = not all(latt.positive)

    def sign_ok(value) -> bool:
        return value != 0 and (value < 0) == want_negative

    def valuation_one(value) -> bool:
        return value % p == 0 and value % (p * p) != 0

    units = identity(latt.rank)
    # q(e_i) is the Gram's diagonal entry
    w = next((units[i] for i, row in enumerate(latt.gram)
              if sign_ok(row[i]) and valuation_one(row[i])), None)
    if w is None:
        if p == 2 or minors[-1] % p == 0:  # minors[-1] = det(comp)
            raise PreconditionError("no basis vector qualifies, and p is 2 or divides det")
        x = _isotropic_mod_p(latt.gram, p)
        if x is None:
            raise PreconditionError(f"the form is anisotropic mod {p}")
        # G x ≢ 0 and q(x ± p e_j) ≡ q(x) ± 2p (G x)_j (mod p^2): a sign gives valuation 1
        j = next(j for j, c in enumerate(mat_vec(latt.gram, x)) if c % p)
        moved = [w for w in (_add(x, units[j], p), _add(x, units[j], -p))
                 if valuation_one(qvalue(latt, w))]
        w = next((w for w in moved if sign_ok(qvalue(latt, w))), moved[0])
        # w + p^2 k s keeps q(w) mod p^2, and takes the sign of q(s) for large k
        idx = next(i for i, pos in enumerate(latt.positive) if pos != want_negative)
        prev = prevs[idx]
        den = math.lcm(*(prev // math.gcd(c, prev) for c in cols[idx]))
        s = [c * den // prev for c in cols[idx]]
        k = 0
        while not sign_ok(qvalue(latt, _add(w, s, p * p * k))):
            k = max(1, 2 * k)
        w = _add(w, s, p * p * k)
        w = tuple(c // math.gcd(*w) for c in w)  # the content is prime to p: w ≢ 0 mod p
    value = qvalue(latt, w)
    if not (sign_ok(value) and valuation_one(value)):
        raise InternalInconsistencyError(f"constructed w = {w} does not qualify")
    return w, value // p


def _add(x, y, c: int) -> Vector:
    return tuple(a + c * b for a, b in zip(x, y))


def _isotropic_mod_p(gram, p: int) -> Vector | None:
    """x ≢ 0 with q(x) ≡ 0 (mod p), entries in (-p/2, p/2]; None if anisotropic.

    p is odd and ∤ det. Gram-Schmidt mod p on e1, e2, e3 stops at an
    isotropic projection; otherwise x = s u1 + u2 solves a1 s^2 + a2 ≡ 0,
    or x = s u1 + t u2 + u3 solves a1 s^2 + a2 t^2 + a3 ≡ 0, which always
    has a solution with t < p.
    """
    n = len(gram)

    def bmod(x, y) -> int:
        return bilinear(gram, x, y) % p

    def centered(x) -> Vector:
        return tuple(c % p - p if 2 * (c % p) > p else c % p for c in x)

    pieces: list[tuple[Vector, int]] = []
    for y in identity(n)[:3]:
        for u, a in pieces:
            y = _add(y, u, -bmod(y, u) * pow(a, -1, p))
        if bmod(y, y) == 0:
            return centered(y)
        pieces.append((y, bmod(y, y)))
    if len(pieces) == 1:
        return None
    (u1, a1), (u2, _), *rest = pieces
    for tail in (_add(rest[0][0], u2, t) for t in range(p)) if rest else [u2]:
        s = sqrt_mod(-bmod(tail, tail) * pow(a1, -1, p) % p, p)
        if s is not None:
            return centered(_add(tail, u1, s))
    return None


# ---------------------------------------------------------------------------
# The rank-2 construction


def find_rank2_avoiding(
    latt: QuadLattice,
    n_bound: int,
) -> Rank2Result:
    """Primitive rank-2 sublattice of signature (1,1) representing no
    nonzero number of absolute value < n_bound, with its certificate.

    Requires an indefinite non-degenerate lattice of rank >= 5 (which
    guarantees isotropic vectors exist): a definite one fails in
    padic.isotropic_vector, a degenerate one at v or in comp's pivots. p
    is the least prime > max(N, 2) not dividing 2 b(v, v') det(comp):
    comp, of rank >= 3, is then non-degenerate and so isotropic mod p, and
    w exists. Without an isotropic basis vector the construction runs in
    an LLL-reduced basis.
    """
    if latt.rank < 5:
        raise PreconditionError("rank >= 5 required")
    if n_bound < 0:
        raise PreconditionError("bound must be >= 0")
    if all(latt.gram[i][i] for i in range(latt.rank)):
        # no isotropic basis vector: construct in an LLL-reduced basis, whose
        # small Gram keeps v, v', w and so the rank-2 discriminant small
        h, gram, _ = lll_gram(latt.gram)
        v1, w, cert = _construct(QuadLattice(freeze(gram)), n_bound, reduce_complement=True)
        v1, w = (mat_vec(transpose(h), x) for x in (v1, w))
    else:
        v1, w, cert = _construct(latt, n_bound)
    basis, index = saturation((v1, w))
    sub = Sublattice(latt, basis)
    return Rank2Result(sub, v1, w, index, cert, *_post_verify(sub, cert.p, n_bound))


def _construct(
    latt: QuadLattice, n_bound: int, reduce_complement: bool = False
) -> tuple[Vector, Vector, SmallnessCertificate]:
    v, vp = find_isotropic_pair(latt)
    g = pairing(latt, v, vp)
    comp = orthogonal_complement(span(latt, [v, vp]))
    if reduce_complement:
        h, _, _ = lll_gram(comp.gram())
        comp = Sublattice(latt, freeze(mat_mul(h, comp.basis)))
    # comp, the complement of the hyperbolic plane <v, v'>, is non-degenerate,
    # and the last minor of its pivots is its determinant; find_w_odd_valuation
    # reads the same pivots off the same lattice
    minors, _ = comp.as_lattice().pivots
    obstruction = 2 * g * minors[-1]
    p = next(p for p in primes_from(max(n_bound + 1, 3)) if obstruction % p)
    # q(w) < 0 whenever comp allows it, so that q(v1) > 0
    w_coords, beta2 = find_w_odd_valuation(comp, p)
    # beta1 = ±2|g| k has the sign opposite to beta2; as k runs over 1..p-1,
    # -beta1/beta2 runs over every nonzero residue, so some k gives a non-residue
    unit = -2 * abs(g) if beta2 > 0 else 2 * abs(g)
    k = next(k for k in range(1, p) if legendre(-unit * k * pow(beta2, -1, p) % p, p) == -1)
    beta1 = unit * k
    # ab = beta1 p / 2g = ±k p, split into the factor pair with least |a| + |b|:
    # p is a prime above k, so the largest divisor of |ab| up to sqrt(|ab|) is k
    a, b = k, unit * p // (2 * g)
    v1 = tuple(a * x + b * y for x, y in zip(v, vp))
    w = comp.to_ambient(w_coords)
    alpha1 = qvalue(latt, v1)
    alpha2 = qvalue(latt, w)
    if (alpha1 != beta1 * p
            or alpha2 != beta2 * p
            or pairing(latt, v1, w) != 0):
        raise InternalInconsistencyError(
            "v1, w do not give the certificate's orthogonal diagonal"
        )
    cert = SmallnessCertificate(
        p=p, alpha1=alpha1, alpha2=alpha2, beta1=beta1, beta2=beta2, n1=0, n2=0,
    )
    ok, reason = check_certificate(cert, n_bound)
    if not ok:
        raise InternalInconsistencyError(f"constructed certificate fails: {reason}")
    return v1, w, cert


def _post_verify(sub: Sublattice, p: int, n_bound: int):
    """binary_cycle of the sublattice, after checking that it has signature
    (1, 1), a Gram that is 0 mod p and no nonzero value below max(N, 1)."""
    sat_latt = sub.as_lattice()
    if signature(sat_latt) != (1, 1):
        raise InternalInconsistencyError("constructed lattice is not of signature (1,1)")
    if not gram_divisible_by(sat_latt.gram, p):
        raise InternalInconsistencyError(f"Gram of the sublattice is not 0 mod {p}")
    smallest, witness, automorph = binary_cycle(sat_latt)
    if smallest < max(n_bound, 1):
        raise InternalInconsistencyError(f"small value {smallest} slipped through at {witness}")
    return smallest, witness, automorph
