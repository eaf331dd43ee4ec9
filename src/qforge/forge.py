"""Rank-2 sublattices avoiding small nonzero represented numbers.

The construction: pick two isotropic vectors v, v' with b(v, v') != 0,
set v1 = a*v + b*v' (so q(v1) = 2ab*b(v,v')), pick w in the complement of
the pair with q(w) of odd valuation at a prime p > N, and tune a, b so
that the diagonal lattice <v1, w> is anisotropic mod p. Every integer
value of q on its rational span is then divisible by p, which is exactly
what the emitted certificate witnesses.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    DegenerateLatticeError,
    InternalInconsistencyError,
    InvalidPrimeError,
    NotFoundWithinBoundError,
    PoolExhaustedError,
    PreconditionError,
)
from .intmath import is_prime, primes_from, valuation
from .lattice import (
    QuadLattice,
    Sublattice,
    Vector,
    all_values_divisible_by,
    is_indefinite,
    iter_search_vectors,
    min_nonzero_abs,
    pairing,
    qvalue,
    saturate,
    signature,
    span,
)
from .limits import DEFAULT_LIMITS, SearchLimits
from .padic import legendre


@dataclass(frozen=True)
class SmallnessCertificate:
    """Witness that a diagonal rank-2 lattice only takes values divisible by p.

    alpha_i = beta_i * p**(2*n_i + 1) are the diagonal Gram entries; the
    mod-p anisotropy of (beta1, beta2) forces p | q(v) for every rational
    v with integer q(v), hence every nonzero represented number has
    absolute value >= p.
    """

    p: int
    alpha1: int
    alpha2: int
    beta1: int
    beta2: int
    n1: int
    n2: int


@dataclass(frozen=True)
class Rank2Result:
    lattice: Sublattice  # saturated, rank 2, signature (1, 1)
    v1: Vector
    w: Vector
    certificate: SmallnessCertificate


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
        if alpha != beta * p ** (2 * n + 1):
            return False, "alpha != beta * p^(2n+1)"
        if beta % p == 0:
            return False, "beta divisible by p"
    rhs = (-cert.beta1 * pow(cert.beta2, -1, p)) % p
    if legendre(rhs, p) != -1:
        return False, "beta1 x^2 + beta2 y^2 is isotropic mod p"
    if p <= 97:
        for x in range(p):
            for y in range(p):
                if (x or y) and (cert.beta1 * x * x + cert.beta2 * y * y) % p == 0:
                    return False, "mod-p enumeration found a nontrivial zero"
    return True, "ok"


def verify_certificate(cert: SmallnessCertificate, n_bound: int) -> bool:
    ok, _ = check_certificate(cert, n_bound)
    return ok


# ---------------------------------------------------------------------------
# Vector hunts


def find_isotropic(
    latt: QuadLattice, limits: SearchLimits = DEFAULT_LIMITS
) -> Vector:
    """First primitive isotropic vector in canonical search order."""
    scanned = 0
    for v in iter_search_vectors(latt.rank, limits.max_l1):
        scanned += 1
        if scanned > limits.vector_budget:
            break
        if qvalue(latt, v) == 0:
            return v
    raise NotFoundWithinBoundError(
        "no isotropic vector within the search bound"
        + ("" if latt.rank >= 5 else " (inconclusive below rank 5)")
    )


def find_isotropic_pair(
    latt: QuadLattice, limits: SearchLimits = DEFAULT_LIMITS
) -> tuple[Vector, Vector]:
    """Two primitive isotropic vectors with nonzero pairing.

    Zero pairing would kill q(a*v + b*v'), so such partners are skipped.
    """
    first = None
    scanned = 0
    for v in iter_search_vectors(latt.rank, limits.max_l1):
        scanned += 1
        if scanned > limits.vector_budget:
            break
        if qvalue(latt, v) != 0:
            continue
        if first is None:
            first = v
            continue
        if pairing(latt, first, v) != 0:
            return first, v
    raise NotFoundWithinBoundError("no isotropic pair with nonzero pairing found")


def find_w_odd_valuation(
    comp: Sublattice,
    p: int,
    want_negative: bool = True,
    limits: SearchLimits = DEFAULT_LIMITS,
) -> tuple[Vector, int, int]:
    """(w, beta, n) with w primitive in comp, q(w) = beta * p^(2n+1), p ∤ beta.

    w is returned in the coordinates of comp; the sign of q(w) is selected
    by want_negative.
    """
    if not is_prime(p):
        raise InvalidPrimeError(f"{p} is not prime")
    gram = comp.gram()
    comp_latt = QuadLattice(gram)
    scanned = 0
    for w in iter_search_vectors(comp.rank, limits.max_l1):
        scanned += 1
        if scanned > limits.vector_budget:
            break
        value = qvalue(comp_latt, w)
        if value == 0 or (value < 0) != want_negative:
            continue
        v = valuation(value, p)
        if v % 2 == 1:
            n = (v - 1) // 2
            beta = value // p**v
            return w, beta, n
    raise NotFoundWithinBoundError(
        f"no vector with odd {p}-valuation of the requested sign within bounds"
    )


# ---------------------------------------------------------------------------
# The rank-2 construction


def _multiplier_search(
    g: int, p: int, beta2: int, want_positive: bool, limits: SearchLimits
) -> tuple[int, int, int, int] | None:
    """(a, b, beta1, n1) with 2*a*b*g = beta1 * p^(2n1+1), p ∤ beta1,
    sign as requested, and beta1 x^2 + beta2 y^2 anisotropic mod p.

    beta1 is scanned smallest first (then n1), and for each admissible
    target the factor pair a*b minimizing |a| + |b| is chosen.
    """
    inv_beta2 = pow(beta2, -1, p)
    sign = 1 if want_positive else -1
    for n1 in (0, 1, 2):
        power = p ** (2 * n1 + 1)
        for mag in range(1, limits.multiplier_bound + 1):
            beta1 = sign * mag
            if beta1 % p == 0:
                continue
            if legendre((-beta1 * inv_beta2) % p, p) != -1:
                continue
            target, rem = divmod(beta1 * power, 2 * g)
            if rem != 0 or target == 0:
                continue
            best = None
            for d in range(1, math.isqrt(abs(target)) + 1):
                if target % d == 0:
                    a, b = d, target // d
                    if best is None or abs(a) + abs(b) < abs(best[0]) + abs(best[1]):
                        best = (a, b)
            if best is not None:
                return best[0], best[1], beta1, n1
    return None


def find_rank2_avoiding(
    latt: QuadLattice,
    n_bound: int,
    limits: SearchLimits = DEFAULT_LIMITS,
) -> Rank2Result:
    """Primitive rank-2 sublattice of signature (1,1) representing no
    nonzero number of absolute value < n_bound, with its certificate.

    Requires an indefinite non-degenerate lattice of rank >= 5 (which
    guarantees isotropic vectors exist).
    """
    if latt.rank < 5:
        raise PreconditionError("rank >= 5 required")
    if latt.det() == 0:
        raise DegenerateLatticeError("ambient lattice is degenerate")
    if not is_indefinite(latt):
        raise PreconditionError("ambient lattice must be indefinite")
    if n_bound < 0:
        raise PreconditionError("bound must be >= 0")

    v, vp = find_isotropic_pair(latt, limits)
    g = pairing(latt, v, vp)
    comp = _pair_complement(latt, v, vp)
    comp_pos, comp_neg = signature(comp.as_lattice())

    tried = 0
    for p in primes_from(max(n_bound + 1, 3)):
        if tried >= limits.prime_pool:
            break
        tried += 1
        for w_negative in _orientation_order(comp_pos, comp_neg):
            try:
                w_coords, beta2, n2 = find_w_odd_valuation(
                    comp, p, want_negative=w_negative, limits=limits
                )
            except NotFoundWithinBoundError:
                continue
            found = _multiplier_search(g, p, beta2, want_positive=w_negative, limits=limits)
            if found is None:
                continue
            a, b, beta1, n1 = found
            v1 = tuple(a * x + b * y for x, y in zip(v, vp))
            w = comp.to_ambient(w_coords)
            alpha1 = qvalue(latt, v1)
            alpha2 = qvalue(latt, w)
            if (alpha1 != beta1 * p ** (2 * n1 + 1)
                    or alpha2 != beta2 * p ** (2 * n2 + 1)
                    or pairing(latt, v1, w) != 0):
                raise InternalInconsistencyError(
                    "v1, w do not give the certificate's orthogonal diagonal"
                )
            cert = SmallnessCertificate(
                p=p, alpha1=alpha1, alpha2=alpha2,
                beta1=beta1, beta2=beta2, n1=n1, n2=n2,
            )
            if not verify_certificate(cert, n_bound):
                continue
            sat = saturate(span(latt, [v1, w]))
            result = Rank2Result(lattice=sat, v1=v1, w=w, certificate=cert)
            _post_verify(result, n_bound)
            return result
    raise PoolExhaustedError(
        f"no workable prime among the first {limits.prime_pool} candidates"
    )


def select_prime(latt: QuadLattice, n_bound: int,
                 limits: SearchLimits = DEFAULT_LIMITS) -> int:
    """Smallest prime > n_bound for which the whole construction succeeds."""
    return find_rank2_avoiding(latt, n_bound, limits).certificate.p


def _orientation_order(comp_pos: int, comp_neg: int):
    # prefer q(w) < 0 (so q(v1) > 0); a definite complement forces the flip
    if comp_neg == 0:
        return (False,)
    if comp_pos == 0:
        return (True,)
    return (True, False)


def _pair_complement(latt, v, vp) -> Sublattice:
    from .lattice import orthogonal_complement

    return orthogonal_complement(span(latt, [v, vp]))


def _post_verify(result: Rank2Result, n_bound: int, quick_height: int = 40) -> None:
    sat = result.lattice
    cert = result.certificate
    pos, neg = signature(sat.as_lattice())
    if (pos, neg) != (1, 1):
        raise InternalInconsistencyError("constructed lattice is not of signature (1,1)")
    sat_latt = sat.as_lattice()
    ok, counterexample = all_values_divisible_by(sat_latt, cert.p, quick_height)
    if not ok:
        raise InternalInconsistencyError(f"value not divisible by p at {counterexample}")
    smallest, _ = min_nonzero_abs(sat_latt, quick_height)
    if smallest is not None and smallest < max(n_bound, 1):
        raise InternalInconsistencyError("small value slipped through the certificate")
