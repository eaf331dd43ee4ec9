"""Hilbert symbols and the complete rational-equivalence invariant.

A place is a prime number or INF (the real place). The invariant triple
(signature, discriminant square class, set of places with local signature
-1) classifies non-degenerate quadratic forms over Q up to equivalence.
"""
from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InconsistentTargetsError,
    InternalInconsistencyError,
    PreconditionError,
    SearchExhaustedError,
)
from .intmath import (
    first_primes_excluding,
    is_prime,
    prime_support,
    squarefree_part,
    unit_mod,
    unit_part,
    valuation,
)
from .lattice import QuadLattice, _symmetric_diagonalize

INF = float("inf")

Place = float | int  # a prime, or INF


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p; 0 iff p | a."""
    if p == 2 or not is_prime(p):
        raise PreconditionError(f"{p} is not an odd prime")
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def _eps2(u: int) -> int:
    """(u - 1)/2 mod 2 for an odd residue u."""
    return ((u % 8) - 1) // 2 % 2


def _omega2(u: int) -> int:
    """(u^2 - 1)/8 mod 2 for an odd residue u."""
    return ((u % 8) ** 2 - 1) // 8 % 2


@functools.lru_cache(maxsize=1024)  # a parabolic benchmark round peaks at 296 entries
def hilbert_symbol(a: Fraction | int, b: Fraction | int, place: Place) -> int:
    """+1 iff a x^2 + b y^2 = z^2 has a nonzero solution locally at place."""
    a = Fraction(a)
    b = Fraction(b)
    if a == 0 or b == 0:
        raise PreconditionError("Hilbert symbol needs nonzero arguments")
    if place == INF:
        return -1 if a < 0 and b < 0 else 1
    p = int(place)
    if not is_prime(p):
        raise PreconditionError(f"{p} is not a prime")
    alpha = valuation(a, p)
    beta = valuation(b, p)
    u = unit_part(a, p)
    v = unit_part(b, p)
    if p != 2:
        eps = (p - 1) // 2 % 2
        sign = (-1) ** (alpha * beta * eps)
        lu = legendre(unit_mod(u, p, p), p)
        lv = legendre(unit_mod(v, p, p), p)
        return sign * lu**beta * lv**alpha

    um = unit_mod(u, 8, 2)
    vm = unit_mod(v, 8, 2)
    expo = _eps2(um) * _eps2(vm) + alpha * _omega2(vm) + beta * _omega2(um)
    return (-1) ** (expo % 2)


def symbol_support(a, b) -> list[Place]:
    """Places where (a, b) could be -1: 2, INF, and the prime supports."""
    places: set = {2}
    places.update(prime_support(a))
    places.update(prime_support(b))
    return sorted(places) + [INF]


def is_local_square(x: Fraction | int, place: Place) -> bool:
    x = Fraction(x)
    if x == 0:
        raise PreconditionError("zero is not classified")
    if place == INF:
        return x > 0
    p = int(place)
    if valuation(x, p) % 2 != 0:
        return False
    u = unit_part(x, p)
    if p == 2:
        return unit_mod(u, 8, 2) == 1
    return legendre(unit_mod(u, p, p), p) == 1


# ---------------------------------------------------------------------------
# Diagonalization and the invariant triple


def rational_diagonalize(
    gram, rng: random.Random | None = None
) -> tuple[list[Fraction], tuple]:
    """Diagonal entries and basis of a congruent diagonal form over Q.

    basis^T G basis == diag(entries) exactly. With `rng`, the pivot
    preference order is shuffled; the resulting invariants must not change.
    """
    n = len(gram)
    order = None
    if rng is not None:
        order = list(range(n))
        rng.shuffle(order)
    return _symmetric_diagonalize(gram, order=order)


@dataclass(frozen=True)
class InvariantTriple:
    """Complete invariant of a non-degenerate form over Q."""

    signature: tuple[int, int]
    disc: int  # signed squarefree representative of the discriminant class
    minus_places: tuple[Place, ...]  # places with local signature -1, sorted

    @property
    def rank(self) -> int:
        return self.signature[0] + self.signature[1]


def _diag_of(form, rng=None) -> list[Fraction]:
    if isinstance(form, QuadLattice):
        diag, _ = rational_diagonalize(form.gram, rng=rng)
    elif form and isinstance(form[0], (list, tuple)):
        diag, _ = rational_diagonalize(form, rng=rng)
    else:
        diag = [Fraction(x) for x in form]
    if any(d == 0 for d in diag):
        raise PreconditionError("form is degenerate")
    return list(diag)


def invariant_triple(form, rng: random.Random | None = None) -> InvariantTriple:
    """form: QuadLattice, Gram matrix, or a diagonal list of rationals."""
    diag = _diag_of(form, rng=rng)
    pos = sum(1 for d in diag if d > 0)
    neg = len(diag) - pos
    disc = Fraction(1)
    for d in diag:
        disc *= d
    places: set = {2, INF}
    for d in diag:
        places.update(prime_support(d))
    minus = []
    for place in sorted(places):
        eps = 1
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                eps *= hilbert_symbol(diag[i], diag[j], place)
        if eps == -1:
            minus.append(place)
    return InvariantTriple(
        signature=(pos, neg),
        disc=squarefree_part(disc),
        minus_places=tuple(minus),
    )


def rationally_equivalent(f1, f2) -> bool:
    t1 = invariant_triple(f1)
    t2 = invariant_triple(f2)
    if t1.rank != t2.rank:
        raise PreconditionError("forms have different ranks")
    return t1 == t2


# ---------------------------------------------------------------------------
# Prescribed Hilbert symbols

AUX_POOL_SIZE = 25


def _gf2_solve(rows: list[list[int]], rhs: list[int], nvars: int) -> list[int] | None:
    """Solve a linear system over GF(2); free variables set to 0."""
    aug = [(sum(bit << i for i, bit in enumerate(row)) | (r << nvars))
           for row, r in zip(rows, rhs)]
    pivots: list[tuple[int, int]] = []  # (row index in echelon list, var)
    echelon: list[int] = []
    for vec in aug:
        for erow, var in zip(echelon, [p for _, p in pivots]):
            if (vec >> var) & 1:
                vec ^= erow
        lead = None
        for v in range(nvars):
            if (vec >> v) & 1:
                lead = v
                break
        if lead is None:
            if (vec >> nvars) & 1:
                return None
            continue
        echelon.append(vec)
        pivots.append((len(echelon) - 1, lead))
    # back-substitute
    for idx in range(len(echelon) - 1, -1, -1):
        for jdx in range(idx):
            if (echelon[jdx] >> pivots[idx][1]) & 1:
                echelon[jdx] ^= echelon[idx]
    sol = [0] * nvars
    for erow, (_, var) in zip(echelon, pivots):
        sol[var] = (erow >> nvars) & 1
    return sol


def _normalize_targets(targets) -> dict[Place, int]:
    out: dict[Place, int] = {}
    for place, delta in targets.items():
        if delta not in (1, -1):
            raise InconsistentTargetsError(f"target at {place} must be +-1")
        if place != INF and not is_prime(int(place)):
            raise PreconditionError(f"{place} is not a prime")
        out[place] = delta
    return out


def solve_prescribed_hilbert(
    x: Fraction | int,
    targets: dict[Place, int],
    sign: int | None = None,
    pool_size: int = AUX_POOL_SIZE,
) -> int:
    """A nonzero integer y with (x, y) = targets[place] at every place,
    +1 at unspecified places, and optionally a forced sign.

    y is searched as a product of -1, the primes of x and of the targets,
    and at most one auxiliary prime from a fixed deterministic pool; the
    result is always re-verified symbol by symbol before being returned.
    """
    x = Fraction(x)
    if x == 0:
        raise PreconditionError("x must be nonzero")
    targets = _normalize_targets(targets)
    prod = 1
    for delta in targets.values():
        prod *= delta
    if prod != 1:
        raise InconsistentTargetsError("product of prescribed symbols must be +1")
    for place, delta in targets.items():
        if delta == -1 and is_local_square(x, place):
            raise InconsistentTargetsError(
                f"x is a local square at {place}; (x, .) cannot be -1 there"
            )

    base_primes = sorted(set(prime_support(x)) | {2} |
                         {int(p) for p in targets if p != INF})
    pool = first_primes_excluding(pool_size, set(base_primes))

    for aux in [None] + pool:
        gens: list = [-1] + base_primes + ([aux] if aux else [])
        places: list[Place] = sorted(set(base_primes) | ({aux} if aux else set())) + [INF]
        rows = []
        rhs = []
        for place in places:
            delta = targets.get(place, 1)
            rows.append(
                [0 if hilbert_symbol(x, g, place) == 1 else 1 for g in gens]
            )
            rhs.append(0 if delta == 1 else 1)
        if sign is not None:
            rows.append([1] + [0] * (len(gens) - 1))
            rhs.append(0 if sign > 0 else 1)
        sol = _gf2_solve(rows, rhs, len(gens))
        if sol is None:
            continue
        y = 1
        for g, e in zip(gens, sol):
            if e:
                y *= g
        if y == 0:
            continue
        checks = set(places) | set(targets)
        if all(hilbert_symbol(x, y, pl) == targets.get(pl, 1) for pl in checks):
            if sign is None or (y > 0) == (sign > 0):
                return y
    raise SearchExhaustedError(
        "no y found with the prescribed symbols; enlarge the auxiliary pool"
    )


def choose_pair_prescribed(
    targets: dict[Place, int],
    sign_x: int | None = None,
    sign_y: int | None = None,
) -> tuple[int, int]:
    """(x, y) with (x, y) = targets at every place and prescribed signs.

    x is taken to be a non-square unit modulo each finite place where -1 is
    prescribed (CRT), negative when the real place prescribes -1; y comes
    from the prescribed-symbol solver and the pair is verified post hoc.
    """
    targets = _normalize_targets(targets)
    prod = 1
    for delta in targets.values():
        prod *= delta
    if prod != 1:
        raise InconsistentTargetsError("product of prescribed symbols must be +1")

    minus_finite = sorted(int(p) for p, d in targets.items() if d == -1 and p != INF)
    minus_inf = targets.get(INF, 1) == -1
    if minus_inf and sign_x is not None and sign_x > 0:
        raise InconsistentTargetsError(
            "(x, y) at the real place is -1 only when both are negative"
        )

    want_negative = minus_inf or (sign_x is not None and sign_x < 0)
    x = None
    if want_negative:
        # -1 is the canonical choice whenever it is a non-square at every
        # finite minus place
        if all(not is_local_square(-1, p) for p in minus_finite):
            x = -1
    if x is None:
        if not minus_finite:
            x = 1
        else:
            residues = []
            moduli = []
            for p in minus_finite:
                if p == 2:
                    residues.append(5)
                    moduli.append(8)
                else:
                    n = next(r for r in range(2, p) if legendre(r, p) == -1)
                    residues.append(n)
                    moduli.append(p)
            x = _crt(residues, moduli)
        modulus = 1
        for p in minus_finite:
            modulus *= 8 if p == 2 else p
        if want_negative:
            while x >= 0:
                x -= max(modulus, 1)
        elif x <= 0:
            x += max(modulus, 1)
    y = solve_prescribed_hilbert(x, targets, sign=sign_y)
    for place in set(targets) | {2, INF} | set(prime_support(x)) | set(prime_support(y)):
        if hilbert_symbol(x, y, place) != targets.get(place, 1):
            raise InternalInconsistencyError(f"(x, y) misses its Hilbert symbol at {place}")
    return x, y


def _crt(residues: list[int], moduli: list[int]) -> int:
    x, m = 0, 1
    for r, mod in zip(residues, moduli):
        inv = pow(m, -1, mod)
        x = x + m * ((r - x) * inv % mod)
        m *= mod
    return x % m
