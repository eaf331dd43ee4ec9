"""Semantic check of hyperbolic and parabolic reports, and its tamper test.

Each claim is re-derived from the report and the generated input Gram G
with qforge's public functions. No stored report or digest is compared,
so a report whose numbers change (another prime, another basis) still
passes as long as every claim in it holds.
"""
from __future__ import annotations

import copy

from qforge import forge, isom, padic
from qforge.errors import QforgeError
from qforge.intmath import is_prime
from qforge.jsonio import decode_int
from qforge.lattice import QuadLattice, saturation_index, signature, span
from qforge.linalg import rational_rank


def _matrix(rows) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(decode_int(x) for x in row) for row in rows)


def _form(gram, u, v) -> int:
    n = len(gram)
    return sum(u[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))


def _sublattice_failures(report: dict, gram, want_signature) -> list[str]:
    sub = report["sublattice"]
    basis = _matrix(sub["basis"])
    claimed = _matrix(sub["gram"])
    failures = []
    recomputed = tuple(tuple(_form(gram, u, v) for v in basis) for u in basis)
    if recomputed != claimed:
        failures.append("basis * G * basis^T differs from the reported Gram")
    if saturation_index(span(QuadLattice(gram), basis)) != 1:
        failures.append("sublattice is not primitive")
    if signature(QuadLattice(claimed)) != want_signature:
        failures.append(f"signature is not {want_signature}")
    return failures


def _isometry_failures(report: dict, claimed_gram, want_tag: str) -> list[str]:
    iso_obj = report["isometry"]
    try:
        iso = isom.Isometry(QuadLattice(claimed_gram), _matrix(iso_obj["matrix"]))
    except QforgeError as exc:
        return [f"isometry rejected: {type(exc).__name__}"]
    tag = isom.classify(iso).tag.value
    claimed = iso_obj["classification"]["tag"]
    if tag != claimed or tag != want_tag:
        return [f"classify gives {tag}, report claims {claimed}, expected {want_tag}"]
    return []


def _triple_failures(report: dict, gram) -> list[str]:
    ext = report["extension"]
    b2 = len(gram)
    if tuple(ext["target_signature"]) != (3, b2):
        return ["target signature is not (3, rank)"]
    diag, _ = padic.rational_diagonalize(gram)
    augmented = padic.invariant_triple(list(diag) + [decode_int(b) for b in ext["b"]])
    standard = padic.invariant_triple([1] * 3 + [-1] * b2)
    if augmented != standard or not ext["triples_equal"]:
        return ["invariant triples recomputed from b differ"]
    return []


def check_hyperbolic(report: dict, gram, n_bound: int) -> list[str]:
    failures = _sublattice_failures(report, gram, (1, 1))
    sub = report["sublattice"]
    obj = sub["certificate"]
    (alpha1, alpha2), (beta1, beta2), (n1, n2) = (
        [decode_int(x) for x in obj[k]] for k in ("alpha", "beta", "n"))
    cert = forge.SmallnessCertificate(decode_int(obj["p"]), alpha1, alpha2,
                                      beta1, beta2, n1, n2)
    ok, reason = forge.check_certificate(cert, n_bound)
    if not ok:
        failures.append(f"certificate rejected: {reason}")
    if cert.p <= n_bound:
        failures.append("p <= N")
    v1 = tuple(decode_int(x) for x in sub["v1"])
    w = tuple(decode_int(x) for x in sub["w"])
    if (_form(gram, v1, v1), _form(gram, w, w), _form(gram, v1, w)) != (
            cert.alpha1, cert.alpha2, 0):
        failures.append("certificate diagonal is not q(v1), q(w) with b(v1, w) = 0")
    basis = _matrix(sub["basis"])
    if rational_rank(basis + (v1, w)) != 2:
        failures.append("v1, w do not span the sublattice rationally")
    return failures + _isometry_failures(report, _matrix(sub["gram"]), "hyperbolic")


def check_parabolic(report: dict, gram, n_bound: int) -> list[str]:
    failures = _triple_failures(report, gram)
    if report["certificate_level"]:
        return failures
    b2 = len(gram)
    failures += _sublattice_failures(report, gram, (1, b2 // 2 - 3))
    emb = report["embedding"]
    prime = decode_int(emb["prime"])
    d = decode_int(emb["index_d"])
    if not is_prime(prime) or prime <= d * d * n_bound:
        failures.append("P is not a prime above d^2 N")
    claimed = _matrix(report["sublattice"]["gram"])
    if any(x % prime for row in claimed for x in row):
        failures.append("Gram is not 0 mod P")
    return failures + _isometry_failures(report, claimed, "parabolic")


CHECKS = {"hyperbolic": check_hyperbolic, "parabolic": check_parabolic}


def check_report(command: str, report: dict, gram, n_bound: int) -> list[str]:
    """Failed claims of one report; empty means every claim holds."""
    if report.get("verified") is not True:
        return ["report is not verified"]
    try:
        return CHECKS[command](report, gram, n_bound)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]


# ---------------------------------------------------------------------------
# Tamper self-test: every corruption of a good report must be rejected.


def _bump_gram(r):
    g = r["sublattice"]["gram"]
    g[0][1] = decode_int(g[0][1]) + 1
    g[1][0] = decode_int(g[1][0]) + 1


def _small_p(r):
    if r["mode"] == "hyperbolic":
        r["sublattice"]["certificate"]["p"] = r["input"]["n_bound"]
    else:
        d = decode_int(r["embedding"]["index_d"])
        r["embedding"]["prime"] = d * d * r["input"]["n_bound"]


def _bump_isometry(r):
    m = r["isometry"]["matrix"]
    m[0][0] = decode_int(m[0][0]) + 1


def _swap_tag(r):
    c = r["isometry"]["classification"]
    c["tag"] = "parabolic" if c["tag"] == "hyperbolic" else "hyperbolic"


def _negate_b(r):
    r["extension"]["b"][0] = -decode_int(r["extension"]["b"][0])


TAMPERS = {
    "hyperbolic": {"gram entry": _bump_gram, "p <= N": _small_p,
                   "isometry entry": _bump_isometry, "classification tag": _swap_tag},
    "parabolic": {"gram entry": _bump_gram, "P <= d^2 N": _small_p,
                  "isometry entry": _bump_isometry, "classification tag": _swap_tag,
                  "b value": _negate_b},
}


def tamper_escapes(command: str, report: dict, gram, n_bound: int) -> list[str]:
    """Names of the corruptions the checker fails to reject (empty = good)."""
    escaped = []
    for name, tamper in TAMPERS[command].items():
        bad = copy.deepcopy(report)
        tamper(bad)
        if not check_report(command, bad, gram, n_bound):
            escaped.append(name)
    return escaped
