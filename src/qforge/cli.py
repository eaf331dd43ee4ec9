"""Command-line front end.

qforge hyperbolic|parabolic --lattice L --n-bound N [--verify]
qforge invariants|isotropic --lattice L
qforge equiv --lattice L --other L2
qforge classify --lattice L --matrix FILE
qforge saturate --lattice L --basis FILE
qforge extend|glue --lattice L --target-signature r,s
qforge certify --certificate FILE --n-bound N
qforge enumerate --lattice L [--height-bound B] [--budget B]

Every command also takes --out report.json; a flag the command does not
read (the table _COMMANDS) exits 2. --n-bound defaults to 1, --height-bound
to 10 and --budget to lattice.ENUM_BUDGET; the last two must be >= 1. A
flag is given as `--flag value` or `--flag=value`, by its name or a unique
prefix of it, and the last of a repeated flag wins; --help (or -h) lists
the commands and flags.

Reports are JSON with every numeric claim accompanied by a re-runnable
verification command; identical inputs and flags yield byte-identical
reports apart from the timings block. Exit codes: 0 success,
2 precondition or malformed input (argv and input files included),
3 search exhausted, 4 internal inconsistency; stdout is JSON in every case.
"""
from __future__ import annotations

import functools
import gc
import hashlib
import json
import re
import sys
import time
from fractions import Fraction
from itertools import chain
from types import SimpleNamespace

from . import __version__, catalog, forge, glue, isom, jsonio
from .errors import PreconditionError, QforgeError
from .intmath import is_prime
from .jsonio import (
    dump_json,
    encode_fraction_matrix,
    encode_int,
    encode_matrix,
    encode_place,
    encode_vector,
    lattice_to_obj,
    load_lattice_file,
    read_json,
)
from .lattice import (
    ENUM_BUDGET,
    QuadLattice,
    binary_cycle,
    enumerate_values,
    gram_divisible_by,
    gram_of,
    min_nonzero_abs,
    qvalue,
    signature,
    span,
)
from .linalg import freeze, rational_rank, saturation, transpose
from .padic import invariant_triple, isotropic_vector, rationally_equivalent
from .forge import SmallnessCertificate, check_certificate

gc.freeze()  # what importing qforge builds lives until exit: no collection re-walks it


def _load_lattice(spec: str | None) -> QuadLattice:
    if spec is None:
        raise PreconditionError("--lattice is required")
    if spec.startswith("catalog:"):
        return catalog.resolve(spec[len("catalog:"):])
    return load_lattice_file(spec)


@functools.lru_cache(maxsize=1)  # the report names it, and --verify checks it
def _lattice_hash(latt: QuadLattice) -> str:
    gram = latt.gram  # entries below 2^53 encode as themselves
    if max(map(abs, chain.from_iterable(gram)), default=0) >= jsonio.SAFE_BOUND:
        gram = encode_matrix(gram)
    return hashlib.sha256(json.dumps(gram, sort_keys=True).encode()).hexdigest()[:16]


# Height of the one box enumeration left on the hyperbolic path: the --verify
# cross-check of the exact minimum, also printed as a re-runnable check.
CROSS_CHECK_HEIGHT = 60


def _decode_matrix(rows) -> tuple[tuple[int, ...], ...]:
    return freeze(jsonio.decode_matrix(rows))


def _triple_obj(t) -> dict:
    return {
        "signature": list(t.signature),
        "disc_squarefree": encode_int(t.disc),
        "minus_places": [encode_place(p) for p in t.minus_places],
    }


def _extension_obj(ext) -> dict:
    return {
        "b": [encode_int(ext.b0), encode_int(ext.b1), encode_int(ext.b2)],
        "target_signature": list(ext.target_signature),
        "augmented_triple": _triple_obj(ext.augmented_triple),
        "standard_triple": _triple_obj(ext.standard_triple),
        "triples_equal": ext.augmented_triple == ext.standard_triple,
    }


def _certificate_obj(cert: SmallnessCertificate) -> dict:
    return {
        "p": cert.p,
        "alpha": [encode_int(cert.alpha1), encode_int(cert.alpha2)],
        "beta": [encode_int(cert.beta1), encode_int(cert.beta2)],
        "n": [cert.n1, cert.n2],
    }


def _certificate_from_obj(obj) -> SmallnessCertificate:
    pairs = ("alpha", "beta", "n")
    if not (isinstance(obj, dict) and {"p", *pairs} <= obj.keys()
            and all(isinstance(obj[k], list) and len(obj[k]) == 2 for k in pairs)):
        raise PreconditionError('a certificate needs "p" and pairs "alpha", "beta" and "n"')
    return SmallnessCertificate(
        p=jsonio.decode_int(obj["p"]),
        alpha1=jsonio.decode_int(obj["alpha"][0]),
        alpha2=jsonio.decode_int(obj["alpha"][1]),
        beta1=jsonio.decode_int(obj["beta"][0]),
        beta2=jsonio.decode_int(obj["beta"][1]),
        n1=jsonio.decode_int(obj["n"][0]),
        n2=jsonio.decode_int(obj["n"][1]),
    )


def _classification_obj(cls) -> dict:
    out = {"tag": cls.tag.value}
    if cls.order is not None:
        out["order"] = cls.order
    if cls.quasi_unipotent_order is not None:
        out["quasi_unipotent_order"] = cls.quasi_unipotent_order
    if cls.fixed_isotropic is not None:
        out["fixed_isotropic"] = encode_vector(cls.fixed_isotropic)
    if cls.dominant_factor is not None:
        out["dominant_factor_ascending"] = [encode_int(c) for c in cls.dominant_factor]
    if cls.dominant_interval is not None:
        out["dominant_root_between"] = [
            jsonio.encode_fraction(cls.dominant_interval[0]),
            jsonio.encode_fraction(cls.dominant_interval[1]),
        ]
    if cls.cyclotomic_orders:
        out["cyclotomic_factors"] = [list(t) for t in cls.cyclotomic_orders]
    if cls.preserves_positive_cone is not None:
        out["preserves_positive_cone"] = cls.preserves_positive_cone
    return out


# ---------------------------------------------------------------------------
# Report-producing commands


def _report(args, t0: float, iso, cls, checks: list[str], **body) -> dict:
    """A construction's report: the head every mode shares around `body`."""
    latt = args.source
    return {
        "tool": {"name": "qforge", "version": __version__},
        "mode": args.command,
        "input": {"lattice": args.lattice, "label": latt.label, "hash": _lattice_hash(latt),
                  "rank": latt.rank, "n_bound": args.n_bound},
        **body,
        "isometry": {"matrix": encode_matrix(iso.matrix), "classification": _classification_obj(cls)},
        "checks": checks,
        "timings": {"seconds": round(time.monotonic() - t0, 3)},
    }


def cmd_hyperbolic(args) -> dict:
    latt = args.source = _load_lattice(args.lattice)  # main verifies the report against it
    t0 = time.monotonic()
    result = forge.find_rank2_avoiding(latt, args.n_bound)
    sub_latt = result.lattice.as_lattice()
    iso, cls = isom.find_hyperbolic(sub_latt, result.automorph)
    checks = [
        f"qforge certify --certificate <sublattice.certificate> --n-bound {args.n_bound}",
        "qforge classify --lattice <sublattice.gram> --matrix <isometry.matrix>",
        f"qforge enumerate --lattice <sublattice.gram> --height-bound {CROSS_CHECK_HEIGHT}",
    ]
    sublattice = {
        "basis": [encode_vector(v) for v in result.lattice.basis],
        "gram": encode_matrix(result.lattice.gram()),
        "v1": encode_vector(result.v1),
        "w": encode_vector(result.w),
        "certificate": _certificate_obj(result.certificate),
        "certificate_valid": check_certificate(result.certificate, args.n_bound)[0],
        "saturation_index_of_span": encode_int(result.saturation_index),
    }
    oracle = {
        "min_nonzero_abs": encode_int(result.minimum),
        "min_witness": encode_vector(result.witness),
        "all_values_divisible_by_p": gram_divisible_by(sub_latt.gram, result.certificate.p),
    }
    return _report(args, t0, iso, cls, checks, sublattice=sublattice, oracle=oracle)


def cmd_parabolic(args) -> dict:
    latt = args.source = _load_lattice(args.lattice)  # main verifies the report against it
    t0 = time.monotonic()
    rep = glue.embed_pipeline(latt, args.n_bound)
    final = rep.lambda_in_source.as_lattice()
    iso, cls = isom.find_parabolic(final, rep.v, rep.a)
    checks = [
        "qforge equiv --lattice <augmented diag> --other <standard diag>",
        "qforge classify --lattice <sublattice.gram> --matrix <isometry.matrix>",
    ]
    embedding = {
        "matrix": encode_fraction_matrix(rep.embedding, rep.embedding_den),
        "index_d": encode_int(rep.index_d),
        "d_squared_n": encode_int(rep.index_d**2 * args.n_bound),
        "prime": rep.prime,
    }
    sublattice = {
        "basis": [encode_vector(v) for v in rep.lambda_in_source.basis],
        "gram": encode_matrix(rep.lambda_in_source.gram()),
        "signature": list(signature(final)),
    }
    # the pipeline has no invariant-only outcome; certificate_level stays for report readers
    return _report(args, t0, iso, cls, checks, extension=_extension_obj(rep.extension),
                   certificate_level=False, embedding=embedding, sublattice=sublattice,
                   oracle={"gram_divisible_by": rep.prime})


# ---------------------------------------------------------------------------
# Thin wrappers


def cmd_invariants(args) -> dict:
    latt = _load_lattice(args.lattice)
    return {"lattice": lattice_to_obj(latt), "triple": _triple_obj(invariant_triple(latt))}


def cmd_equiv(args) -> dict:
    a = _load_lattice(args.lattice)
    b = _load_lattice(args.other)
    return {
        "equivalent": rationally_equivalent(a, b),
        "first": _triple_obj(invariant_triple(a)),
        "second": _triple_obj(invariant_triple(b)),
    }


def cmd_classify(args) -> dict:
    latt = _load_lattice(args.lattice)
    matrix = freeze(jsonio.decode_matrix(read_json(args.matrix, "--matrix")))
    iso = isom.Isometry(latt, matrix)
    return {"classification": _classification_obj(isom.classify(iso))}


def cmd_saturate(args) -> dict:
    latt = _load_lattice(args.lattice)
    rows = jsonio.decode_matrix(read_json(args.basis, "--basis"))
    basis, index = saturation(span(latt, rows).basis)
    sat = span(latt, basis)
    return {
        "basis": [encode_vector(v) for v in sat.basis],
        "gram": encode_matrix(sat.gram()),
        "index": encode_int(index),
    }


def cmd_extend(args) -> dict:
    latt = _load_lattice(args.lattice)
    target = _parse_signature(args.target_signature)
    return _extension_obj(glue.extend_to_standard(latt, target))


def cmd_glue(args) -> dict:
    latt = _load_lattice(args.lattice)
    target = _parse_signature(args.target_signature)
    gd = glue.nikulin_glue(latt, target)
    return {
        "lambda_prime_gram": encode_matrix(gd.lam_prime.gram),
        "overlattice_gram": encode_matrix(gd.overlattice.gram),
        "overlattice_det": encode_int(gd.overlattice.det()),
        "anti_isometry": [list(t) for t in gd.anti_isometry],
        "lambda_embedding": encode_matrix(gd.lam_embedding),
    }


def cmd_isotropic(args) -> dict:
    latt = _load_lattice(args.lattice)
    vec = isotropic_vector(latt.gram)
    return {"vector": encode_vector(vec)}


def cmd_certify(args) -> dict:
    cert = _certificate_from_obj(read_json(args.certificate, "--certificate"))
    ok, reason = check_certificate(cert, args.n_bound)
    return {"valid": ok, "reason": reason}


def cmd_enumerate(args) -> dict:
    latt = _load_lattice(args.lattice)
    values = enumerate_values(latt, args.height_bound, budget=args.budget)
    return {
        "height": args.height_bound,
        "values": {
            str(v): encode_vector(w) for v, w in sorted(values.items())
        },
    }


def _parse_signature(text: str | None) -> tuple[int, int]:
    r, _, s = (text or "").partition(",")
    try:
        return int(r), int(s)
    except ValueError:
        raise PreconditionError(f"--target-signature must be r,s, got {text!r}") from None


# ---------------------------------------------------------------------------
# Report verification (--verify re-checks claims from the report and the input Gram)


def verify_report(report: dict, source: QuadLattice) -> list[str]:
    """Re-check the matrix congruences, certificates and oracle claims of a
    report against its input lattice `source` (the Gram G that input.hash
    names); returns a list of failures (empty = verified). An entry no
    qforge run writes, such as a ragged vector, a missing key, an entry of
    the wrong JSON type or a degenerate Gram where a signature is read, is
    listed as a failure, not raised."""
    failures: list[str] = []
    try:
        if _lattice_hash(source) != report["input"]["hash"]:
            return ["the input Gram does not match input.hash"]
        sub = report.get("sublattice")
        if sub and "gram" in sub:
            gram = _decode_matrix(sub["gram"])
            latt = QuadLattice(gram)
            n_bound = report["input"]["n_bound"]
            basis = _decode_matrix(sub["basis"])
            if gram_of(source, basis) != gram:
                failures.append("basis * G * basis^T differs from the reported Gram")
            elif rational_rank(basis) < len(basis) or saturation(basis)[1] != 1:
                failures.append("the sublattice basis is not primitive")
            if "certificate" in sub:
                cert = _certificate_from_obj(sub["certificate"])
                if not check_certificate(cert, n_bound)[0]:
                    failures.append("certificate does not verify")
                pair = [tuple(jsonio.decode_int(x) for x in sub[k]) for k in ("v1", "w")]
                if rational_rank(pair) < 2:
                    failures.append("v1 and w are linearly dependent")
                else:
                    if gram_of(source, pair) != ((cert.alpha1, 0), (0, cert.alpha2)):
                        failures.append("(q(v1), q(w), b(v1, w)) is not (alpha1, alpha2, 0)")
                    if saturation(pair)[1] != jsonio.decode_int(sub["saturation_index_of_span"]):
                        failures.append("saturation index of span(v1, w) misstated")
                oracle = report["oracle"]
                if not (gram_divisible_by(gram, cert.p) and oracle["all_values_divisible_by_p"]):
                    failures.append("Gram is not 0 mod p")
                claimed = jsonio.decode_int(oracle["min_nonzero_abs"])
                witness = tuple(jsonio.decode_int(x) for x in oracle["min_witness"])
                failures += _minimum_failures(latt, claimed, witness)
                if latt.rank == 2:
                    smallest, _ = min_nonzero_abs(latt, CROSS_CHECK_HEIGHT)
                    if smallest is not None and smallest < claimed:
                        failures.append(
                            f"a value below the claimed minimum at height {CROSS_CHECK_HEIGHT}")
            emb = report.get("embedding")
            if emb:
                prime = jsonio.decode_int(emb["prime"])
                d = jsonio.decode_int(emb["index_d"])
                if not is_prime(prime) or prime <= d * d * n_bound:
                    failures.append("P is not a prime above d^2 N")
                if jsonio.decode_int(emb["d_squared_n"]) != d * d * n_bound:
                    failures.append("d_squared_n is not d^2 N")
                m, den = jsonio.decode_fraction_matrix(emb["matrix"])
                ambient = glue.standard_lattice(3, source.rank)
                if gram_of(ambient, transpose(m)) != freeze([[den * den * x for x in row]
                                                               for row in source.gram]):
                    failures.append("the embedding does not carry G onto I(3, rank)")
                elif glue._embedding_index(m, den) != d:
                    failures.append("index d does not match the embedding matrix")
                want = [1, report["input"]["rank"] // 2 - 3]
                if list(signature(latt)) != want or sub["signature"] != want:
                    failures.append("sublattice signature is not (1, rank/2 - 3)")
                claimed = jsonio.decode_int(report["oracle"]["gram_divisible_by"])
                if claimed != prime or not gram_divisible_by(gram, prime):
                    failures.append("Gram is not 0 mod P")
            iso_obj = report.get("isometry")
            if iso_obj:
                try:
                    iso = isom.Isometry(latt, _decode_matrix(iso_obj["matrix"]))
                    cls = _classification_obj(isom.classify(iso))
                except QforgeError as exc:
                    failures.append(f"isometry does not verify: {exc}")
                else:
                    if cls != iso_obj["classification"]:
                        failures.append("classification differs from the recomputed one")
        ext = report.get("extension")
        if ext:
            b = [jsonio.decode_int(x) for x in ext["b"]]
            r, t = ext["target_signature"]
            minors, _ = source.pivots  # G's rational diagonal is D_{k+1} / D_k, formed once
            if 0 in b or (r, t) != (3, source.rank) or invariant_triple(
                    [*map(Fraction, minors, (1, *minors[:-1])), *b]) != invariant_triple(
                    [1] * r + [-1] * t):
                failures.append("G plus diag(b) is not rationally the standard form of the target")
    except (PreconditionError, LookupError, TypeError, ValueError) as exc:
        why = f"no entry {exc}" if isinstance(exc, KeyError) else exc
        failures.append(f"the report is malformed: {why}")
    return failures


def _minimum_failures(latt: QuadLattice, claimed: int, witness) -> list[str]:
    """The claimed global minimum against the cycle walk, and its witness."""
    failures = []
    try:
        exact, _, _ = binary_cycle(latt)
    except QforgeError:
        return ["sublattice form is not anisotropic indefinite binary"]
    if exact < claimed:
        failures.append("oracle minimum overstated")
    elif exact > claimed:
        failures.append("oracle minimum understated")
    if len(witness) != 2 or abs(qvalue(latt, witness)) != claimed:
        failures.append("oracle witness does not attain the claimed minimum")
    return failures


# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value


# (conversion of the value, default, help) of every flag. A flag without a
# conversion takes no value.
_FLAG_SPECS = {
    "--lattice": (str, None, "lattice file or catalog:NAME"),
    "--other": (str, None, "second lattice file or catalog:NAME"),
    "--matrix": (str, None, "JSON integer matrix file"),
    "--basis": (str, None, "JSON list of vectors"),
    "--certificate": (str, None, "JSON certificate file"),
    "--n-bound": (int, 1, "the bound N"),
    "--target-signature": (str, None, "r,s"),
    "--height-bound": (_positive_int, 10, "box height, >= 1"),
    "--budget": (_positive_int, ENUM_BUDGET, "vectors the box may visit, >= 1"),
    "--verify": (None, False, "re-check the report's claims; exit 4 if one fails"),
    "--out": (str, None, "write the JSON report here"),
    "--help": (None, None, "print this listing (also -h)"),
}

# Each command with the flags it reads, besides --out and --help; any other
# flag exits 2.
_COMMANDS = {
    "hyperbolic": (cmd_hyperbolic, ("--lattice", "--n-bound", "--verify")),
    "parabolic": (cmd_parabolic, ("--lattice", "--n-bound", "--verify")),
    "invariants": (cmd_invariants, ("--lattice",)),
    "equiv": (cmd_equiv, ("--lattice", "--other")),
    "classify": (cmd_classify, ("--lattice", "--matrix")),
    "saturate": (cmd_saturate, ("--lattice", "--basis")),
    "extend": (cmd_extend, ("--lattice", "--target-signature")),
    "glue": (cmd_glue, ("--lattice", "--target-signature")),
    "isotropic": (cmd_isotropic, ("--lattice",)),
    "certify": (cmd_certify, ("--certificate", "--n-bound")),
    "enumerate": (cmd_enumerate, ("--lattice", "--height-bound", "--budget")),
}

# a token that reads as a negative number is a value, never a flag
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _usage() -> str:
    lines = ["usage: qforge COMMAND [--flag VALUE | --flag=VALUE ...]", "", "commands:"]
    for name, (_, flags) in _COMMANDS.items():
        lines.append(f"  {name:<11} " + " ".join((*flags, "--out")))
    lines += ["", "flags (a unique prefix will do):"]
    for flag, (_, default, text) in _FLAG_SPECS.items():
        lines.append(f"  {flag:<19} {text}" + (f" (default {default})" if default else ""))
    return "\n".join(lines)


def _option(token: str, names) -> tuple[str | None, str | None]:
    """(flag, the value after "=" or None) when token names one of `names`
    exactly or by a unique prefix, or is -h; (None, None) when it is a
    value; ("", None) when it is an option that names none of them."""
    if not token.startswith("-") or token == "-":
        return None, None
    head, eq, value = token.partition("=")
    if head.startswith("--") and len(head) > 2:
        matches = [head] if head in names else [name for name in names if name.startswith(head)]
        if len(matches) > 1:
            raise PreconditionError(f"ambiguous option: {head} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    elif token[:2] == "-h":
        return "--help", token[2:] or None
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None, None
    return "", None


def _parse_args(argv) -> SimpleNamespace:
    """The command and its flags' values from argv, read against _COMMANDS
    and _FLAG_SPECS: `--flag value` or `--flag=value`, a unique prefix of a
    flag, the last of a repeated flag. --help prints the usage and exits 0;
    any other fault raises PreconditionError."""
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    flags = (*_COMMANDS[command][1], "--out") if command else ()
    values = {flag: _FLAG_SPECS[flag][1] for flag in flags}
    tokens = argv[1:] if command else argv[:1]
    options = [_option(token, (*flags, "--help")) for token in tokens]
    unknown = []
    i = 0
    while i < len(tokens):
        (flag, value), i = options[i], i + 1
        if not flag:
            unknown.append(tokens[i - 1])
            continue
        convert = _FLAG_SPECS[flag][0]
        if convert is None:
            if value is not None:
                raise PreconditionError(f"argument {flag}: ignored explicit argument {value!r}")
            if flag == "--help":
                print(_usage())
                raise SystemExit(0)
            value = True
        else:
            if value is None:
                if i == len(tokens) or options[i][0] is not None:
                    raise PreconditionError(f"argument {flag}: expected one argument")
                value, i = tokens[i], i + 1
            try:
                value = convert(value)
            except ValueError as exc:
                raise PreconditionError(f"argument {flag}: {exc}") from None
        values[flag] = value
    if command is None:
        raise PreconditionError(f"expected a command, one of {', '.join(_COMMANDS)}")
    if unknown:
        raise PreconditionError(f"unrecognized arguments: {' '.join(unknown)}")
    return SimpleNamespace(command=command,
                           **{flag[2:].replace("-", "_"): v for flag, v in values.items()})


def main(argv=None) -> int:
    sys.set_int_max_str_digits(0)  # reports print exact integers, however long
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        report = _COMMANDS[args.command][0](args)
        verify = getattr(args, "verify", False)
        if verify:
            failures = verify_report(report, args.source)
            report["verified"] = not failures
            if failures:
                report["verification_failures"] = failures
        text = dump_json(report, args.out)
        print(text)
        if verify and report.get("verified") is False:
            return 4
        return 0
    except QforgeError as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(dump_json(error))
        return exc.exit_code
    except OSError as exc:  # an input file or --out path that cannot be opened
        print(dump_json({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
