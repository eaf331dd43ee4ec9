import contextlib
import copy
import hashlib
import io
import json
import random
import subprocess
import sys

import oracle_utils
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qforge import catalog, cli, forge, glue, jsonio, lattice, linalg, padic
from qforge.catalog import resolve
from qforge.cli import _parse_args, main, verify_report
from qforge.errors import PreconditionError
from qforge.jsonio import dump_json, lattice_to_obj, load_lattice_file
from qforge.lattice import from_rows, orthogonal_complement, span
from qforge.linalg import mat_mul, transpose


def run_cli(capsys, args) -> tuple[int, dict]:
    rc = main(args)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_invariants_of_u(capsys):
    rc, obj = run_cli(capsys, ["invariants", "--lattice", "catalog:U"])
    assert rc == 0
    assert obj["triple"]["signature"] == [1, 1]
    assert obj["triple"]["disc_squarefree"] == -1
    assert obj["triple"]["minus_places"] == []


def test_equiv(capsys):
    rc, obj = run_cli(
        capsys,
        ["equiv", "--lattice", "catalog:diag(1,1)", "--other", "catalog:diag(2,2)"],
    )
    assert rc == 0 and obj["equivalent"] is True


def test_classify_command(tmp_path, capsys):
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps([[3, 4], [2, 3]]))
    rc, obj = run_cli(
        capsys,
        ["classify", "--lattice", "catalog:diag(1,-2)", "--matrix", str(matrix)],
    )
    assert rc == 0
    assert obj["classification"]["tag"] == "hyperbolic"


def test_saturate_command(tmp_path, capsys):
    basis = tmp_path / "b.json"
    basis.write_text(json.dumps([[2, 0], [0, 1]]))
    rc, obj = run_cli(
        capsys,
        ["saturate", "--lattice", "catalog:diag(1,1)", "--basis", str(basis)],
    )
    assert rc == 0
    assert obj["index"] == 2
    assert obj["basis"] == [[1, 0], [0, 1]]


def test_saturate_rejects_a_dependent_basis(tmp_path, capsys):
    """A basis read from outside is checked for independence where it is
    saturated: the rank of the Hermite form of its columns."""
    basis = tmp_path / "b.json"
    basis.write_text(json.dumps([[1, 0], [2, 0]]))
    rc, obj = run_cli(
        capsys,
        ["saturate", "--lattice", "catalog:diag(1,1)", "--basis", str(basis)],
    )
    assert rc == 2
    assert obj["error"] == {"type": "PreconditionError", "message": "rows are linearly dependent"}


def test_extend_command(capsys):
    rc, obj = run_cli(
        capsys,
        ["extend", "--lattice", "catalog:<2>", "--target-signature", "4,0"],
    )
    assert rc == 0
    assert obj["triples_equal"] is True


@pytest.mark.parametrize("lattice, target", [
    ("catalog:diag(1000000007,1000000009,998244353)", "6,0"),
    ("catalog:diag(1073741827,1073741831)", "5,0"),
])
def test_extend_to_a_definite_target(capsys, lattice, target):
    """At a target (r, 0) the sign (-1) ** (t + 1) is the int 1: a float
    there lost the digits of a discriminant above 2^53."""
    rc, obj = run_cli(capsys, ["extend", "--lattice", lattice, "--target-signature", target])
    assert rc == 0
    assert obj["triples_equal"] is True


def test_glue_command(capsys):
    rc, obj = run_cli(
        capsys,
        ["glue", "--lattice", "catalog:diag(5,-5)", "--target-signature", "3,3"],
    )
    assert rc == 0
    assert abs(obj["overlattice_det"]) == 1


def test_glue_forced_signs_exit_2(capsys):
    """P = 7 is 3 mod 4, so the partner's signs are -eps = (-1, 1, 1): two
    plus signs, where the target (2, 5) leaves room for one. That is a
    precondition on the input, not a spent budget."""
    rc, obj = run_cli(
        capsys,
        ["glue", "--lattice", "catalog:diag(7,-7,-7)", "--target-signature", "2,5"],
    )
    assert rc == 2 and obj["error"]["type"] == "PreconditionError"
    assert "P = 7" in obj["error"]["message"]


def test_isotropic_command(capsys):
    rc, obj = run_cli(capsys, ["isotropic", "--lattice", "catalog:U"])
    assert rc == 0 and obj["vector"] == [1, 0]
    rc, obj = run_cli(capsys, ["isotropic", "--lattice", "catalog:diag(5,-15)"])
    assert rc == 2 and "anisotropic" in obj["error"]["message"]


def test_certify_command(tmp_path, capsys):
    cert = tmp_path / "c.json"
    cert.write_text(json.dumps({"p": 5, "alpha": [30, -10], "beta": [6, -2], "n": [0, 0]}))
    rc, obj = run_cli(capsys, ["certify", "--certificate", str(cert), "--n-bound", "4"])
    assert rc == 0 and obj["valid"] is True
    rc, obj = run_cli(capsys, ["certify", "--certificate", str(cert), "--n-bound", "5"])
    assert rc == 0 and obj["valid"] is False


def test_certify_huge_exponent_ends(tmp_path, capsys):
    """n = 10^12 is rejected from the bit length of alpha; p^(2n+1) is never formed."""
    cert = tmp_path / "c.json"
    cert.write_text(json.dumps({"p": 5, "alpha": [30, -10], "beta": [6, -2],
                                "n": [10**12, 0]}))
    rc, obj = run_cli(capsys, ["certify", "--certificate", str(cert), "--n-bound", "4"])
    assert rc == 0 and obj == {"valid": False, "reason": "alpha != beta * p^(2n+1)"}


def test_enumerate_command(capsys):
    rc, obj = run_cli(
        capsys, ["enumerate", "--lattice", "catalog:U", "--height-bound", "1"]
    )
    assert rc == 0
    assert set(obj["values"]) == {"-2", "0", "2"}
    rc, obj = run_cli(capsys, ["enumerate", "--lattice", "catalog:U"])
    assert rc == 0 and obj["height"] == 10


@pytest.mark.parametrize("flag", ["--height-bound", "--budget"])
def test_enumerate_bounds_below_one_exit_2(capsys, flag):
    # 0 once meant "the default", silently
    rc, obj = run_cli(capsys, ["enumerate", "--lattice", "catalog:U", flag, "0"])
    assert rc == 2 and obj["error"]["type"] == "PreconditionError"


# The flags each command reads; --out is on every command as well.
READS = {
    "hyperbolic": ("--lattice", "--n-bound", "--verify"),
    "parabolic": ("--lattice", "--n-bound", "--verify"),
    "invariants": ("--lattice",),
    "isotropic": ("--lattice",),
    "equiv": ("--lattice", "--other"),
    "classify": ("--lattice", "--matrix"),
    "saturate": ("--lattice", "--basis"),
    "extend": ("--lattice", "--target-signature"),
    "glue": ("--lattice", "--target-signature"),
    "certify": ("--certificate", "--n-bound"),
    "enumerate": ("--lattice", "--height-bound", "--budget"),
}
# One well-formed value per flag (none for --verify)
FLAG_VALUES = {
    "--lattice": ["catalog:U"], "--other": ["catalog:U"], "--matrix": ["m.json"],
    "--basis": ["b.json"], "--certificate": ["c.json"], "--n-bound": ["3"],
    "--target-signature": ["3,3"], "--height-bound": ["2"], "--budget": ["1000"],
    "--verify": [], "--out": ["r.json"],
}


def test_each_command_takes_only_the_flags_it_reads(capsys):
    """121 (command, flag) pairs, 34 of them accepted; a flag the command
    does not read exits 2 with JSON instead of being silently ignored."""
    accepted = set()
    for command in READS:
        for flag, value in FLAG_VALUES.items():
            try:
                _parse_args([command, flag, *value])
            except PreconditionError:
                rc, obj = run_cli(capsys, [command, flag, *value])
                message = obj["error"]["message"]
                assert rc == 2 and "unrecognized arguments" in message and flag in message
            else:
                accepted.add((command, flag))
    assert accepted == {(c, f) for c, flags in READS.items() for f in flags + ("--out",)}
    assert len(READS) * len(FLAG_VALUES) == 121 and len(accepted) == 34
    rc, obj = run_cli(capsys, ["invariants", "--lattice", "catalog:U", "--verify"])
    assert rc == 2 and obj["error"]["type"] == "PreconditionError"


_ALL_FLAGS = sorted(set(FLAG_VALUES))
# Every prefix of three characters or more of a flag, apart from the prefixes
# of --help, which exit 0 with a usage text. "--o" is ambiguous in
# equiv (--other, --out); the other prefixes name one flag of a command.
_PREFIXES = sorted({f[:k] for f in _ALL_FLAGS for k in range(3, len(f) + 1)}
                   - {"--help"[:k] for k in range(3, 7)})
# Values: numbers, negative numbers, flag-like words and words with a
# space. "--" and "-h" are left out: the argparse of Python 3.10, 3.11 and
# 3.12 read them differently.
_ARGV_VALUES = ("3", "0", "-5", "-1.5", "x", "catalog:U", "3,3", "", "a b", "-x y",
                "--lattice", "--n", "--x", "-q", "-", "+4", "007")


@st.composite
def _argvs(draw):
    argv = [draw(st.sampled_from([*READS, *READS, "bogus", "hyper", "-q", "x"]))]
    # three flags in four are (prefixes of) flags the command reads
    own = [p for p in _PREFIXES
           if any(f.startswith(p) for f in (*READS.get(argv[0], ()), "--out"))]
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(("pair", "pair", "pair", "equals", "equals", "flag",
                                     "stray")))
        flag = draw(st.sampled_from(own if own and draw(st.integers(0, 3)) else _PREFIXES))
        value = draw(st.sampled_from(_ARGV_VALUES))
        argv += {"pair": [flag, value], "equals": [f"{flag}={value}"], "flag": [flag],
                 "stray": [value]}[kind]
    return argv


@given(_argvs())
@settings(max_examples=1500, deadline=None)
def test_command_line_matches_the_argparse_reference(argv):
    """Where the former argparse parser accepts argv, _parse_args gives the
    same values; where it rejects argv, _parse_args raises PreconditionError."""
    try:
        want = vars(oracle_utils.build_parser().parse_args(argv))
    except PreconditionError:
        with pytest.raises(PreconditionError):
            _parse_args(argv)
    else:
        assert vars(_parse_args(argv)) == want


def test_help_lists_every_command(capsys):
    for argv in (["--help"], ["-h"], ["--he"], ["enumerate", "--help"], ["hyperbolic", "--h"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert all(f"  {command} " in text for command in READS), text
    for argv in (["--help=x"], ["-hx"], ["enumerate", "--he"], []):
        rc, obj = run_cli(capsys, argv)
        assert rc == 2 and obj["error"]["type"] == "PreconditionError"


def test_hyperbolic_report(capsys):
    rc, obj = run_cli(
        capsys,
        ["hyperbolic", "--lattice", "catalog:U+U+<2>", "--n-bound", "4", "--verify"],
    )
    assert rc == 0
    assert obj["verified"] is True
    assert obj["sublattice"]["certificate"]["p"] == 5
    assert obj["oracle"]["min_nonzero_abs"] >= 5
    assert obj["isometry"]["classification"]["tag"] == "hyperbolic"


def test_hyperbolic_rejects_small_rank(capsys):
    rc, obj = run_cli(
        capsys, ["hyperbolic", "--lattice", "catalog:diag(1,-1,-1,1)", "--n-bound", "2"]
    )
    assert rc == 2
    assert "error" in obj


def test_hyperbolic_rejects_degenerate_form(capsys):
    rc, obj = run_cli(
        capsys, ["hyperbolic", "--lattice", "catalog:diag(1,-1,0,1,1)", "--n-bound", "2"]
    )
    assert rc == 2
    assert obj["error"] == {"type": "PreconditionError", "message": "form is degenerate"}


_DEGENERATE_ZERO_DIAGONAL = [[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 2, 2, 0], [0, 0, 2, 2, 0],
                             [0, 0, 0, 0, -1]]
_DEGENERATE_NO_ZERO_DIAGONAL = [[2, 2, 0, 0, 0], [2, 2, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, -1, 0],
                                [0, 0, 0, 0, -1]]


@pytest.mark.parametrize("source, message", [
    ("catalog:E8", "the form is anisotropic at the real place"),
    ("catalog:diag(1,1,1,1,1)", "the form is anisotropic at the real place"),
    # e_0 is isotropic and pairs with e_1, so the radical e_2 - e_3 is left in the complement
    (_DEGENERATE_ZERO_DIAGONAL, "form is degenerate"),
    # no isotropic basis vector: the LLL route, whose isotropic vector is the radical e_0 - e_1
    (_DEGENERATE_NO_ZERO_DIAGONAL, "form is degenerate"),
])
def test_hyperbolic_refuses_definite_and_degenerate_inputs(tmp_path, capsys, source, message):
    """No signature is read off the input: a definite form has no isotropic
    vector, and a degenerate one fails at v or in the complement's pivots,
    on both routes of the construction. Each exits 2 with the reason."""
    if not isinstance(source, str):
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps({"gram": source}))
        source = str(path)
    rc, obj = run_cli(capsys, ["hyperbolic", "--lattice", source, "--n-bound", "2"])
    assert rc == 2
    assert obj["error"] == {"type": "PreconditionError", "message": message}


def test_parabolic_rejects_small_rank(capsys):
    rc, obj = run_cli(
        capsys,
        ["parabolic", "--lattice", "catalog:diag(1,1,1,-1^10)", "--n-bound", "2"],
    )
    assert rc == 2


def test_parabolic_report(capsys):
    rc, obj = run_cli(
        capsys,
        [
            "parabolic",
            "--lattice",
            "catalog:diag(1,1,1,-1^11)",
            "--n-bound",
            "3",
            "--verify",
        ],
    )
    assert rc == 0
    assert obj["verified"] is True
    assert obj["certificate_level"] is False
    assert obj["sublattice"]["signature"] == [1, 4]
    assert obj["isometry"]["classification"]["tag"] == "parabolic"


def test_lattice_file_roundtrip(tmp_path, capsys):
    path = tmp_path / "latt.json"
    path.write_text(json.dumps({"label": "mine", "gram": [[0, 1], [1, 0]]}))
    latt = load_lattice_file(str(path))
    assert latt.label == "mine"
    rc, obj = run_cli(capsys, ["invariants", "--lattice", str(path)])
    assert rc == 0


def test_big_integer_serialization():
    from qforge.jsonio import decode_int, encode_int

    big = 2**80 + 7
    assert encode_int(big) == str(big)
    assert decode_int(encode_int(big)) == big
    assert encode_int(42) == 42


@given(st.lists(st.lists(st.one_of(st.integers(-50, 50), st.integers(-2**70, 2**70)),
                         min_size=1, max_size=4), min_size=1, max_size=4),
       st.integers(1, 2**60))
@settings(max_examples=100, deadline=None)
def test_fraction_matrix_round_trip(m, den):
    """decode_fraction_matrix(encode_fraction_matrix(m, den)) is the same
    rational matrix over the least common denominator of its entries."""
    from fractions import Fraction
    from math import lcm

    from qforge.jsonio import decode_fraction_matrix, encode_fraction_matrix

    want = [[Fraction(x, den) for x in row] for row in m]
    got, got_den = decode_fraction_matrix(json.loads(json.dumps(encode_fraction_matrix(m, den))))
    assert got_den == lcm(*(x.denominator for row in want for x in row))
    assert [[Fraction(x, got_den) for x in row] for row in got] == want


def test_fraction_matrix_rejects_malformed_entries():
    from qforge.jsonio import decode_fraction_matrix

    for rows in ([["1/0"]], [["1/-2"]], [["0.5"]], [[True]], ["1/2"], [["1/2/3"]]):
        with pytest.raises(PreconditionError):
            decode_fraction_matrix(rows)


def test_fraction_matrix_reduces_entries():
    """Entries are reduced before the common denominator is taken."""
    from qforge.jsonio import decode_fraction_matrix, encode_fraction_matrix

    assert decode_fraction_matrix([["2/4", "-6/3", 5], ["0/7", "10/20", "3"]]) == (
        [[1, -4, 10], [0, 1, 6]], 2)
    assert encode_fraction_matrix([[2, -6, 0], [12, 9, -3]], 6) == [
        ["1/3", -1, 0], [2, "3/2", "-1/2"]]


def test_missing_file_exit_code(capsys):
    rc, obj = run_cli(capsys, ["invariants", "--lattice", "/nonexistent.json"])
    assert rc == 2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qforge.cli", "invariants", "--lattice", "catalog:U"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["triple"]["signature"] == [1, 1]


_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=24,
)


def _scalar_lists(obj):
    if isinstance(obj, dict):
        for value in obj.values():
            yield from _scalar_lists(value)
    elif isinstance(obj, list):
        if obj and not any(isinstance(x, (dict, list)) for x in obj):
            yield obj
        for value in obj:
            yield from _scalar_lists(value)


@given(_JSON)
@settings(max_examples=200, deadline=None)
def test_dump_json_layout(obj):
    """Same content, keys sorted, each list of scalars on one line, and the
    same bytes every time."""
    text = dump_json(obj)
    assert json.loads(text) == obj and dump_json(obj) == text
    orders = []
    json.loads(text, object_pairs_hook=lambda items: orders.append([k for k, _ in items]))
    assert all(keys == sorted(keys) for keys in orders)
    lines = text.splitlines()
    for values in _scalar_lists(obj):
        assert any(json.dumps(values) in line for line in lines)


def test_report_determinism(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        rc = main(
            [
                "hyperbolic",
                "--lattice",
                "catalog:U+U+<2>",
                "--n-bound",
                "4",
                "--out",
                str(out),
            ]
        )
        capsys.readouterr()
        assert rc == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    a.pop("timings")
    b.pop("timings")
    assert dump_json(a) == dump_json(b)


def test_hyperbolic_k3_large_bound(capsys):
    rc, obj = run_cli(
        capsys,
        ["hyperbolic", "--lattice", "catalog:K3", "--n-bound", "1000", "--verify"],
    )
    assert rc == 0 and obj["verified"] is True
    assert obj["sublattice"]["certificate"]["p"] == 1009


def test_hyperbolic_k3_bound_beyond_a_divisor_scan(capsys):
    """At N = 10^30 the rank-2 construction splits ab = ±k p as (k, ±p)
    directly; a scan of the divisors up to sqrt(k p) would not end."""
    n = 10**30
    rc, obj = run_cli(
        capsys,
        ["hyperbolic", "--lattice", "catalog:K3", "--n-bound", str(n), "--verify"],
    )
    assert rc == 0 and obj["verified"] is True
    assert int(obj["sublattice"]["certificate"]["p"]) > n
    assert int(obj["oracle"]["min_nonzero_abs"]) >= n


def test_hyperbolic_k3_content_of_the_gram(capsys):
    """At N = 10^5 the sublattice Gram is 2p diag(2, -1): the cycle is walked
    on the divided form, whose period does not grow with p."""
    rc, obj = run_cli(
        capsys,
        ["hyperbolic", "--lattice", "catalog:K3", "--n-bound", "100000", "--verify"],
    )
    assert rc == 0 and obj["verified"] is True
    p = obj["sublattice"]["certificate"]["p"]
    assert obj["oracle"]["min_nonzero_abs"] == 2 * p


def test_verify_report_catches_tampering(capsys):
    rc, obj = run_cli(
        capsys,
        ["hyperbolic", "--lattice", "catalog:U+U+<2>", "--n-bound", "4"],
    )
    assert rc == 0
    obj["isometry"]["matrix"][0][0] += 1
    assert verify_report(obj, resolve("U+U+<2>"))


def test_verify_report_rechecks_saturation_index(capsys):
    rc, obj = run_cli(
        capsys,
        ["hyperbolic", "--lattice", "catalog:U+U+<2>", "--n-bound", "4"],
    )
    assert rc == 0 and obj["sublattice"]["saturation_index_of_span"] == 1
    assert verify_report(obj, resolve("U+U+<2>")) == []
    obj["sublattice"]["saturation_index_of_span"] = 2
    assert verify_report(obj, resolve("U+U+<2>")) == ["saturation index of span(v1, w) misstated"]


@pytest.mark.parametrize("w", ["v1", "zero"])
def test_verify_rejects_dependent_v1_and_w(monkeypatch, capsys, w):
    """A K3 report whose w is v1, or the zero vector: --verify lists the
    dependence and the run exits 4, where reading an index off the
    dependent rows would end in a PreconditionError (exit 2)."""
    run, flags = cli._COMMANDS["hyperbolic"]

    def tampered(args):
        report = run(args)
        sub = report["sublattice"]
        sub["w"] = list(sub["v1"]) if w == "v1" else [0] * len(sub["v1"])
        return report

    monkeypatch.setitem(cli._COMMANDS, "hyperbolic", (tampered, flags))
    rc, obj = run_cli(capsys, ["hyperbolic", "--lattice", "catalog:K3", "--n-bound", "2",
                               "--verify"])
    assert rc == 4 and obj["verified"] is False
    assert obj["verification_failures"] == ["v1 and w are linearly dependent"]


def test_verify_rejects_a_gram_of_rank_three(monkeypatch, capsys):
    """A report whose sublattice Gram gains a third row and column (still
    0 mod p): it is not basis * G * basis^T, the cycle walk and the isometry
    fail on it, the binary box is not run, and the run exits 4."""
    run, flags = cli._COMMANDS["hyperbolic"]

    def tampered(args):
        report = run(args)
        sub = report["sublattice"]
        p = sub["certificate"]["p"]
        sub["gram"] = [row + [0] for row in sub["gram"]] + [[0, 0, p]]
        return report

    monkeypatch.setitem(cli._COMMANDS, "hyperbolic", (tampered, flags))
    rc, obj = run_cli(capsys, ["hyperbolic", "--lattice", "catalog:K3", "--n-bound", "2",
                               "--verify"])
    assert rc == 4 and obj["verified"] is False
    assert obj["verification_failures"] == [
        "basis * G * basis^T differs from the reported Gram",
        "sublattice form is not anisotropic indefinite binary",
        "isometry does not verify: matrix rank != lattice rank",
    ]


@pytest.mark.parametrize("verify, walks", [(False, 1), (True, 2)])
def test_hyperbolic_walks_the_cycle_once(monkeypatch, capsys, verify, walks):
    """The construction's walk gives the report's minimum, witness and
    automorph; --verify walks the cycle once more on its own."""
    calls = []
    original = lattice.binary_cycle

    def counting(latt):
        calls.append(latt.gram)
        return original(latt)

    for name, module in list(sys.modules.items()):
        if name.startswith("qforge") and getattr(module, "binary_cycle", None) is original:
            monkeypatch.setattr(module, "binary_cycle", counting)
    argv = ["hyperbolic", "--lattice", "catalog:diag(1,1,-1,-1,-1)", "--n-bound", "1000"]
    rc, obj = run_cli(capsys, argv + ["--verify"] * verify)
    assert rc == 0 and obj.get("verified", True) is True
    assert len(calls) == walks


def _record_callers(monkeypatch, module, name):
    """Wrap module.name in every qforge namespace that binds it. Each call
    appends (its first argument, the (module, function) of every frame
    above it, innermost first)."""
    calls = []
    original = getattr(module, name)

    def recording(*args, **kwargs):
        frame, callers = sys._getframe(1), []
        while frame is not None:
            callers.append((frame.f_globals.get("__name__"), frame.f_code.co_name))
            frame = frame.f_back
        calls.append((args[0], callers))
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("qforge") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, recording)
    return calls


@pytest.mark.parametrize("verify", [False, True])
def test_hyperbolic_eliminates_the_complement_once(monkeypatch, capsys, verify):
    """On K3 at N = 13 the complement of the isotropic pair is diagonalized
    once; its determinant (for the choice of p and the precondition of the
    odd-valuation vector) is the last minor of those pivots. The only
    determinant left is the unimodularity check of an isometry."""
    k3 = resolve("K3")
    comp_gram = orthogonal_complement(span(k3, forge.find_isotropic_pair(k3))).gram()
    dets = _record_callers(monkeypatch, linalg, "det_bareiss")
    pivots = _record_callers(monkeypatch, lattice, "_diagonal_pivots")
    argv = ["hyperbolic", "--lattice", "catalog:K3", "--n-bound", "13"]
    rc, obj = run_cli(capsys, argv + ["--verify"] * verify)
    assert rc == 0 and obj.get("verified", True) is True
    assert dets and {callers[0] for _, callers in dets} == {("qforge.isom", "is_isometry")}
    assert [linalg.freeze(gram) for gram, _ in pivots].count(comp_gram) == 1


def test_hyperbolic_saturates_the_span_once(monkeypatch, capsys):
    """Without --verify, span(v1, w) is saturated once: the sublattice and
    the report's saturation_index_of_span come from the same call."""
    sats = _record_callers(monkeypatch, linalg, "saturation")
    rc, obj = run_cli(capsys, ["hyperbolic", "--lattice", "catalog:K3", "--n-bound", "13"])
    assert rc == 0
    pair = linalg.freeze([map(jsonio.decode_int, obj["sublattice"][k]) for k in ("v1", "w")])
    assert [linalg.freeze(rows) for rows, _ in sats].count(pair) == 1


def test_parabolic_diagonals_build_no_basis(monkeypatch, capsys):
    """invariant_triple and extend_to_standard read the diagonal off the
    cached pivots of a lattice: on a K3 parabolic run no call beneath them
    builds a rational basis (rational_diagonalize)."""
    bases = _record_callers(monkeypatch, lattice, "rational_diagonalize")
    triples = _record_callers(monkeypatch, padic, "invariant_triple")
    argv = ["parabolic", "--lattice", "catalog:K3", "--n-bound", "2", "--verify"]
    rc, obj = run_cli(capsys, argv)
    assert rc == 0 and obj["verified"] is True
    barred = {("qforge.padic", "invariant_triple"), ("qforge.glue", "extend_to_standard")}
    assert any(("qforge.glue", "extend_to_standard") in callers for _, callers in triples)
    assert [callers for _, callers in bases if barred & set(callers)] == []


@pytest.mark.parametrize("command, n_bound", [("parabolic", 2), ("hyperbolic", 10)])
def test_each_gram_is_eliminated_at_most_twice(monkeypatch, capsys, command, n_bound):
    """QuadLattice.pivots is the one caller of the elimination and caches it
    on the lattice, so a K3 --verify op eliminates each Gram at most twice:
    once where the construction makes its lattice, once where --verify
    rebuilds it from the report."""
    pivots = _record_callers(monkeypatch, lattice, "_diagonal_pivots")
    argv = [command, "--lattice", "catalog:K3", "--n-bound", str(n_bound), "--verify"]
    rc, obj = run_cli(capsys, argv)
    assert rc == 0 and obj["verified"] is True
    grams = [linalg.freeze(gram) for gram, _ in pivots]
    assert grams and max(map(grams.count, grams)) <= 2
    assert {callers[0] for _, callers in pivots} == {("qforge.lattice", "pivots")}


def test_hyperbolic_never_eliminates_the_input_gram(monkeypatch, capsys):
    """A K3 --verify run diagonalizes no rank-22 Gram: the construction
    checks definiteness and degeneracy where it needs them, so the largest
    Gram it eliminates is the complement's, of rank 20."""
    pivots = _record_callers(monkeypatch, lattice, "_diagonal_pivots")
    argv = ["hyperbolic", "--lattice", "catalog:K3", "--n-bound", "13", "--verify"]
    rc, obj = run_cli(capsys, argv)
    assert rc == 0 and obj["verified"] is True
    assert pivots and max(len(gram) for gram, _ in pivots) == 20


@pytest.fixture(scope="module")
def reports():
    """Two hyperbolic and three explicit parabolic reports, without --verify;
    "parabolic" embeds with d = 1, "parabolic U" with d = 2 and P = 13."""
    out = {}
    for name, lattice, n_bound in (("hyperbolic", "catalog:U+U+<2>", "4"),
                                   ("hyperbolic K3", "catalog:K3", "13"),
                                   ("parabolic", "catalog:diag(1,1,1,-1^11)", "3"),
                                   ("parabolic U", "catalog:U+U+U+diag(-1^8)", "3"),
                                   ("parabolic K3", "catalog:K3", "2")):
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            assert main([name.split()[0], "--lattice", lattice, "--n-bound", n_bound]) == 0
        out[name] = json.loads(text.getvalue())
    return out


def _source(report):
    """The input lattice a report was made from."""
    return resolve(report["input"]["lattice"].removeprefix("catalog:"))


def _shift_minimum(delta):
    def tamper(report):
        report["oracle"]["min_nonzero_abs"] += delta
    return tamper


def _double_witness(report):
    report["oracle"]["min_witness"] = [2 * x for x in report["oracle"]["min_witness"]]


def _bump_gram_diagonal(report):
    report["sublattice"]["gram"][0][0] += 1


def _prime_at_d2n(report):
    report["embedding"]["prime"] = report["embedding"]["d_squared_n"]


def _lower_index_d(report):
    # d = 2 -> 1: P = 13 > d^2 N = 3 still holds, so only the recomputed d catches it
    report["embedding"]["index_d"] -= 1


def _negate_gram(report):
    # still 0 mod P and still preserved by the isometry, but of signature (4, 1)
    report["sublattice"]["gram"] = [[-x for x in row] for row in report["sublattice"]["gram"]]


def _negate_embedding_column(report):
    # K3's first column is integral; d does not change, but the image of the
    # first basis vector now pairs with the others by the opposite sign
    for row in report["embedding"]["matrix"]:
        row[0] = -row[0]


def _bump_d_squared_n(report):
    report["embedding"]["d_squared_n"] += 1


def _flip_positive_cone(report):
    cls = report["isometry"]["classification"]
    cls["preserves_positive_cone"] = not cls["preserves_positive_cone"]


_ORACLE_TAMPERS = {
    "understated minimum": ("hyperbolic", _shift_minimum(-1), "oracle minimum understated"),
    "overstated minimum": ("hyperbolic", _shift_minimum(1), "oracle minimum overstated"),
    "wrong witness": ("hyperbolic", _double_witness,
                      "oracle witness does not attain the claimed minimum"),
    "hyperbolic Gram not 0 mod p": ("hyperbolic", _bump_gram_diagonal, "Gram is not 0 mod p"),
    "P <= d^2 N": ("parabolic", _prime_at_d2n, "P is not a prime above d^2 N"),
    "parabolic Gram not 0 mod P": ("parabolic", _bump_gram_diagonal, "Gram is not 0 mod P"),
    "index d misstated": ("parabolic U", _lower_index_d,
                          "index d does not match the embedding matrix"),
    "negated parabolic Gram": ("parabolic", _negate_gram,
                               "sublattice signature is not (1, rank/2 - 3)"),
    "negated embedding column": ("parabolic K3", _negate_embedding_column,
                                 "the embedding does not carry G onto I(3, rank)"),
    "d^2 N misstated": ("parabolic U", _bump_d_squared_n, "d_squared_n is not d^2 N"),
    "flipped positive cone": ("hyperbolic", _flip_positive_cone,
                              "classification differs from the recomputed one"),
}


@pytest.mark.parametrize("name", sorted(_ORACLE_TAMPERS))
def test_verify_report_rechecks_oracle_claims(reports, name):
    mode, tamper, failure = _ORACLE_TAMPERS[name]
    report = copy.deepcopy(reports[mode])
    assert verify_report(report, _source(report)) == []
    tamper(report)
    assert failure in verify_report(report, _source(report))


def _bump_basis(report):
    report["sublattice"]["basis"][0][0] += 1


def _bump_v1(report):
    report["sublattice"]["v1"][0] += 1


def _negate_b0(report):
    report["extension"]["b"][0] *= -1


_INPUT_TAMPERS = {
    "hyperbolic basis entry": ("hyperbolic K3", _bump_basis,
                               "basis * G * basis^T differs from the reported Gram"),
    "v1 entry": ("hyperbolic K3", _bump_v1, "(q(v1), q(w), b(v1, w)) is not (alpha1, alpha2, 0)"),
    "parabolic basis entry": ("parabolic K3", _bump_basis,
                              "basis * G * basis^T differs from the reported Gram"),
    "negated b0": ("parabolic K3", _negate_b0,
                   "G plus diag(b) is not rationally the standard form of the target"),
}


@pytest.mark.parametrize("name", sorted(_INPUT_TAMPERS))
def test_verify_report_rechecks_claims_on_the_input_gram(reports, name):
    """The sublattice basis, v1 and w, and the extension b are checked
    against the input Gram G, not only against the report's own Gram."""
    mode, tamper, failure = _INPUT_TAMPERS[name]
    report = copy.deepcopy(reports[mode])
    assert verify_report(report, _source(report)) == []
    tamper(report)
    assert failure in verify_report(report, _source(report))


def _zero_gram(report):
    report["sublattice"]["gram"] = [[0] * len(row) for row in report["sublattice"]["gram"]]


def _shorten_v1(report):
    report["sublattice"]["v1"].pop()


_MALFORMED_TAMPERS = {
    "zero parabolic Gram": ("parabolic K3", _zero_gram,
                            "the report is malformed: form is degenerate"),
    "short v1": ("hyperbolic K3", _shorten_v1,
                 "the report is malformed: matrix product shape mismatch"),
    "integer v1": ("hyperbolic K3", lambda report: report["sublattice"].update(v1=7),
                   "the report is malformed: 'int' object is not iterable"),
    "no oracle": ("hyperbolic K3", lambda report: report.pop("oracle"),
                  "the report is malformed: no entry 'oracle'"),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED_TAMPERS))
def test_verify_report_lists_malformed_entries(reports, name):
    """An entry no qforge run writes (a degenerate Gram whose signature is
    read, a vector one entry short or an integer, a missing key) is a
    listed failure, not a raised PreconditionError, TypeError or KeyError."""
    mode, tamper, failure = _MALFORMED_TAMPERS[name]
    report = copy.deepcopy(reports[mode])
    tamper(report)
    assert failure in verify_report(report, _source(report))


@pytest.mark.parametrize("mode", ["hyperbolic K3", "parabolic K3"])
def test_verify_report_rejects_another_input(reports, mode):
    other = resolve("K3+<-2>")
    assert verify_report(reports[mode], other) == ["the input Gram does not match input.hash"]


def test_verify_report_box_cross_check_fires(reports):
    """An overstated minimum fails the cycle walk and, on its own, the
    height-60 box cross-check too: the box holds the true minimum's witness."""
    report = copy.deepcopy(reports["hyperbolic"])
    _shift_minimum(1)(report)
    failures = verify_report(report, _source(report))
    assert "oracle minimum overstated" in failures
    assert f"a value below the claimed minimum at height {cli.CROSS_CHECK_HEIGHT}" in failures


def test_search_exhausted_exit_code(capsys):
    # enumerate is the one command left with a budgeted search
    rc, obj = run_cli(
        capsys,
        ["enumerate", "--lattice", "catalog:diag(5,-15)", "--height-bound", "30",
         "--budget", "500"],
    )
    assert rc == 3 and obj["error"]["type"] == "SearchExhaustedError"


def test_budget_exceeded_exit_code(capsys):
    rc, obj = run_cli(
        capsys,
        [
            "enumerate",
            "--lattice",
            "catalog:diag(1,1,1,1,1,1,1,1)",
            "--height-bound",
            "50",
            "--budget",
            "1000",
        ],
    )
    assert rc == 3


def test_catalog_env_override(tmp_path, monkeypatch, capsys):
    extra = tmp_path / "cat.json"
    extra.write_text(json.dumps({"mine": {"label": "mine", "gram": [[6]]}}))
    monkeypatch.setenv("QFORGE_CATALOG", str(extra))
    rc, obj = run_cli(capsys, ["invariants", "--lattice", "catalog:mine"])
    assert rc == 0
    assert obj["triple"]["disc_squarefree"] == 6


# ---------------------------------------------------------------------------
# Exit-code contract: malformed input ends in 0/2/3/4 with JSON on stdout


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    contents = {
        "not_json": "xx{",
        "binary": b"\xff\xfe\x00",
        "scalar": "5",
        "list_of_ints": "[1, 2]",
        "no_gram": '{"label": "x"}',
        "ragged": '{"gram": [[1, 0], [0]]}',
        "bad_entry": '{"gram": [["a"]]}',
        "matrix": "[[1, 0], [0, 1]]",
        "certificate": '{"p": 5}',
        "bad_pairs": '{"p": 5, "alpha": 5, "beta": [1, 1], "n": [0, 0]}',
    }
    paths = {}
    for name, text in contents.items():
        path = root / name
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        paths[name] = str(path)
    paths["missing"] = str(root / "missing.json")
    paths["directory"] = str(root)
    paths["no_such_dir"] = str(root / "no_such_dir" / "out.json")
    return paths


_FILES = ("not_json", "binary", "scalar", "list_of_ints", "no_gram", "ragged",
          "bad_entry", "matrix", "certificate", "bad_pairs", "missing", "directory")
_LATTICES = ("catalog:U", "catalog:<2>", "catalog:diag(1,-1)", "catalog:diag(1,x)",
             "catalog:diag(1^-2)", "catalog:diag()", "catalog:nope", "catalog:") + _FILES
_VALUES = {
    "--lattice": _LATTICES,
    "--other": _LATTICES,
    "--target-signature": ("3,3", "2,0", "a,b", "1", ",", ""),
    "--height-bound": ("-3", "0", "2", "x"),
    "--n-bound": ("-1", "0", "3", "x"),
    "--budget": ("-5", "0", "1000", "x"),
    "--matrix": _FILES,
    "--basis": _FILES,
    "--certificate": _FILES,
    "--out": ("directory", "no_such_dir"),
}


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["hyperbolic", "parabolic", "invariants", "equiv", "classify",
                             "saturate", "extend", "glue", "isotropic", "certify",
                             "enumerate", "no-such-command"]),
    flags=st.dictionaries(st.sampled_from(sorted(_VALUES)), st.integers(0, 20)),
)
def test_malformed_input_exit_codes(input_files, command, flags):
    argv = [command]
    for flag, index in sorted(flags.items()):
        choices = _VALUES[flag]
        value = choices[index % len(choices)]
        argv += [flag, input_files.get(value, value)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    assert rc in (0, 2, 3, 4), argv
    json.loads(out.getvalue())


@pytest.mark.parametrize("text", ["xx{", "[1, 2]"])
def test_catalog_env_malformed(tmp_path, monkeypatch, capsys, text):
    extra = tmp_path / "cat.json"
    extra.write_text(text)
    monkeypatch.setenv("QFORGE_CATALOG", str(extra))
    rc, obj = run_cli(capsys, ["invariants", "--lattice", "catalog:U"])
    assert rc == 2 and obj["error"]["type"] == "PreconditionError"


def test_catalog_rank_beyond_the_limit_exit_2(capsys):
    """A short name for a huge diagonal is refused before its Gram exists."""
    rc, obj = run_cli(capsys, ["invariants", "--lattice", "catalog:diag(1^99999999999)"])
    assert rc == 2 and obj["error"]["type"] == "PreconditionError"


@pytest.mark.parametrize("argv", [
    ["invariants", "--lattice", "catalog:diag(1,x)"],
    ["invariants", "--lattice", "catalog:diag(2^0)"],
    ["invariants", "--lattice", "catalog:"],
    ["extend", "--lattice", "catalog:K3", "--target-signature", "3"],
    ["certify", "--certificate", "NO_BETA", "--n-bound", "4"],
    ["hyperbolic", "--lattice", "catalog:K3", "--n-bound", "-1"],
    ["parabolic", "--lattice", "catalog:K3", "--n-bound", "0"],
], ids=["non-integer diag entry", "diag entry repeated 0 times", "empty catalog name",
        "signature without s", "certificate without beta", "negative hyperbolic bound",
        "zero parabolic bound"])
def test_malformed_input_is_a_precondition_error(tmp_path, capsys, argv):
    certificate = tmp_path / "no-beta.json"
    certificate.write_text(json.dumps({"p": 5, "alpha": [30, -10], "n": [0, 0]}))
    rc, obj = run_cli(capsys, [str(certificate) if a == "NO_BETA" else a for a in argv])
    assert rc == 2 and obj["error"]["type"] == "PreconditionError"


def test_catalog_sum_beyond_the_limit():
    with pytest.raises(PreconditionError, match="rank above 1000"):
        resolve("+".join(["<1>"] * 1001))


def test_catalog_negates_any_entry(tmp_path, monkeypatch):
    """NAME(-1) is -1 times the bundled or QFORGE_CATALOG entry NAME, and a
    literal entry of that name wins; E8(-1) keeps its label and Gram."""
    e8 = resolve("E8")
    e8m = resolve("E8(-1)")
    assert e8m.label == "E8(-1)"
    assert e8m.gram == tuple(tuple(-x for x in row) for row in e8.gram)
    a2m = resolve("A2(-1)")
    assert (a2m.label, a2m.gram) == ("A2(-1)", ((-2, 1), (1, -2)))
    extra = tmp_path / "cat.json"
    extra.write_text(json.dumps({"mine": {"label": "mine", "gram": [[6]]},
                                 "U(-1)": {"label": "odd", "gram": [[1]]}}))
    monkeypatch.setenv("QFORGE_CATALOG", str(extra))
    assert resolve("mine(-1)").gram == ((-6,),)
    assert (resolve("U(-1)").label, resolve("U(-1)").gram) == ("odd", ((1,),))
    with pytest.raises(PreconditionError, match="unknown catalog name"):
        resolve("K3(-1)")


def test_catalog_reads_its_entries_once_per_name(monkeypatch):
    """A name of four atoms parses the bundled catalog once, not per atom."""
    reads = []
    bundled = catalog._bundled
    monkeypatch.setattr(catalog, "_bundled", lambda: reads.append(1) or bundled())
    assert resolve("U+U+U+E8(-1)").rank == 14
    assert len(reads) == 1


# ---------------------------------------------------------------------------
# Constructed isotropic vectors end to end (these ops ran out of their
# search budgets or time before)


@pytest.mark.parametrize("name, n_bound, signature", [
    ("K3", 2, [1, 8]),
    ("U+U+U+E8(-1)", 3, [1, 4]),
    ("K3+A2(-1)", 10, [1, 9]),  # the OG10 lattice
    ("K3+A2(-1)", 1000, [1, 9]),
])
def test_parabolic_non_diagonal_sources_explicit(capsys, name, n_bound, signature):
    rc, obj = run_cli(capsys, ["parabolic", "--lattice", f"catalog:{name}",
                               "--n-bound", str(n_bound), "--verify"])
    assert rc == 0 and obj["verified"] is True
    assert obj["certificate_level"] is False
    assert obj["sublattice"]["signature"] == signature
    assert obj["isometry"]["classification"]["tag"] == "parabolic"


# Sources of signature (3, b2 - 3) on which the witness once left the image of
# the extension meeting the scaled lattice's positive vector, so that the
# intersection missed its signature and the run exited 4: K3^[n]-type
# lattices K3+<-2(n-1)> among them, K3+<-2> the first example of b2 >= 14.
_EXTENSION_ON_COORDINATES = (
    "K3+<-2>", "K3+<-6>", "K3+<-12>", "K3+<-14>", "K3+<-22>", "K3+<-24>",
    "U+U+U+E8(-1)+<-8>", "U+U+U+E8(-1)+<-4>+<-6>", "U+U+U+E8(-1)+<-4>+<-8>",
    "U+U+U+E8(-1)+<-6>+<-6>", "K3+<-2>+<-4>", "K3+<-2>+<-6>", "K3+<-4>+<-6>",
    "K3+<-6>+<-6>", "U+U+<6>+E8(-1)+E8(-1)",
)


@pytest.mark.parametrize("name", _EXTENSION_ON_COORDINATES)
def test_parabolic_extension_stays_off_the_positive_vector(capsys, name):
    """Each b_i of the extension sits on negative coordinates of its own, so
    its image is orthogonal to the scaled lattice's positive vector and the
    intersection keeps signature (1, >= s - 3): these end verified."""
    with oracle_utils.within(15):
        rc, obj = run_cli(capsys, ["parabolic", "--lattice", f"catalog:{name}",
                                   "--n-bound", "10", "--verify"])
    assert rc == 0 and obj["verified"] is True
    assert obj["sublattice"]["signature"] == [1, obj["input"]["rank"] // 2 - 3]


@pytest.mark.parametrize("n_bound", [10, 1000])
@pytest.mark.parametrize("name", ["diag(1,1,1,-2^11)", "diag(3,5,7,-1^11)"])
def test_parabolic_definite_rest_cancels_the_plane(monkeypatch, capsys, name, n_bound):
    """The witness block of these sources is definite, so its first
    complement is anisotropic of rank above 2: the witness makes its images
    in G2 + U, where every complement is isotropic and none represents a
    value, and moves them back into G2 once (glue._cancel_plane)."""
    planes = _record_callers(monkeypatch, glue, "_cancel_plane")
    zeros = _record_callers(monkeypatch, padic, "isotropic_vector")
    rc, obj = run_cli(capsys, ["parabolic", "--lattice", f"catalog:{name}",
                               "--n-bound", str(n_bound), "--verify"])
    assert rc == 0 and obj["verified"] is True
    assert len(planes) == 1
    assert [callers[0] for _, callers in zeros if callers[0][1] == "_next_image"] == []


@pytest.mark.parametrize("n_bound", [2, 10])
def test_parabolic_success_does_not_depend_on_the_flag_order(monkeypatch, capsys, n_bound):
    """With the witness's flag rows in basis order instead of by least |q|,
    K3 exited 4 ("intersection misses the required signature"): whether the
    extension's image met the positive vector was up to the witness. The
    extension now never goes through the witness, so any flag order ends
    verified."""
    monkeypatch.setattr(glue, "_nondegenerate_flag", lambda latt: (
        oracle_utils.nondegenerate_flag_fractions(latt.gram, least=False)))
    rc, obj = run_cli(capsys, ["parabolic", "--lattice", "catalog:K3",
                               "--n-bound", str(n_bound), "--verify"])
    assert rc == 0 and obj["verified"] is True


def test_hyperbolic_on_an_a2_source(capsys):
    rc, obj = run_cli(capsys, ["hyperbolic", "--lattice", "catalog:U+U+U+A2(-1)",
                               "--n-bound", "1000", "--verify"])
    assert rc == 0 and obj["verified"] is True


@pytest.mark.parametrize("name, n_bound, digest", [
    ("K3", 2, "9e5da07410cf32afd9f46bfd0022461d6706309e9e8c8a259ff6a588dd426b5c"),
    ("U+U+U+E8(-1)", 3, "082a802747846461f287cf21018255f79203dcc4170b43b95fc4b11c144f8ef5"),
    ("diag(1,1,1,-1^11)", 3, "637162c383fb87be8f51ac6bdfc8bd31b0b036bfb6d85038bda70e27935e0306"),
], ids=["K3", "U+U+U+E8(-1)", "diag(1,1,1,-1^11)"])
def test_parabolic_report_pinned(capsys, name, n_bound, digest):
    """The whole verified report apart from `timings`, as sorted-key JSON,
    hashes to the value taken when the sublattice block lost its
    intersection index (the reports built around the isotropic plane of
    u +- n_0 with that one key removed): a change to the witness or the
    pipeline that keeps the reports keeps these digests."""
    rc, obj = run_cli(capsys, ["parabolic", "--lattice", f"catalog:{name}",
                               "--n-bound", str(n_bound), "--verify"])
    assert rc == 0 and obj["verified"] is True
    del obj["timings"]
    assert hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest() == digest


def test_parabolic_searches_no_isotropic_vector(monkeypatch, capsys):
    """The final sublattice is built around the isotropic plane of u +- n_0,
    and the transvection takes its v and a from the pipeline: on an all-unit
    source, where no witness runs, nothing asks for an isotropic vector."""
    zeros = _record_callers(monkeypatch, padic, "isotropic_or_obstruction")
    rc, obj = run_cli(capsys, ["parabolic", "--lattice", "catalog:diag(1,1,1,-1^11)",
                               "--n-bound", "3", "--verify"])
    assert rc == 0 and obj["verified"] is True
    assert zeros == []


@pytest.mark.parametrize("name, n_bound", [
    ("K3+<-30>", 10), ("U+U+U+E8(-1)+<-2>+<-4>", 10),
    ("K3+<-22>", 1000), ("U+U+U+E8(-1)+A2(-1)", 1000),
    ("U+U+U+E8(-1)", 10**24), ("U+U+U+E8(-1)", 10**30),
])
def test_parabolic_isotropic_line_by_construction(capsys, name, n_bound):
    """Runs that stalled, most past 30 s, in the isotropic-vector search on
    the final sublattice: its Gram grows with N and the search factored its
    diagonal. With the isotropic line known by construction each ends at once
    (K3 at large N is run by the test below)."""
    with oracle_utils.within(5):
        rc, obj = run_cli(capsys, ["parabolic", "--lattice", f"catalog:{name}",
                                   "--n-bound", str(n_bound), "--verify"])
    assert rc == 0 and obj["verified"] is True


def _largest_digits(obj) -> int:
    """Digits of the largest integer of a report, integers written as such
    or as decimal strings."""
    if isinstance(obj, dict):
        return max(map(_largest_digits, obj.values()), default=0)
    if isinstance(obj, list):
        return max(map(_largest_digits, obj), default=0)
    if isinstance(obj, str) and obj.removeprefix("-").isdecimal() or type(obj) is int:
        return len(str(obj).removeprefix("-"))
    return 0


@pytest.mark.parametrize("exponent", [6, 12, 24, 30])
def test_parabolic_k3_report_grows_linearly_in_the_digits_of_n(capsys, exponent):
    """The report's largest integer stays within a linear bound in the
    digits of N: 41, 64, 124 and 155 digits here, where the isometry of a
    searched isotropic vector had 311 digits at N = 10^6 and 1,248 at 10^12."""
    with oracle_utils.within(5):
        rc, obj = run_cli(capsys, ["parabolic", "--lattice", "catalog:K3",
                                   "--n-bound", str(10**exponent), "--verify"])
    assert rc == 0 and obj["verified"] is True
    del obj["timings"]
    assert _largest_digits(obj) <= 6 * (exponent + 1) + 10


def _rescrambled(name: str, seed: int, additions_per_rank: int):
    """The Gram of `name` in the basis given by the rows of a seeded
    unimodular matrix: a signed permutation, then rank * additions_per_rank
    elementary row additions with coefficient +-1."""
    gram = resolve(name).gram
    n = len(gram)
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[rng.choice((1, -1)) if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    for _ in range(additions_per_rank * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return mat_mul(mat_mul(rows, gram), transpose(rows))


@pytest.mark.parametrize("seed", range(5))
def test_hyperbolic_k3_heavily_rescrambled(tmp_path, capsys, seed):
    gram = _rescrambled("K3", seed, 6)
    path = tmp_path / "k3.json"
    dump_json(lattice_to_obj(from_rows(gram, label="K3")), str(path))
    rc, obj = run_cli(capsys, ["hyperbolic", "--lattice", str(path), "--n-bound", "10",
                               "--verify"])
    assert rc == 0 and obj["verified"] is True
    assert obj["sublattice"]["certificate"]["p"] > 10


@pytest.mark.xfail(strict=True, raises=oracle_utils.StillRunning, reason=(
    "ROADMAP item 3: the witness's run time and index d depend on the basis "
    "of the block it is given; on a rescrambled basis it stalls"))
@pytest.mark.parametrize("seed", range(5))
def test_parabolic_k3_heavily_rescrambled(tmp_path, capsys, seed):
    gram = _rescrambled("K3", seed, 6)
    path = tmp_path / "k3.json"
    dump_json(lattice_to_obj(from_rows(gram, label="K3")), str(path))
    with oracle_utils.within(2):
        rc, obj = run_cli(capsys, ["parabolic", "--lattice", str(path), "--n-bound", "3",
                                   "--verify"])
    assert rc == 0 and obj["verified"] is True


def test_integers_beyond_the_default_string_limit(tmp_path, capsys):
    # Python refuses int <-> str conversions past 4300 digits by default; a
    # report of exact arithmetic must read and print them all the same
    big = "1" + "0" * 4999 + "1"
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps([[big, "1"]]))
    rc, obj = run_cli(capsys, ["saturate", "--lattice", "catalog:U", "--basis", str(basis)])
    assert rc == 0 and obj["basis"] == [[big, 1]]
