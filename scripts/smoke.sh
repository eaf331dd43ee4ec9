#!/usr/bin/env bash
# Smoke runs of the demos and the command line against one install of qforge.
#
# usage: scripts/smoke.sh PYTHON QFORGE
#   PYTHON  the interpreter of the install (runs the demos and the JSON checks)
#   QFORGE  its qforge command
# Run from the root of the repository.
set -euo pipefail

py=$1
qforge=$2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

check() {  # check EXPR: assert EXPR on the JSON object o read from stdin
  "$py" -c "import json, sys; o = json.load(sys.stdin); assert $1, o"
}

"$py" scripts/run_parabolic_demo.py
"$py" scripts/run_hyperbolic_demo.py
"$qforge" parabolic --lattice catalog:K3 --n-bound 2 --verify \
  | check 'o["verified"] is True and "saturation_index_of_intersection" not in o["sublattice"]'
"$qforge" parabolic --lattice "catalog:U+U+U+E8(-1)" --n-bound 3 --verify
timeout 60 "$qforge" parabolic --lattice catalog:K3 --n-bound 1000000000000 --verify
# the final sublattice is built around a known isotropic plane, so no isotropic vector is
# searched for on a Gram that grows with N (both ran past 30 s when one was)
timeout 60 "$qforge" parabolic --lattice catalog:K3 --n-bound 1000000000000000000000000000000 \
  --verify | check 'o["verified"] is True'
timeout 60 "$qforge" parabolic --lattice "catalog:K3+<-30>" --n-bound 10 --verify \
  | check 'o["verified"] is True'
# the OG10 lattice K3+A2(-1): a rank-24 source, A2(-1) read as -1 times the entry A2
"$qforge" parabolic --lattice "catalog:K3+A2(-1)" --n-bound 10 --verify | check 'o["verified"] is True'
# the K3^[2] lattice K3+<-2>: the extension's image stays off the positive vector (it exited 4)
"$qforge" parabolic --lattice "catalog:K3+<-2>" --n-bound 10 --verify | check 'o["verified"] is True'
# a definite witness block: the images are made in G2 + U and moved back into G2
"$qforge" parabolic --lattice "catalog:diag(1,1,1,-2^11)" --n-bound 1000 --verify | check 'o["verified"] is True'
"$qforge" hyperbolic --lattice catalog:K3 --n-bound 1000 --verify > "$tmp/k3.json"
# the report's own check line: classify --lattice <sublattice.gram> --matrix <isometry.matrix>
"$py" -c 'import json, sys; r = json.load(open(sys.argv[1]))
json.dump({"gram": r["sublattice"]["gram"]}, open(sys.argv[2], "w"))
json.dump(r["isometry"]["matrix"], open(sys.argv[3], "w"))' "$tmp/k3.json" "$tmp/k3-gram.json" "$tmp/k3-matrix.json"
"$qforge" classify --lattice "$tmp/k3-gram.json" --matrix "$tmp/k3-matrix.json" \
  | check 'o["classification"]["dominant_root_between"] == json.load(open("'"$tmp/k3.json"'"))["isometry"]["classification"]["dominant_root_between"]'
# --flag=value reads as --flag value: the same report apart from timings
"$qforge" hyperbolic --lattice catalog:K3 --n-bound=1000 --verify > "$tmp/k3-equals.json"
"$py" -c 'import json, sys; a, b = (json.load(open(p)) for p in sys.argv[1:])
a.pop("timings"); b.pop("timings"); assert a == b' "$tmp/k3.json" "$tmp/k3-equals.json"
# --help exits 0 and lists all 11 commands
"$qforge" --help > "$tmp/help.txt"
"$py" -c 'import sys; text = open(sys.argv[1]).read()
commands = "hyperbolic parabolic invariants equiv classify saturate extend glue isotropic certify enumerate"
assert all(f"  {c} " in text for c in commands.split()), text' "$tmp/help.txt"
"$qforge" hyperbolic --lattice catalog:K3 --n-bound 1000000000000000000000000000000 --verify
# the K3^[2] lattice K3+<-2>: a rank-23 source on the hyperbolic path
"$qforge" hyperbolic --lattice "catalog:K3+<-2>" --n-bound 1000 --verify | check 'o["verified"] is True'
# no basis vector qualifies as w, so w is constructed: a long cycle of reduced forms
timeout 60 "$qforge" hyperbolic --lattice "catalog:diag(1,1,-1,-1,-1)" --n-bound 1000 --verify
# a certificate with n = 10^12 is rejected at once, exit 0
echo '{"p": 5, "alpha": [30, -10], "beta": [6, -2], "n": [1000000000000, 0]}' > "$tmp/huge-n.json"
timeout 10 "$qforge" certify --certificate "$tmp/huge-n.json" --n-bound 4 | check 'o["valid"] is False'
# beta1 x^2 + beta2 y^2 = x^2 - y^2 is isotropic mod 5: rejected, exit 0
echo '{"p": 5, "alpha": [5, -5], "beta": [1, -1], "n": [0, 0]}' > "$tmp/isotropic.json"
"$qforge" certify --certificate "$tmp/isotropic.json" --n-bound 4 | check 'o["valid"] is False'
# an empty catalog name exits 2
rc=0; "$qforge" invariants --lattice catalog: > "$tmp/empty-name.json" || rc=$?
test "$rc" -eq 2
check 'o["error"]["type"] == "PreconditionError"' < "$tmp/empty-name.json"
# a flag the command does not read exits 2
rc=0; "$qforge" invariants --lattice catalog:U --verify || rc=$?
test "$rc" -eq 2
# a short catalog name of rank above catalog.MAX_RANK exits 2 before any Gram is built
rc=0; "$qforge" invariants --lattice "catalog:diag(1^99999999999)" > "$tmp/huge-rank.json" || rc=$?
test "$rc" -eq 2
check 'o["error"]["type"] == "PreconditionError"' < "$tmp/huge-rank.json"
# saturation of [[2, 4, 6], [0, 3, 9]]: index 6 and its Hermite basis
echo '[[2, 4, 6], [0, 3, 9]]' > "$tmp/basis.json"
"$qforge" saturate --lattice "catalog:diag(1,1,1)" --basis "$tmp/basis.json" \
  | check 'o["index"] == 6 and o["basis"] == [[1, 0, -3], [0, 1, 3]]'
# a definite target: the discriminant is above 2^53 and the signs stay integers
"$qforge" extend --lattice "catalog:diag(1000000007,1000000009,998244353)" --target-signature 6,0 \
  | check 'o["triples_equal"] is True'
"$qforge" glue --lattice "catalog:diag(5,-5)" --target-signature 3,3 \
  | check 'o["overlattice_det"] == -1'
# a partner with a +-1 filler block beside the scaled entries
"$qforge" glue --lattice "catalog:diag(13,-13,-1)" --target-signature 4,4 \
  | check 'o["overlattice_det"] == 1 and o["lambda_embedding"][0] == [13, 0, 0, -5, 0, 0, 0, 0]'
# P = 7 is 3 mod 4: the partner's signs are forced to -eps
"$qforge" glue --lattice "catalog:diag(7,-7)" --target-signature 3,3 \
  | check 'abs(o["overlattice_det"]) == 1'
# ... and diag(7,-7,-7) forces two plus signs where (2, 5) has room for one: exit 2
rc=0; "$qforge" glue --lattice "catalog:diag(7,-7,-7)" --target-signature 2,5 > "$tmp/forced.json" || rc=$?
test "$rc" -eq 2
check 'o["error"]["type"] == "PreconditionError"' < "$tmp/forced.json"
