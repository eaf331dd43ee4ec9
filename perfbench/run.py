"""qforge benchmark: time to a verified result on fixed CLI workloads.

Usage (from the root of a qforge checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in workloads.py. A run generates the workload's
lattice files from the seed, then runs rounds back to back, one at a time,
for about S seconds: at least one round, and no round that would likely
end past S. Each round is a fresh
interpreter (worker.py) that drives `qforge.cli.main` in-process, closed
loop, one client, one thread. Every report is checked semantically here,
outside the timed region (check.py).

With --trace 0 the last stdout line carries the end-to-end metrics:
  setup_s      median over 7 fresh interpreters of importing qforge.cli
               and resolving and loading the round's lattices
  cost_s       median over rounds of the sum of op latencies; an op that
               does not end `ok` is charged the full per-op deadline
  op_p50_s     median op latency over all ops of the run, charged likewise
  ok_ratio     ops ending `ok` / ops attempted
  peak_rss_mb  largest peak resident set of a round's process
With --trace 1 it runs one untraced and one traced round and reports the
per-layer metrics of the traced one (spans.py), plus the tracing overhead.

Every op ends in one status: ok, certificate_level, exit_2, exit_3,
exit_4, timeout, wrong or traceback. `failed` counts the outcomes that
are defects on valid input (wrong, traceback, exit_2, exit_4); the
budget outcomes (certificate_level, exit_3, timeout) lower ok_ratio and
raise cost_s instead. The run exits non-zero, printing no result, when
the current directory holds no qforge source tree.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from spans import COUNTERS
from workloads import DEADLINE_S, WORKLOADS, generate

HERE = os.path.dirname(os.path.abspath(__file__))
STATUSES = ("ok", "certificate_level", "exit_2", "exit_3", "exit_4",
            "timeout", "wrong", "traceback")
DEFECTS = ("wrong", "traceback", "exit_2", "exit_4")
SETUP_SAMPLES = 7


def run_worker(workdir: str, ops, tag: str, trace: bool = False,
               setup_only: bool = False) -> dict:
    spec = {
        "src": os.path.abspath("src"),
        "deadline_s": DEADLINE_S,
        "trace": trace,
        "setup_only": setup_only,
        "ops": [{"id": op.id, "command": op.command, "source": op.source,
                 "n_bound": op.n_bound, "path": op.path} for op in ops],
    }
    spec_path = os.path.join(workdir, f"spec-{tag}.json")
    out_path = os.path.join(workdir, f"result-{tag}.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "QFORGE_CATALOG")}
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), spec_path, out_path],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=60 + DEADLINE_S * (0 if setup_only else len(ops)),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed (rc {proc.returncode}):\n{proc.stderr}")
    with open(out_path) as fh:
        return json.load(fh)


def classify_ops(result: dict, ops, check) -> list[dict]:
    """Final status of each op of a round; reports are checked here."""
    by_id = {op.id: op for op in ops}
    for record in result["ops"]:
        op = by_id[record["id"]]
        if record["status"] != "returned":
            continue
        try:
            report = json.loads(record["stdout"])
        except json.JSONDecodeError:
            record["status"], record["error"] = "wrong", "stdout is not one JSON report"
            continue
        record["report"] = report
        failures = check.check_report(op.command, report, op.gram, op.n_bound)
        if failures:
            record["status"], record["error"] = "wrong", "; ".join(failures)
        elif report.get("certificate_level"):
            record["status"] = "certificate_level"
        else:
            record["status"] = "ok"
    return result["ops"]


def charged(record: dict) -> float:
    return record["latency_s"] if record["status"] == "ok" else DEADLINE_S


def status_counts(records) -> dict[str, int]:
    return {s: sum(r["status"] == s for r in records) for s in STATUSES}


def self_test(records, ops, check) -> list[str]:
    """Tamper test on the first ok report of the run, for its command."""
    by_id = {op.id: op for op in ops}
    for record in records:
        if record["status"] == "ok":
            op = by_id[record["id"]]
            escaped = check.tamper_escapes(op.command, record["report"], op.gram, op.n_bound)
            return [f"{op.id}: checker accepted a corrupted {name}" for name in escaped]
    return []


def per_layer_metrics(trace: dict, overhead_s: float) -> dict:
    metrics = {}
    for name, stats in trace["layers"].items():
        metrics[f"{name}.calls"] = {"value": stats["calls"], "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": stats["self_s"], "unit": "s"}
        metrics[f"{name}.total_s"] = {"value": stats["total_s"], "unit": "s"}
    for name in COUNTERS:
        unit = "count-computed" if name == "lattice.box_vectors" else "count"
        metrics[name] = {"value": trace["counters"][name], "unit": unit}
    for name, ratio in trace["caches"].items():
        metrics[name] = {"value": ratio, "unit": "1"}
    metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return metrics


def attribution(trace: dict, traced_cost_s: float, overhead_s: float) -> list[str]:
    """Human-readable summary: modules and functions by self time. Module
    "(none)" is op time spent outside every traced function."""
    layers = trace["layers"]
    op_seconds = sum(v["seconds"] for k, v in trace["ops"].items() if k != "setup")
    lines = [f"traced op time {op_seconds:.2f} s, traced cost_s {traced_cost_s:.2f} s, "
             f"tracing overhead {overhead_s:+.2f} s, {trace['spans']} spans"]
    modules: dict[str, float] = {}
    for name, stats in layers.items():
        mod = name.split(".")[0]
        modules[mod] = modules.get(mod, 0.0) + stats["self_s"]
    modules["(none)"] = op_seconds - sum(modules.values())
    for mod, self_s in sorted(modules.items(), key=lambda kv: -kv[1]):
        lines.append(f"  module {mod:8s} self {self_s:8.3f} s "
                     f"({100 * self_s / op_seconds if op_seconds else 0:5.1f}%)")
    for name, stats in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        if stats["calls"]:
            lines.append(f"  {name:40s} calls {stats['calls']:7d}  self {stats['self_s']:8.3f} s"
                         f"  total {stats['total_s']:8.3f} s")
    lines.append("  counters " + ", ".join(f"{k}={v}" for k, v in trace["counters"].items()))
    lines.append("  caches " + ", ".join(f"{k}={v:.3f}" for k, v in trace["caches"].items()))
    if trace["missing"]:
        lines.append("  not in this version of qforge: " + ", ".join(trace["missing"]))
    for op_id, info in trace["ops"].items():
        top = ", ".join(f"{n} {s:.2f} s" for n, s in info["top"])
        lines.append(f"  op {op_id:24s} {info['seconds']:6.2f} s: {top}")
    return lines


def round_line(label: str, records: list[dict]) -> str:
    return json.dumps({
        "round": label,
        "cost_s": round(sum(charged(r) for r in records), 4),
        "status_counts": status_counts(records),
        "ops": [{"id": r["id"], "status": r["status"], "latency_s": round(r["latency_s"], 4),
                 **({"error": r["error"][-300:]} if r.get("error") else {})}
                for r in records],
    })


def benchmark(args, workdir: str, check) -> dict:
    """Run the rounds, print per-round detail, return the result object."""
    ops = generate(args.workload, args.seed, workdir)
    rounds = []  # (worker result, classified records) per untraced round
    began = time.perf_counter()
    while True:
        round_began = time.perf_counter()
        result = run_worker(workdir, ops, f"r{len(rounds)}")
        rounds.append((result, classify_ops(result, ops, check)))
        now = time.perf_counter()
        if args.trace or (now - began) + (now - round_began) > args.seconds:
            break
    records = [r for _, round_records in rounds for r in round_records]
    costs = [sum(charged(r) for r in round_records) for _, round_records in rounds]
    setups = [result["setup_s"] for result, _ in rounds]
    failed = sum(r["status"] in DEFECTS for r in records)
    for index, (_, round_records) in enumerate(rounds):
        print(round_line(f"round {index}", round_records))

    if args.trace:
        traced = run_worker(workdir, ops, "traced", trace=True)
        traced_records = classify_ops(traced, ops, check)
        failed += sum(r["status"] in DEFECTS for r in traced_records)
        print(round_line("traced", traced_records))
        traced_cost = sum(charged(r) for r in traced_records)
        overhead = traced_cost - costs[0]
        shutil.copy(os.path.join(workdir, "spans.json"),
                    os.path.join(".qforge_bench", f"spans-{args.workload}.json"))
    else:
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_worker(workdir, ops, f"s{len(setups)}",
                                     setup_only=True)["setup_s"])

    counts = status_counts(records)
    escaped = self_test(records, ops, check)
    latencies = [charged(r) for r in records]
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "deadline_s": DEADLINE_S, "rounds": len(rounds),
                      "op_samples": len(latencies), "setup_samples": len(setups),
                      "status_counts": counts, "tamper_escapes": escaped}))
    if args.trace:
        print("\n".join(attribution(traced["trace"], traced_cost, overhead)))
        metrics = per_layer_metrics(traced["trace"], overhead)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "cost_s": {"value": statistics.median(costs), "unit": "s"},
            "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "ok_ratio": {"value": counts["ok"] / len(records), "unit": "1"},
            "peak_rss_mb": {"value": max(result["peak_rss_mb"] for result, _ in rounds),
                            "unit": "MB"},
        }
    return {"correct": failed == 0 and not escaped, "attempted": len(records),
            "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "qforge", "cli.py")):
        print("no qforge source tree at ./src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("QFORGE_CATALOG", None)
    sys.path.insert(0, src)
    import check

    os.makedirs(".qforge_bench", exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=".qforge_bench")
    try:
        result = benchmark(args, workdir, check)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
