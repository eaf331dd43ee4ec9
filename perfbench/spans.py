"""Span tracer that measures qforge's layers from outside the package.

`Tracer.install` replaces each public function named in TARGETS with a
wrapper that records one span per call. The wrapper goes into every
qforge namespace that holds the function: modules that did
`from .lattice import min_nonzero_abs` call their own binding, so
patching only the defining module would miss those calls. Counters are
wrapped into the namespaces whose calls they count; they cost time on
every vector scanned, so they exist only in the traced run.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time

TARGETS = {
    "lattice": ("min_nonzero_abs", "all_values_divisible_by", "saturate", "signature"),
    "forge": ("find_rank2_avoiding", "find_isotropic_pair", "find_w_odd_valuation",
              "find_isotropic"),
    "glue": ("embed_pipeline", "extend_to_standard", "explicit_rational_isometry",
             "nikulin_glue"),
    "isom": ("find_hyperbolic", "find_parabolic", "classify"),
    "linalg": ("smith_normal_form", "hermite_rows", "rational_rank", "solve", "invert",
               "char_poly", "det_bareiss"),
    "padic": ("rational_diagonalize", "invariant_triple", "solve_prescribed_hilbert"),
    "cli": ("verify_report",),
    "jsonio": ("dump_json", "load_lattice_file"),
    "catalog": ("resolve",),
}

# (namespace holding the binding, generator name, counter it feeds).
# glue reaches iter_search_vectors as `lat.iter_search_vectors`, so the
# lattice module's own binding is the one glue's witness scan goes through.
GENERATOR_COUNTERS = (
    ("forge", "iter_search_vectors", "forge.search_vectors"),
    ("forge", "primes_from", "forge.primes_tried"),
    ("lattice", "iter_search_vectors", "glue.witness_vectors"),
)

# Box oracles whose enumerated box size is computed from the arguments.
BOX_ORACLES = ("min_nonzero_abs", "all_values_divisible_by")
BOX_COUNTER = "lattice.box_vectors"

CACHES = (("padic", "hilbert_symbol"), ("intmath", "factorize"))

COUNTERS = tuple(c for _, _, c in GENERATOR_COUNTERS) + (BOX_COUNTER,)


def span_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]


class Tracer:
    """Spans are [name, start, end, parent index, op id], kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: str | None = None
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.missing: list[str] = []

    # -- spans -----------------------------------------------------------

    def begin_op(self, op_id: str) -> None:
        self.op = op_id
        self.stack = [len(self.spans)]
        self.spans.append(["op", time.perf_counter(), 0.0, -1, op_id])

    def end_op(self) -> None:
        end = time.perf_counter()
        root = self.stack[0]
        # a deadline can interrupt a wrapper before its `finally`; close
        # whatever was left open at the op's end
        for span in self.spans[root:]:
            if span[2] == 0.0:
                span[2] = end
        self.stack = []
        self.op = None

    def _span_wrapper(self, name: str, fn):
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, tracer.op])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                if stack and stack[-1] == index:
                    stack.pop()

        return wrapper

    def _box_wrapper(self, fn):
        sig = inspect.signature(fn)
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            rank = bound.arguments["latt"].rank
            height = bound.arguments["height"]
            counters[BOX_COUNTER] += (2 * height + 1) ** rank - 1
            return fn(*args, **kwargs)

        return wrapper

    def _generator_wrapper(self, fn, key: str):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counters[key] += 1
                yield item

        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded qforge module that binds it.

        A target the package no longer has is listed in `self.missing` and
        its metrics stay 0, so the traced run keeps working when a later
        version removes or renames a function.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if n == "qforge" or n.startswith("qforge.")]
        for mod_name, fn_name, key in GENERATOR_COUNTERS:
            mod = sys.modules.get(f"qforge.{mod_name}")
            fn = getattr(mod, fn_name, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{fn_name} (feeds {key})")
                continue
            setattr(mod, fn_name, self._generator_wrapper(fn, key))
        for mod_name, fn_names in TARGETS.items():
            home = sys.modules.get(f"qforge.{mod_name}")
            for fn_name in fn_names:
                original = getattr(home, fn_name, None)
                if original is None:
                    self.missing.append(f"{mod_name}.{fn_name}")
                    continue
                inner = original
                if fn_name in BOX_ORACLES:
                    if {"latt", "height"} <= inspect.signature(original).parameters.keys():
                        inner = self._box_wrapper(original)
                    else:
                        self.missing.append(f"{mod_name}.{fn_name} (feeds {BOX_COUNTER})")
                wrapped = self._span_wrapper(f"{mod_name}.{fn_name}", inner)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    # -- results ---------------------------------------------------------

    def _self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        self_s = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                self_s[parent] -= end - start
        return self_s

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """calls, self_s and total_s per span name; total_s counts only the
        outermost of nested calls to the same function."""
        spans = self.spans
        stats = {n: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for n in span_names()}
        for (name, start, end, parent, _), self_s in zip(spans, self._self_times()):
            if name == "op":
                continue
            entry = stats[name]
            entry["calls"] += 1
            entry["self_s"] += self_s
            outer = parent
            while outer >= 0 and spans[outer][0] != name:
                outer = spans[outer][3]
            if outer < 0:
                entry["total_s"] += end - start
        return stats

    def op_attribution(self, top: int = 3) -> dict[str, dict]:
        """Per op: its traced duration and the `top` functions by self time."""
        per_op: dict[str, dict[str, float]] = {}
        durations: dict[str, float] = {}
        for (name, start, end, _, op), self_s in zip(self.spans, self._self_times()):
            if name == "op":
                durations[op] = end - start
                continue
            bucket = per_op.setdefault(op, {})
            bucket[name] = bucket.get(name, 0.0) + self_s
        return {
            op: {"seconds": seconds,
                 "top": sorted(per_op.get(op, {}).items(), key=lambda kv: -kv[1])[:top]}
            for op, seconds in durations.items()
        }

    @staticmethod
    def cache_ratios() -> dict[str, float]:
        out = {}
        for mod_name, fn_name in CACHES:
            fn = getattr(sys.modules.get(f"qforge.{mod_name}"), fn_name, None)
            info = fn.cache_info() if hasattr(fn, "cache_info") else None
            lookups = info.hits + info.misses if info else 0
            out[f"{mod_name}.{fn_name}.hit_ratio"] = info.hits / lookups if lookups else 0.0
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh, separators=(",", ":"))
