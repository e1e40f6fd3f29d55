"""Spans around the public functions of each opnbounds module.

Nothing in the package changes: for a traced pass, every module attribute
that holds one of the functions below is replaced by a wrapper, and put
back afterwards. A wrapper records a span (name, start, end, parent span,
request) only while the tracer is active, so the benchmark's own output
checks, which call the same functions, leave no spans.

A span's self time is its duration minus the time of its child spans. A
layer's self time is the sum over its functions, so the layers plus an
unattributed remainder add up to the traced wall time.
"""
from __future__ import annotations

import functools
import sys
from collections import defaultdict
from math import isqrt
from statistics import median, quantiles
from time import perf_counter

from opnbounds.lemmas import bucket_census
from opnbounds.workers import run_chunks

LAYERS = ("cli", "model", "linexpr", "rationals", "simplex", "lp",
          "certificates", "enumeration", "primes", "lemmas", "workers")

TARGETS = {
    "cli": ("main",),
    "model": ("build_system", "describe_system", "render_bound", "render_linexpr"),
    "linexpr": ("combine",),
    "rationals": ("format_rational", "parse_rational"),
    "simplex": ("solve",),
    "lp": ("minimize", "best_constant", "frontier"),
    "certificates": ("verify_certificate", "load_certificate", "save_certificate",
                     "certificate_to_dict", "certificate_from_dict"),
    # the chunk functions run inside run_chunks; wrapping them keeps their
    # loops out of the workers layer (the replay runs at jobs=1, so nothing
    # wrapped is ever pickled)
    "enumeration": ("integer_scan", "is_feasible", "_scan_chunk"),
    "primes": ("sieve", "is_prime", "factorize"),
    "lemmas": ("bucket_census", "lemma1_scan", "lemma2_scan", "lemma2_violations",
               "classify_prime", "shared_primes", "_census_chunk", "_lemma1_chunk",
               "_lemma2_chunk"),
    "workers": ("run_chunks",),
}


def _same_residue_pairs(args, kwargs, result) -> int:
    """Prime pairs 3 < a < b <= max with a = b (mod 3), the pairs
    lemma1_scan takes a gcd of."""
    limit = args[0]
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\0\0"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p::p] = bytearray(len(flags[p * p::p]))
    by_residue = [0, 0, 0]
    for p in range(5, limit + 1):
        if flags[p]:
            by_residue[p % 3] += 1
    return sum(n * (n - 1) // 2 for n in by_residue)


# per-function counts taken from the call, beside the call count
TALLIES = {
    "primes.sieve": lambda args, kwargs, result: len(result),
    "simplex.solve": lambda args, kwargs, result: result.status.value == "unbounded",
    "lemmas.lemma1_scan": _same_residue_pairs,
}


class Tracer:
    def __init__(self):
        self.active = False
        self.request = -1
        self.spans = []     # (name, start, end, parent index, request, self seconds)
        self.tallies = defaultdict(int)
        self._stack = []    # [span index, seconds covered by children]
        self._patched = []  # (module, attribute, original)

    def install(self) -> None:
        """Wrap every target in every loaded opnbounds module that holds it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "opnbounds" or name.startswith("opnbounds.")]
        for layer, names in TARGETS.items():
            source = sys.modules[f"opnbounds.{layer}"]
            for name in names:
                original = getattr(source, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, qualname, fn):
        tally = TALLIES.get(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack
            index = len(self.spans)
            self.spans.append(None)
            frame = [index, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                self.spans[index] = (qualname, start, end, parent, self.request,
                                     end - start - frame[1])
            if tally is not None:
                self.tallies[qualname] += tally(args, kwargs, result)
            return result
        return wrapper

    def export(self, floor: float) -> list:
        """Spans lasting at least floor seconds as [name, start us, end us,
        parent, request], times from the first span's start. A parent outlasts
        its children, so every written span's parent is written too."""
        if not self.spans:
            return []
        origin = self.spans[0][1]
        kept = {}
        out = []
        for index, (name, start, end, parent, request, _) in enumerate(self.spans):
            if end - start >= floor:
                kept[index] = len(out)
                out.append([name, round((start - origin) * 1e6), round((end - origin) * 1e6),
                            kept.get(parent, -1), request])
        return out

    def summary(self, wall: float) -> dict:
        """Per function: calls, inclusive and self seconds, durations; per
        layer: self seconds, with the unattributed rest of wall."""
        functions = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                         "durations": []})
        layers = {layer: 0.0 for layer in LAYERS}
        for name, start, end, parent, request, own in self.spans:
            entry = functions[name]
            entry["calls"] += 1
            entry["durations"].append(end - start)
            entry["s"] += end - start
            entry["self_s"] += own
            layers[name.split(".")[0]] += own
        layers["unattributed"] = wall - sum(layers.values())
        return {"functions": dict(functions), "layers": layers,
                "tallies": dict(self.tallies)}


def _percentile(durations, fraction) -> float:
    """The fraction-quantile of durations; 0.0 with no samples."""
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0]
    cuts = quantiles(durations, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def layer_metrics(summary: dict, wall: float) -> dict:
    """The per-layer metrics, as {name: (value, unit)}, from one traced pass."""
    functions, tallies = summary["functions"], summary["tallies"]

    def fn(name):
        return functions.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                    "durations": []})

    solve = fn("simplex.solve")
    factorize = fn("primes.factorize")
    sieve = fn("primes.sieve")
    out = {
        "simplex.solve.calls": (solve["calls"], "count"),
        "simplex.solve.s": (solve["s"], "s"),
        "simplex.solve.p50_ms": (_percentile(solve["durations"], 0.5) * 1e3, "ms"),
        "simplex.solve.p90_ms": (_percentile(solve["durations"], 0.9) * 1e3, "ms"),
        "simplex.solve.unbounded_ratio": (
            tallies.get("simplex.solve", 0) / solve["calls"] if solve["calls"] else 0.0,
            "ratio"),
        "lp.best_constant.calls": (fn("lp.best_constant")["calls"], "count"),
        "lp.best_constant.self_s": (fn("lp.best_constant")["self_s"], "s"),
        "certificates.verify_certificate.calls": (
            fn("certificates.verify_certificate")["calls"], "count"),
        "certificates.verify_certificate.s": (fn("certificates.verify_certificate")["s"], "s"),
        "certificates.save_certificate.s": (fn("certificates.save_certificate")["s"], "s"),
        "model.build_system.calls": (fn("model.build_system")["calls"], "count"),
        "model.build_system.s": (fn("model.build_system")["s"], "s"),
        "linexpr.combine.s": (fn("linexpr.combine")["s"], "s"),
        "rationals.format_rational.s": (fn("rationals.format_rational")["s"], "s"),
        "enumeration.integer_scan.calls": (fn("enumeration.integer_scan")["calls"], "count"),
        "enumeration.integer_scan.s": (fn("enumeration.integer_scan")["s"], "s"),
        "primes.factorize.calls": (factorize["calls"], "count"),
        "primes.factorize.s": (factorize["s"], "s"),
        "primes.factorize.p50_us": (_percentile(factorize["durations"], 0.5) * 1e6, "us"),
        "primes.factorize.p99_us": (_percentile(factorize["durations"], 0.99) * 1e6, "us"),
        "primes.sieve.s": (sieve["s"], "s"),
        "primes.sieve.primes_per_s": (
            tallies.get("primes.sieve", 0) / sieve["s"] if sieve["s"] else 0.0, "1/s"),
        "primes.is_prime.calls": (fn("primes.is_prime")["calls"], "count"),
        "primes.is_prime.s": (fn("primes.is_prime")["s"], "s"),
        "lemmas.bucket_census.s": (fn("lemmas.bucket_census")["s"], "s"),
        "lemmas.lemma1_scan.s": (fn("lemmas.lemma1_scan")["s"], "s"),
        "lemmas.lemma1_scan.pairs": (tallies.get("lemmas.lemma1_scan", 0), "count"),
        "lemmas.lemma2_scan.s": (fn("lemmas.lemma2_scan")["s"], "s"),
        "lemmas.classify_prime.s": (fn("lemmas.classify_prime")["s"], "s"),
        "workers.run_chunks.calls": (fn("workers.run_chunks")["calls"], "count"),
        "workers.run_chunks.s": (fn("workers.run_chunks")["s"], "s"),
    }
    for layer, seconds in summary["layers"].items():
        out[f"layer.{layer}.self_s"] = (seconds, "s")
    out["inprocess.wall_s"] = (wall, "s")
    return out


def noop(chunk):
    """A chunk function that does nothing, for timing the pool itself."""
    return chunk


def probe_workers(census_max: int, repeats: int = 3) -> dict:
    """Pool start and stop cost with no work, and census scaling from one to
    two workers: t(jobs=1) / (2 * t(jobs=2))."""
    def timed(fn, *args):
        start = perf_counter()
        fn(*args)
        return perf_counter() - start

    overhead = median(timed(run_chunks, noop, [0, 1], 2) for _ in range(repeats))
    serial = median(timed(bucket_census, census_max, 1) for _ in range(repeats))
    parallel = median(timed(bucket_census, census_max, 2) for _ in range(repeats))
    return {"workers.pool_overhead_s": (overhead, "s"),
            "workers.scaling_efficiency_j2": (serial / (2 * parallel), "ratio")}
