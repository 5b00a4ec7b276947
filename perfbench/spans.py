"""Span tracer for the traced benchmark run.

``Tracer.install`` replaces the public functions of each knormal layer, as
module attributes, with wrappers.  Code inside knormal reaches those
functions through the module (``spectrum.derive_params(...)``) or through a
module global (``find_irreducible(...)`` inside galois), and both read the
module's dict at call time, so the wrappers see every call with no change to
the package.  A span is opened only when a call crosses from one layer into
another; calls inside a layer are counted but get no span of their own.

Spans live in flat arrays (name, start, end, parent, op) and are written out
once, when the run ends.  A span's self time is its duration minus the time
its child spans cover; spans are strictly nested, so that cover is the sum of
the children's durations.
"""

import gzip
import json
import statistics
from array import array
from collections import Counter
from time import perf_counter

import knormal.cli
from knormal import counting, galois, numtheory, oracle, spectrum
from knormal.counting import Distribution

LAYERS = {
    "cli": knormal.cli,
    "counting": counting,
    "spectrum": spectrum,
    "numtheory": numtheory,
    "galois": galois,
    "oracle": oracle,
}
# The CLI layer is entered through main(); the cmd_* handlers are its inside.
CLI_BOUNDARY = ("main",)
# Polynomial and field arithmetic form the inner loops of galois and oracle,
# not a boundary between layers.
NOT_BOUNDARIES = {"poly_gcd", "poly_pow_mod", "field_pow"}
# lru_cache'd functions whose hit ratio is reported, from their cache_info().
CACHED = (("spectrum", "derive_params"), ("spectrum", "degree_pattern"), ("galois", "build_tower"))

def boundary_functions():
    """(layer, name, function) for every wrapped layer-boundary function."""
    found = []
    for layer, module in LAYERS.items():
        for name, obj in vars(module).items():
            if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported from elsewhere
            if name in NOT_BOUNDARIES or (layer == "cli" and name not in CLI_BOUNDARY):
                continue
            found.append((layer, name, obj))
    return found


class Tracer:
    """Records spans and counters while ``on``; passes calls through otherwise."""

    def __init__(self):
        self.on = False
        self.op = -1
        self.names: list[str] = []
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.span_op = array("i")
        self.stack: list[tuple[int, str]] = []
        self.calls = Counter()  # every call, by "layer.function"
        self.returns = Counter()
        self.first_s: list[float] = []  # counting calls on a new (q, n)
        self.repeat_s: list[float] = []
        self.seen_fields: set = set()
        self.result_bits_max = 0
        self.omega_total = 0
        self.degrees_total = 0
        self.elements_swept = 0
        self.output_bytes = 0
        self.cache_hits = Counter()
        self.cache_misses = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for layer, name, fn in boundary_functions():
            module = LAYERS[layer]
            self._saved.append((module, name, fn))
            setattr(module, name, self._wrap(layer, name, fn))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def _wrap(self, layer, name, fn):
        qualname = f"{layer}.{name}"
        name_id = len(self.names)
        self.names.append(qualname)
        after = getattr(self, f"_after_{layer}", None)
        calls, returns, stack = self.calls, self.returns, self.stack

        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            calls[qualname] += 1
            if stack and stack[-1][1] == layer:
                result = fn(*args, **kwargs)
                returns[qualname] += 1
                return result
            idx = len(self.start)
            self.span_name.append(name_id)
            self.parent.append(stack[-1][0] if stack else -1)
            self.span_op.append(self.op)
            self.end.append(0.0)
            stack.append((idx, layer))
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            returns[qualname] += 1
            if after is not None:
                after(name, args, result, self.end[idx] - self.start[idx])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-layer counters, on spans that cross into the layer ------------

    def _after_counting(self, name, args, result, duration):
        if isinstance(result, Distribution):
            bits = max(c.bit_length() for c in result.counts)
        elif isinstance(result, int) and not isinstance(result, bool):
            bits = result.bit_length()
        else:
            bits = 0
        self.result_bits_max = max(self.result_bits_max, bits)
        field = tuple(args[:2])
        (self.repeat_s if field in self.seen_fields else self.first_s).append(duration)
        self.seen_fields.add(field)

    def _after_spectrum(self, name, args, result, duration):
        if name == "degree_pattern":
            self.omega_total += result.factor_count()
            self.degrees_total += len(result.entries)

    def _after_oracle(self, name, args, result, duration):
        if name == "brute_force_distribution":
            self.elements_swept += args[0] ** args[1]

    # -- per-op bookkeeping, called by the benchmark loop ------------------

    def begin_op(self, index: int) -> None:
        self.op = index
        self._cache_before = {key: self._cache_info(key) for key in CACHED}
        self.on = True

    def end_op(self, output: str) -> None:
        self.on = False
        self.stack.clear()  # an op that raised may leave spans open
        self.output_bytes += len(output.encode())
        for key, (hits, misses) in self._cache_before.items():
            now_hits, now_misses = self._cache_info(key)
            self.cache_hits[key] += now_hits - hits
            self.cache_misses[key] += now_misses - misses

    def _cache_info(self, key):
        layer, name = key
        fn = getattr(LAYERS[layer], name)
        info = getattr(fn, "__wrapped__", fn).cache_info()
        return info.hits, info.misses

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span: duration minus its children's durations."""
        durations = [e - s for s, e in zip(self.start, self.end)]
        own = list(durations)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= durations[idx]
        return own

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        """Every per-layer metric of BENCHMARK.json, by name."""
        layer_of = [name.split(".")[0] for name in self.names]
        self_s = Counter()
        inclusive = Counter()
        for idx, own in enumerate(self.self_times()):
            name_id = self.span_name[idx]
            self_s[layer_of[name_id]] += own
            inclusive[self.names[name_id]] += self.end[idx] - self.start[idx]
        spans_per_layer = Counter(layer_of[i] for i in self.span_name)

        def ratio(a, b):
            return a / b if b else 0.0

        def p50(values):
            return statistics.median(values) if values else 0.0

        def hit_ratio(key):
            return ratio(self.cache_hits[key], self.cache_hits[key] + self.cache_misses[key])

        brute_s = inclusive["oracle.brute_force_distribution"]
        return {
            "counting.self_s": self_s["counting"],
            "counting.calls": spans_per_layer["counting"],
            "counting.first_call_s_p50": p50(self.first_s),
            "counting.repeat_call_s_p50": p50(self.repeat_s),
            "counting.result_bits_max": self.result_bits_max,
            "cli.self_s": self_s["cli"],
            "cli.output_bytes": self.output_bytes,
            "spectrum.self_s": self_s["spectrum"],
            "spectrum.calls": spans_per_layer["spectrum"],
            "spectrum.derive_params.hit_ratio": hit_ratio(("spectrum", "derive_params")),
            "spectrum.degree_pattern.hit_ratio": hit_ratio(("spectrum", "degree_pattern")),
            "spectrum.omega_total": self.omega_total,
            "spectrum.degrees_total": self.degrees_total,
            "numtheory.self_s": self_s["numtheory"],
            "numtheory.calls": spans_per_layer["numtheory"],
            "numtheory.prime_power_decompose_s": inclusive["numtheory.prime_power_decompose"],
            "galois.self_s": self_s["galois"],
            "galois.find_irreducible.calls": self.calls["galois.find_irreducible"],
            "galois.irreducible_hit_ratio": ratio(
                self.returns["galois.find_irreducible"], self.calls["galois.is_irreducible"]
            ),
            "galois.build_tower.hit_ratio": hit_ratio(("galois", "build_tower")),
            "oracle.self_s": self_s["oracle"],
            "oracle.elements_swept": self.elements_swept,
            "oracle.elements_per_s": ratio(self.elements_swept, brute_s),
            "oracle.cyclotomic_cosets_s": inclusive["oracle.cyclotomic_cosets"],
            "trace.overhead_ratio": overhead_ratio,
        }

    def write(self, path: str) -> None:
        """Write every span, gzipped JSON: rows of [name, start, end, parent, op]."""
        spans = [
            [self.names[n], s, e, p, o]
            for n, s, e, p, o in zip(self.span_name, self.start, self.end, self.parent, self.span_op)
        ]
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": spans}, fh)
