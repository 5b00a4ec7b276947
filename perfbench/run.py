"""Run one knormal benchmark workload and print its metrics.

    python3 perfbench/run.py --workload dist --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` there.
Every op goes through the real entry point, ``knormal.cli.main(argv)``, in
this process with stdout and stderr captured, so the package's caches start
cold at the start of the run and warm up over it.  Each op's output is
checked (see check.py) outside the timed region.

The amount of work is fixed by ``--seconds``: a workload serves
``round(seconds / CYCLE_SECONDS)`` whole cycles (see traffic.py).  Every
commit then serves the same ops for a given seed, so memory, latency and
per-layer totals compare like for like.  Times are reported at a reference
speed (see REFERENCE_S).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` serves the first
half of the cycles with every layer boundary wrapped (spans.py), then
replays the same cycles untraced in a fresh interpreter to measure the
tracing overhead, and prints the per-layer metrics.  Spans are written to
``perfbench/traces/``.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics, named as in BENCHMARK.json.  ``correct`` is false when any op
exited 0 with output that disagrees with the reference; crashes and wrong
exit codes count in ``failed`` only.
"""

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import traffic

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
TRACE_DIR = os.path.join(HERE, "traces")
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

# Reference-speed seconds one cycle of each workload takes at the seed commit
# (2-core x86 VM, CPython 3.11).  Fixed: changing it changes the work.  Sweep
# runs five cycles at 15 s, one pass over its top octave's five fields.
CYCLE_SECONDS = {"dist": 0.9, "lowk": 0.85, "sweep": 3.0, "factors": 0.115}
SETUP_REPEATS = 15

# The same code runs up to a third slower from one minute to the next on a
# shared VM, and the whole machine slows together.  So a fixed reference
# computation (an interpreter loop and big-int products, the program's two
# kinds of work) is timed after every REFERENCE_EVERY_S of op time, and
# every reported time is scaled by REFERENCE_S / (mean reference time):
# times are in seconds at the speed where the reference takes REFERENCE_S.
# On ten seeds this cut the spread (IQR/median) of ops_per_s on dist from
# 0.19 to 0.08; the measured figures are printed beside the scaled ones.
REFERENCE_S = 0.003125
REFERENCE_EVERY_S = 0.1
_REFERENCE_INT = 3**6000

SETUP_CODE = """
import sys, time
t = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import knormal.cli
knormal.cli.build_parser()
elapsed = time.perf_counter() - t
if not knormal.cli.__file__.startswith(sys.argv[1]):
    sys.exit("knormal was not imported from " + sys.argv[1])
print(repr(elapsed))
"""


def declared_units(section: str) -> dict[str, str]:
    """{metric name: unit} of one section of BENCHMARK.json, in its order."""
    with open(BENCHMARK) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def import_knormal():
    """Import the package from this checkout's src/, or exit with an error."""
    if not os.path.isdir(os.path.join(SRC, "knormal")):
        sys.exit(f"error: no knormal package under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    import knormal.cli

    if not knormal.cli.__file__.startswith(SRC):
        sys.exit(f"error: knormal was imported from {knormal.cli.__file__}, not {SRC}")
    return knormal.cli


def run_op(main, op):
    """Call main(argv) with output captured: (exit code or exception name, s, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(op.argv))
    except SystemExit as exc:  # argparse rejects its input this way
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a traceback a CLI user would see; it counts as failed
        rc = type(exc).__name__
    elapsed = time.perf_counter() - start
    return rc, elapsed, out.getvalue(), err.getvalue()


def reference_seconds() -> float:
    """Time of the fixed reference computation, right now."""
    start = time.perf_counter()
    total = 0
    for i in range(25_000):
        total += i * i
    for k in range(1, 751):
        total += _REFERENCE_INT * k
    return time.perf_counter() - start


def serve(cli, workload, seed, n_cycles, tracer=None):
    """Serve n_cycles whole cycles: (one record per op, outputs checked; speed scale).

    The speed scale turns measured seconds into reference-speed seconds.
    """
    import check

    records, reference, since = [], [reference_seconds()], 0.0
    source = traffic.cycles(workload, seed)
    for _ in range(n_cycles):
        for op in next(source):
            if tracer is not None:
                tracer.begin_op(len(records))
            rc, elapsed, out, err = run_op(cli.main, op)
            if tracer is not None:
                tracer.end_op(out)
            status, detail, bits = check.check(op, rc, out, err)
            records.append({"op": op, "s": elapsed, "status": status, "detail": detail, "bits": bits})
            since += elapsed
            if since >= REFERENCE_EVERY_S:
                reference.append(reference_seconds())
                since = 0.0
    reference.append(reference_seconds())
    return records, REFERENCE_S / statistics.fmean(reference)


def summary(records):
    """(correct, attempted, failed) for the result line."""
    wrong = sum(1 for r in records if r["status"] == "wrong")
    failed = sum(1 for r in records if r["status"] != "ok")
    return wrong == 0, len(records), failed


def end_to_end(records, setup_s):
    ok_s = [r["s"] for r in records if r["status"] == "ok"]
    if not ok_s:
        sys.exit("error: no op succeeded, so there is no latency to report")
    loop_s = sum(r["s"] for r in records)
    deciles = statistics.quantiles(ok_s, n=10) if len(ok_s) > 1 else ok_s * 9
    return {
        "ops_per_s": len(ok_s) / loop_s,
        "op_s_p50": statistics.median(ok_s),
        "op_s_p90": deciles[-1],
        "ok_ratio": len(ok_s) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def measure_setup() -> float:
    """Median over fresh interpreters of import knormal.cli + build_parser()."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, SRC],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout))
    return statistics.median(times)


def traffic_record(workload, seed, records):
    """What was served: op mix, field sizes, failures."""
    ops = [r["op"] for r in records]
    fields = {(op.q, op.n, op.p) for op in ops if op.p and op.n > 0}
    qn_bits = [op.n * math.log2(op.q) for op in ops if op.n > 0]
    omega_sum = sum(traffic.omega(q, traffic.split_n(p, n)[0]) for q, n, p in fields)
    ok_s = [r["s"] for r in records if r["status"] == "ok"]
    p90 = statistics.quantiles(ok_s, n=10)[-1] if len(ok_s) > 1 else math.inf
    return {
        "workload": workload,
        "seed": seed,
        "ops": dict(sorted(Counter(f"{op.command}/{op.fmt}" for op in ops).items())),
        "strata": dict(sorted(Counter(op.kind for op in ops).items())),
        "fields": len(fields),
        "omega_sum_over_fields": omega_sum,
        "p_divides_n_share": sum(1 for op in ops if op.p and op.n > 0 and op.n % op.p == 0) / len(ops),
        "qn_bits_min": min(qn_bits),
        "qn_bits_max": max(qn_bits),
        "largest_output_bits": max(r["bits"] for r in records),
        "latency_samples": len(ok_s),
        "samples_beyond_p90": sum(1 for s in ok_s if s > p90),
        "failures": dict(Counter(r["detail"].split(":")[0] for r in records if r["status"] != "ok")),
    }


def replay_untraced(workload, seed, n_cycles) -> float:
    """Reference-speed loop seconds of the same cycles, untraced, in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0", "--replay-cycles", str(n_cycles)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])["loop_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=traffic.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay-cycles", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cli = import_knormal()
    workload, seed = args.workload, args.seed
    n_cycles = max(1, round(args.seconds / CYCLE_SECONDS[workload]))

    if args.replay_cycles:
        records, scale = serve(cli, workload, seed, args.replay_cycles)
        print(json.dumps({"loop_s": sum(r["s"] for r in records) * scale}))
        return 0

    if args.trace:
        import spans

        tracer = spans.Tracer()
        traced_cycles = max(1, n_cycles // 2)
        tracer.install()
        try:
            records, scale = serve(cli, workload, seed, traced_cycles, tracer)
        finally:
            tracer.uninstall()
        traced_s = sum(r["s"] for r in records) * scale
        values = tracer.metrics(traced_s / replay_untraced(workload, seed, traced_cycles))
        os.makedirs(TRACE_DIR, exist_ok=True)
        tracer.write(os.path.join(TRACE_DIR, f"{workload}-seed{seed}.json.gz"))
        units = declared_units("per_layer")
    else:
        records, scale = serve(cli, workload, seed, n_cycles)
        values = end_to_end(records, measure_setup())
        units = declared_units("end_to_end")
    # Times (unit s) and rates (unit 1/s) go to reference speed.
    factor = {"s": scale, "1/s": 1 / scale}
    metrics = {name: values[name] * factor.get(unit, 1) for name, unit in units.items()}

    correct, attempted, failed = summary(records)
    print("traffic " + json.dumps(traffic_record(workload, seed, records), sort_keys=True))
    print(f"speed_scale {scale!r} (reference-speed seconds per measured second)")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]} (measured {values[name]!r})")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
