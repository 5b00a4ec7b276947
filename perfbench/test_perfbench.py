"""Tests of the benchmark itself, one tiny run per workload.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import os
import re

import pytest

import run
import traffic

CLI = run.import_knormal()

import check  # noqa: E402  (needs the package path set up by import_knormal)
from knormal import counting  # noqa: E402
import spans  # noqa: E402

# Metric names the benchmark promises to report.
END_TO_END = ["ops_per_s", "op_s_p50", "op_s_p90", "ok_ratio", "peak_rss_mb", "setup_s"]
PER_LAYER = [
    "counting.self_s", "counting.calls", "counting.first_call_s_p50",
    "counting.repeat_call_s_p50", "counting.result_bits_max",
    "cli.self_s", "cli.output_bytes",
    "spectrum.self_s", "spectrum.calls", "spectrum.derive_params.hit_ratio",
    "spectrum.degree_pattern.hit_ratio", "spectrum.omega_total", "spectrum.degrees_total",
    "numtheory.self_s", "numtheory.calls", "numtheory.prime_power_decompose_s",
    "galois.self_s", "galois.find_irreducible.calls", "galois.irreducible_hit_ratio",
    "galois.build_tower.hit_ratio",
    "oracle.self_s", "oracle.elements_swept", "oracle.elements_per_s",
    "oracle.cyclotomic_cosets_s",
    "trace.overhead_ratio",
]
TINY_OPS = 3


def first_ops(workload, seed, cycles=2):
    source = traffic.cycles(workload, seed)
    return [op for _ in range(cycles) for op in next(source)]


def bump_last_integer(text):
    """The output with its last integer increased by one: still parses, now wrong."""
    match = list(re.finditer(r"\d+", text))[-1]
    return text[: match.start()] + str(int(match.group()) + 1) + text[match.end():]


@pytest.mark.parametrize("workload", traffic.WORKLOADS)
def test_same_seed_same_ops(workload):
    assert first_ops(workload, 7) == first_ops(workload, 7)
    assert first_ops(workload, 7) != first_ops(workload, 8)


@pytest.mark.parametrize("workload", traffic.WORKLOADS)
def test_corrupted_output_counts_as_failure(workload):
    op = next(op for op in first_ops(workload, 3, 1) if not op.invalid and op.kind != "over_str_limit")
    rc, _, out, err = run.run_op(CLI.main, op)
    assert check.check(op, rc, out, err)[0] == check.OK
    assert check.check(op, rc, bump_last_integer(out), err)[0] == check.WRONG
    records = [{"status": check.check(op, rc, bump_last_integer(out), err)[0]}]
    assert run.summary(records) == (False, 1, 1)


def test_invalid_requests_must_exit_2():
    op = traffic._count_op(15, 3, 0, "text", invalid=True)
    rc, _, out, err = run.run_op(CLI.main, op)
    assert (rc, check.check(op, rc, out, err)[0]) == (2, check.OK)
    assert check.check(op, 0, "7\n", "")[0] == check.WRONG
    assert check.check(op, "ValueError", "", "")[0] == check.FAILED


def decimal(x):
    """str(x) for a non-negative int of any size, without the digit limit."""
    if x < 10**3000:
        return str(x)
    half = int(x.bit_length() * 0.30103) // 2
    hi, lo = divmod(x, 10**half)
    return decimal(hi) + decimal(lo).zfill(half)


def flip_middle_digit(digits):
    mid = len(digits) // 2
    return digits[:mid] + str((int(digits[mid]) + 1) % 10) + digits[mid + 1:]


@pytest.mark.parametrize("workload", ["dist", "lowk"])
def test_correct_output_beyond_the_digit_limit_passes(workload):
    # What a CLI without the digit limit prints for a field whose counts have
    # more than 4300 digits: the check accepts it, and rejects it corrupted.
    # N_0 and N_1 are never 0 (N_2 and N_3 can be, and 0 prints fine).
    op = next(op for op in first_ops(workload, 3, 4) if op.kind == "over_str_limit" and op.k < 2)
    q, n = op.q, op.n
    if op.command == "count":
        value = check.low_counts(q, n)[op.k]
        assert value > 10**traffic.INT_STR_DIGITS

        def render(digits):
            return {
                "text": f"{digits}\n",
                "csv": f"q,n,k,count\n{q},{n},{op.k},{digits}\n",
                "json": json.dumps({"count": digits, "k": op.k, "n": n, "q": q}) + "\n",
            }[op.fmt]
        out, wrong = render(decimal(value)), render(flip_middle_digit(decimal(value)))
    else:
        counts = [decimal(c) for c in counting.distribution(q, n).counts]
        op = dataclasses.replace(op, fmt="json")

        def render(counts):
            return json.dumps({"counts": counts, "n": n, "q": q, "sum_check": True}) + "\n"
        out, wrong = render(counts), render([flip_middle_digit(counts[0])] + counts[1:])
    assert check.check(op, 0, out, "")[0] == check.OK
    assert check.check(op, 0, wrong, "")[0] == check.WRONG


def tiny_cycles(workload, seed, full_cycles=traffic.cycles):
    for cycle in full_cycles(workload, seed):
        yield cycle[:TINY_OPS]


@pytest.mark.parametrize("workload", traffic.WORKLOADS)
def test_every_metric_reported_with_unit(workload, monkeypatch, capsys):
    monkeypatch.setattr(traffic, "cycles", tiny_cycles)
    monkeypatch.setattr(run, "replay_untraced", lambda *args: 1.0)
    monkeypatch.setattr(run, "TRACE_DIR", os.path.join(run.HERE, "traces", "test"))
    with open(run.BENCHMARK) as fh:
        declared = json.load(fh)
    for trace, names, section in ((0, END_TO_END, "end_to_end"), (1, PER_LAYER, "per_layer")):
        assert run.main(["--workload", workload, "--seed", "5", "--seconds", "0.01",
                         "--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert result["attempted"] == TINY_OPS
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert list(result["metrics"]) == names
        units = {m["name"]: m["unit"] for m in declared[section]}
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], (int, float))
            assert metric["unit"] == units[name]


def test_self_time_is_duration_minus_children():
    tracer = spans.Tracer()
    # root 0..10 with children 1..3 and 4..8; the second has a child 5..6.
    for start, end, parent in ((0, 10, -1), (1, 3, 0), (4, 8, 0), (5, 6, 2)):
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
    assert tracer.self_times() == [4, 2, 3, 1]
