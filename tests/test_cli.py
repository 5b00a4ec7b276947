"""CLI subcommands: outputs, formats, and exit codes."""

import argparse
import contextlib
import decimal
import io
import json
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knormal import cli, counting, galois, lanes, numtheory, oracle, spectrum
from knormal.errors import KnormalError

GOLDEN = pathlib.Path(__file__).parent / "golden"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_text(capsys):
    code, out, _ = run(capsys, "count", "--q", "25", "--n", "3", "--k", "2")
    assert code == 0
    assert out == "72\n"


def test_count_csv(capsys):
    code, out, _ = run(capsys, "count", "--q", "25", "--n", "3", "--k", "2", "--format", "csv")
    assert code == 0
    assert out == "q,n,k,count\n25,3,2,72\n"


def test_count_json_huge_value_roundtrips(capsys):
    code, out, _ = run(capsys, "count", "--q", "16", "--n", "16", "--k", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == "17293822569102704640"
    assert int(payload["count"]) == counting.count_normal(16, 16)
    assert int(payload["count"]) > 2**63


def test_count_rejects_non_prime_power(capsys):
    code, out, err = run(capsys, "count", "--q", "12", "--n", "3", "--k", "0")
    assert code == 2
    assert out == ""
    assert "prime power" in err


@pytest.mark.parametrize(
    "q,bits",
    [
        ("618970019642690137449562111", 89),  # 2^89 - 1, a prime above the bound
        ("4951760154835678088235319297", 92),  # (2^31 - 1)(2^61 - 1)
    ],
)
def test_factors_refuses_a_root_beyond_the_primality_bound(capsys, q, bits):
    start = time.perf_counter()
    code, out, err = run(capsys, "factors", "--q", q, "--n", "5")
    assert time.perf_counter() - start < 0.1
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and f"{bits}-bit" in err
    assert q not in err


def test_factors_of_a_large_prime(capsys):
    code, out, _ = run(capsys, "factors", "--q", "2305843009213693951", "--n", "5")
    assert code == 0
    assert "p = 2305843009213693951\nm = 1\n" in out


def test_count_rejects_k_out_of_range(capsys):
    code, _, err = run(capsys, "count", "--q", "2", "--n", "5", "--k", "9")
    assert code == 2
    assert "k" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--q", "2", "--n", "0", "--k", "0"),
        ("count", "--q", "2", "--n", "-3", "--k", "0"),
        ("distribution", "--q", "3", "--n", "0"),
        ("factors", "--q", "4", "--n", "-1"),
        ("verify", "--q", "2", "--n", "0"),
        ("verify", "--q", "2", "--n", "0", "--oracle", "closed-forms"),
    ],
)
def test_nonpositive_n_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "n must be >= 1" in err


def test_distribution_text(capsys):
    code, out, _ = run(capsys, "distribution", "--q", "2", "--n", "3")
    assert code == 0
    assert out == "N_0 = 3\nN_1 = 3\nN_2 = 1\nN_3 = 1\nsum = 8 = 2^3\n"


def test_distribution_json(capsys):
    code, out, _ = run(capsys, "distribution", "--q", "2", "--n", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"] == ["8", "4", "2", "1", "1"]
    assert payload["sum_check"] is True


def test_distribution_csv_parses_back(capsys):
    code, out, _ = run(capsys, "distribution", "--q", "27", "--n", "9", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,count"
    parsed = [int(line.split(",")[1]) for line in lines[1:]]
    assert tuple(parsed) == counting.distribution(27, 9).counts


def test_distribution_exits_1_when_counts_miss_q_to_the_n(capsys, monkeypatch):
    wrong = counting.Distribution(q=2, n=3, counts=(4, 2, 1, 0))
    monkeypatch.setattr(counting, "distribution", lambda q, n, one: wrong)
    code, _, err = run(capsys, "distribution", "--q", "2", "--n", "3")
    assert code == 1
    assert err == "error: counts do not sum to q**n\n"


def expected_distribution(q, n, fmt, counts=None):
    """What `distribution` prints, built by str() from int counts: counting's
    int distribution unless counts are given.
    """
    counts = [str(c) for c in (counting.distribution(q, n) if counts is None else counts)]
    if fmt == "json":
        payload = {"q": q, "n": n, "counts": counts, "sum_check": True}
        return json.dumps(payload, sort_keys=True) + "\n"
    if fmt == "csv":
        return "k,count\n" + "".join(f"{k},{c}\n" for k, c in enumerate(counts))
    return "".join(f"N_{k} = {c}\n" for k, c in enumerate(counts)) + f"sum = {q**n} = {q}^{n}\n"


DECIMAL_FIELDS = [
    *((q, n) for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27) for n in range(1, 41)),
    # factor-rich, p | n and coprime
    (4, 60), (5, 120), (2, 252), (13, 156), (2, 315), (3, 560), (11, 600),
    # zero-heavy: N_k != 0 only at k in {0, 1, n - 1, n}, so the counts between
    # are one run of zeros, written in pieces; (2, 4003)'s run is 4000 long
    (2, 11), (293, 997), (144791, 761), (2, 4003),
]


def test_distribution_prints_the_int_counts_bit_for_bit(capsys):
    for q, n in DECIMAL_FIELDS:
        for fmt in ("text", "csv", "json"):
            argv = ("distribution", "--q", str(q), "--n", str(n), "--format", fmt)
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "")
            assert out == expected_distribution(q, n, fmt), (q, n, fmt)
            assert "-" not in out and "E" not in out


def test_distribution_prints_every_count_it_is_given(capsys, monkeypatch):
    # (293, 997)'s counts with a 7 planted inside its run of zeros and a 0 just
    # after it: the writer reads each count and infers no zero from the field
    counts = list(counting.distribution(293, 997, decimal.Decimal(1)))
    assert counts[2:996] == [0] * 994 and counts[996] != 0
    counts[500], counts[996] = decimal.Decimal(7), decimal.Decimal(0)
    planted = counting.Distribution(293, 997, counts)
    monkeypatch.setattr(counting, "distribution", lambda q, n, one: planted)
    for fmt in ("text", "csv", "json"):
        argv = ("distribution", "--q", "293", "--n", "997", "--format", fmt)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (1, "error: counts do not sum to q**n\n"), fmt
        assert printed_counts(out, fmt) == [str(c) for c in counts], fmt


def parse_decimal(text):
    """int(text) in pieces below CPython's 4300-digit limit, which stays as it is."""
    if len(text) <= 4000:
        return int(text)
    half = len(text) // 2
    return parse_decimal(text[:half]) * 10 ** (len(text) - half) + parse_decimal(text[half:])


def printed_counts(out, fmt):
    """The decimal counts in `distribution` output of format fmt."""
    if fmt == "json":
        return json.loads(out)["counts"]
    if fmt == "csv":
        return [line.split(",")[1] for line in out.splitlines()[1:]]
    return [line.split(" = ")[1] for line in out.splitlines()[:-1]]


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_distribution_prints_counts_past_the_str_digit_limit(capsys, fmt):
    q, n = 65537, 1000
    code, out, err = run(capsys, "distribution", "--q", str(q), "--n", str(n), "--format", fmt)
    assert (code, err) == (0, "")
    cells = printed_counts(out, fmt)
    assert len(cells) == n + 1 and len(cells[0]) == 4817  # N_0, past the 4300 of str(int)
    counts = [parse_decimal(cell) for cell in cells]
    assert counts[0] == counting.count_normal(q, n)
    assert sum(counts) == q**n


class ByteCount:
    """A stdout that keeps only the number of bytes written to it."""

    def __init__(self):
        self.bytes = 0

    def write(self, text):
        self.bytes += len(text.encode())


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_distribution_holds_no_second_copy_of_its_output(fmt):
    # The counts are held while they are written, in about 0.8x the bytes
    # they print as; a list of their strings, or one JSON text of them all,
    # would take the peak past 1.25x.
    sink = ByteCount()
    with contextlib.redirect_stdout(sink):
        cli.main(["distribution", "--q", "2", "--n", "3", "--format", fmt])  # imports, untraced
        sink.bytes = 0
        tracemalloc.start()
        try:
            code = cli.main(["distribution", "--q", "2", "--n", "4000", "--format", fmt])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0 and sink.bytes > 2_000_000
    assert peak < 1.25 * sink.bytes, (peak, sink.bytes)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_distribution_writes_a_run_of_zeros_in_small_pieces(fmt):
    # (2, 4003)'s 4000 zero counts are one run: written whole in text or CSV,
    # its text and its ks took the peak 140-170 KB past that of making the counts
    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    argv = ["distribution", "--q", "2", "--n", "4003", "--format", fmt]
    with contextlib.redirect_stdout(ByteCount()):
        cli.main(argv)  # imports and the field's cached parameters, untraced
        counts_alone = peak(lambda: counting.distribution(2, 4003, decimal.Decimal(1)))
        written = peak(lambda: cli.main(argv))
    assert written - counts_alone < 64 << 10, (written, counts_alone)


def test_a_product_heavy_distribution_runs_on_ints_and_prints_the_same(capsys, monkeypatch):
    # a heavy field's counts come from the defect end; the expectation reads
    # the forward end in ints, so the two ends cross-check each other
    made = []
    defect_counts = counting._defect_counts
    monkeypatch.setattr(
        counting, "_defect_counts",
        lambda params, cap, ks: made.append((params.q, params.n, cap))
        or defect_counts(params, cap, ks),
    )
    # (2, 768): x**3 - 1 to the 256th power; (11, 700): 81 distinct factors
    # of 8 degrees (P = 1); about 86 and 50 products of non-units per n
    for q, n in [(2, 768), (11, 700)]:
        params = spectrum.derive_params(q, n)
        assert counting._ring_products(params, n) > counting.RING_PRODUCTS * n
        forward = list(reversed(counting._weight_series(params, n, defect=False)))
        for fmt in ("text", "csv", "json"):
            code, out, _ = run(capsys, "distribution", "--q", str(q), "--n", str(n), "--format", fmt)
            assert code == 0
            assert out == expected_distribution(q, n, fmt, forward), (q, n, fmt)
        assert made == [(q, n, n)] * 3, made
        made.clear()


@pytest.mark.parametrize(
    "golden,argv",
    [
        ("table_q2.csv", ["table", "--q", "2", "--n-min", "1", "--n-max", "20"]),
        ("table_q3.csv", ["table", "--q", "3", "--n-min", "1", "--n-max", "16"]),
        ("table_q4.csv", ["table", "--q", "4", "--n-min", "1", "--n-max", "14"]),
        ("table_q25.csv", ["table", "--q", "25", "--n-min", "1", "--n-max", "7", "--k-max", "3"]),
        ("table_q27.csv", ["table", "--q", "27", "--n-min", "9", "--n-max", "12", "--k-max", "3"]),
        ("table_q16.csv", ["table", "--q", "16", "--n-min", "14", "--n-max", "16", "--k-max", "3"]),
    ],
)
def test_table_matches_golden(capsys, golden, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_table_blank_cells_only_above_n(capsys):
    code, out, _ = run(capsys, "table", "--q", "25", "--n-min", "1", "--n-max", "3",
                       "--k-max", "3")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    for row in rows:
        n = int(row[0])
        for k, cell in enumerate(row[1:]):
            assert (cell == "") == (k > n)


def test_table_text_format(capsys):
    code, out, _ = run(capsys, "table", "--q", "2", "--n-min", "1", "--n-max", "4",
                       "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["n", "N_0"]
    assert lines[-1].split() == ["4", "8"]


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--q", "25", "--n-min", "1", "--n-max", "7",
                       "--k-max", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["q"] == 25
    row = payload["rows"][4]  # n = 5
    assert row["n"] == 5
    assert row["counts"] == ["9375000", "375000", "15000", "600"]
    short = payload["rows"][0]
    assert short["counts"] == ["24", "1"]  # k > n cells are absent


@pytest.mark.parametrize(
    "argv,field",
    [
        (["count", "--q", "2", "--n", "15000", "--k", "0"],
         "q = 2, n = 15000, k = 0 has 14999 bits"),
        (["count", "--q", "7", "--n", "6000", "--k", "3"],
         "q = 7, n = 6000, k = 3 has 16842 bits"),
        (["table", "--q", "2", "--n-min", "14990", "--n-max", "15000", "--k-max", "2",
          "--format", "json"], "q = 2, n = 14990, k = 0 has 14989 bits"),
    ],
    ids=["count-N_0", "count-N_3", "table"],
)
def test_a_count_past_the_str_digit_limit_is_refused_in_one_line(capsys, argv, field):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: the count for " + field) and err.count("\n") == 1


def test_table_rejects_bad_range(capsys):
    code, _, err = run(capsys, "table", "--q", "2", "--n-min", "5", "--n-max", "2")
    assert code == 2
    assert "range" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--n-min", "999001", "--n-max", "1000001"),  # n_max beyond the bound
        ("--n-min", "1", "--n-max", "2", "--k-max", "1000001"),  # k_max beyond it
    ],
)
def test_table_refuses_before_any_row(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, "table", "--q", "2", *argv)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_table_counts_only_the_printed_columns(capsys):
    for n_max, k_max in (("2500", "0"), ("300", "300")):
        start = time.perf_counter()
        code, out, _ = run(capsys, "table", "--q", "2", "--n-min", "1", "--n-max", n_max,
                           "--k-max", k_max, "--format", "json")
        assert code == 0
        assert time.perf_counter() - start < 3.0
    for row in json.loads(out)["rows"]:  # every column, k = 0..n
        assert tuple(map(int, row["counts"])) == counting.distribution(2, row["n"]).counts


def test_table_prints_no_all_blank_columns(capsys):
    # a column with k > n_max is blank in every row, so it is not printed
    code, out, _ = run(capsys, "table", "--q", "2", "--n-min", "1", "--n-max", "10",
                       "--k-max", "1000000")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split(",") == ["n"] + [f"N_{k}" for k in range(11)]
    assert all(len(line.split(",")) == 12 for line in lines)
    assert len(out) < 10_000


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "--q", "2", "--n", "5", "--oracle", "all")
    assert code == 0
    assert out.count("PASS") == 4
    assert "FAIL" not in out
    assert "4 checks" in out


def test_verify_passing_details_claim_no_inequality(capsys):
    code, out, _ = run(capsys, "verify", "--q", "2", "--n", "5", "--oracle", "all",
                       "--format", "json")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert all(c["passed"] for c in checks)
    assert [c["detail"] for c in checks if "!=" in c["detail"]] == []


def test_verify_brute_only(capsys):
    code, out, _ = run(capsys, "verify", "--q", "3", "--n", "4", "--oracle", "brute")
    assert code == 0
    assert out.count("PASS") == 1


def test_verify_cosets_skips_the_distribution(capsys, monkeypatch):
    def refuse(q, n):
        raise AssertionError("the cosets and closed-forms checks read no distribution")

    monkeypatch.setattr(counting, "distribution", refuse)
    for which, check in (("cosets", "pattern-vs-cosets"), ("closed-forms", "closed-forms")):
        code, out, _ = run(capsys, "verify", "--q", "2", "--n", "40000", "--oracle", which)
        assert code == 0
        assert out == f"PASS {check}\n1 checks, all passed\n"


def test_the_coset_check_catches_a_pattern_that_omega_accepts(capsys, monkeypatch):
    # a gcd 3 too large at u = 1 on (2, 7), d = 3: the pattern stays integral
    # with degree sum n0 = 7 and omega agrees with it, so only the cosets see it
    gcd = numtheory.gcd_qr_minus_one
    monkeypatch.setattr(numtheory, "gcd_qr_minus_one", lambda q, u, n: gcd(q, u, n) + 3 * (u == 1))
    spectrum.degree_pattern.cache_clear()
    try:
        params = spectrum.derive_params(2, 7)
        pattern = spectrum.degree_pattern(params)
        assert pattern.entries == {1: 4, 3: 1}
        assert spectrum.omega(params) == pattern.factor_count() == 5
        code, out, _ = run(capsys, "verify", "--q", "2", "--n", "7", "--oracle", "cosets")
    finally:
        spectrum.degree_pattern.cache_clear()
    assert code == 1
    assert out.splitlines()[0] == "FAIL pattern-vs-cosets ({1: 1, 3: 2} vs {1: 4, 3: 1})"


def test_verify_refuses_oversized_brute_before_any_series(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--q", "2", "--n", "40000", "--oracle", "brute")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == "error: q**n = 2**40000 exceeds the sweep guard 4194304\n"


def test_verify_counts_moduli_only_for_a_field_the_guard_admits(capsys, monkeypatch):
    # the moduli count of degree 10**6 over F_p would build p**(10**6) first
    counted = []
    monkeypatch.setattr(galois, "irreducible_count", lambda *args: counted.append(args) or 1)
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--q", "1000000000039", "--n", "1000000",
                         "--modulus-trials", "2")
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert out == ""
    assert err == "error: q**n = 1000000000039**1000000 exceeds the sweep guard 4194304\n"
    assert counted == []


def test_verify_rejects_csv_format(capsys):
    code, out, err = run(capsys, "verify", "--q", "2", "--n", "3", "--format", "csv")
    assert (code, out) == (2, "")
    assert err == "error: --format: 'csv' is not one of text, json\n"


def test_verify_closed_forms_json(capsys):
    code, out, _ = run(capsys, "verify", "--q", "25", "--n", "3",
                       "--oracle", "closed-forms", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert [c["name"] for c in payload["checks"]] == ["closed-forms"]


def test_verify_modulus_trials(capsys):
    code, out, _ = run(capsys, "verify", "--q", "2", "--n", "6", "--oracle", "brute",
                       "--modulus-trials", "2")
    assert code == 0
    assert "formula-vs-brute[modulus 0]" in out
    assert "formula-vs-brute[modulus 1]" in out


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_verify_rejects_nonpositive_modulus_trials(capsys, trials):
    code, out, err = run(capsys, "verify", "--q", "2", "--n", "3",
                         "--modulus-trials", trials)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "--modulus-trials" in err


def test_verify_refuses_more_trials_than_moduli(capsys):
    # only x^3+x+1 and x^3+x^2+1 are irreducible of degree 3 over F_2
    code, _, err = run(capsys, "verify", "--q", "2", "--n", "3", "--oracle", "brute",
                       "--modulus-trials", "5")
    assert code == 2
    assert len(err.splitlines()) == 1
    assert "fewer than 3 monic irreducibles" in err


def test_verify_refuses_excess_trials_before_any_sweep(capsys, monkeypatch):
    # F_{4^2} is swept as F_2[x]/(f) with deg f = 4, and only 3 such f exist:
    # x^4+x+1, x^4+x^3+1 and x^4+x^3+x^2+x+1 (not the 6 quadratics over F_4)
    sweeps = []
    real = lanes.sweep
    monkeypatch.setattr(lanes, "sweep", lambda *args: sweeps.append(args) or real(*args))
    for trials in ("7", "4"):
        code, out, err = run(capsys, "verify", "--q", "4", "--n", "2",
                             "--modulus-trials", trials)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "fewer than 4 monic irreducibles of degree 4 over F_2" in err
    assert sweeps == []
    # every existing modulus is still accepted
    code, out, _ = run(capsys, "verify", "--q", "4", "--n", "2", "--modulus-trials", "3")
    assert code == 0
    assert len(sweeps) == 3


def test_verify_refuses_excess_trials_without_scanning_for_moduli(capsys, monkeypatch):
    # 52377 monic irreducibles of degree 20 exist over F_2 (Gauss's count);
    # the refusal counts them and never scans candidates for one
    monkeypatch.setattr(lanes, "ben_or", lambda p, degree: pytest.fail("a scan ran"))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--q", "2", "--n", "20", "--oracle", "brute",
                         "--modulus-trials", "60000")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err == ("error: --modulus-trials 60000: fewer than 52378 monic irreducibles"
                   " of degree 20 over F_2 exist, so none has index 59999\n")


def test_verify_looks_up_one_tower_per_trial(capsys):
    galois.build_tower.cache_clear()
    try:
        code, _, _ = run(capsys, "verify", "--q", "2", "--n", "11", "--oracle", "brute",
                         "--modulus-trials", "3")
        info = galois.build_tower.cache_info()
    finally:
        galois.build_tower.cache_clear()
    assert code == 0
    assert info.hits + info.misses == 3


def test_verify_scans_once_per_trial_past_the_tower_cache(capsys, monkeypatch):
    # 130 trials outnumber the cached fields, so a field looked up twice in
    # one verify would be evicted by its second lookup and scanned again
    trials = spectrum.CACHED_FIELDS + 2
    scans = []
    real = galois.find_irreducible
    monkeypatch.setattr(galois, "find_irreducible",
                        lambda *args: scans.append(args) or real(*args))
    galois.build_tower.cache_clear()
    try:
        code, out, _ = run(capsys, "verify", "--q", "2", "--n", "11", "--oracle", "brute",
                           "--modulus-trials", str(trials))
    finally:
        galois.build_tower.cache_clear()
    assert code == 0
    assert len(scans) == trials
    checks = [f"PASS formula-vs-brute[modulus {t}]" for t in range(trials)]
    assert out.splitlines()[:-1] == checks


def test_verify_fails_when_no_check_ran(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_run_checks", lambda *args: [])
    code, out, _ = run(capsys, "verify", "--q", "2", "--n", "3")
    assert code == 1
    assert out == "0 checks, FAILED\n"
    code, out, _ = run(capsys, "verify", "--q", "2", "--n", "3", "--format", "json")
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_verify_refuses_oversized_brute(capsys):
    code, _, err = run(capsys, "verify", "--q", "2", "--n", "40", "--oracle", "brute")
    assert code == 2
    assert "guard" in err


def test_verify_reports_mismatch(capsys, monkeypatch):
    # force a wrong ground truth to exercise the failure contract
    wrong = counting.Distribution(q=2, n=3, counts=(4, 2, 1, 1))
    monkeypatch.setattr(
        oracle, "brute_force_distribution", lambda q, n, **kw: wrong
    )
    code, out, _ = run(capsys, "verify", "--q", "2", "--n", "3", "--oracle", "brute")
    assert code == 1
    assert "FAIL formula-vs-brute" in out


def test_verify_reports_a_closed_form_mismatch(capsys, monkeypatch):
    # a count off by one at k = 2 fails only the closed forms, naming k
    real = counting.count_k_normal
    monkeypatch.setattr(counting, "count_k_normal", lambda q, n, k: real(q, n, k) + (k == 2))
    code, out, _ = run(capsys, "verify", "--q", "2", "--n", "5", "--oracle", "closed-forms")
    assert code == 1
    assert out == "FAIL closed-forms (mismatch at k in [2])\n1 checks, FAILED\n"


def test_verify_reports_a_sum_rule_mismatch(capsys, monkeypatch):
    # an N_0 one too large fails both the sweep comparison and the sum rule
    real = counting.distribution

    def wrong(q, n, one=1):
        counts = real(q, n, one).counts
        return counting.Distribution(q, n, (counts[0] + 1, *counts[1:]))

    monkeypatch.setattr(counting, "distribution", wrong)
    code, out, _ = run(capsys, "verify", "--q", "2", "--n", "5", "--oracle", "all")
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("FAIL formula-vs-brute (")
    assert "PASS pattern-vs-cosets" in lines and "PASS closed-forms" in lines
    assert "FAIL sum-rule (33 vs 2^5)" in lines
    assert lines[-1] == "4 checks, FAILED"


def test_factors_text(capsys):
    code, out, _ = run(capsys, "factors", "--q", "27", "--n", "11")
    assert code == 0
    assert "n0 = 11" in out
    assert "d = 5" in out
    assert "v_1 = 1" in out
    assert "v_5 = 2" in out
    assert "omega = 3" in out


def test_factors_json(capsys):
    code, out, _ = run(capsys, "factors", "--q", "2", "--n", "12", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["p"] == 2 and payload["s"] == 2 and payload["n0"] == 3
    assert payload["v"] == {"1": 1, "2": 1}
    assert payload["omega"] == 2


def test_factors_csv(capsys):
    code, out, _ = run(capsys, "factors", "--q", "2", "--n", "5", "--format", "csv")
    assert code == 0
    lines = dict(line.split(",") for line in out.strip().splitlines()[1:])
    assert lines["d"] == "4"
    assert lines["v_1"] == "1"
    assert lines["v_4"] == "1"
    assert lines["omega"] == "2"


def test_the_spectrum_caches_keep_a_bounded_number_of_fields(capsys):
    # A call reuses only its own field, so many calls leave at most the bound behind...
    for n in range(1, 301):
        assert cli.main(["factors", "--q", "3", "--n", str(n)]) == 0
    capsys.readouterr()
    cached = (spectrum.derive_params, spectrum.degree_pattern)
    for fn in cached:
        assert fn.cache_info().currsize <= spectrum.CACHED_FIELDS < 300
        fn.cache_clear()
    # ...and within one call the cache still serves every lookup after the first.
    assert run(capsys, "verify", "--q", "4", "--n", "6")[0] == 0
    for fn in cached:
        assert fn.cache_info().misses == 1 and fn.cache_info().hits > 0


def _clear_parsers():
    """Drop the cached command table and argparse parser, so that the next
    call builds them again with the handlers the module holds now."""
    cli.build_parser.cache_clear()
    cli.build_argparser.cache_clear()


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *args, **kw: built.append(self) or init(self, *args, **kw))
    _clear_parsers()
    try:
        assert run(capsys, "count", "--q", "2", "--n", "3", "--k", "1")[:2] == (0, "3\n")
        assert run(capsys, "count", "--q=2", "--n", "3", "--k", "1")[:2] == (0, "3\n")
        assert run(capsys, "factors", "--q", "2", "--n", "3", "--bogus")[:2] == (2, "")
        assert built == []  # neither a call nor a refusal constructs an ArgumentParser
        for _ in range(2):  # only help builds the tree, and the second help reuses it
            with pytest.raises(SystemExit) as exc:
                cli.main(["count", "--help"])
            assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: ")
            # the parser tree: the top-level parser, then one per command
            assert len(built) == 1 + len(cli.build_parser())
    finally:
        _clear_parsers()


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--q", "2", "--n", "3", "--k", "1"],
        ["distribution", "--q", "3", "--n", "2", "--format", "json"],
        ["table", "--q", "2", "--n-min", "1", "--n-max", "4", "--k-max", "1"],
        ["verify", "--q", "2", "--n", "3", "--oracle", "closed-forms"],
        ["factors", "--q", "4", "--n", "6", "--format", "csv"],
        ["count", "--q", "2", "--n", "-3", "--k", "1"],
        ["count", "--q=2", "--n", "3", "--k", "1"],
        ["distribution", "--q", "3", "--n", "2", "--fo", "csv"],
    ],
)
def test_well_formed_argv_never_reaches_argparse(monkeypatch, argv):
    # the handler gets what parse_args builds, a negative integer value, an
    # `--option=value` and an option prefix among them, and argparse parses nothing
    seen = []
    monkeypatch.setattr(cli, f"cmd_{argv[0]}", lambda args: seen.append(vars(args)) or 0)
    _clear_parsers()  # rebuilt with the recording handler
    try:
        expected = vars(cli.build_argparser().parse_args(argv))
        parsed = []
        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                            lambda self, *args, **kw: parsed.append(self.prog))
        assert cli.main(argv) == 0
    finally:
        _clear_parsers()
    assert seen == [expected] and expected["command"] == argv[0]
    assert parsed == []


# Tokens for argv that the CLI may or may not read: each option string and
# an abbreviation of it, `=`, help and `--` forms, and values good and bad.
_OPTIONS = sorted({o for _, _, options in cli.build_parser().values() for o in options})
_TOKENS = st.sampled_from(
    _OPTIONS
    + [o[:-1] for o in _OPTIONS if len(o) > 3]
    + ["--q=7", "-h", "--", ""]
    + ["0", "1", "2", "3", "7", "25", "-1", "-3", "-1.5", "two"]
    + ["text", "csv", "json", "brute", "cosets", "closed-forms", "all", "xml"]
)
_RARELY = st.integers(0, 9).map(lambda i: i == 9)


@st.composite
def _argvs(draw):
    """A command and most of its options, each with a value of its type or
    choices; rarely an option left out, a value from _TOKENS, one pair more,
    or one token after the last pair."""
    name = draw(st.sampled_from(sorted(cli.build_parser())))
    options = cli.build_parser()[name][2]
    pairs = []
    for option, kwargs in options.items():
        good = st.sampled_from(kwargs.get("choices") or ["1", "2", "3", "7", "25"])
        if not draw(_RARELY):
            pairs.append((option, draw(_TOKENS if draw(_RARELY) else good)))
    if draw(_RARELY):
        pairs.append((draw(st.sampled_from(list(options)) | _TOKENS), draw(_TOKENS)))
    pairs = draw(st.permutations(pairs))
    tail = [draw(_TOKENS)] if draw(_RARELY) else []
    return [name, *(token for pair in pairs for token in pair), *tail]


def _outcome(call):
    """(what call returned, or its SystemExit code; stdout; stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call()
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def test_the_table_reads_argv_as_argparse_does(monkeypatch):
    # argparse, built from the same table, is the reference for every drawn argv
    commands = cli.build_parser()
    parser = cli.build_argparser()
    parse_args = argparse.ArgumentParser.parse_args
    asked = []  # the argv of every parse_args the CLI runs
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                        lambda self, args: asked.append(args) or parse_args(self, args))
    read, kinds = set(), set()

    @settings(max_examples=400, deadline=None, database=None)
    @given(argv=_argvs())
    @example(argv=["table", "--q", "2", "--k", "1", "--help"])  # help is drawn rarely
    @example(argv=["-h"])
    @example(argv=["factors", "--q", "2", "--n", "5", "extra"])
    @example(argv=["factors", "--q", "2", "--n", "-1_0"])  # read as an option: refused
    @example(argv=["factors", "--q", "2", "--n", "-5 "])  # a token with a space is a value
    def check(argv):
        expected, usage, _ = _outcome(lambda: vars(parse_args(parser, argv)))
        asked.clear()
        if isinstance(expected, dict):
            kinds.add("read")
            read.add(argv[0])
            assert vars(cli._read_argv(commands, argv)) == expected
        elif expected == 0:
            kinds.add("help")
            assert _outcome(lambda: cli.main(argv)) == (0, usage, "")
        elif not any(t == "-h" or len(t) > 2 and "--help".startswith(t) for t in argv):
            kinds.add("refused")
            with pytest.raises(KnormalError):
                cli._read_argv(commands, argv)
            code, out, err = _outcome(lambda: cli.main(argv))
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        # parse_args runs only to print help: as `command -h`, or `-h` with no command
        help_argv = [argv[0], "-h"] if argv[0] in commands else ["-h"]
        assert asked == ([help_argv] if expected == 0 else [])

    check()
    assert kinds == {"read", "help", "refused"}
    assert read == set(commands)  # the table read argv of every command


def test_transcript_replays_byte_for_byte(capsys, monkeypatch):
    # Recorded calls: every command in every format, each verify oracle, and
    # every exit-2 refusal.  argparse wraps help lines to COLUMNS.
    monkeypatch.setenv("COLUMNS", "80")
    transcript = json.loads((GOLDEN / "cli_transcript.json").read_text())
    replayed = []
    for call in transcript:
        try:
            code = cli.main(call["argv"])
        except SystemExit as exc:  # help, printed by argparse
            code = exc.code
        out, err = capsys.readouterr()
        replayed.append({"argv": call["argv"], "stdout": out, "stderr": err, "exit": code})
    assert [r for r, call in zip(replayed, transcript) if r != call] == []


def test_every_refusal_in_the_transcript_is_one_error_line():
    transcript = json.loads((GOLDEN / "cli_transcript.json").read_text())
    refusals = [call for call in transcript if call["exit"] == 2]
    assert len(refusals) >= 40
    for call in refusals:
        assert call["stdout"] == "", call["argv"]
        assert len(call["stderr"].splitlines()) == 1, call["argv"]
        assert call["stderr"].startswith("error: ") and call["stderr"].endswith("\n")


def test_missing_subcommand_exits_2(capsys):
    code, out, err = run(capsys)
    assert (code, out) == (2, "")
    assert err == f"error: missing command: choose from {', '.join(cli.build_parser())}\n"


def test_module_entry_point_subprocess():
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    result = subprocess.run(
        [sys.executable, "-m", "knormal.cli", "count", "--q", "25", "--n", "3", "--k", "2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert result.stdout == "72\n"


def test_module_entry_point_exits_quietly_when_its_reader_closes_the_pipe():
    # as `knormal distribution --q 2 --n 3000 | head -1`: megabytes of counts,
    # far past a pipe's buffer, so a write meets the closed pipe
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.Popen(
        [sys.executable, "-m", "knormal.cli", "distribution", "--q", "2", "--n", "3000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == f"N_0 = {counting.count_normal(2, 3000)}\n".encode()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")


def test_module_entry_point_reports_a_stray_argument_in_one_line():
    # argv=None: main reads sys.argv, as `entry()` and `python -m` call it
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p), COLUMNS="80")
    result = subprocess.run(
        [sys.executable, "-m", "knormal.cli", "count", "--q", "2", "--n", "3", "--k", "1", "--bogus"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: unknown option '--bogus'\n"


@pytest.mark.parametrize(
    "argv,loaded,not_loaded",
    [
        ([], (), ("knormal.counting", "knormal.galois", "knormal.oracle", "knormal.lanes", "json",
                  "argparse", "gettext")),
        (["factors", "--q", "27", "--n", "11", "--format", "text"], (),
         ("knormal.counting", "knormal.galois", "knormal.oracle", "argparse", "gettext")),
        (["count", "--q", "25", "--n", "3", "--k", "2", "--format", "text"],
         ("knormal.counting",), ("knormal.galois", "knormal.oracle", "json", "argparse", "gettext")),
        (["verify", "--q", "5", "--n", "2", "--oracle", "brute"],
         ("knormal.galois", "knormal.oracle", "knormal.lanes"), ("json", "argparse", "gettext")),
        (["count", "--q=25", "--n", "3", "--k", "2"], ("knormal.counting",),
         ("argparse", "gettext")),
        (["count", "-h"], ("argparse",), ("knormal.counting",)),
    ],
    ids=["parser", "factors", "count", "verify-sweep", "declined", "help"],
)
def test_each_command_compiles_only_the_layers_it_runs(argv, loaded, not_loaded):
    # a fresh interpreter compiles every module it imports, so a layer imported
    # with the CLI costs each call that never runs it; the sweep's lanes most
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    code = (
        "import sys, knormal.cli\n"
        "knormal.cli.build_parser()\n"
        + (f"try:\n    knormal.cli.main({argv!r})\nexcept SystemExit as exc:\n"
           "    assert exc.code == 0\n" if argv else "")
        + "print(*sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    modules = set(result.stdout.splitlines()[-1].split())
    assert set(loaded) <= modules
    assert not modules & set(not_loaded)
