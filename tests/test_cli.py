"""CLI subcommands: outputs, formats, and exit codes."""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from knormal import cli, counting, oracle

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
    monkeypatch.setattr(counting, "distribution", lambda q, n: wrong)
    code, _, err = run(capsys, "distribution", "--q", "2", "--n", "3")
    assert code == 1
    assert err == "error: counts do not sum to q**n\n"


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
    monkeypatch.setattr(
        cli.galois, "irreducible_count", lambda *args: counted.append(args) or 1
    )
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--q", "1000000000039", "--n", "1000000",
                         "--modulus-trials", "2")
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert out == ""
    assert err == "error: q**n = 1000000000039**1000000 exceeds the sweep guard 4194304\n"
    assert counted == []


def test_verify_rejects_csv_format(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--q", "2", "--n", "3", "--format", "csv"])
    assert exc.value.code == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


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
    real = oracle.brute_force_distribution
    monkeypatch.setattr(
        oracle, "brute_force_distribution",
        lambda *args, **kw: sweeps.append(args) or real(*args, **kw),
    )
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


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def recording_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording_init)
    cli.build_parser.cache_clear()
    try:
        assert run(capsys, "count", "--q", "2", "--n", "3", "--k", "1")[:2] == (0, "3\n")
        first = len(built)
        assert run(capsys, "factors", "--q", "2", "--n", "3")[0] == 0
        assert first > 0 and len(built) == first
    finally:
        cli.build_parser.cache_clear()


def test_transcript_replays_byte_for_byte(capsys, monkeypatch):
    # Recorded calls: every command in every format, each verify oracle, and
    # every exit-2 refusal.  argparse wraps usage lines to COLUMNS.
    monkeypatch.setenv("COLUMNS", "80")
    transcript = json.loads((GOLDEN / "cli_transcript.json").read_text())
    replayed = []
    for call in transcript:
        try:
            code = cli.main(call["argv"])
        except SystemExit as exc:  # usage errors
            code = exc.code
        out, err = capsys.readouterr()
        replayed.append({"argv": call["argv"], "stdout": out, "stderr": err, "exit": code})
    assert [r for r, call in zip(replayed, transcript) if r != call] == []


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


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
