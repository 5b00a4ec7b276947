"""End-to-end acceptance sweep.

Each test covers one acceptance criterion and prints a single pass/fail
line (visible with `pytest -s` or in failure output).  Frozen values come
from independently verified reference tables; everything else is checked
by comparing independent computation routes against each other.
"""

import functools
import pathlib
import time

from knormal import cli, counting, galois, numtheory, oracle, spectrum

GOLDEN = pathlib.Path(__file__).parent / "golden"

PRIME_POWERS_64 = [q for q in range(2, 65) if len(numtheory.factorize(q)) == 1]
ORACLE_QS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27)
ORACLE_LIMIT = 2**20


def report(criterion: str, ok: bool) -> None:
    print(f"acceptance: {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


def read_golden(name: str) -> list[list[str]]:
    rows = (GOLDEN / name).read_text().strip().splitlines()
    return [row.split(",") for row in rows[1:]]


@functools.lru_cache(maxsize=1)
def sweep_distributions():
    """(q, n) -> Distribution for all prime powers q <= 64, n <= 50."""
    return {
        (q, n): counting.distribution(q, n)
        for q in PRIME_POWERS_64
        for n in range(1, 51)
    }


def column_matches(name: str, q: int, k: int = 0) -> bool:
    for row in read_golden(name):
        n = int(row[0])
        if counting.count_k_normal(q, n, k) != int(row[1 + k]):
            return False
    return True


def test_criterion_01_base2_normal_table():
    t0 = time.perf_counter()
    ok = column_matches("table_q2.csv", 2)
    elapsed = time.perf_counter() - t0
    report(f"01 normal counts q=2 n=1..20 exact in {elapsed:.3f}s (< 1s)", ok and elapsed < 1.0)


def test_criterion_02_base3_base4_normal_tables():
    t0 = time.perf_counter()
    ok = column_matches("table_q3.csv", 3) and column_matches("table_q4.csv", 4)
    elapsed = time.perf_counter() - t0
    report(f"02 normal counts q=3,4 exact in {elapsed:.3f}s (< 1s)", ok and elapsed < 1.0)


def _table_rows_match(name: str, q: int) -> bool:
    for row in read_golden(name):
        n = int(row[0])
        dist = counting.distribution(q, n)
        for k, cell in enumerate(row[1:]):
            if cell == "":
                if k <= n:
                    return False
                continue
            if k > n or dist[k] != int(cell):
                return False
    return True


def test_criterion_03_q25_all_k_table():
    ok = _table_rows_match("table_q25.csv", 25)
    ok = ok and counting.count_k_normal(25, 7, 2) == 0
    ok = ok and counting.count_k_normal(25, 3, 3) == 1
    report("03 q=25 table for k=0..3 exact (incl. N_2(25,7)=0, N_3(25,3)=1)", ok)


def test_criterion_04_q27_q16_all_k_tables():
    ok = _table_rows_match("table_q27.csv", 27) and _table_rows_match("table_q16.csv", 16)
    report("04 q=27 and q=16 tables for k=0..3 exact", ok)


def test_criterion_05_cli_contract(capsys):
    def run(*argv):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    ok = True
    code, out, _ = run("count", "--q", "25", "--n", "3", "--k", "2")
    ok = ok and code == 0 and out.strip() == "72"
    code, out, _ = run("distribution", "--q", "2", "--n", "4", "--format", "json")
    ok = ok and code == 0 and '"sum_check": true' in out and '"8"' in out
    code, out, _ = run("table", "--q", "2", "--n-min", "1", "--n-max", "20")
    ok = ok and code == 0 and out == (GOLDEN / "table_q2.csv").read_text()
    code, out, _ = run("verify", "--q", "2", "--n", "5", "--oracle", "all")
    ok = ok and code == 0 and out.count("PASS") == 4
    code, out, _ = run("verify", "--q", "3", "--n", "4", "--oracle", "brute")
    ok = ok and code == 0 and "PASS" in out
    code, _, err = run("count", "--q", "12", "--n", "3", "--k", "0")
    ok = ok and code == 2 and "prime power" in err
    report("05 cli outputs and exit codes on documented examples", ok)


def _clear_library_caches():
    spectrum.derive_params.cache_clear()
    spectrum.degree_pattern.cache_clear()
    galois.build_tower.cache_clear()


def test_criterion_06_oracle_equivalence():
    _clear_library_caches()
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for q in ORACLE_QS:
        n = 1
        while q**n <= ORACLE_LIMIT:
            brute = oracle.brute_force_distribution(q, n, max_order=ORACLE_LIMIT)
            if brute != counting.distribution(q, n):
                ok = False
            checked += 1
            n += 1
    elapsed = time.perf_counter() - t0
    report(
        f"06 formulas equal brute force on {checked} fields up to 2^20"
        f" in {elapsed:.1f}s (< 600s)",
        ok and checked == 82 and elapsed < 600.0,
    )


def test_criterion_07_sum_rule():
    _clear_library_caches()
    t0 = time.perf_counter()
    ok = True
    count = 0
    for q in PRIME_POWERS_64:
        for n in range(1, 51):
            dist = counting.distribution(q, n)
            if dist.total() != q**n or len(dist.counts) != n + 1:
                ok = False
            count += 1
    elapsed = time.perf_counter() - t0
    report(
        f"07 distribution sums to q^n on {count} instances in {elapsed:.1f}s (< 30s)",
        ok and count == 1350 and elapsed < 30.0,
    )


def test_criterion_08_pattern_against_cosets():
    import collections

    ok = True
    for (q, n), _ in sweep_distributions().items():
        params = spectrum.derive_params(q, n)
        pattern = spectrum.degree_pattern(params)
        sizes = collections.Counter(oracle.cyclotomic_cosets(q, params.n0))
        if dict(sizes) != pattern.entries:
            ok = False
        if pattern.degree_sum() != params.n0:
            ok = False
        if spectrum.omega(params) != pattern.factor_count():
            ok = False
    report("08 degree pattern matches cyclotomic cosets on the full sweep", ok)


def test_criterion_09_closed_forms():
    branch_hits = {"ps2": 0, "ps3": 0, "ps_big": 0, "coprime": 0}
    ok = True
    for (q, n), dist in sweep_distributions().items():
        params = spectrum.derive_params(q, n)
        if params.s == 0:
            branch_hits["coprime"] += 1
        elif params.ps == 2:
            branch_hits["ps2"] += 1
        elif params.ps == 3:
            branch_hits["ps3"] += 1
        else:
            branch_hits["ps_big"] += 1
        if counting.closed_form_n1(q, n) != dist[1]:
            ok = False
        if n >= 2 and counting.closed_form_n2(q, n) != dist[2]:
            ok = False
        if n >= 3 and counting.closed_form_n3(q, n) != dist[3]:
            ok = False
    coverage = all(v >= 10 for v in branch_hits.values())
    report(
        f"09 closed forms match the general algorithm; branch coverage {branch_hits}",
        ok and coverage,
    )


def test_criterion_10_lower_bound():
    ok = True
    for (q, n), _ in sweep_distributions().items():
        for k in range(n + 1):
            if not counting.lower_bound_holds(q, n, k):
                ok = False
    report("10 N_k * q^k >= N_0 whenever N_k > 0, across the full sweep", ok)


def test_criterion_11_ratio_identity():
    ok = True
    for (q, n), dist in sweep_distributions().items():
        params = spectrum.derive_params(q, n)
        v1 = spectrum.degree_pattern(params).v(1)
        if params.coprime:
            if (q - 1) * dist[1] != v1 * dist[0]:
                ok = False
        elif q * dist[1] != v1 * dist[0]:
            ok = False
    report("11 the N_1/N_0 ratio identity holds across the full sweep", ok)


def test_criterion_12_modulus_invariance():
    ok = True
    for q, n in [(2, 6), (3, 4), (4, 3)]:
        base = counting.distribution(q, n)
        towers = [galois.build_tower(q, n, idx) for idx in (0, 1)]
        if towers[0].modulus == towers[1].modulus:
            ok = False
        for idx in (0, 1):
            if oracle.brute_force_distribution(q, n, modulus_index=idx) != base:
                ok = False
    report("12 brute-force counts invariant under the field representation", ok)
