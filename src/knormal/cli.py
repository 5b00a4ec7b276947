"""Command-line interface: count, distribution, table, verify, factors.

Exit codes: 0 success, 1 verification mismatch, 2 invalid input or refused
computation.  Counts can exceed 2**63, so JSON carries them as decimal
strings; text and CSV print plain decimal digits.
"""

import argparse
import collections
import functools
import json
import sys

from . import counting, galois, oracle, spectrum
from .errors import ArgumentOutOfRange, KnormalError


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knormal",
        description="Exact counts of k-normal elements of F_{q^n} over F_q.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_q(p):
        p.add_argument("--q", type=int, required=True, help="field order (prime power)")

    def add_n(p):
        p.add_argument("--n", type=int, required=True, help="extension degree")

    def add_format(p, default, choices=("text", "csv", "json")):
        p.add_argument(
            "--format",
            choices=choices,
            default=default,
            help=f"output format (default {default})",
        )

    p = sub.add_parser("count", help="number of k-normal elements")
    add_q(p)
    add_n(p)
    p.add_argument("--k", type=int, required=True, help="normality defect k")
    add_format(p, "text")
    p.set_defaults(handler=cmd_count)

    p = sub.add_parser("distribution", help="counts for every k = 0..n")
    add_q(p)
    add_n(p)
    add_format(p, "text")
    p.set_defaults(handler=cmd_distribution)

    p = sub.add_parser("table", help="counts over a range of n")
    add_q(p)
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--k-max", type=int, default=0, help="largest k column (default 0)")
    add_format(p, "csv")
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser("verify", help="cross-check formulas against ground truth")
    add_q(p)
    add_n(p)
    p.add_argument(
        "--oracle",
        choices=("brute", "cosets", "closed-forms", "all"),
        default="all",
        help="which independent checks to run (default all)",
    )
    p.add_argument(
        "--max-brute",
        type=int,
        default=oracle.DEFAULT_MAX_ORDER,
        help="largest q**n the brute-force sweep will accept",
    )
    p.add_argument(
        "--modulus-trials",
        type=int,
        default=1,
        help="how many distinct field representations to sweep",
    )
    add_format(p, "text", ("text", "json"))
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("factors", help="structure of x**n - 1 over F_q")
    add_q(p)
    add_n(p)
    add_format(p, "text")
    p.set_defaults(handler=cmd_factors)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except KnormalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


def cmd_count(args) -> int:
    count = str(counting.count_k_normal(args.q, args.n, args.k))
    _emit(
        args,
        {"q": args.q, "n": args.n, "k": args.k, "count": count},
        [count],
        ("q", "n", "k", "count"),
        [(str(args.q), str(args.n), str(args.k), count)],
    )
    return 0


def cmd_distribution(args) -> int:
    dist = counting.distribution(args.q, args.n)
    counts = [str(c) for c in dist.counts]
    total = dist.total()
    power = args.q**args.n

    def text():
        for k, c in enumerate(counts):
            yield f"N_{k} = {c}"
        yield f"sum = {total} = {args.q}^{args.n}"

    _emit(
        args,
        {"q": args.q, "n": args.n, "counts": counts, "sum_check": total == power},
        text(),
        ("k", "count"),
        ((str(k), c) for k, c in enumerate(counts)),
    )
    if total != power:
        print("error: counts do not sum to q**n", file=sys.stderr)
        return 1
    return 0


def cmd_table(args) -> int:
    if not (1 <= args.n_min <= args.n_max and 0 <= args.k_max <= spectrum.MAX_DEGREE):
        raise ArgumentOutOfRange(
            f"invalid range n = {args.n_min}..{args.n_max}, k_max = {args.k_max}"
        )
    spectrum.derive_params(args.q, args.n_max)  # refuses q or n_max before any row
    ns = range(args.n_min, args.n_max + 1)
    # Count every row before printing any, so a failure prints no partial table.
    counted = [counting.low_counts(args.q, n, args.k_max) for n in ns]
    rows = [(n, [str(c) for c in row]) for n, row in zip(ns, counted)]
    # Columns stop at n_max: a column with k > n_max would be blank in every row.
    header = ["n"] + [f"N_{k}" for k in range(min(args.k_max, args.n_max) + 1)]

    def cells():  # cells with k > n are blank
        for n, counts in rows:
            yield [str(n), *counts] + [""] * (len(header) - 1 - len(counts))

    def text():
        lines = [header, *cells()]
        widths = [max(map(len, column)) for column in zip(*lines)]
        for line in lines:
            yield "  ".join(v.rjust(w) for v, w in zip(line, widths))

    _emit(
        args,
        {
            "q": args.q,
            "k_max": args.k_max,
            "rows": [{"n": n, "counts": counts} for n, counts in rows],
        },
        text(),
        header,
        cells(),
    )
    return 0


def cmd_factors(args) -> int:
    params = spectrum.derive_params(args.q, args.n)
    pattern = spectrum.degree_pattern(params)
    count = pattern.factor_count()
    shape = params._asdict()
    rows = [*shape.items(), *((f"v_{r}", v) for r, v in pattern.items()), ("omega", count)]
    _emit(
        args,
        shape | {"v": {str(r): v for r, v in pattern.items()}, "omega": count},
        (f"{key} = {value}" for key, value in rows),
        ("key", "value"),
        ((key, str(value)) for key, value in rows),
    )
    return 0


def cmd_verify(args) -> int:
    if args.modulus_trials < 1:
        raise ArgumentOutOfRange(
            f"--modulus-trials must be >= 1, got {args.modulus_trials}"
        )
    if args.modulus_trials > 1 and args.oracle in ("brute", "all"):
        # Refuse before any sweep; count moduli only for a field the guard admits.
        params = oracle.sweep_params(args.q, args.n, args.max_brute)
        degree = args.n * params.m  # the sweep's field is F_p[x]/(f), deg f = n*m
        moduli = galois.irreducible_count(params.p, degree)
        if args.modulus_trials > moduli:
            raise ArgumentOutOfRange(
                f"--modulus-trials {args.modulus_trials} asks for more moduli"
                f" than exist: fewer than {moduli + 1} monic irreducibles of degree"
                f" {degree} over F_{params.p}"
            )
    checks = _run_checks(
        args.q, args.n, args.oracle, args.max_brute, args.modulus_trials
    )
    # A verify that ran no check has shown nothing, so it does not pass.
    passed = bool(checks) and all(ok for _, ok, _ in checks)

    def text():
        for name, ok, detail in checks:
            line = f"{'PASS' if ok else 'FAIL'} {name}"
            if detail and not ok:
                line += f" ({detail})"
            yield line
        yield f"{len(checks)} checks, {'all passed' if passed else 'FAILED'}"

    _emit(
        args,
        {
            "q": args.q,
            "n": args.n,
            "checks": [
                {"name": name, "passed": ok, "detail": detail}
                for name, ok, detail in checks
            ],
            "passed": passed,
        },
        text(),
    )
    return 0 if passed else 1


def _run_checks(q, n, which, max_brute, modulus_trials):
    """Each check is (name, passed, detail); independent routes only."""
    checks = []
    params = spectrum.derive_params(q, n)  # refuses a bad q or n for every oracle
    if which in ("brute", "all"):
        # Sweep first, so that an oversized sweep is refused before any series.
        brutes = [
            oracle.brute_force_distribution(q, n, max_order=max_brute, modulus_index=trial)
            for trial in range(modulus_trials)
        ]
        dist = counting.distribution(q, n)
        for trial, brute in enumerate(brutes):
            name = "formula-vs-brute"
            if modulus_trials > 1:
                name += f"[modulus {trial}]"
            checks.append(
                (name, brute == dist, f"{brute.counts} vs {dist.counts}")
            )
    if which in ("cosets", "all"):
        pattern = spectrum.degree_pattern(params)
        sizes = collections.Counter(oracle.cyclotomic_cosets(q, params.n0))
        ok = dict(sizes) == pattern.entries and spectrum.omega(params) == sum(
            sizes.values()
        )
        checks.append(
            ("pattern-vs-cosets", ok, f"{dict(sizes)} vs {pattern.entries}")
        )
    if which in ("closed-forms", "all"):
        forms = (counting.closed_form_n1, counting.closed_form_n2, counting.closed_form_n3)
        bad = [
            k
            for k, form in enumerate(forms, 1)
            if k <= n and form(q, n) != counting.count_k_normal(q, n, k)
        ]
        checks.append(
            ("closed-forms", not bad, f"mismatch at k in {bad}" if bad else "")
        )
    if which == "all":
        checks.append(
            ("sum-rule", dist.total() == q**n, f"{dist.total()} vs {q}^{n}")
        )
    return checks


def _emit(args, payload, lines, header=(), rows=()) -> None:
    """Print one result in args.format: a JSON payload, CSV header and rows, or text lines.

    CSV cells are strings.  `lines` and `rows` are read only when their
    format is chosen, so a generator passed for them does its work only then.
    """
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
        return
    if args.format == "csv":
        lines = map(",".join, [header, *rows])
    write = sys.stdout.write  # one write per line, where print makes two
    for line in lines:
        write(line + "\n")


if __name__ == "__main__":
    entry()
