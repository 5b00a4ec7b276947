"""Command-line interface: count, distribution, table, verify, factors.

Exit codes: 0 success, 1 verification mismatch or stdout closed by its
reader, 2 invalid input or refused computation.  Counts can exceed 2**63,
so JSON carries them as decimal strings; text and CSV print plain decimal
digits.  `distribution` makes its counts as exact `decimal.Decimal`s, which
print in linear time at any size, and writes each run of zeros among them in
pieces of up to 256, so no second copy of its output is ever held; `count`
and `table` print ints by str() and refuse (exit 2) past 4300 digits.

One table, `build_parser()`, declares the commands and their options, and
every argv is read from it; argparse is built from it only to print help.
Importing this module and building the table compiles only this module,
`spectrum`, `numtheory` and `errors`; each handler imports the layers it runs.
"""

import collections
import functools
import itertools
import os
import sys
import types

from . import spectrum
from .errors import ArgumentOutOfRange, InputTooLarge, KnormalError


@functools.cache
def build_parser() -> dict:
    """The command table: command name -> (handler, help line, options),
    options mapping each option string to its `add_argument` keywords.

    Every option stores the one value given for it, as _read_argv assumes.
    """
    q = dict(type=int, required=True, help="field order (prime power)")
    n = dict(type=int, required=True, help="extension degree")

    def fmt(default, choices=("text", "csv", "json")):
        return dict(choices=choices, default=default, help=f"output format (default {default})")

    return {
        "count": (cmd_count, "number of k-normal elements", {
            "--q": q, "--n": n,
            "--k": dict(type=int, required=True, help="normality defect k"),
            "--format": fmt("text"),
        }),
        "distribution": (cmd_distribution, "counts for every k = 0..n", {
            "--q": q, "--n": n, "--format": fmt("text"),
        }),
        "table": (cmd_table, "counts over a range of n", {
            "--q": q,
            "--n-min": dict(type=int, required=True),
            "--n-max": dict(type=int, required=True),
            "--k-max": dict(type=int, default=0, help="largest k column (default 0)"),
            "--format": fmt("csv"),
        }),
        "verify": (cmd_verify, "cross-check formulas against ground truth", {
            "--q": q, "--n": n,
            "--oracle": dict(
                choices=("brute", "cosets", "closed-forms", "all"),
                default="all",
                help="which independent checks to run (default all)",
            ),
            "--max-brute": dict(  # None: _run_checks applies oracle.DEFAULT_MAX_ORDER
                type=int,
                help="largest q**n the brute-force sweep will accept",
            ),
            "--modulus-trials": dict(
                type=int,
                default=1,
                help="how many distinct field representations to sweep",
            ),
            "--format": fmt("text", ("text", "json")),
        }),
        "factors": (cmd_factors, "structure of x**n - 1 over F_q", {
            "--q": q, "--n": n, "--format": fmt("text"),
        }),
    }


@functools.cache
def build_argparser():
    """The argparse parser of the command table, built only to print help:
    `parse_args([command, "-h"])` or `parse_args(["-h"])`."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="knormal",
        description="Exact counts of k-normal elements of F_{q^n} over F_q.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help, options) in build_parser().items():
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _read_argv(build_parser(), argv)
        return args.handler(args)
    except KnormalError as exc:
        if any(t == "-h" or len(t) > 2 and "--help".startswith(t) for t in argv):
            build_argparser().parse_args([argv[0], "-h"] if argv[0] in build_parser() else ["-h"])
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _read_argv(commands, argv):
    """The namespace `build_argparser().parse_args(argv)` builds, or a KnormalError
    where it refuses argv: `--opt value` or `--opt=value`, `--opt` or a unique prefix
    of it, the last of a repeated option kept.  No value is a help token (`-h`)."""
    if not argv or argv[0] not in commands:
        what = f"unknown command {argv[0]!r}" if argv else "missing command"
        raise KnormalError(f"{what}: choose from {', '.join(commands)}")
    handler, _, options = commands[argv[0]]
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        option, value = (token, None) if token in options else _option(options, token)
        if option is None:
            raise KnormalError(f"unexpected argument {token!r}")
        if value is None:  # the value is the next token
            value = next(tokens, None)
            if value is None or value[:1] == "-" and _option(options, value)[0]:
                raise KnormalError(f"{option} expects a value")
        kwargs = options[option]
        try:
            values[option] = value = kwargs.get("type", str)(value)
        except ValueError:
            raise KnormalError(f"{option}: {value!r} is not an {kwargs['type'].__name__}")
        if value not in kwargs.get("choices", (value,)):
            raise KnormalError(f"{option}: {value!r} is not one of {', '.join(kwargs['choices'])}")
    args = types.SimpleNamespace(command=argv[0], handler=handler)
    for option, kwargs in options.items():
        if kwargs.get("required") and option not in values:
            raise KnormalError(f"{argv[0]} requires {option}")
        # argparse's dest: the option string without its dashes, "-" as "_"
        setattr(args, option[2:].replace("-", "_"), values.get(option, kwargs.get("default")))
    return args


def _option(options, token):
    """(option, the value after its "=" or None) for a token that names an option,
    (None, token) for a value, as argparse tells them apart; else a KnormalError."""
    if len(token) < 3 or token[0] != "-" or token[1:].removesuffix("\n").isdecimal():
        return None, token  # "-", "--" or a negative integer (argparse's "^-\\d+$")
    name, eq, value = token.partition("=")
    matches = [name] if name in options else [o for o in options if o.startswith(name)]
    if len(matches) == 1:
        return matches[0], value if eq else None
    if matches:
        raise KnormalError(f"ambiguous option {name!r} could match {', '.join(matches)}")
    if " " in token:  # argparse reads such a token as a value
        return None, token
    raise KnormalError(f"unknown option {token!r}")


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
    except BrokenPipeError:
        # The reader closed stdout (`knormal ... | head`): exit 1 with no
        # traceback, stdout on devnull so the flush at exit writes nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


def cmd_count(args) -> int:
    from . import counting

    count = _digits(args.q, args.n, args.k, counting.count_k_normal(args.q, args.n, args.k))
    _emit(
        args,
        {"q": args.q, "n": args.n, "k": args.k, "count": count},
        [count],
        ("q", "n", "k", "count"),
        [(str(args.q), str(args.n), str(args.k), count)],
    )
    return 0


def cmd_distribution(args) -> int:
    import decimal  # loaded by the first distribution, so other commands never pay for it

    from . import counting

    # Counts made in decimal print in linear time and past str(int)'s digit
    # limit.  Any rounding raises, so no printed digit can be wrong.
    dist = counting.distribution(args.q, args.n, decimal.Decimal(1))
    total = dist.total()
    with counting._exact(total):
        power = decimal.Decimal(args.q) ** args.n
    head, one, zero, tail = {
        "text": ("", "N_%d = %s\n", "N_%d = 0\n", "sum = %(total)s = %(q)d^%(n)d\n"),
        "csv": ("k,count\n", "%d,%s\n", "%d,0\n", ""),
        # the bytes of json.dumps(payload, sort_keys=True); %.0s prints k as nothing
        "json": ('{"counts": [', '%.0s, "%s"', ', "0"',
                 '], "n": %(n)d, "q": %(q)d, "sum_check": %(ok)s}\n'),
    }[args.format]
    pieces = _pieces(dist.counts, one, zero)
    write = sys.stdout.write
    write(head + next(pieces).removeprefix(", "))  # JSON's first item follows no ", "
    for piece in pieces:
        write(piece)
    write(tail % dict(vars(args), total=total, ok=str(total == power).lower()))
    if total != power:
        print("error: counts do not sum to q**n", file=sys.stderr)
        return 1
    return 0


def _pieces(counts, one, zero):
    """Each nonzero c = counts[k] as `one % (k, c)`, and each run of zeros as
    `zero * L`, given its ks if zero names one, in pieces of L <= 256."""
    a, n = 0, len(counts)
    for k in itertools.chain(itertools.compress(range(n), counts), [n]):
        for a in range(a, k, 256):
            b = min(a + 256, k)
            yield zero * (b - a) % tuple(range(a, b)) if "%" in zero else zero * (b - a)
        if k < n:
            yield one % (k, counts[k])
        a = k + 1


def cmd_table(args) -> int:
    from . import counting

    if not (1 <= args.n_min <= args.n_max and 0 <= args.k_max <= spectrum.MAX_DEGREE):
        raise ArgumentOutOfRange(
            f"invalid range n = {args.n_min}..{args.n_max}, k_max = {args.k_max}"
        )
    spectrum.derive_params(args.q, args.n_max)  # refuses q or n_max before any row
    ns = range(args.n_min, args.n_max + 1)
    # Count every row before printing any, so a failure prints no partial table.
    counted = [counting.low_counts(args.q, n, args.k_max) for n in ns]
    rows = [
        (n, [_digits(args.q, n, k, c) for k, c in enumerate(row)]) for n, row in zip(ns, counted)
    ]
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
    checks = _run_checks(args.q, args.n, args.oracle, args.max_brute, args.modulus_trials)
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
    from . import counting, oracle

    checks = []
    params = spectrum.derive_params(q, n)  # refuses a bad q or n for every oracle
    if which in ("brute", "all"):
        max_brute = oracle.DEFAULT_MAX_ORDER if max_brute is None else max_brute
        try:  # last trial first: the guard, then galois's index refusal, before any sweep
            brutes = [
                oracle.brute_force_distribution(q, n, max_order=max_brute, modulus_index=trial)
                for trial in reversed(range(modulus_trials))
            ][::-1]
        except ArgumentOutOfRange as refusal:
            raise ArgumentOutOfRange(f"--modulus-trials {modulus_trials}: {refusal}") from None
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
        total = dist.total()
        checks.append(("sum-rule", total == q**n, f"{total} vs {q}^{n}"))
    return checks


def _digits(q, n, k, count) -> str:
    """str(count), or an InputTooLarge for a count past the digits str() prints."""
    try:
        return str(count)
    except ValueError:  # CPython's int-to-str digit limit
        raise InputTooLarge(
            f"the count for q = {q}, n = {n}, k = {k} has {count.bit_length()} bits,"
            f" more than the {sys.get_int_max_str_digits()} decimal digits count and table print"
        ) from None


def _emit(args, payload, lines, header=(), rows=()) -> None:
    """Print one result in args.format: a JSON payload, CSV header and rows, or text lines.

    JSON is one `json.dumps(payload, sort_keys=True)` write, text and CSV a
    line at a time.  CSV cells are strings.  `lines` and `rows` are read only
    in their format, so a generator passed for them works only then.
    """
    write = sys.stdout.write  # one write per line, where print makes two
    if args.format == "json":
        import json  # loaded by the first JSON output, so text and CSV never pay for it

        write(json.dumps(payload, sort_keys=True) + "\n")
        return
    if args.format == "csv":
        write(",".join(header) + "\n")
        lines = map(",".join, rows)
    for line in lines:
        write(line + "\n")


if __name__ == "__main__":
    entry()
