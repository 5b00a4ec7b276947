"""Correctness checks for benchmark ops, run outside the timed region.

Each check parses the captured CLI output and compares it with a route that
does not share the code under test: the sum rule against q**n, N_0 against
``count_normal`` (a direct product, no series), N_1..N_3 against the closed
forms, and the structure of x**n - 1 against arithmetic done here.
"""

import json
from functools import lru_cache

from knormal.counting import closed_form_n1, closed_form_n2, closed_form_n3, count_normal

import traffic

OK, FAILED, WRONG = "ok", "failed", "wrong"


class Mismatch(Exception):
    """The output parsed but disagrees with the independent route."""


@lru_cache(maxsize=256)
def low_counts(q: int, n: int) -> tuple[int, ...]:
    """N_0..N_min(3, n) from the direct product and the closed forms."""
    forms = (count_normal, closed_form_n1, closed_form_n2, closed_form_n3)
    return tuple(form(q, n) for form in forms[: min(3, n) + 1])


# int() of a decimal string obeys CPython's int-to-str digit limit (4300 by
# default), which the benchmark never raises; decimals longer than this are
# split and their pieces combined.
_PIECE_DIGITS = 4000


def parse_int(text: str) -> int:
    """int(text) for a decimal of any length, without the digit limit."""
    text = text.strip()
    if len(text) <= _PIECE_DIGITS:
        return int(text)
    if text[0] == "-":
        return -parse_int(text[1:])
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a decimal integer: {text[:20]}...")
    half = len(text) // 2
    return parse_int(text[:half]) * 10 ** (len(text) - half) + parse_int(text[half:])


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _check_low(q: int, n: int, k: int, value: int) -> None:
    _expect(value == low_counts(q, n)[k], f"N_{k} of ({q}, {n}) differs from the reference")


def _parse_distribution(op, out: str) -> list[int]:
    lines = out.splitlines()
    if op.fmt == "json":
        obj = json.loads(out)
        _expect((obj["q"], obj["n"], obj["sum_check"]) == (op.q, op.n, True), "json header")
        return [parse_int(c) for c in obj["counts"]]
    if op.fmt == "csv":
        _expect(lines[0] == "k,count", "csv header")
        rows = [line.split(",") for line in lines[1:]]
        _expect([int(k) for k, _ in rows] == list(range(len(rows))), "csv k column")
        return [parse_int(c) for _, c in rows]
    counts = []
    for k, line in enumerate(lines[:-1]):
        label, value = line.split(" = ")
        _expect(label == f"N_{k}", "text label")
        counts.append(parse_int(value))
    _expect(lines[-1].endswith(f" = {op.q}^{op.n}"), "text sum line")
    return counts


def _check_distribution(op, out: str) -> int:
    counts = _parse_distribution(op, out)
    _expect(len(counts) == op.n + 1, "number of counts")
    _expect(min(counts) >= 0, "negative count")
    _expect(sum(counts) == op.q**op.n, "counts do not sum to q**n")
    for k in range(min(3, op.n) + 1):
        _check_low(op.q, op.n, k, counts[k])
    return max(counts).bit_length()


def _check_count(op, out: str) -> int:
    lines = out.splitlines()
    if op.fmt == "json":
        obj = json.loads(out)
        _expect((obj["q"], obj["n"], obj["k"]) == (op.q, op.n, op.k), "json header")
        value = parse_int(obj["count"])
    elif op.fmt == "csv":
        _expect(lines[0] == "q,n,k,count", "csv header")
        q, n, k, value = (parse_int(x) for x in lines[1].split(","))
        _expect((q, n, k) == (op.q, op.n, op.k) and len(lines) == 2, "csv row")
    else:
        _expect(len(lines) == 1, "text is one line")
        value = parse_int(lines[0])
    _check_low(op.q, op.n, op.k, value)
    return value.bit_length()


def _check_table(op, out: str) -> int:
    if op.fmt == "json":
        obj = json.loads(out)
        _expect((obj["q"], obj["k_max"]) == (op.q, 3), "json header")
        rows = [[r["n"]] + [parse_int(c) for c in r["counts"]] for r in obj["rows"]]
    else:
        lines = out.splitlines()
        split = (lambda s: s.split(",")) if op.fmt == "csv" else str.split
        _expect(split(lines[0]) == ["n", "N_0", "N_1", "N_2", "N_3"], "table header")
        rows = [[parse_int(x) for x in split(line)] for line in lines[1:]]
    _expect([r[0] for r in rows] == list(range(op.n, op.n_max + 1)), "table n column")
    for n, *counts in rows:
        _expect(len(counts) == min(3, n) + 1, "table row width")
        for k, value in enumerate(counts):
            _check_low(op.q, n, k, value)
    return max(max(r[1:]) for r in rows).bit_length()


def _check_verify(op, out: str) -> int:
    obj = json.loads(out)
    names = [c["name"] for c in obj["checks"]]
    brute = ["formula-vs-brute"]
    if op.trials > 1:
        brute = [f"formula-vs-brute[modulus {t}]" for t in range(op.trials)]
    _expect(names == brute + ["pattern-vs-cosets", "closed-forms", "sum-rule"], "check list")
    _expect(obj["passed"] is True and all(c["passed"] is True for c in obj["checks"]), "a check failed")
    _expect((obj["q"], obj["n"]) == (op.q, op.n), "json header")
    return (op.q**op.n).bit_length()


def _check_factors(op, out: str) -> int:
    obj = json.loads(out)
    n0, s = traffic.split_n(op.p, op.n)
    _expect(
        (obj["q"], obj["p"], obj["m"], obj["n"], obj["n0"], obj["s"])
        == (op.q, op.p, op.m, op.n, n0, s),
        "extension shape",
    )
    pattern = {int(r): v for r, v in obj["v"].items()}
    _expect(sum(r * v for r, v in pattern.items()) == n0, "sum of r * v_r is not n0")
    _expect(obj["omega"] == sum(pattern.values()), "omega is not the sum of v_r")
    _expect(obj["omega"] == traffic.omega(op.q, n0), "omega differs from the orbit count")
    d = obj["d"]
    _expect(max(pattern) == d and all(d % r == 0 for r in pattern), "degrees do not divide d")
    _expect(pow(op.q, d, n0) == 1 % n0, "q**d is not 1 mod n0")
    return op.q.bit_length()


_CHECKS = {
    "distribution": _check_distribution,
    "count": _check_count,
    "table": _check_table,
    "verify": _check_verify,
    "factors": _check_factors,
}


def check(op, rc, out: str, err: str):
    """Classify one finished op: (status, detail, bits of its largest number).

    ``rc`` is the exit code, or the exception's type name when main() raised.
    A crash or a wrong exit code is FAILED; exit 0 with output that disagrees
    with the reference is WRONG; both count as failed ops.
    """
    if isinstance(rc, str):
        return FAILED, f"traceback {rc}", 0
    if op.invalid:
        if rc == 2 and not out and len(err.splitlines()) == 1 and err.startswith("error: "):
            return OK, "", 0
        return (WRONG if rc == 0 else FAILED), f"invalid request gave exit {rc}", 0
    if rc != 0:
        return FAILED, f"exit {rc}: {err.strip()[:200]}", 0
    try:
        bits = _CHECKS[op.command](op, out)
    except (Mismatch, ValueError, KeyError, IndexError, TypeError) as exc:
        return WRONG, f"{type(exc).__name__}: {exc}"[:200], 0
    return OK, "", bits
