"""Seeded operation lists for the four benchmark workloads.

This module never imports knormal: the program under test receives only the
argv lists built here.  A workload is an endless sequence of cycles.  Every
cycle holds the same strata (fields of a given kind and size class) in the
same proportions; the seed picks the fields inside each stratum, the output
formats and the order within the cycle.  Sizes inside a stratum follow Weyl
sequences (_Spread) and small pools are dealt like a deck (_Deck).  A run
executes whole cycles, so the cost profile it serves hardly depends on the
seed, which keeps runs with different seeds comparable.
"""

import itertools
import math
import random
from dataclasses import dataclass

WORKLOADS = ("dist", "lowk", "sweep", "factors")
FORMATS = ("text", "csv", "json")

# CPython refuses str() of an int with more than this many digits unless the
# process raises the limit; the benchmark never does.
INT_STR_DIGITS = 4300

# The cost of a field grows with omega (the series product multiplies one
# factor at a time) and, when p | n, with p**s.  The factor-rich draws, whose
# n and q follow Weyl sequences, carry the heavy work; the other draws stay
# cheap, inside these bands of omega and with p**s <= MAX_PS.  So the slowest
# tenth of a run's ops is the factor-rich ones and its middle half the cheap
# ones, whatever the seed, which keeps the latency percentiles steady.
P_DIVIDES_N_BANDS = ((1, 3),)
COPRIME_BANDS = ((1, 3), (4, 9))
MAX_PS = 16


@dataclass(frozen=True)
class Op:
    """One CLI call and what the generator knows about its field."""

    command: str
    fmt: str
    argv: tuple[str, ...]
    q: int
    n: int
    p: int = 0  # characteristic; 0 when q is not a prime power
    m: int = 0
    k: int = 0  # count only
    n_max: int = 0  # table only
    trials: int = 1  # verify only
    invalid: bool = False  # the contract requires exit 2
    kind: str = ""  # stratum name, for the traffic record


# -- number theory, independent of knormal -------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(x: int) -> bool:
    """Deterministic Miller-Rabin; exact for x < 3.3e24."""
    if x < 2:
        return False
    for b in _MR_BASES:
        if x % b == 0:
            return x == b
    d, s = x - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        y = pow(b, d, x)
        if y in (1, x - 1):
            continue
        for _ in range(s - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True


def next_prime(x: int) -> int:
    x = max(x, 2)
    while not is_prime(x):
        x += 1
    return x


def split_n(p: int, n: int) -> tuple[int, int]:
    """n = p**s * n0 with p not dividing n0; returns (n0, s)."""
    s = 0
    while n % p == 0:
        n //= p
        s += 1
    return n, s


def factorize(x: int) -> dict[int, int]:
    """{prime: exponent} by trial division; x stays below about 10**7 here."""
    out: dict[int, int] = {}
    f = 2
    while f * f <= x:
        while x % f == 0:
            out[f] = out.get(f, 0) + 1
            x //= f
        f += 1
    if x > 1:
        out[x] = out.get(x, 0) + 1
    return out


def omega(q: int, n0: int) -> int:
    """Number of irreducible factors of x**n0 - 1 over F_q, gcd(q, n0) = 1.

    Sum over d | n0 of phi(d) / ord_d(q): the roots of order d fall into
    Frobenius orbits of size ord_d(q), one irreducible factor per orbit.
    """
    primes = factorize(n0)
    # Every prime dividing lambda(d), for any d | n0.
    lam_primes = set(primes)
    for r in primes:
        lam_primes.update(factorize(r - 1))
    total = 0
    divisors = [(1, 1, 1)]  # (d, phi(d), lambda(d))
    for r, e in primes.items():
        grown = []
        for d, phi, lam in divisors:
            for k in range(1, e + 1):
                phi_rk = (r - 1) * r ** (k - 1)
                lam_rk = phi_rk // 2 if r == 2 and k >= 3 else phi_rk
                grown.append((d * r**k, phi * phi_rk, math.lcm(lam, lam_rk)))
        divisors += grown
    for d, phi, lam in divisors:
        order = lam
        for r in lam_primes:
            while order % r == 0 and pow(q, order // r, d) == 1 % d:
                order //= r
        total += phi // order
    return total


def log_uniform(rng: random.Random, lo: float, hi: float) -> int:
    return int(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def prime_power(rng: random.Random, lo: float, hi: float, max_m: int = 4):
    """(q, p, m): q = p**m roughly log-uniform in [lo, hi]."""
    while True:
        target = log_uniform(rng, lo, hi)
        m = rng.choice([1, 1, 1, 1, 2, 3, max_m])
        p = next_prime(max(2, round(target ** (1.0 / m))))
        q = p**m
        if lo <= q <= hi:
            return q, p, m


def over_str_limit(q: int, n: int) -> bool:
    """True when every non-zero N_k with k <= 3 has more digits than str() allows.

    N_k is 0 when x**n - 1 has no factor of degree k, and 0 prints fine.
    """
    return (n - 3) * math.log10(q) > INT_STR_DIGITS + 10


def near_str_limit(q: int, n: int) -> bool:
    """True when some count of F_{q^n} may have too many digits for str()."""
    return n * math.log10(q) > INT_STR_DIGITS - 10


# -- field draws for the counting workloads ------------------------------


@dataclass(frozen=True)
class Field:
    q: int
    p: int
    m: int
    n: int
    omega: int
    kind: str


def _field(q, p, m, n, kind) -> Field:
    n0, _ = split_n(p, n)
    return Field(q, p, m, n, omega(q, n0), kind)


def _factor_rich(n, sign, t) -> Field:
    """The first prime q = n * t' + sign with t' >= t: q = sign mod n, so
    omega is about n (sign 1) or n/2."""
    while not is_prime(n * t + sign):
        t += 1
    return _field(n * t + sign, n * t + sign, 1, n, "factor_rich")


def _generic(rng, n_target, n_lo, n_hi, char_divides_n: bool, omega_band) -> Field:
    """Log-uniform prime power q and n near n_target; p | n or not, as asked.

    Some n admit no q with omega in the band (omega is at least the number
    of divisors of n0), so n moves on by one after every 50 rejected q."""
    for attempt in itertools.count():
        n = n_lo + (n_target - n_lo + attempt // 50) % (n_hi - n_lo + 1)
        if char_divides_n:
            q, p, m = prime_power(rng, 2, 10**3)
            if p > n_hi - n_lo:
                continue
            n = max(n_lo + (-n_lo) % p, n - n % p)
            if p ** split_n(p, n)[1] > MAX_PS:
                continue
        else:
            q, p, m = prime_power(rng, 2, 10**6)
            if n % p == 0:
                continue
        if (q - 1) % n == 0 or (q * q - 1) % n == 0 or near_str_limit(q, n):
            continue
        f = _field(q, p, m, n, "p_divides_n" if char_divides_n else "coprime")
        lo, hi = omega_band
        if lo <= f.omega <= hi:
            return f


def _over_limit(rng, n) -> Field:
    """Fields whose low counts exceed CPython's int-to-str digit limit."""
    floor = 10 ** ((INT_STR_DIGITS + 10) / (n - 3))
    for attempt in itertools.count(1):
        q, p, m = prime_power(rng, floor, floor * 10, max_m=2)
        if not over_str_limit(q, n) or n % p == 0 or (q - 1) % n == 0 or (q * q - 1) % n == 0:
            continue
        f = _field(q, p, m, n, "over_str_limit")
        if f.omega <= COPRIME_BANDS[-1][1]:
            return f
        if attempt % 50 == 0:
            n += 1


def _slices(lo: int, hi: int, count: int):
    """count consecutive sub-ranges of lo..hi."""
    edges = [lo + (hi - lo) * i // count for i in range(count + 1)]
    return [(edges[i] + (i > 0), edges[i + 1]) for i in range(count)]


_GOLDEN = (math.sqrt(5) - 1) / 2
_SILVER = math.sqrt(2) - 1


class _Spread:
    """Places each slot's draws along Weyl sequences.

    The c-th draw of a slot sits at frac(u + c * step), with the offset u
    from the seed.  Over a run's cycles those points cover [0, 1) evenly for
    any u, so the sizes served, and with them the cost of a run and its
    latency percentiles, hardly depend on the seed.  Two coordinates of one
    slot use the steps golden and silver, which keeps their pairs spread
    over the square instead of on a line.
    """

    def __init__(self, rng):
        self.rng = rng
        self.offsets: dict = {}
        self.draws: dict = {}

    def at(self, slot, step: float = _GOLDEN) -> float:
        key = (slot, step)
        if key not in self.offsets:
            self.offsets[key] = self.rng.random()
            self.draws[key] = 0
        position = (self.offsets[key] + self.draws[key] * step) % 1.0
        self.draws[key] += 1
        return position

    def n(self, slot, lo: int, hi: int) -> int:
        return lo + int(self.at(slot) * (hi - lo + 1))

    def log_uniform(self, slot, lo: float, hi: float, step: float = _GOLDEN) -> int:
        return int(math.exp(math.log(lo) + self.at(slot, step) * math.log(hi / lo)))


def _counting_fields(rng, spread, rich: int, over: int, pdiv: int, coprime: int):
    """One cycle's fields.  Every stratum has its own slots, and the n of a
    slot stays in its slice of the stratum's range."""
    fields = []
    for i, (lo, hi) in enumerate(_slices(100, 300, rich)):
        n = spread.n(("rich", i), lo, hi)
        t = spread.log_uniform(("rich", i), 2, 10**3, _SILVER)
        fields.append(_factor_rich(n, (1, -1)[i % 2], t))
    for i, (lo, hi) in enumerate(_slices(500, 1000, over)):
        fields.append(_over_limit(rng, spread.n(("over", i), lo, hi)))
    for count, char_divides_n, bands in (
        (pdiv, True, P_DIVIDES_N_BANDS),
        (coprime, False, COPRIME_BANDS),
    ):
        for i, (lo, hi) in enumerate(_slices(300, 1000, count)):
            n = spread.n((char_divides_n, i), lo, hi)
            fields.append(_generic(rng, n, lo, hi, char_divides_n, bands[i % len(bands)]))
    return fields


# -- workloads -----------------------------------------------------------


class _Deck:
    """Deals a pool in seeded shuffled passes: over many draws every item
    comes up about equally often, whatever the seed."""

    def __init__(self, rng, items):
        self.rng = rng
        self.items = list(items)
        self.hand = []

    def deal(self):
        if not self.hand:
            self.hand = list(self.items)
            self.rng.shuffle(self.hand)
        return self.hand.pop()


def _dist_cycles(rng):
    spread = _Spread(rng)
    formats = _Deck(rng, FORMATS)
    while True:
        ops = []
        for f in _counting_fields(rng, spread, rich=5, over=2, pdiv=6, coprime=7):
            fmt = formats.deal()
            argv = ("distribution", "--q", str(f.q), "--n", str(f.n), "--format", fmt)
            ops.append(Op("distribution", fmt, argv, f.q, f.n, f.p, f.m, kind=f.kind))
        rng.shuffle(ops)
        yield ops


def _count_op(q, n, k, fmt, p=0, m=0, invalid=False, kind=""):
    argv = ("count", "--q", str(q), "--n", str(n), "--k", str(k), "--format", fmt)
    return Op("count", fmt, argv, q, n, p, m, k=k, invalid=invalid, kind=kind)


def _invalid_op(rng, which, fmt):
    if which == 0:  # a product of two distinct primes is not a prime power
        a = next_prime(rng.randint(2, 1000))
        b = next_prime(a + rng.randint(1, 1000))
        return _count_op(a * b, rng.randint(1, 50), 0, fmt, invalid=True, kind="invalid_q")
    q, p, m = prime_power(rng, 2, 10**3)
    if which == 1:  # k > n
        n = rng.randint(1, 50)
        return _count_op(q, n, n + rng.randint(1, 5), fmt, p, m, True, "invalid_k")
    return _count_op(q, -rng.randint(0, 5), 0, fmt, p, m, True, "invalid_n")


def _table_op(rng, spread, slot, fmt):
    """A short table whose rows all have omega <= 9 (n_min moves on by one
    after every 50 rejected q, as omega >= the number of divisors of n0)."""
    n_target = spread.n(("table", slot), 50, 200)
    for attempt in itertools.count():
        n_min = n_target + attempt // 50
        q, p, m = prime_power(rng, 2, 10**4)
        n_max = n_min + rng.randint(1, 3)
        omegas = [omega(q, split_n(p, n)[0]) for n in range(n_min, n_max + 1)]
        if max(omegas) <= COPRIME_BANDS[-1][1]:
            break
    argv = (
        "table", "--q", str(q), "--n-min", str(n_min), "--n-max", str(n_max),
        "--k-max", "3", "--format", fmt,
    )
    return Op("table", fmt, argv, q, n_min, p, m, n_max=n_max, kind="table")


def _lowk_cycles(rng):
    invalid_kinds = _Deck(rng, range(3))
    formats = _Deck(rng, FORMATS)
    spread = _Spread(rng)
    while True:
        groups = []
        for f in _counting_fields(rng, spread, rich=5, over=1, pdiv=2, coprime=2):
            ks = [0, 1, 2, 3]
            rng.shuffle(ks)
            groups.append(
                [_count_op(f.q, f.n, k, formats.deal(), f.p, f.m, kind=f.kind) for k in ks]
            )
        groups += [[_table_op(rng, spread, i, formats.deal())] for i in range(2)]
        groups.append([_invalid_op(rng, invalid_kinds.deal(), formats.deal())])
        rng.shuffle(groups)
        yield [op for group in groups for op in group]


# Acceptance-suite characteristics, plus larger q at n = 2 and n = 3.
_SWEEP_QS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27)
_SWEEP_LO, _SWEEP_HI = 1 << 12, 1 << 18


def _prime_power_split(q):
    """(p, m) with q = p**m, or None when q is not a prime power."""
    factors = factorize(q)
    return next(iter(factors.items())) if len(factors) == 1 else None


def _sweep_fields():
    """Fields by octave of q**n: (acceptance-set fields, larger-q fields)."""
    octaves = [([], []) for _ in range(6)]
    for q in _SWEEP_QS:
        for n in range(2, 19):
            if _SWEEP_LO <= q**n <= _SWEEP_HI:
                octaves[min(5, (q**n).bit_length() - 13)][0].append((q, n))
    for n, (lo, hi) in ((2, (64, 512)), (3, (16, 64))):
        for q in range(lo, hi + 1):
            if q not in _SWEEP_QS and _prime_power_split(q):
                octaves[min(5, (q**n).bit_length() - 13)][1].append((q, n))
    return octaves


_SWEEP_OCTAVES = _sweep_fields()
# Ops per cycle in each octave of q**n, from 2**12 up (the last one holds
# 2**17..2**18): halving the count as the size doubles gives every octave
# about the same share of sweep time.
_SWEEP_COUNTS = (16, 8, 4, 2, 1, 1)


# Larger-q fields joining each octave's acceptance-set fields: every k-th of
# them, k chosen so that five cycles deal each field of an octave equally often.
_SWEEP_LARGER_STEP = (1, 2, 3, 15, 0, 0)


def _sweep_cycles(rng):
    decks = []
    for (accepted, larger), step in zip(_SWEEP_OCTAVES, _SWEEP_LARGER_STEP):
        decks.append(_Deck(rng, accepted + (larger[::step] if step else [])))
    while True:
        ops = []
        for octave, count in enumerate(_SWEEP_COUNTS):
            for i in range(count):
                q, n = decks[octave].deal()
                p, m = _prime_power_split(q)
                # One op in each of the three smallest octaves sweeps two moduli.
                trials = 2 if octave < 3 and i == 0 else 1
                argv = ("verify", "--q", str(q), "--n", str(n), "--oracle", "all", "--format", "json")
                if trials > 1:
                    argv += ("--modulus-trials", str(trials))
                ops.append(
                    Op("verify", "json", argv, q, n, p, m, trials=trials, kind=f"octave{octave}")
                )
        rng.shuffle(ops)
        yield ops


# Exponent m of q = p**m in each factors slot: every fourth slot holds a
# power of a large prime p; the others are log-uniform q, mostly prime.
_FACTORS_M = (2, 1, 1, 1, 3, 1, 1, 2, 2, 1, 1, 3, 3, 1, 1, 4, 2, 1, 1, 2)


def _factors_cycles(rng):
    spread = _Spread(rng)
    while True:
        ops = []
        for i, m in enumerate(_FACTORS_M):
            if i % 4 == 0:
                p = next_prime(spread.log_uniform(i, 10**3, 10 ** (12 / m)))
                kind = "large_p_power"
            else:
                p = next_prime(round(spread.log_uniform(i, 2, 10**12) ** (1 / m)))
                kind = "log_uniform_q"
            q = p**m
            n = spread.log_uniform(i, 2, 10**6, _SILVER)
            argv = ("factors", "--q", str(q), "--n", str(n), "--format", "json")
            ops.append(Op("factors", "json", argv, q, n, p, m, kind=kind))
        rng.shuffle(ops)
        yield ops


_CYCLES = {
    "dist": _dist_cycles,
    "lowk": _lowk_cycles,
    "sweep": _sweep_cycles,
    "factors": _factors_cycles,
}


def cycles(workload: str, seed: int):
    """Endless, reproducible sequence of op cycles for one workload and seed."""
    return _CYCLES[workload](random.Random(f"knormal-perfbench/{workload}/{seed}"))
