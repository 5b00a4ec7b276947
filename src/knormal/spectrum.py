"""Structure of x**n - 1 over F_q, computed arithmetically.

The two central objects are the decomposition n = p**s * n0 with
gcd(n0, p) = 1 (so x**n - 1 = (x**n0 - 1)**(p**s)) and the degree pattern:
how many distinct monic irreducible factors of each degree x**n0 - 1 has.
Both come from modular arithmetic alone; no polynomial is ever factored.
"""

from collections import namedtuple
from functools import lru_cache

from . import numtheory
from .errors import ArgumentOutOfRange, InputTooLarge, InternalInconsistency

# The largest extension degree n served; numtheory factors n0, phi(n0), d and n*m.
MAX_DEGREE = 10**6

# Fields that derive_params, degree_pattern and galois.build_tower keep.  One
# `verify` looks up its (q, n) params 10 times but each trial's tower once, so
# the tower cache pays off only across calls in one process; a process serving
# many calls holds no more than these.
CACHED_FIELDS = 128


class ExtensionParams(namedtuple("ExtensionParams", "q p m n n0 s d")):
    """Shape of the extension F_{q^n}/F_q.

    q = p**m, n = p**s * n0 with gcd(n0, p) = 1, and d is the multiplicative
    order of q mod n0, which is the largest factor degree in x**n0 - 1.
    """

    __slots__ = ()

    @property
    def ps(self) -> int:
        """p**s, the multiplicity of every irreducible factor of x**n - 1."""
        return self.p**self.s

    @property
    def coprime(self) -> bool:
        """True when gcd(n, q) = 1, i.e. x**n - 1 is squarefree."""
        return self.s == 0


class DegreePattern(namedtuple("DegreePattern", "entries")):
    """Map degree r -> count of distinct monic irreducible factors of x**n0 - 1.

    Zero counts are dropped at construction, so equality ignores them.
    """

    __slots__ = ()

    def __new__(cls, entries: dict[int, int]):
        return super().__new__(cls, {r: v for r, v in entries.items() if v})

    def v(self, r: int) -> int:
        """Number of distinct irreducible factors of degree r (0 if none)."""
        return self.entries.get(r, 0)

    def items(self) -> list[tuple[int, int]]:
        """(degree, count) pairs in ascending degree order."""
        return sorted(self.entries.items())

    def factor_count(self) -> int:
        """Total number of distinct irreducible factors."""
        return sum(self.entries.values())

    def degree_sum(self) -> int:
        """Sum of degree * count over all factors; always equals n0."""
        return sum(r * v for r, v in self.entries.items())


@lru_cache(maxsize=CACHED_FIELDS)
def derive_params(q: int, n: int) -> ExtensionParams:
    """Validate (q, n) and decompose the extension shape."""
    p, m = numtheory.prime_power_decompose(q)
    if n < 1:
        raise ArgumentOutOfRange(f"n must be >= 1, got {n}")
    if n > MAX_DEGREE:
        raise InputTooLarge(f"n = {n} exceeds the supported bound {MAX_DEGREE}")
    n0, s = n, 0
    while n0 % p == 0:
        n0 //= p
        s += 1
    d = numtheory.multiplicative_order(q, n0)
    return ExtensionParams(q=q, p=p, m=m, n=n, n0=n0, s=s, d=d)


@lru_cache(maxsize=CACHED_FIELDS)
def degree_pattern(params: ExtensionParams) -> DegreePattern:
    """Factor-degree multiplicities of x**n0 - 1 via Moebius inversion.

    With t_u = gcd(q**u - 1, n), the number of degree-r factors is
    (1/r) * sum over u | r of moebius(r/u) * t_u; degrees r run over the
    divisors of d.  The inversion is taken one prime l of d at a time: going
    down the divisors, t_r -= t_(r/l) wherever l | r, so after every prime
    t_r = r * v_r, in omega(d) * tau(d) subtractions.
    """
    factors = numtheory.factorize(params.d)
    degrees = numtheory.divisors_from(factors)
    t = {u: numtheory.gcd_qr_minus_one(params.q, u, params.n) for u in degrees}
    for prime in factors:
        for r in reversed(degrees):
            if r % prime == 0:
                t[r] -= t[r // prime]
    entries: dict[int, int] = {}
    for r in degrees:
        count, rem = divmod(t[r], r)
        if rem or count < 0:
            raise InternalInconsistency(f"degree {r} multiplicity {t[r]}/{r} is not integral")
        entries[r] = count
    pattern = DegreePattern(entries)
    if pattern.degree_sum() != params.n0:
        raise InternalInconsistency(
            f"pattern degree sum {pattern.degree_sum()} != n0 = {params.n0}"
        )
    return pattern


def omega(params: ExtensionParams) -> int:
    """Number of distinct irreducible factors of x**n - 1 over F_q.

    Computed directly as (1/d) * sum over r | d of t_r * phi(d/r), with
    t_r = gcd(q**r - 1, n); d is factored once, and each phi(d/r) is read
    from that factorization.  For any values t_r this sum equals the sum of
    degree_pattern's v_r = (1/r) * sum over u | r of moebius(r/u) * t_u,
    and both read the same t_r and the same factors of d.  So omega
    re-checks only the arithmetic of the pattern's Moebius inversion: a
    wrong t_r moves both alike, and only `oracle.cyclotomic_cosets` sees it.
    """
    factors = numtheory.factorize(params.d)
    total = 0
    for r in numtheory.divisors_from(factors):
        phi = params.d // r
        for prime in factors:
            if phi % prime == 0:
                phi -= phi // prime
        total += numtheory.gcd_qr_minus_one(params.q, r, params.n) * phi
    count, rem = divmod(total, params.d)
    if rem:
        raise InternalInconsistency(f"factor count {total}/{params.d} is not integral")
    return count
