"""Elementary number-theoretic helpers shared by the counting formulas.

Everything works on plain Python ints, so quantities like q**r - 1 are exact
at any size.  `factorize` uses trial division, and only `factorize` does.
It is given n0 and phi(n0) (by `multiplicative_order`), d, and the modulus
degree N = n*m and its divisors (by `galois.irreducible_count`).  n is
bounded by `spectrum.MAX_DEGREE`, which N passes when m > 1.  A prime power q = p**m
of any size is split without factoring: a factor below 43 settles q by one
comparison, a prime q below MR_BOUND by one primality test, and any other q
is reduced to p by exact integer roots of prime degree.  p is tested by
Miller-Rabin to the first t prime bases, the fewest that decide primality
exactly at the size of p: t runs from 1 below 2047 to 13 below MR_BOUND
(about 3.3e24), by the least strong pseudoprimes psi_t to the first t
prime bases (Pomerance, Selfridge and Wagstaff 1980; Jaeschke 1993; Jiang
and Deng 2014; Sorenson and Webster, "Strong pseudoprimes to twelve prime
bases", Math. Comp. 2017).  A candidate prime at or above the bound is
refused rather than guessed.
"""

import itertools
import math

from .errors import ArgumentOutOfRange, InputTooLarge, NotCoprime, NotPrimePower

# Strong probable primes to all of these bases are prime below MR_BOUND.
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3317044064679887385961981

# (psi_t, t): psi_t is the least strong pseudoprime to the first t bases, so
# below it those t bases decide primality.  A t is left out where psi_t
# equals the psi of a larger t (psi_8 = psi_7, psi_10 = psi_11 = psi_9).
MR_PREFIXES = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
    (MR_BOUND, 13),
)


def factorize(x: int) -> dict[int, int]:
    """Prime factorization {p: multiplicity} by trial division, x >= 1."""
    if x < 1:
        raise ArgumentOutOfRange(f"cannot factor {x}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while x % p == 0:
            out[p] = out.get(p, 0) + 1
            x //= p
    f = 5
    while f * f <= x:
        while x % f == 0:
            out[f] = out.get(f, 0) + 1
            x //= f
        f += 2 if f % 6 == 5 else 4  # skip multiples of 2 and 3
    if x > 1:
        out[x] = out.get(x, 0) + 1
    return out


def is_prime(x: int) -> bool:
    """Deterministic primality test; raises InputTooLarge at or above MR_BOUND.

    Division by the bases settles every x with a factor below 42, so only
    a candidate with no small factor is refused, never guessed.  The rest
    are tested to the shortest prefix of the bases that MR_PREFIXES proves
    exact for x.
    """
    if x < 2:
        return False
    for base in MR_BASES:
        if x % base == 0:
            return x == base
    if x >= MR_BOUND:
        raise InputTooLarge(
            f"{x.bit_length()}-bit prime candidate is beyond the proven"
            " primality bound 3.3e24"
        )
    count = next(t for psi, t in MR_PREFIXES if x < psi)
    odd, twos = x - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for base in MR_BASES[:count]:
        y = pow(base, odd, x)
        if y == 1 or y == x - 1:
            continue
        for _ in range(twos - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True


def _integer_root(x: int, j: int) -> int:
    """floor(x ** (1/j)) for x >= 1 and j >= 2, exactly, by integer Newton."""
    if j == 2:
        return math.isqrt(x)
    r = 1 << -(-x.bit_length() // j)  # at least the root; Newton descends
    while True:
        s = ((j - 1) * r + x // r ** (j - 1)) // j
        if s >= r:
            return r
        r = s


def prime_power_decompose(x: int) -> tuple[int, int]:
    """Write x = p**m with p prime; raise NotPrimePower otherwise.

    A factor l < 43 (one of MR_BASES) settles x at once: x is a prime power
    only as l**m, with m read from the size of x.  Otherwise p >= 43; a prime
    x below MR_BOUND is returned after one primality test, and any other x
    is reduced by exact j-th roots for prime j <= log_43 x to a base that
    is no perfect power, the only candidate for p.  The test on x comes
    first only below the bound, so an x at or above it is refused for the
    size of its root, not its own.
    """
    if x < 2:
        raise _not_a_prime_power(x)
    for small in MR_BASES:
        if x % small == 0:
            m = round(math.log(x, small))
            if small**m != x:
                raise _not_a_prime_power(x)
            return small, m
    if x < MR_BOUND and is_prime(x):
        return x, 1
    base, m = x, 1
    # MR_BASES are the primes below 43; only x >= 43**43 reaches a larger j.
    for j in itertools.chain(MR_BASES, filter(is_prime, itertools.count(43, 2))):
        if 43**j > base:
            break
        r = _integer_root(base, j)
        while r**j == base:
            base, m, r = r, m * j, _integer_root(r, j)
    if not is_prime(base):
        raise _not_a_prime_power(x)
    return base, m


def _not_a_prime_power(x: int) -> NotPrimePower:
    """The refusal of x, named by its bit length when str(x) would fail."""
    try:
        name = str(x)
    except ValueError:  # beyond CPython's int-to-str digit limit
        name = f"a {x.bit_length()}-bit integer"
    return NotPrimePower(f"{name} is not a prime power")


def divisors(x: int) -> list[int]:
    """All positive divisors of x >= 1 in ascending order."""
    return divisors_from(factorize(x))


def divisors_from(factors: dict[int, int]) -> list[int]:
    """Ascending divisors of the number factored as {p: multiplicity}."""
    divs = [1]
    for p, m in factors.items():
        divs = [d * p**e for d in divs for e in range(m + 1)]
    return sorted(divs)


def moebius(x: int) -> int:
    """Moebius function: 0 on squares, else (-1)^(number of prime factors)."""
    factors = factorize(x)
    if any(m > 1 for m in factors.values()):
        return 0
    return -1 if len(factors) % 2 else 1


def euler_phi(x: int) -> int:
    """Euler's totient of x >= 1."""
    result = x
    for p in factorize(x):
        result -= result // p
    return result


def multiplicative_order(a: int, modulus: int) -> int:
    """Least e >= 1 with a**e = 1 mod modulus; order is 1 when modulus = 1.

    The order divides phi(modulus): starting from e = phi, each prime l of
    phi is divided out of e while a**(e/l) is still 1, which takes at most
    Omega(phi) + omega(phi) modular powers (Cohen, A Course in Computational
    Algebraic Number Theory, section 1.4).
    """
    if modulus < 1:
        raise ArgumentOutOfRange(f"modulus must be >= 1, got {modulus}")
    a %= modulus
    if math.gcd(a, modulus) != 1:
        raise NotCoprime(f"{a} and {modulus} are not coprime")
    e = euler_phi(modulus)
    for prime in factorize(e):
        while e % prime == 0 and pow(a, e // prime, modulus) == 1:
            e //= prime
    return e


def gcd_qr_minus_one(q: int, r: int, n: int) -> int:
    """gcd(q**r - 1, n), evaluated mod n so huge powers are never formed."""
    if r < 1 or q < 2 or n < 1:
        raise ArgumentOutOfRange(f"need q >= 2, r >= 1, n >= 1; got {(q, r, n)}")
    return math.gcd((pow(q, r, n) - 1) % n, n)
