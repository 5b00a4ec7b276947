"""Elementary number-theoretic helpers shared by the counting formulas.

Everything works on plain Python ints, so quantities like q**r - 1 are exact
at any size.  Structural inputs (n, moduli, orders) are expected to stay
below MAX_N; factoring uses trial division, which is fine in that range.
"""

import math

from .errors import InternalInconsistency, NotCoprime, NotPrimePower

# Bound on trial-division arguments (and on extension degrees downstream).
MAX_N = 10**6


def factorize(x: int) -> dict[int, int]:
    """Prime factorization {p: multiplicity} by trial division, x >= 1."""
    if x < 1:
        raise ValueError(f"cannot factor {x}")
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
    """Deterministic primality test by trial division."""
    return x >= 2 and factorize(x) == {x: 1}


def prime_power_decompose(x: int) -> tuple[int, int]:
    """Write x = p**m with p prime; raise NotPrimePower otherwise."""
    if x < 2:
        raise NotPrimePower(f"{x} is not a prime power")
    factors = factorize(x)
    if len(factors) != 1:
        raise NotPrimePower(
            f"{x} is not a prime power (it has {len(factors)} distinct prime factors)"
        )
    ((p, m),) = factors.items()
    return p, m


def divisors(x: int) -> list[int]:
    """All positive divisors of x >= 1 in ascending order."""
    divs = [1]
    for p, m in factorize(x).items():
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
    """Least e >= 1 with a**e = 1 mod modulus; order is 1 when modulus = 1."""
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    if modulus == 1:
        return 1
    a %= modulus
    if math.gcd(a, modulus) != 1:
        raise NotCoprime(f"{a} and {modulus} are not coprime")
    for e in divisors(euler_phi(modulus)):
        if pow(a, e, modulus) == 1:
            return e
    raise InternalInconsistency("no multiplicative order found")


def gcd_qr_minus_one(q: int, r: int, n: int) -> int:
    """gcd(q**r - 1, n), evaluated mod n so huge powers are never formed."""
    if r < 1 or q < 2 or n < 1:
        raise ValueError(f"need q >= 2, r >= 1, n >= 1; got {(q, r, n)}")
    return math.gcd((pow(q, r, n) - 1) % n, n)
