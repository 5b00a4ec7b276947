"""Number-theoretic helpers, checked against naive reference loops."""

import math
import random
import time

import pytest

from knormal import numtheory
from knormal.errors import ArgumentOutOfRange, InputTooLarge, NotCoprime, NotPrimePower


def naive_is_prime(x):
    return x >= 2 and all(x % f for f in range(2, x))


def naive_order(a, modulus):
    value, e = a % modulus, 1
    while value != 1:
        value = value * a % modulus
        e += 1
    return e


def test_is_prime_matches_naive():
    for x in range(0, 500):
        assert numtheory.is_prime(x) == naive_is_prime(x)


def test_is_prime_larger_values():
    assert numtheory.is_prime(104729)  # 10000th prime
    assert not numtheory.is_prime(104729 * 104729)
    assert not numtheory.is_prime(2**16)


def test_factorize_roundtrip():
    for x in range(1, 2000):
        factors = numtheory.factorize(x)
        product = 1
        for p, e in factors.items():
            assert numtheory.is_prime(p)
            product *= p**e
        assert product == x


def test_factorize_rejects_nonpositive():
    with pytest.raises(ArgumentOutOfRange):
        numtheory.factorize(0)


@pytest.mark.parametrize(
    "x,expected",
    [(2, (2, 1)), (9, (3, 2)), (16, (2, 4)), (27, (3, 3)), (25, (5, 2)), (64, (2, 6))],
)
def test_prime_power_decompose(x, expected):
    assert numtheory.prime_power_decompose(x) == expected


@pytest.mark.parametrize("x", [0, 1, 6, 12, 100, 2 * 3 * 5])
def test_prime_power_decompose_rejects(x):
    with pytest.raises(NotPrimePower, match=f"^{x} is not a prime power$"):
        numtheory.prime_power_decompose(x)


def test_is_prime_and_decompose_match_trial_division():
    for x in range(1, 10**5 + 1):
        factors = numtheory.factorize(x)
        assert numtheory.is_prime(x) == (factors == {x: 1}), x
        if len(factors) == 1:
            assert numtheory.prime_power_decompose(x) == next(iter(factors.items())), x
        else:
            with pytest.raises(NotPrimePower):
                numtheory.prime_power_decompose(x)


def strong_probable_prime(x, base):
    odd, twos = x - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    y = pow(base, odd, x)
    return y in (1, x - 1) or any(pow(y, 2**i, x) == x - 1 for i in range(1, twos))


PSEUDOPRIMES = [
    561, 1105, 1729, 41041, 825265,  # Carmichael numbers
    2047, 1373653, 3215031751, 3825123056546413051,  # strong pseudoprimes
    318665857834031151167461,  # strong pseudoprime to every base 2..37
]


@pytest.mark.parametrize("x", PSEUDOPRIMES)
def test_pseudoprimes_are_composite(x):
    assert not numtheory.is_prime(x)
    with pytest.raises(NotPrimePower):
        numtheory.prime_power_decompose(x)


@pytest.mark.parametrize("psi,t", numtheory.MR_PREFIXES)
def test_each_prefix_bound_is_a_pseudoprime_to_its_prefix(psi, t):
    # psi_t passes the t bases used below it, so is_prime must use more at psi_t
    assert all(strong_probable_prime(psi, b) for b in numtheory.MR_BASES[:t])
    if psi < numtheory.MR_BOUND:
        assert not numtheory.is_prime(psi)
        with pytest.raises(NotPrimePower):
            numtheory.prime_power_decompose(psi)


def test_is_prime_matches_a_sieve_below_a_million():
    limit = 10**6
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for f in range(2, math.isqrt(limit) + 1):
        if sieve[f]:
            sieve[f * f :: f] = bytes(len(range(f * f, limit, f)))
    assert [x for x in range(limit) if numtheory.is_prime(x)] == [
        x for x in range(limit) if sieve[x]
    ]


def test_only_the_thirteenth_base_catches_the_last_pseudoprime():
    x = PSEUDOPRIMES[-1]
    assert x < numtheory.MR_BOUND
    assert all(strong_probable_prime(x, b) for b in numtheory.MR_BASES[:-1])
    assert not strong_probable_prime(x, numtheory.MR_BASES[-1])


@pytest.mark.parametrize(
    "x,expected",
    [
        ((2**61 - 1) ** 2, (2**61 - 1, 2)),
        (2**1000, (2, 1000)),
        (3**5 * 3**7, (3, 12)),
        pytest.param(43**47, (43, 47), id="43**47"),
        pytest.param(2**4099, (2, 4099), id="2**4099"),
        pytest.param(10007**13, (10007, 13), id="10007**13"),
        pytest.param(3**10**5, (3, 10**5), id="3**10**5"),
    ],
)
def test_prime_power_decompose_large_fast(x, expected):
    start = time.perf_counter()
    assert numtheory.prime_power_decompose(x) == expected
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("x", [2 * 3**40, 12**500], ids=["2*3**40", "12**500"])
def test_prime_power_decompose_refuses_large_fast(x):
    start = time.perf_counter()
    with pytest.raises(NotPrimePower, match=f"^{x} is not a prime power$"):
        numtheory.prime_power_decompose(x)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("x", [2**61 - 1, 999999999989])
def test_a_prime_below_the_bound_takes_no_root(monkeypatch, x):
    def refuse(base, j):
        raise AssertionError(f"_integer_root({base}, {j}) called")

    monkeypatch.setattr(numtheory, "_integer_root", refuse)
    assert numtheory.prime_power_decompose(x) == (x, 1)


def test_prime_power_decompose_never_factors(monkeypatch):
    def refuse(x):
        raise AssertionError(f"factorize({x}) called")

    monkeypatch.setattr(numtheory, "factorize", refuse)
    assert numtheory.prime_power_decompose(2**61 - 1) == (2**61 - 1, 1)
    assert numtheory.prime_power_decompose(7**40) == (7, 40)
    assert numtheory.is_prime(104729)
    with pytest.raises(NotPrimePower):
        numtheory.prime_power_decompose(6**9)
    with pytest.raises(NotPrimePower):
        numtheory.prime_power_decompose((2**31 - 1) * (2**13 - 1))


@pytest.mark.parametrize(
    "x,bits",
    [
        (2**89 - 1, 89),  # prime
        ((2**31 - 1) * (2**61 - 1), 92),  # composite, no factor below 42
        ((2**89 - 1) ** 3, 89),  # the root is refused, whatever m is
    ],
)
def test_candidate_at_or_above_the_bound_is_refused(x, bits):
    with pytest.raises(InputTooLarge) as exc:
        numtheory.prime_power_decompose(x)
    assert f"{bits}-bit" in str(exc.value)
    assert str(2**89 - 1) not in str(exc.value)


def test_is_prime_decides_below_the_bound_only():
    with pytest.raises(InputTooLarge):
        numtheory.is_prime(numtheory.MR_BOUND)  # least strong pseudoprime to all 13
    assert numtheory.is_prime(2**61 - 1)
    # a small factor settles any size
    assert not numtheory.is_prime(41 * (2**89 - 1))
    with pytest.raises(NotPrimePower):
        numtheory.prime_power_decompose(3 * (2**89 - 1))


def test_a_huge_non_prime_power_is_refused_by_its_bit_length():
    with pytest.raises(NotPrimePower, match="^a 15510-bit integer is not a prime power$"):
        numtheory.prime_power_decompose(6**6000)


def test_integer_root_is_the_floor():
    rng = random.Random(7)
    for _ in range(2000):
        x = rng.randrange(1, 2 ** rng.randrange(1, 400))
        j = rng.randrange(2, 45)
        r = numtheory._integer_root(x, j)
        assert r**j <= x < (r + 1) ** j
    assert numtheory._integer_root(2**1000, 1000) == 2
    assert numtheory._integer_root(2**1000 - 1, 1000) == 1


def test_divisors():
    assert numtheory.divisors(1) == [1]
    assert numtheory.divisors(12) == [1, 2, 3, 4, 6, 12]
    assert numtheory.divisors(49) == [1, 7, 49]
    for x in range(1, 400):
        assert numtheory.divisors(x) == [d for d in range(1, x + 1) if x % d == 0]


def test_moebius():
    expected = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0, 9: 0, 10: 1, 30: -1}
    for x, value in expected.items():
        assert numtheory.moebius(x) == value
    # sum over divisors of n is 1 exactly for n = 1
    for n in range(1, 200):
        total = sum(numtheory.moebius(d) for d in numtheory.divisors(n))
        assert total == (1 if n == 1 else 0)


def test_euler_phi_matches_naive():
    for x in range(1, 300):
        naive = sum(1 for a in range(1, x + 1) if math.gcd(a, x) == 1)
        assert numtheory.euler_phi(x) == naive


def test_multiplicative_order_examples():
    assert numtheory.multiplicative_order(2, 5) == 4
    assert numtheory.multiplicative_order(27, 11) == 5
    assert numtheory.multiplicative_order(7, 1) == 1


def test_multiplicative_order_matches_naive():
    for modulus in range(2, 60):
        for a in range(1, modulus):
            if math.gcd(a, modulus) != 1:
                with pytest.raises(NotCoprime):
                    numtheory.multiplicative_order(a, modulus)
            else:
                assert numtheory.multiplicative_order(a, modulus) == naive_order(a, modulus)


def random_odd_prime(rng, below):
    while True:
        x = rng.randrange(3, below)
        if numtheory.is_prime(x):
            return x


def test_multiplicative_order_is_the_least_exponent():
    rng = random.Random(11)
    moduli = []
    for _ in range(50):
        small = random_odd_prime(rng, 1000)
        moduli += [
            random_odd_prime(rng, 10**6),
            small ** rng.randrange(2, int(math.log(10**6, small)) + 1),
            2 ** rng.randrange(1, 20),
            2 * small ** rng.randrange(1, int(math.log(5 * 10**5, small)) + 1),
        ]
    for modulus in moduli:
        a = rng.randrange(1, modulus)
        while math.gcd(a, modulus) != 1:
            a = rng.randrange(1, modulus)
        e = numtheory.multiplicative_order(a, modulus)
        assert pow(a, e, modulus) == 1, (a, modulus)
        for prime in numtheory.factorize(e):
            assert pow(a, e // prime, modulus) != 1, (a, modulus, prime)


def test_multiplicative_order_takes_a_few_powers(monkeypatch):
    # 2 is a primitive root mod the prime 963901, and phi = 2^2 * 3^4 * 5^2 * 7 * 17
    # has 180 divisors but Omega + omega = 15.
    calls = []

    def counting_pow(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(numtheory, "pow", counting_pow, raising=False)
    assert numtheory.multiplicative_order(2, 963901) == 963900
    assert 0 < len(calls) <= 15


def test_multiplicative_order_rejects_bad_modulus():
    with pytest.raises(ArgumentOutOfRange):
        numtheory.multiplicative_order(2, 0)


def test_gcd_qr_minus_one_examples():
    assert numtheory.gcd_qr_minus_one(2, 4, 5) == 5
    assert numtheory.gcd_qr_minus_one(25, 1, 3) == 3
    assert numtheory.gcd_qr_minus_one(27, 1, 11) == 1
    for bad in [(1, 4, 5), (2, 0, 5), (2, 4, 0)]:
        with pytest.raises(ArgumentOutOfRange, match="need q >= 2"):
            numtheory.gcd_qr_minus_one(*bad)


def test_gcd_qr_minus_one_matches_bigint_gcd():
    for q in (2, 3, 4, 5, 25, 27):
        for r in range(1, 9):
            for n in range(1, 60):
                assert numtheory.gcd_qr_minus_one(q, r, n) == math.gcd(q**r - 1, n)


def test_gcd_qr_minus_one_divisibility_tower():
    # gcd(q**r - 1, n) divides gcd(q**(r*s) - 1, n) since q**r - 1 | q**(rs) - 1
    for q in (2, 3, 5, 16):
        for r in range(1, 6):
            for s in range(1, 5):
                for n in (4, 9, 15, 21, 50):
                    assert (
                        numtheory.gcd_qr_minus_one(q, r * s, n)
                        % numtheory.gcd_qr_minus_one(q, r, n)
                        == 0
                    )
