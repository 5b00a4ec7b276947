"""Field towers and polynomial arithmetic, checked against brute references."""

import itertools
import time

import pytest

from knormal import galois, numtheory, oracle
from knormal.errors import ArgumentOutOfRange


def tuple_field(q):
    """F_q = F_p[u]/(g) as the tuple ExtensionField, g the first irreducible."""
    p, m = numtheory.prime_power_decompose(q)
    prime = galois.PrimeField(p)
    return galois.ExtensionField(prime, galois.find_irreducible(prime, m))


def all_monic(field, degree):
    """Every monic polynomial of exactly the given degree."""
    for lows in itertools.product(range(field.order), repeat=degree):
        coeffs = tuple(field.element(i) for i in lows) + (field.one,)
        yield galois.Poly(field, coeffs)


def brute_irreducible(poly):
    """No monic factor of degree 1..deg/2 divides it."""
    field = poly.field
    for d in range(1, poly.degree // 2 + 1):
        for cand in all_monic(field, d):
            if (poly % cand).is_zero:
                return False
    return True


def test_prime_field_ops():
    f5 = galois.PrimeField(5)
    assert f5.add(3, 4) == 2
    assert f5.sub(1, 3) == 3
    assert f5.mul(3, 4) == 2
    assert f5.neg(2) == 3
    for a in range(1, 5):
        assert f5.mul(a, f5.inv(a)) == 1
    assert f5.pow(2, 4) == 1
    with pytest.raises(ZeroDivisionError):
        f5.inv(0)
    with pytest.raises(ValueError):
        galois.PrimeField(6)


def test_extension_field_f4_tables():
    # F_4 = F_2[x]/(x^2 + x + 1), the only quadratic modulus over F_2
    f4 = galois.build_tower(2, 2, 0)
    zero, one = f4.zero, f4.one
    w = f4.element(2)  # the adjoined root
    w2 = f4.mul(w, w)
    assert w2 == f4.add(w, one)  # w^2 = w + 1 for modulus x^2 + x + 1
    assert f4.mul(w, w2) == one  # w^3 = 1
    assert f4.add(w, w) == zero


@pytest.mark.parametrize("q", [4, 8, 9, 25, 27])
def test_extension_field_axioms(q):
    field = tuple_field(q)
    elems = [field.element(i) for i in range(field.order)]
    for a in elems:
        assert field.add(a, field.zero) == a
        assert field.mul(a, field.one) == a
        assert field.add(a, field.neg(a)) == field.zero
        if a != field.zero:
            assert field.mul(a, field.inv(a)) == field.one
        assert field.element(field.index(a)) == a
    # spot-check associativity and distributivity on a subset
    for a, b, c in itertools.product(elems[: min(6, len(elems))], repeat=3):
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))


def test_field_pow_matches_repeated_mul():
    field = galois.build_tower(3, 2, 0)
    for i in range(field.order):
        a = field.element(i)
        acc = field.one
        for e in range(6):
            assert galois.field_pow(field, a, e) == acc
            acc = field.mul(acc, a)


def test_field_pow_walks_from_the_top_bit():
    # bit_length - 1 squarings and popcount - 1 products with a: a**2 is one mul
    field = galois.PrimeField(7)
    calls = []
    mul = field.mul
    field.mul = lambda a, b: calls.append(None) or mul(a, b)
    for e in range(70):
        calls.clear()
        assert galois.field_pow(field, 3, e) == pow(3, e, 7)
        assert len(calls) == max(0, e.bit_length() + bin(e).count("1") - 2), e


@pytest.mark.parametrize(
    "p,degree,expected",
    [
        (2, 1, (0, 1)),
        (2, 2, (1, 1, 1)),
        (2, 3, (1, 1, 0, 1)),
        (2, 4, (1, 1, 0, 0, 1)),
        (3, 1, (0, 1)),
        (3, 2, (1, 0, 1)),
    ],
)
def test_find_irreducible_smallest(p, degree, expected):
    field = galois.PrimeField(p)
    poly = galois.find_irreducible(field, degree)
    assert poly.coeffs == expected
    # nothing smaller in scan order is irreducible
    order = field.order
    for low in range(order**degree):
        digits = []
        t = low
        for _ in range(degree):
            t, r = divmod(t, order)
            digits.append(field.element(r))
        cand = galois.Poly(field, tuple(digits) + (field.one,))
        if cand == poly:
            break
        assert not brute_irreducible(cand)


def test_find_irreducible_index():
    field = galois.PrimeField(2)
    first = galois.find_irreducible(field, 6, index=0)
    second = galois.find_irreducible(field, 6, index=1)
    assert first != second
    assert galois.is_irreducible(first) and galois.is_irreducible(second)
    with pytest.raises(ValueError):
        galois.find_irreducible(field, 2, index=1)  # x^2+x+1 is the only one


def test_irreducible_count():
    assert [galois.irreducible_count(2, n) for n in range(1, 9)] == [2, 1, 2, 3, 6, 9, 18, 30]
    assert galois.irreducible_count(4, 2) == 6
    assert galois.irreducible_count(27, 1) == 27


def test_excess_modulus_index_refused_before_the_scan():
    # 52377 monic irreducibles of degree 20 exist over F_2, 1161 of degree 14
    t0 = time.perf_counter()
    with pytest.raises(ArgumentOutOfRange, match="fewer than 52378"):
        galois.find_irreducible(galois.PrimeField(2), 20, index=52377)
    with pytest.raises(ArgumentOutOfRange, match="fewer than 1201"):
        oracle.brute_force_distribution(2, 14, modulus_index=1200)
    assert time.perf_counter() - t0 < 0.5
    # the last of the 9 of degree 6 is still found
    assert galois.is_irreducible(galois.find_irreducible(galois.PrimeField(2), 6, index=8))


def test_find_irreducible_deterministic():
    field = galois.PrimeField(3)
    assert galois.find_irreducible(field, 5) == galois.find_irreducible(field, 5)


@pytest.mark.parametrize("p,max_degree", [(2, 5), (3, 3), (5, 2)])
def test_is_irreducible_matches_brute(p, max_degree):
    field = galois.PrimeField(p)
    for degree in range(1, max_degree + 1):
        for poly in all_monic(field, degree):
            assert galois.is_irreducible(poly) == brute_irreducible(poly)


def test_is_irreducible_over_extension():
    f4 = tuple_field(4)
    for poly in all_monic(f4, 2):
        assert galois.is_irreducible(poly) == brute_irreducible(poly)


def test_find_irreducible_walks_the_quotient_ring(monkeypatch):
    # Rabin's test takes its powers in F[x]/(f), never as Poly products.
    fields = {p: galois.PrimeField(p) for p in (2, 3, 5, 7)}
    cases = [(2, 8, 2), (2, 6, 1), (3, 5, 1), (3, 4, 2), (5, 3, 2), (7, 2, 0)]
    expected = [galois.find_irreducible(fields[p], degree, i) for p, degree, i in cases]

    def refuse(self, other):
        raise AssertionError("a Poly product was taken")

    monkeypatch.setattr(galois.Poly, "__mul__", refuse)
    for (p, degree, i), modulus in zip(cases, expected):
        assert galois.find_irreducible(fields[p], degree, i) == modulus


def test_poly_divmod_property():
    field = galois.PrimeField(5)
    polys = [galois.Poly(field, c) for c in [(1, 2, 3), (4, 0, 0, 1), (2, 1), (3,), (0, 1)]]
    for f, g in itertools.product(polys, repeat=2):
        quot, rem = divmod(f, g)
        assert quot * g + rem == f
        assert rem.degree < g.degree


def test_division_by_a_monic_poly_never_inverts(monkeypatch):
    f9 = tuple_field(9)

    def refuse(a):
        raise AssertionError("a leading coefficient of 1 was inverted")

    monkeypatch.setattr(f9, "inv", refuse)
    f = galois.Poly(f9, [f9.element(i) for i in (5, 0, 7, 1, 3, 8)])
    g = galois.Poly(f9, [f9.element(i) for i in (2, 4)] + [f9.one])
    quot, rem = divmod(f, g)
    assert quot * g + rem == f
    assert rem.degree < g.degree


def test_poly_gcd_examples():
    field = galois.PrimeField(3)
    f = galois.Poly(field, (2, 0, 1))  # x^2 - 1
    g = galois.Poly(field, (1, 1))  # x + 1
    assert galois.poly_gcd(f, g) == g
    zero = galois.Poly(field, ())
    assert galois.poly_gcd(f, zero) == f.monic()
    scaled = galois.Poly(field, (2, 2))  # 2x + 2 -> monic x + 1
    assert galois.poly_gcd(zero, scaled) == g
    with pytest.raises(ArgumentOutOfRange):
        galois.poly_gcd(zero, zero)


def test_poly_gcd_common_factor():
    field = galois.PrimeField(2)
    a = galois.Poly(field, (1, 1))  # x + 1
    b = galois.Poly(field, (1, 1, 1))  # x^2 + x + 1
    c = galois.Poly(field, (0, 1))  # x
    assert galois.poly_gcd(a * b, a * c) == a
    assert galois.poly_gcd(b, c).degree == 0


def test_tower_structure():
    # F_{q^n} = F_p[x]/(f) directly over the prime field, deg f = n*m, for
    # prime q, for m > 1 and for n = 1
    for q, n, p, m in [(9, 2, 3, 2), (7, 3, 7, 1), (8, 1, 2, 3), (5, 1, 5, 1), (16, 3, 2, 4)]:
        tower = galois.build_tower(q, n, 0)
        assert isinstance(tower, galois.ExtensionField)
        assert (tower.q, tower.n, tower.m, tower.base.order) == (q, n, m, p)
        assert isinstance(tower.base, galois.PrimeField)
        assert tower.modulus.field is tower.base
        assert tower.modulus.degree == n * m
        assert galois.is_irreducible(tower.modulus)
        assert tower.order == q**n
        assert tower.element(0) == tower.zero
        # gen is the first generator past the constants
        primes = numtheory.factorize(q**n - 1)
        start = p if n * m > 1 else 1
        first = tower.index(tower.gen)
        assert first >= start and galois.generates(tower, tower.gen, primes)
        assert not any(
            galois.generates(tower, tower.element(i), primes) for i in range(start, first)
        )


def test_tower_prime_q_uses_prime_mid():
    # for prime q the field F_q is F_p itself: m = 1 and the modulus has degree n
    tower = galois.build_tower(7, 3, 0)
    assert tower.m == 1 and tower.base.order == 7
    assert isinstance(tower.base, galois.PrimeField)
    assert tower.modulus.degree == 3
    assert tower.order == 343


def test_tower_field_refuses_degree_zero():
    with pytest.raises(ArgumentOutOfRange):
        galois.TowerField(2, 0, 0)


def test_frobenius_iterate():
    # alpha -> alpha**(q**i) is field_pow by q**i
    field = galois.build_tower(2, 4, 0)
    q = field.q
    for i in range(field.order):
        a = field.element(i)
        assert galois.field_pow(field, a, q**0) == a
        assert galois.field_pow(field, a, q**field.n) == a  # full cycle
        assert galois.field_pow(field, a, q) == field.mul(a, a)  # q = 2
    # frobenius is additive
    for i, j in itertools.product(range(6), repeat=2):
        a, b = field.element(i), field.element(j)
        assert galois.field_pow(field, field.add(a, b), q) == field.add(
            galois.field_pow(field, a, q), galois.field_pow(field, b, q)
        )
