"""Field towers and polynomial arithmetic, checked against brute references."""

import itertools
import time
import tracemalloc

import pytest

from knormal import galois, lanes, numtheory, oracle, spectrum
from knormal.errors import ArgumentOutOfRange, InputTooLarge, InternalInconsistency


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


def scan_order(field, degree):
    """Every monic polynomial of the given degree, in the scan order of
    find_irreducible: constant coefficient least significant."""
    for j in range(field.order**degree):
        digits = []
        for _ in range(degree):
            j, r = divmod(j, field.order)
            digits.append(field.element(r))
        yield galois.Poly(field, tuple(digits) + (field.one,))


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
    with pytest.raises(ArgumentOutOfRange):
        galois.PrimeField(6)
    for i in (-1, 5):
        with pytest.raises(ArgumentOutOfRange, match="out of range"):
            f5.element(i)
    assert repr(f5) == "PrimeField(5)"


def test_extension_field_f4_tables():
    # F_4 = F_2[x]/(x^2 + x + 1), the only quadratic modulus over F_2
    f4 = galois.build_tower(2, 2, 0)
    zero, one = f4.zero, f4.one
    w = f4.element(2)  # the adjoined root
    w2 = f4.mul(w, w)
    assert w2 == f4.add(w, one)  # w^2 = w + 1 for modulus x^2 + x + 1
    assert f4.mul(w, w2) == one  # w^3 = 1
    assert f4.add(w, w) == zero
    with pytest.raises(ZeroDivisionError):
        f4.inv(zero)
    for i in (-1, 4):
        with pytest.raises(ArgumentOutOfRange, match="out of range"):
            f4.element(i)
    assert repr(f4) == "TowerField(q=2, n=2)"


def test_extension_field_refuses_a_bad_modulus():
    f2, f3 = galois.PrimeField(2), galois.PrimeField(3)
    with pytest.raises(ArgumentOutOfRange, match="over the base field"):
        galois.ExtensionField(f2, galois.Poly(f3, (1, 0, 1)))
    with pytest.raises(ArgumentOutOfRange, match="degree >= 1"):
        galois.ExtensionField(f3, galois.Poly(f3, (1,)))
    with pytest.raises(ArgumentOutOfRange, match="monic"):
        galois.ExtensionField(f3, galois.Poly(f3, (1, 0, 2)))


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
    assert repr(field) == f"ExtensionField(order={q})"
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
    with pytest.raises(ArgumentOutOfRange, match="negative"):
        galois.field_pow(field, field.one, -1)


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
    for cand in scan_order(field, degree):
        if cand == poly:
            break
        assert not brute_irreducible(cand)


def test_find_irreducible_index():
    field = galois.PrimeField(2)
    first = galois.find_irreducible(field, 6, index=0)
    second = galois.find_irreducible(field, 6, index=1)
    assert first != second
    assert galois.is_irreducible(first) and galois.is_irreducible(second)
    with pytest.raises(ArgumentOutOfRange):
        galois.find_irreducible(field, 2, index=1)  # x^2+x+1 is the only one
    with pytest.raises(ArgumentOutOfRange, match="index must be >= 0"):
        galois.find_irreducible(field, 2, index=-1)
    with pytest.raises(ArgumentOutOfRange, match="degree must be >= 1"):
        galois.find_irreducible(field, 0)
    # over an extension base every index below the count is found
    f4 = tuple_field(4)
    found = [galois.find_irreducible(f4, 2, index=i) for i in range(galois.irreducible_count(4, 2))]
    assert len({poly.coeffs for poly in found}) == 6
    assert all(brute_irreducible(poly) for poly in found)


def test_irreducible_count():
    assert [galois.irreducible_count(2, n) for n in range(1, 9)] == [2, 1, 2, 3, 6, 9, 18, 30]
    assert galois.irreducible_count(4, 2) == 6
    assert galois.irreducible_count(27, 1) == 27


def test_excess_modulus_index_refused_before_the_scan(monkeypatch):
    # 52377 monic irreducibles of degree 20 exist over F_2, 1161 of degree 14
    t0 = time.perf_counter()
    with pytest.raises(ArgumentOutOfRange, match="fewer than 52378"):
        galois.find_irreducible(galois.PrimeField(2), 20, index=52377)
    with pytest.raises(ArgumentOutOfRange, match="fewer than 1162 monic irreducibles of"
                       " degree 14 over F_2 exist, so none has index 1200"):
        oracle.brute_force_distribution(2, 14, modulus_index=1200)
    assert time.perf_counter() - t0 < 0.5
    # over F_4 the 6 quadratics are all there are; the scan never starts
    f4 = tuple_field(4)
    with monkeypatch.context() as patch:
        patch.setattr(galois, "is_irreducible", lambda f: pytest.fail("the scan ran"))
        with pytest.raises(ArgumentOutOfRange, match="fewer than 7 monic irreducibles of degree 2"):
            galois.find_irreducible(f4, 2, index=6)
    # the last of the 9 of degree 6 is still found
    assert galois.is_irreducible(galois.find_irreducible(galois.PrimeField(2), 6, index=8))


def test_a_scan_that_misses_an_irreducible_is_an_internal_inconsistency(monkeypatch):
    # a count one above Gauss's: the scan runs out of candidates at the last index
    count = galois.irreducible_count
    monkeypatch.setattr(galois, "irreducible_count", lambda order, degree: count(order, degree) + 1)
    with pytest.raises(InternalInconsistency, match="found 2 of the 3 monic irreducibles"):
        galois.find_irreducible(galois.PrimeField(2), 3, index=2)
    with pytest.raises(InternalInconsistency, match="found 6 of the 7 monic irreducibles"):
        galois.find_irreducible(tuple_field(4), 2, index=6)


def test_the_sweep_moduli_are_pinned():
    # the first two moduli of degree n*m over F_p for a few sweep fields
    # (q, n), and the tower's scan on packed ints finds the same
    pinned = {
        (2, 12): [(1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1), (1, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1)],
        (3, 8): [(2, 0, 1, 0, 0, 0, 0, 0, 1), (2, 0, 2, 0, 0, 0, 0, 0, 1)],
        (5, 6): [(2, 1, 0, 0, 0, 0, 1), (3, 2, 0, 0, 0, 0, 1)],
        (7, 5): [(3, 1, 0, 0, 0, 1), (4, 1, 0, 0, 0, 1)],
        (25, 3): [(2, 1, 0, 0, 0, 0, 1), (3, 2, 0, 0, 0, 0, 1)],
        (17, 3): [(3, 1, 0, 1), (5, 1, 0, 1)],
        (509, 2): [(2, 0, 1), (3, 0, 1)],
    }
    for (q, n), moduli in pinned.items():
        p, m = numtheory.prime_power_decompose(q)
        field = galois.PrimeField(p)
        assert [galois.find_irreducible(field, n * m, i).coeffs for i in (0, 1)] == moduli
        assert [galois.build_tower(q, n, i).modulus.coeffs for i in (0, 1)] == moduli


def test_the_scan_tests_each_candidate_once_in_scan_order(monkeypatch):
    # the candidates tested are the scan order up to the (index+1)-th hit, each
    # once and each its own tuple: over F_p through lanes.ben_or, over F_4
    # through the generic is_irreducible
    generic = galois.is_irreducible
    f4 = tuple_field(4)
    tested = []

    def expected(field, degree, index):
        prefix, hits = [], 0
        for cand in scan_order(field, degree):
            prefix.append(cand.coeffs)
            hits += generic(cand)
            if hits > index:
                return prefix

    ben_or = lanes.ben_or

    def recording_ben_or(p, N):
        irreducible = ben_or(p, N)

        def record(coeffs):
            tested.append(coeffs)
            return irreducible(coeffs)

        return record

    def recording_generic(f):
        tested.append(f.coeffs)
        return generic(f)

    monkeypatch.setattr(lanes, "ben_or", recording_ben_or)
    monkeypatch.setattr(galois, "is_irreducible", recording_generic)
    for field, degree, index in [(galois.PrimeField(2), 8, 2), (galois.PrimeField(3), 5, 1),
                                 (galois.PrimeField(7), 2, 3), (f4, 3, 2), (f4, 2, 5)]:
        tested.clear()
        found = galois.find_irreducible(field, degree, index)
        prefix = expected(field, degree, index)
        assert tested == prefix, (field, degree, index)
        assert len(set(tested)) == len(tested)
        assert found.coeffs == prefix[-1]


def test_the_scan_holds_one_candidate_at_a_time():
    # a scan over a large prime draws its candidates one by one: no pool of
    # all p coefficients is built before the first (x + 1 is the second)
    field = galois.PrimeField(4194301)
    lanes.ben_or(field.order, 1)  # lanes is imported, and its code compiled, outside the trace
    tracemalloc.start()
    try:
        found = galois.find_irreducible(field, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found.coeffs == (1, 1)
    assert peak < 1 << 20, peak


def test_the_packed_irreducibility_test_matches_the_generic_one():
    # Ben-Or's test on packed ints, which the tower scans with, against
    # Rabin's generic test on every monic candidate
    for p, max_degree in [(2, 10), (3, 6), (5, 4), (7, 3)]:
        field = galois.PrimeField(p)
        for degree in range(1, max_degree + 1):
            irreducible = lanes.ben_or(p, degree)
            for poly in all_monic(field, degree):
                assert irreducible(poly.coeffs) == galois.is_irreducible(poly), poly


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("degree", [2, 3, 4, 6])
def test_the_packed_irreducibility_test_walks_every_p_th_power(monkeypatch, p, degree):
    # Ben-Or's walk: an irreducible f is accepted after deg f // 2 p-th
    # powers of x, and a reducible f refused at the degree i of its
    # smallest factor, the first i with gcd(x**(p**i) - x, f) != 1: over F_2
    # (x**2 + x + 1)(x**4 + x + 1) after two squarings, where Rabin's walk takes six
    first = {d: galois.find_irreducible(galois.PrimeField(p), d) for d in range(1, degree + 1)}
    power, exponents = lanes._power, []

    def counted_power(op, a, e):
        if op.__name__ == "mulmod":  # scalar multiples take _power over add
            exponents.append(e)
        return power(op, a, e)

    monkeypatch.setattr(lanes, "_power", counted_power)
    irreducible = lanes.ben_or(p, degree)
    assert irreducible(first[degree].coeffs)
    assert exponents == [p] * (degree // 2)
    for i in range(1, degree // 2 + 1):
        f = first[i] * first[degree - i]
        exponents.clear()
        assert not irreducible(f.coeffs)
        assert exponents == [p] * i, f


def test_the_tower_scan_finds_the_generic_scan_moduli():
    # every field up to 2**18 elements of the acceptance q, first and second
    # modulus, against a scan by the generic is_irreducible in candidate order
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27):
        p, m = numtheory.prime_power_decompose(q)
        field = galois.PrimeField(p)
        n = 1
        while q**n <= 1 << 18:
            irreducibles = (f.coeffs for f in scan_order(field, n * m) if galois.is_irreducible(f))
            expected = list(itertools.islice(irreducibles, 2))
            for i in (0, 1):
                if i < len(expected):
                    assert galois.build_tower(q, n, i).modulus.coeffs == expected[i], (q, n, i)
                else:  # x^2 + x + 1 is the only quadratic over F_2
                    with pytest.raises(ArgumentOutOfRange, match=f"fewer than {i + 1} monic"):
                        galois.build_tower(q, n, i)
            n += 1


def test_find_irreducible_deterministic():
    field = galois.PrimeField(3)
    assert galois.find_irreducible(field, 5) == galois.find_irreducible(field, 5)


@pytest.mark.parametrize("p,max_degree", [(2, 5), (3, 3), (5, 2)])
def test_is_irreducible_matches_brute(p, max_degree):
    field = galois.PrimeField(p)
    with pytest.raises(ArgumentOutOfRange, match="degree >= 1"):
        galois.is_irreducible(galois.Poly(field, (1,)))
    for degree in range(1, max_degree + 1):
        for poly in all_monic(field, degree):
            assert galois.is_irreducible(poly) == brute_irreducible(poly)


def test_is_irreducible_over_extension():
    f4 = tuple_field(4)
    for poly in all_monic(f4, 2):
        assert galois.is_irreducible(poly) == brute_irreducible(poly)


def test_find_irreducible_walks_the_quotient_ring(monkeypatch):
    # Rabin's generic test takes its powers in F[x]/(f), never as Poly
    # products: on the candidates of a scan up to its (count)-th hit.
    fields = {p: galois.PrimeField(p) for p in (2, 3, 5, 7)}
    cases = [(2, 8, 3), (2, 6, 2), (3, 5, 2), (3, 4, 3), (5, 3, 3), (7, 2, 1)]
    verdicts = []
    for p, degree, count in cases:
        for cand in scan_order(fields[p], degree):
            verdict = galois.is_irreducible(cand)
            verdicts.append((cand, verdict))
            count -= verdict
            if not count:
                break

    def refuse(self, other):
        raise AssertionError("a Poly product was taken")

    monkeypatch.setattr(galois.Poly, "__mul__", refuse)
    for cand, verdict in verdicts:
        assert galois.is_irreducible(cand) == verdict, cand


def test_poly_divmod_property():
    field = galois.PrimeField(5)
    polys = [galois.Poly(field, c) for c in [(1, 2, 3), (4, 0, 0, 1), (2, 1), (3,), (0, 1)]]
    for f, g in itertools.product(polys, repeat=2):
        quot, rem = divmod(f, g)
        assert quot * g + rem == f
        assert rem.degree < g.degree
    with pytest.raises(ZeroDivisionError):
        divmod(polys[0], galois.Poly(field, (0, 0)))
    assert repr(polys[0]) == "Poly(degree=2, coeffs=[1, 2, 3])"


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
    assert zero.monic() == zero
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
    # and past spectrum's bound on n, before any moduli count or scan
    start = time.perf_counter()
    with pytest.raises(InputTooLarge, match="exceeds the supported bound"):
        galois.TowerField(2, 10**6 + 1, 0)
    assert time.perf_counter() - start < 0.1


def test_the_tower_cache_keeps_a_bounded_number_of_fields():
    # one more distinct field than the bound leaves the bound behind
    primes = [p for p in range(2, 1000) if numtheory.is_prime(p)][: spectrum.CACHED_FIELDS + 1]
    assert len(primes) == spectrum.CACHED_FIELDS + 1
    galois.build_tower.cache_clear()
    try:
        for p in primes:
            assert galois.build_tower(p, 1, 0).order == p
        assert galois.build_tower.cache_info().currsize == spectrum.CACHED_FIELDS
    finally:
        galois.build_tower.cache_clear()


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
