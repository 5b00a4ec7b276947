"""Brute-force field sweeps and cyclotomic cosets against the formulas."""

import collections
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knormal import counting, galois, numtheory, oracle, spectrum
from knormal.errors import (
    InstanceTooLarge,
    InternalInconsistency,
    NotCoprime,
    NotPrimePower,
)

PRIME_POWERS_4096 = [q for q in range(2, 4097) if len(numtheory.factorize(q)) == 1]


def test_distribution_examples():
    assert oracle.brute_force_distribution(2, 1).counts == (1, 1)
    assert oracle.brute_force_distribution(2, 2).counts == (2, 1, 1)
    assert oracle.brute_force_distribution(2, 3).counts == (3, 3, 1, 1)


def test_matches_formulas_small():
    for q, n in [(2, 5), (2, 7), (3, 4), (4, 4), (5, 3), (7, 3), (8, 3), (9, 3),
                 (16, 3), (25, 2), (27, 2), (3, 9), (2, 12), (23, 3)]:
        # (23, 3) needs 16-bit fields in the odd-characteristic rank
        assert oracle.brute_force_distribution(q, n) == counting.distribution(q, n)


def _rank_over(field, vectors):
    """Rank of coefficient tuples over a field, by Gauss-Jordan elimination."""
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(len(rows[0])):
        live = [r for r in range(rank, len(rows)) if rows[r][col] != field.zero]
        if not live:
            continue
        pivot = live[0]
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [field.mul(inv, c) for c in rows[rank]]
        for r, row in enumerate(rows):
            factor = row[col]
            if r != rank and factor != field.zero:
                rows[r] = [
                    field.sub(a, field.mul(factor, b)) for a, b in zip(row, rows[rank])
                ]
        rank += 1
    return rank


def _conjugates(top, q, n, alpha):
    """alpha, alpha**q, ..., alpha**(q**(n-1)) by chained q-th powers."""
    conjugates = [alpha]
    for _ in range(n - 1):
        conjugates.append(galois.field_pow(top, conjugates[-1], q))
    return conjugates


def _two_level_field(q, n):
    """(F_q, F_{q^n}) as F_q = F_p[u]/(g) and F_{q^n} = F_q[v]/(h), in tuples.

    An element of F_{q^n} is its n coordinates over F_q, so a rank over F_q
    is an elimination on them; the sweep's field has no such coordinates.
    """
    p, m = numtheory.prime_power_decompose(q)
    prime = galois.PrimeField(p)
    mid = prime if m == 1 else galois.ExtensionField(prime, galois.find_irreducible(prime, m))
    return mid, galois.ExtensionField(mid, galois.find_irreducible(mid, n))


def _literal_rank_distribution(q, n):
    """n - rank over F_q of the conjugates, element by element, in generic arithmetic."""
    mid, top = _two_level_field(q, n)
    counts = [0] * (n + 1)
    for i in range(top.order):
        conjugates = _conjugates(top, q, n, top.element(i))
        counts[n - _rank_over(mid, conjugates)] += 1
    return counts


def _g_alpha(top, q, n, alpha):
    """Conjugate polynomial sum of alpha**(q**i) * x**(n-1-i) over i < n."""
    return galois.Poly(top, _conjugates(top, q, n, alpha)[::-1])


def _xn_minus_one(top, n):
    """x**n - 1 over top."""
    return galois.Poly(top, (top.neg(top.one),) + (top.zero,) * (n - 1) + (top.one,))


def _second_flat_field(q, n):
    """F_{q^n} as F_p[x]/(f), f the second monic irreducible of degree n*m in
    scan order wherever one exists; the sweep's field takes the first."""
    p, m = numtheory.prime_power_decompose(q)
    prime = galois.PrimeField(p)
    index = 1 if galois.irreducible_count(p, n * m) > 1 else 0
    return galois.ExtensionField(prime, galois.find_irreducible(prime, n * m, index))


def _gcd_distribution(q, n):
    """deg gcd(x**n - 1, g_alpha) element by element, in generic arithmetic.

    The field is ``_second_flat_field(q, n)``; F_q enters only through
    alpha -> alpha**q.
    """
    top = _second_flat_field(q, n)
    target = _xn_minus_one(top, n)
    counts = [0] * (n + 1)
    for i in range(top.order):
        alpha = top.element(i)
        if alpha == top.zero:
            counts[n] += 1  # g_0 = 0, and gcd(x**n - 1, 0) is x**n - 1
            continue
        counts[galois.poly_gcd(target, _g_alpha(top, q, n, alpha)).degree] += 1
    return counts


def test_g_alpha_f4_example():
    top = galois.build_tower(2, 2, 0)
    w = top.element(2)
    g = _g_alpha(top, 2, 2, w)
    # g_w = w*x + w^2 over F_4
    assert g.coeffs == (top.mul(w, w), w)
    assert _g_alpha(top, 2, 2, top.zero).is_zero


def test_g_alpha_respects_scaling_and_frobenius():
    top = galois.build_tower(3, 3, 0)
    target = _xn_minus_one(top, 3)
    x = galois.Poly(top, (top.zero, top.one))
    for i in range(1, top.order, 7):
        a = top.element(i)
        # g_{a^q} = x * g_a mod x^n - 1
        lhs = _g_alpha(top, 3, 3, galois.field_pow(top, a, 3))
        rhs = (x * _g_alpha(top, 3, 3, a)) % target
        assert lhs == rhs
    # scalar from F_3: g_{c*a} = c * g_a
    c = (2, 0, 0)  # the constant 2 of F_3
    for i in range(1, top.order, 11):
        a = top.element(i)
        lhs = _g_alpha(top, 3, 3, top.mul(c, a))
        rhs = galois.Poly(top, tuple(top.mul(c, co) for co in _g_alpha(top, 3, 3, a).coeffs))
        assert lhs == rhs


def test_class_path_is_the_codimension_of_the_conjugates():
    # the definition itself: the F_q-span of alpha, alpha**q, ... has
    # codimension k exactly for the k-normal alpha
    for q, n in [(2, 6), (3, 4), (4, 3), (8, 2), (9, 2), (25, 2)]:
        literal = _literal_rank_distribution(q, n)
        assert literal == _gcd_distribution(q, n)
        assert literal == oracle._classify_by_classes(galois.build_tower(q, n, 0))


def test_elementwise_path_agrees_with_class_path():
    # the per-element gcd sweep, on a second modulus where one exists, validates the sweep
    for q, n in [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4),
                 (4, 2), (4, 3), (5, 2), (7, 2), (8, 2), (9, 2), (16, 2), (25, 1), (27, 2),
                 (4, 4), (8, 3), (16, 3), (27, 3), (67, 2)]:
        assert _gcd_distribution(q, n) == list(oracle.brute_force_distribution(q, n))


def _widened(index, p, width):
    """The base-p digits of an element index, one per width-bit field."""
    packed = 0
    shift = 0
    while index:
        index, digit = divmod(index, p)
        packed |= digit << shift
        shift += width
    return packed


def test_power_table_holds_the_generator_powers():
    # (q, n, field width): odd N = n*m at (2, 15), 16- and 32-bit fields last;
    # n = 1 at (251, 1) needs 16 bits, since the fieldwise sum needs p <= 2**7
    for q, n, width in [(2, 7, 1), (2, 15, 1), (4, 5, 1), (16, 3, 1), (512, 2, 1), (4, 1, 1),
                        (3, 7, 8), (9, 4, 8), (27, 3, 8), (23, 3, 16), (509, 2, 32),
                        (251, 1, 16)]:
        tower = galois.build_tower(q, n, 0)
        p = tower.base.order
        M = tower.order - 1
        gen = tower.gen
        assert tower.pow(gen, M) == tower.one
        assert all(tower.pow(gen, M // prime) != tower.one for prime in numtheory.factorize(M))
        assert oracle._field_width(tower) == width
        table = oracle._power_table(tower)
        # gen**e for e < m*L: the conjugates mod L and their m scaled copies
        assert len(table) == tower.m * M // (q - 1)
        stride = 1 if len(table) < 5000 else len(table) // 1000
        step = tower.pow(gen, stride)
        power = tower.one
        for e in range(0, len(table), stride):
            assert table[e] == _widened(tower.index(power), p, width), (q, n, e)
            power = tower.mul(power, step)


def test_power_table_refuses_a_non_generator():
    for q, n in [(2, 4), (3, 3), (25, 2)]:
        tower = galois.TowerField(q, n, 0)  # not the cached instance
        gen = tower.gen
        for prime in numtheory.factorize(q**n - 1):
            # gen**prime has order (q**n - 1)/prime: its walk returns to 1 early
            tower.gen = tower.pow(gen, prime)
            with pytest.raises(InternalInconsistency):
                oracle._power_table(tower)


def test_a_cached_field_searches_for_its_generator_once(monkeypatch):
    # the search runs when build_tower first builds the field; check (a)
    # still tests the generator on every later sweep
    calls = []
    find_generator = galois.find_generator
    monkeypatch.setattr(
        galois, "find_generator", lambda *args: calls.append(args) or find_generator(*args)
    )
    galois.build_tower.cache_clear()
    try:
        for _ in range(2):
            assert oracle.brute_force_distribution(9, 3) == counting.distribution(9, 3)
        hits = galois.build_tower.cache_info().hits
        tower = galois.build_tower(9, 3, 0)  # the sweep's field: a hit, no new search
        assert galois.build_tower.cache_info().hits == hits + 1
        assert calls == [(tower,)]
        with pytest.raises(TypeError):
            galois.build_tower(9, 3)  # the index has no default, so no second key
        monkeypatch.setattr(tower, "gen", tower.pow(tower.gen, 2))
        with pytest.raises(InternalInconsistency, match="does not generate"):
            oracle.brute_force_distribution(9, 3)
        assert len(calls) == 1
    finally:
        galois.build_tower.cache_clear()  # drop the field built by the wrapper


def test_power_table_refuses_fields_too_narrow_for_the_walk(monkeypatch):
    # 8-bit fields cannot hold the fieldwise sum mod 131 (it needs p <= 128)
    monkeypatch.setattr(oracle, "_field_width", lambda tower: 8)
    with pytest.raises(InternalInconsistency):
        oracle._power_table(galois.build_tower(131, 2, 0))


def test_power_table_checks_the_walk_end_against_the_tower(monkeypatch):
    # the walk's last value is compared with gen**(m*L) taken in the tower
    tower = galois.build_tower(4, 3, 0)
    steps = 2 * (4**3 - 1) // 3  # m*L, not a cofactor M/l of the generator test
    tower_pow = tower.pow
    monkeypatch.setattr(
        tower, "pow", lambda a, e: tower_pow(a, e + 1 if e == steps else e)
    )
    with pytest.raises(InternalInconsistency, match="did not end"):
        oracle._power_table(tower)


@pytest.mark.parametrize("q,n", [(4, 3), (9, 2)])  # both ranks: p = 2 and odd p
def test_dependent_scaled_copies_are_refused(monkeypatch, q, n):
    power_table = oracle._power_table

    def folded(tower):  # gen**(e + L) reads as gen**e, so beta * alpha as alpha
        table = power_table(tower)
        L = (q**n - 1) // (q - 1)
        return [table[e % L] for e in range(len(table))]

    monkeypatch.setattr(oracle, "_power_table", folded)
    with pytest.raises(InternalInconsistency, match="scaled conjugate copies are dependent"):
        oracle._classify_by_classes(galois.build_tower(q, n, 0))


def test_brute_force_refuses_a_miscount(monkeypatch):
    monkeypatch.setattr(oracle, "_classify_by_classes", lambda tower: [1] * (tower.n + 1))
    with pytest.raises(InternalInconsistency, match="missed or double-counted"):
        oracle.brute_force_distribution(2, 3)


@st.composite
def _small_fields(draw):
    q = draw(st.sampled_from(PRIME_POWERS_4096))
    n_max = 1
    while q ** (n_max + 1) <= 4096:
        n_max += 1
    return q, draw(st.integers(1, n_max))


@settings(max_examples=40, deadline=None, database=None)
@given(field=_small_fields())
def test_brute_force_matches_formulas_property(field):
    q, n = field
    expected = counting.distribution(q, n)
    # the field is F_p[x]/(f) with deg f = n*m; x**2 + x + 1 is the only
    # modulus of (2, 2) and (4, 1)
    p, m = numtheory.prime_power_decompose(q)
    for index in (0,) if galois.irreducible_count(p, n * m) < 2 else (0, 1):
        assert oracle.brute_force_distribution(q, n, modulus_index=index) == expected


def test_n_equals_one_distribution():
    # 131 and 251 are 8-bit primes above 128: their fields must be 16 bits wide
    for q in (2, 3, 4, 9, 25, 49, 131, 251):
        dist = oracle.brute_force_distribution(q, 1)
        assert dist.counts == (q - 1, 1)


def test_n_equals_one_is_swept_by_the_definition():
    t0 = time.perf_counter()
    dist = oracle.brute_force_distribution(65537, 1)
    elapsed = time.perf_counter() - t0
    assert dist.counts == (65536, 1)
    assert elapsed < 1.0


@pytest.mark.parametrize("q", [2**16, 3**10])
def test_n_equals_one_leaves_f_q_untabulated(q):
    # F_q = F_p[x]/(f) has no tables of its own: a sweep at n = 1 with m > 1
    # takes only a handful of field operations, none of them O(q)
    galois.build_tower.cache_clear()
    t0 = time.perf_counter()
    dist = oracle.brute_force_distribution(q, 1)
    elapsed = time.perf_counter() - t0
    assert dist.counts == (q - 1, 1)
    assert elapsed < 0.5


def test_large_prime_field_sweeps_only_the_lines():
    # F_{2039^2} has 2040 lines over F_2039: the table holds 2040 powers, not 2039**2 - 1
    t0 = time.perf_counter()
    dist = oracle.brute_force_distribution(2039, 2)
    elapsed = time.perf_counter() - t0
    assert dist == counting.distribution(2039, 2)
    assert elapsed < 0.5


@pytest.mark.parametrize("q,n", [(4, 4), (9, 3), (27, 2)])  # m = 2, 2, 3
def test_one_rank_per_orbit_under_multiplication_by_p(monkeypatch, q, n):
    # alpha -> alpha**p keeps the rank, so classes are orbits of Z/L under
    # b -> p*b, up to m times larger than the orbits under b -> q*b
    ranked = []

    def recording(make_rank):
        def wrapped(tower, exp_packed):
            rank = make_rank(tower, exp_packed)

            def counted(e):
                ranked.append(e)
                return rank(e)

            return counted

        return wrapped

    monkeypatch.setattr(oracle, "_rank_char2", recording(oracle._rank_char2))
    monkeypatch.setattr(oracle, "_rank_odd", recording(oracle._rank_odd))
    tower = galois.build_tower(q, n, 0)
    assert oracle._classify_by_classes(tower) == list(counting.distribution(q, n))
    p = tower.base.order
    L = (q**n - 1) // (q - 1)
    orbit_of = {}
    for start, _ in oracle._orbits(p, L):
        b = start
        while b not in orbit_of:
            orbit_of[b] = start
            b = b * p % L
    assert sorted(orbit_of[e % L] for e in ranked) == sorted(set(orbit_of.values()))
    assert len(ranked) < len(list(oracle._orbits(q, L)))


def test_instance_guard_decides_by_bit_lengths():
    # q**n would have 40 Mbit; the refusal must not build it
    start = time.perf_counter()
    with pytest.raises(InstanceTooLarge, match="1000000000039\\*\\*1000000 exceeds"):
        oracle.brute_force_distribution(1000000000039, 10**6)
    assert time.perf_counter() - start < 0.5
    # near the bound the comparison is exact, for any max_order
    for q, n, max_order in [(2, 22, 2**22), (3, 5, 243), (5, 4, 2**10), (7, 2, 49)]:
        assert oracle.sweep_params(q, n, max_order).q == q
        with pytest.raises(InstanceTooLarge):
            oracle.sweep_params(q, n, q**n - 1)
    for max_order in (0, -1, -(2**40)):
        with pytest.raises(InstanceTooLarge):
            oracle.sweep_params(2, 1, max_order)


def test_instance_guard():
    with pytest.raises(InstanceTooLarge):
        oracle.brute_force_distribution(2, 23)
    with pytest.raises(InstanceTooLarge):
        oracle.brute_force_distribution(2, 10, max_order=512)
    # explicit override raises the ceiling
    dist = oracle.brute_force_distribution(2, 10, max_order=1024)
    assert dist == counting.distribution(2, 10)


def test_validates_prime_power():
    with pytest.raises(NotPrimePower):
        oracle.brute_force_distribution(6, 2)


def test_modulus_choice_does_not_change_counts():
    for q, n in [(2, 6), (3, 4), (4, 3)]:
        t0 = galois.build_tower(q, n, 0)
        t1 = galois.build_tower(q, n, 1)
        assert t0.modulus != t1.modulus
        assert oracle.brute_force_distribution(q, n, modulus_index=0) == \
            oracle.brute_force_distribution(q, n, modulus_index=1)


def test_cyclotomic_cosets_examples():
    assert oracle.cyclotomic_cosets(2, 5) == [1, 4]
    assert oracle.cyclotomic_cosets(2, 7) == [1, 3, 3]
    assert oracle.cyclotomic_cosets(5, 1) == [1]


def test_cyclotomic_cosets_rejects_shared_factor():
    with pytest.raises(NotCoprime):
        oracle.cyclotomic_cosets(2, 6)
    with pytest.raises(ValueError):
        oracle.cyclotomic_cosets(2, 0)


def test_cosets_match_degree_pattern():
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27):
        for n in range(1, 30):
            params = spectrum.derive_params(q, n)
            pattern = spectrum.degree_pattern(params)
            sizes = collections.Counter(oracle.cyclotomic_cosets(q, params.n0))
            assert dict(sizes) == pattern.entries
            # every coset size divides the largest one, the order d
            assert all(params.d % size == 0 for size in sizes)


def test_zero_element_is_n_normal():
    dist = oracle.brute_force_distribution(3, 3)
    assert dist[3] == 1
