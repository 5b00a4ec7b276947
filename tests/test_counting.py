"""Counting formulas: general series, enumeration, explicit profile sum, closed forms."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knormal import counting, galois, numtheory, spectrum
from knormal.errors import ArgumentOutOfRange, EnumerationTooLarge, InternalInconsistency

PRIME_POWERS = [q for q in range(2, 28) if len(numtheory.factorize(q)) == 1]
SMALL_SWEEP = [(q, n) for q in PRIME_POWERS for n in range(1, 16)]
# Property-test fields: every prime power up to 64, some larger powers of
# small primes (p | n often, with large p**s), and primes with many small
# divisors of q - 1 or q + 1 (factor-rich x**n - 1).
PROPERTY_QS = [q for q in range(2, 65) if len(numtheory.factorize(q)) == 1] + [
    81, 125, 128, 243, 343, 1024, 3125, 1601, 2161, 4001, 65537,
]
ENUM_TUPLE_LIMIT = 5000
# Property-test fields whose characteristic p divides some n <= 300.
RICH_QS = [q for q in PROPERTY_QS if spectrum.derive_params(q, 1).p <= 300]


def brute_phi_q(q, r, e):
    """Count residues coprime to f**e by trial gcd over F_q[x], f irreducible."""
    field = galois.PrimeField(q) if numtheory.is_prime(q) else None
    if field is None:
        field = galois.build_tower(q, 1, 0)
    f = galois.find_irreducible(field, r)
    modulus = f
    for _ in range(e - 1):
        modulus = modulus * f
    units = 0
    deg = modulus.degree
    for idx in range(field.order**deg):
        coeffs = []
        t = idx
        for _ in range(deg):
            t, rem = divmod(t, field.order)
            coeffs.append(field.element(rem))
        candidate = galois.Poly(field, coeffs)
        if candidate.is_zero:
            continue
        if galois.poly_gcd(candidate, modulus).degree == 0:
            units += 1
    return units


def test_phi_q_prime_power_examples():
    assert counting.phi_q_prime_power(2, 1, 4) == 8
    assert counting.phi_q_prime_power(3, 2, 1) == 8
    assert counting.phi_q_prime_power(5, 1, 0) == 1


def test_phi_q_prime_power_matches_unit_count():
    for q, r, e in [(2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 2, 1), (2, 2, 2), (2, 3, 1),
                    (3, 1, 1), (3, 1, 2), (3, 2, 1), (5, 1, 1), (5, 1, 2), (4, 1, 2)]:
        assert counting.phi_q_prime_power(q, r, e) == brute_phi_q(q, r, e)


def test_phi_q_prime_power_validation():
    with pytest.raises(ValueError):
        counting.phi_q_prime_power(2, 0, 1)
    with pytest.raises(ValueError):
        counting.phi_q_prime_power(2, 1, -1)


def test_count_k_normal_examples():
    assert counting.count_k_normal(2, 3, 1) == 3
    assert counting.count_k_normal(25, 3, 2) == 72
    assert counting.count_k_normal(25, 3, 3) == 1


def test_count_k_normal_k_range():
    with pytest.raises(ArgumentOutOfRange):
        counting.count_k_normal(2, 5, 6)
    with pytest.raises(ArgumentOutOfRange):
        counting.count_k_normal(2, 5, -1)


def test_count_k_normal_at_n_counts_only_zero():
    # only the zero element has all conjugates dependent in every direction
    for q, n in [(2, 1), (2, 6), (3, 4), (5, 3), (27, 2)]:
        assert counting.count_k_normal(q, n, n) == 1


def test_count_normal_equals_series_at_zero():
    for q, n in SMALL_SWEEP:
        assert counting.count_normal(q, n) == counting.count_k_normal(q, n, 0)


def test_distribution_examples():
    assert counting.distribution(2, 1).counts == (1, 1)
    assert counting.distribution(2, 3).counts == (3, 3, 1, 1)
    assert counting.distribution(2, 4).counts == (8, 4, 2, 1, 1)


def test_distribution_invariants():
    for q, n in SMALL_SWEEP:
        dist = counting.distribution(q, n)
        assert len(dist.counts) == n + 1
        assert dist.total() == q**n
        assert dist[n] == 1
        assert dist[0] >= 1


def test_records_keep_their_repr_hash_and_immutability():
    params = spectrum.derive_params(4, 6)
    assert repr(params) == "ExtensionParams(q=4, p=2, m=2, n=6, n0=3, s=1, d=1)"
    assert {params: "cached"}[spectrum.derive_params.__wrapped__(4, 6)] == "cached"
    pattern = spectrum.DegreePattern({1: 3, 2: 0})
    assert repr(pattern) == "DegreePattern(entries={1: 3})"
    dist = counting.distribution(2, 3)
    assert repr(dist) == "Distribution(q=2, n=3, counts=(3, 3, 1, 1))"
    assert (dist[0], dist.total()) == (3, 8)
    for record, field in ((params, "q"), (pattern, "entries"), (dist, "counts")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_distribution_is_the_sequence_of_its_counts():
    dist = counting.distribution(2, 3)
    assert list(dist) == [3, 3, 1, 1] == [dist[k] for k in range(dist.n + 1)]
    assert len(dist) == 4
    assert dist[1:3] == (3, 1) and dist[-1] == 1
    assert (dist.q, dist.n, dist.counts) == (2, 3, (3, 3, 1, 1))
    same = counting.Distribution(q=2, n=3, counts=[3, 3, 1, 1])
    assert dist == same and hash(dist) == hash(same)
    assert dist != counting.Distribution(q=2, n=3, counts=(4, 2, 1, 1))
    assert dist != (2, 3, (3, 3, 1, 1))
    with pytest.raises(AttributeError):
        del dist.q


def test_enum_matches_series():
    for q, n in [(2, 4), (2, 6), (2, 8), (3, 4), (3, 6), (4, 4), (5, 4), (8, 3), (9, 3)]:
        for k in range(n + 1):
            assert counting.count_k_normal_enum(q, n, k) == counting.count_k_normal(q, n, k)


def test_enum_positive_iff_reachable():
    # support check: nonzero exactly when some multiplicity tuple hits n - k
    for q, n in [(2, 5), (3, 5), (4, 5), (25, 7)]:
        for k in range(n + 1):
            enum = counting.count_k_normal_enum(q, n, k)
            assert (enum > 0) == (counting.count_k_normal(q, n, k) > 0)


def test_enum_guard():
    # 2**27595 tuples: more digits than str() of an int may print
    with pytest.raises(EnumerationTooLarge, match=r"2\*\*27595 multiplicity tuples"):
        counting.count_k_normal_enum(2, 524287, 0)


def test_inexact_division_names_bit_lengths():
    with pytest.raises(InternalInconsistency, match="20001-bit dividend"):
        counting._exact_div(2**20000 + 1, 2)


def test_group_series_refuses_a_fractional_coefficient(monkeypatch):
    sparse_sum = counting._sparse_sum
    monkeypatch.setattr(
        counting, "_sparse_sum",
        lambda *products: [(i, x + 1) for i, x in sparse_sum(*products)],
    )
    with pytest.raises(InternalInconsistency, match="group series coefficient"):
        counting.count_k_normal(3, 6, 3)


def test_explicit_matches_series():
    for q, n in SMALL_SWEEP:
        for k in range(n + 1):
            assert counting.count_k_normal_explicit(q, n, k) == counting.count_k_normal(q, n, k)


def test_explicit_matches_distribution_on_factor_rich_fields_with_p_dividing_n():
    # omega = 9, 14, 13 and 12 distinct factors, of multiplicity p**s = 4, 5, 4 and 13
    start = time.perf_counter()
    for q, n in [(4, 60), (5, 120), (2, 252), (13, 156)]:
        dist = counting.distribution(q, n)
        assert [counting.count_k_normal_explicit(q, n, k) for k in range(n + 1)] == list(dist)
    assert time.perf_counter() - start < 5


@settings(max_examples=100, deadline=None, database=None)
@given(q=st.sampled_from(RICH_QS), data=st.data())
def test_explicit_on_factor_rich_fields(q, data):
    # n = p**s * n0 with s >= 1 and n0 | q - 1 or n0 | q + 1: every factor of
    # x**n0 - 1 has degree 1 or 2, each with multiplicity p**s
    p = spectrum.derive_params(q, 1).p
    n0 = data.draw(st.sampled_from(
        [d for d in range(1, 300 // p + 1) if (q - 1) % d == 0 or (q + 1) % d == 0]
    ), label="n0")
    s = data.draw(st.integers(1, max(s for s in range(1, 9) if p**s * n0 <= 300)), label="s")
    n = p**s * n0
    k = data.draw(st.integers(0, n), label="k")
    explicit = counting.count_k_normal_explicit(q, n, k)
    assert explicit == counting.count_k_normal(q, n, k) == counting.distribution(q, n)[k]


@pytest.mark.parametrize("q,n,k", [(2, 10**6, 5 * 10**5), (3, 10**6, 10**5)])
def test_explicit_refuses_before_it_starts(q, n, k):
    start = time.perf_counter()
    with pytest.raises(EnumerationTooLarge, match="profile states exceed 1000000"):
        counting.count_k_normal_explicit(q, n, k)
    assert time.perf_counter() - start < 0.5


def test_closed_form_examples():
    assert counting.closed_form_n1(2, 2) == 1
    assert counting.closed_form_n2(2, 4) == 2
    assert counting.closed_form_n2(25, 3) == 72
    assert counting.closed_form_n3(25, 3) == 1
    assert counting.closed_form_n3(25, 7) == 749952


def test_closed_forms_match_series():
    for q, n in SMALL_SWEEP:
        dist = counting.distribution(q, n)
        if n >= 1:
            assert counting.closed_form_n1(q, n) == dist[1]
        if n >= 2:
            assert counting.closed_form_n2(q, n) == dist[2]
        if n >= 3:
            assert counting.closed_form_n3(q, n) == dist[3]


def test_closed_forms_reject_small_n():
    with pytest.raises(ArgumentOutOfRange):
        counting.closed_form_n2(3, 1)
    with pytest.raises(ArgumentOutOfRange):
        counting.closed_form_n3(3, 2)


def test_lower_bound_examples():
    assert counting.lower_bound_holds(25, 3, 2)
    assert counting.lower_bound_holds(2, 4, 1)


def test_lower_bound_sweep():
    for q, n in SMALL_SWEEP[:120]:
        for k in range(n + 1):
            assert counting.lower_bound_holds(q, n, k)


def test_ratio_identity():
    # q*N_1 = v_1*N_0 when p | n; (q-1)*N_1 = v_1*N_0 when gcd(n, q) = 1
    for q, n in SMALL_SWEEP:
        params = spectrum.derive_params(q, n)
        v1 = spectrum.degree_pattern(params).v(1)
        n0_count = counting.count_normal(q, n)
        n1_count = counting.closed_form_n1(q, n)
        if params.coprime:
            assert (q - 1) * n1_count == v1 * n0_count
        else:
            assert q * n1_count == v1 * n0_count


def naive_group_series(q, r, v, ps, cap):
    """F**v up to w**cap by repeated schoolbook products, F one factor's series."""
    factor = [counting.phi_q_prime_power(q, r, a) for a in range(ps + 1)]
    out = [1] + [0] * cap
    for _ in range(v):
        nxt = [0] * (cap + 1)
        for i, x in enumerate(out):
            for a, f in enumerate(factor[: cap - i + 1]):
                nxt[i + a] += x * f
        out = nxt
    return out


@settings(max_examples=150, deadline=None, database=None)
@given(
    q=st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16, 25, 27]),
    r=st.integers(1, 4),
    v=st.integers(1, 7),
    ps=st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 16, 25]),
    cap=st.integers(0, 60),
    defect=st.booleans(),
)
def test_group_series_matches_literal_power(q, r, v, ps, cap, defect):
    # covers P = 1 (binomial) and v = 1 (one factor) through the same recurrence;
    # the defect end is the same polynomial read from its top coefficient down
    group = counting._group_series(q, r, v, ps, cap, defect)
    if defect:
        expected = naive_group_series(q, r, v, ps, v * ps)[::-1][: cap + 1]
    else:
        expected = naive_group_series(q, r, v, ps, cap)
    assert group == expected[: len(group)]
    assert not any(expected[len(group):])


@settings(max_examples=200, deadline=None, database=None)
@given(q=st.sampled_from(PROPERTY_QS), n=st.integers(1, 90), data=st.data())
def test_distribution_agrees_with_independent_routes(q, n, data):
    params = spectrum.derive_params(q, n)
    pattern = spectrum.degree_pattern(params)
    dist = counting.distribution(q, n)
    assert len(dist.counts) == n + 1
    assert dist.total() == q**n
    assert dist[0] == counting.count_normal(q, n)
    for k, form in ((1, counting.closed_form_n1), (2, counting.closed_form_n2),
                    (3, counting.closed_form_n3)):
        if k <= n:
            assert dist[k] == form(q, n)
    k = data.draw(st.integers(0, n), label="k")
    assert counting.count_k_normal(q, n, k) == dist[k]
    assert counting.count_k_normal_explicit(q, n, k) == dist[k]
    if (params.ps + 1) ** pattern.factor_count() <= ENUM_TUPLE_LIMIT:
        assert counting.count_k_normal_enum(q, n, k) == dist[k]


@pytest.mark.parametrize("q,n", [(2, 4095), (1601, 1600), (3, 2000), (3, 1458)])
def test_large_fields_against_closed_forms(q, n):
    # many factors of one degree, 1600 linear factors, p | n with several
    # degrees, and p**s = 729 with two linear factors
    start = time.perf_counter()
    dist = counting.distribution(q, n)
    assert dist[0] == counting.count_normal(q, n)
    assert dist[1] == counting.closed_form_n1(q, n)
    assert dist[2] == counting.closed_form_n2(q, n)
    assert dist[3] == counting.closed_form_n3(q, n)
    assert dist.total() == q**n
    assert time.perf_counter() - start < 2.5


@pytest.mark.parametrize(
    "q,n,k,route",
    [
        (2, 65536, 0, counting.count_normal),
        (2, 14000, 3, counting.closed_form_n3),
        (3, 100000, 2, counting.closed_form_n2),
    ],
)
def test_low_k_counts_read_only_the_defect_end(q, n, k, route):
    # the full series at these n holds millions of big coefficients
    start = time.perf_counter()
    count = counting.count_k_normal(q, n, k)
    assert time.perf_counter() - start < 0.5
    assert count == route(q, n)
