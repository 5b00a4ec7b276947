"""Counting formulas: general series, enumeration, explicit profile sum, closed forms."""

import decimal
import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_fields as ref
from knormal import counting, numtheory, spectrum
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
    field = ref.field_of_order(q)
    f = ref.first_irreducible(field, r)
    modulus = f
    for _ in range(e - 1):
        modulus = modulus * f
    units = 0
    deg = modulus.degree
    for digits in itertools.product(range(field.order), repeat=deg):
        candidate = ref.Poly(field, [field.element(d) for d in digits])
        if candidate.is_zero:
            continue
        if ref.poly_gcd(candidate, modulus).degree == 0:
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
    with pytest.raises(ArgumentOutOfRange):
        counting.phi_q_prime_power(2, 0, 1)
    with pytest.raises(ArgumentOutOfRange):
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


def _plant_fractional_terms(monkeypatch):
    terms = counting._recurrence_terms
    monkeypatch.setattr(
        counting, "_recurrence_terms",
        lambda *args: ((m, a + 1, b) for m, a, b in terms(*args)),
    )


def test_group_series_refuses_a_fractional_coefficient(monkeypatch):
    _plant_fractional_terms(monkeypatch)
    with pytest.raises(InternalInconsistency, match="group series coefficient"):
        counting.count_k_normal(3, 6, 3)


def test_decimal_group_series_refuses_a_fractional_coefficient(monkeypatch):
    _plant_fractional_terms(monkeypatch)
    with pytest.raises(InternalInconsistency, match="group series coefficient"):
        counting.distribution(3, 6, decimal.Decimal(1))


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


@st.composite
def _factor_rich_fields(draw):
    """(q, p**s, n) with n = p**s * n0, s >= 1 and n0 | q - 1 or n0 | q + 1:
    every factor of x**n0 - 1 has degree 1 or 2, each with multiplicity p**s."""
    q = draw(st.sampled_from(RICH_QS), label="q")
    p = spectrum.derive_params(q, 1).p
    n0 = draw(st.sampled_from(
        [d for d in range(1, 300 // p + 1) if (q - 1) % d == 0 or (q + 1) % d == 0]
    ), label="n0")
    s = draw(st.integers(1, max(s for s in range(1, 9) if p**s * n0 <= 300)), label="s")
    return q, p**s, p**s * n0


@settings(max_examples=100, deadline=None, database=None)
@given(field=_factor_rich_fields(), data=st.data())
def test_explicit_on_factor_rich_fields(field, data):
    q, _, n = field
    k = data.draw(st.integers(0, n), label="k")
    explicit = counting.count_k_normal_explicit(q, n, k)
    assert explicit == counting.count_k_normal(q, n, k) == counting.distribution(q, n)[k]


@settings(max_examples=100, deadline=None, database=None)
@given(field=_factor_rich_fields(), data=st.data())
def test_defect_end_on_factor_rich_fields(field, data):
    # p | n, so the defect end is read at z = q*u: below k = p**s every
    # factor's series is c0 / (1 - t); from there the linear factors read
    # their full numerator Q - 1 + t**P - Q*t**(P+1)
    q, ps, n = field
    full = ps <= n // 2 and data.draw(st.booleans(), label="k >= p**s")
    k = data.draw(st.integers(ps, n // 2) if full else st.integers(0, min(ps - 1, n // 2)),
                  label="k")
    dist = counting.distribution(q, n)
    assert counting.count_k_normal(q, n, k) == counting.count_k_normal_explicit(q, n, k) == dist[k]
    assert counting.low_counts(q, n, k) == list(dist[: k + 1])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_low_counts_up_to_k_n_are_the_distribution(q):
    # table --k-max n reads the distribution's route, the forward end on a
    # light field, so the defect end up to k = n is also compared with the
    # distribution directly: the division by q**k that ends it cannot catch
    # a wrong series coefficient when p | n, so compare every count
    for n in range(1, 41):
        low = counting.low_counts(q, n, n)
        dist = list(counting.distribution(q, n))
        assert sum(low) == q**n
        assert low == dist
        assert counting._defect_counts(spectrum.derive_params(q, n), n, range(n + 1)) == dist


@st.composite
def _p_dividing_n_fields(draw):
    """(q, n) with p | n <= 300: n = p**s * n0, s >= 1, any n0."""
    q = draw(st.sampled_from(RICH_QS), label="q")
    p = spectrum.derive_params(q, 1).p
    return q, p * draw(st.integers(1, 300 // p), label="n / p")


@settings(max_examples=100, deadline=None, database=None)
@given(field=_p_dividing_n_fields())
def test_the_content_is_the_product_of_the_constant_factors(field):
    # the defect end leaves out each group's constant factor, c0**v below
    # t**P and (Q**(P-1))**v above, and the degrees r > cap add c0**v; their
    # product is the closed form q**(n - n0) * R at every cap
    q, n = field
    params = spectrum.derive_params(q, n)
    pattern = spectrum.degree_pattern(params).items()
    ps = params.ps
    for cap in range(n + 1):
        units = 1
        for r, v in pattern:
            full = cap // r >= ps
            units *= (q ** (r * (ps - 1)) if full else counting.phi_q_prime_power(q, r, ps)) ** v
        assert q ** (n - params.n0) * counting._constant_terms(params, cap) == units, (q, n, cap)


def test_a_planted_coefficient_past_n_minus_n0_is_refused(monkeypatch):
    # (2, 12): n0 = 3, P = 4, so N_k = q**(9 - k) * R * s_k, with R = 1 at
    # cap 12; s_12 = N_12 * 2**3, and one more leaves it odd, so the division
    # that makes N_12 must fail
    weight_series = counting._weight_series
    monkeypatch.setattr(
        counting, "_weight_series",
        lambda *args, **kw: (s := weight_series(*args, **kw))[:-1] + [s[-1] + 1],
    )
    with pytest.raises(InternalInconsistency, match="leaves a remainder"):
        counting._defect_counts(spectrum.derive_params(2, 12), 12, range(13))


@pytest.mark.parametrize("q,n", [(2, 7), (2, 23), (2, 31), (2, 46), (3, 13)])
def test_zero_low_counts_match_the_explicit_formula(q, n, monkeypatch):
    # no divisor of x**n - 1 has degree n - k at these zero cells (at (2, 46)
    # with p | n, so the nonzero cells still divide by q**k)
    k_max = min(n, 12)
    low = counting.low_counts(q, n, k_max)
    assert 0 in low
    assert low == [counting.count_k_normal_explicit(q, n, k) for k in range(k_max + 1)]

    def refuse(*args):
        raise AssertionError("a zero count multiplied out the constant terms")

    monkeypatch.setattr(counting, "_constant_terms", refuse)
    for k in range(k_max + 1):
        if not low[k] and k <= n - k:  # count_k_normal reads the defect end here
            assert counting.count_k_normal(q, n, k) == 0


@pytest.mark.parametrize("q,n", [(2, 23), (2, 46), (3, 13), (4, 21), (5, 12)])
def test_no_degree_above_the_cap_is_expanded(q, n, monkeypatch):
    # each field has degree 1 and higher factor degrees, so the caps from 1
    # up to the largest degree split them
    assert len(spectrum.degree_pattern(spectrum.derive_params(q, n)).entries) > 1
    expanded = []
    fraction = counting._factor_fraction
    monkeypatch.setattr(
        counting, "_factor_fraction",
        lambda q, r, *args: expanded.append(r) or fraction(q, r, *args),
    )
    explicit = [counting.count_k_normal_explicit(q, n, k) for k in range(n + 1)]

    def counted(cap, call, *args):
        expanded.clear()
        counts = call(q, n, *args)
        assert all(r <= cap for r in expanded), (call.__name__, args, expanded)
        return counts

    for k in range(n + 1):
        cap = min(k, n - k)
        assert counted(cap, counting.count_k_normal, k) == explicit[k]
    assert counted(5, counting.low_counts, 5) == explicit[:6]
    assert counted(0, counting.low_counts, -1) == []
    assert list(counted(n, counting.distribution)) == explicit


# Single-group fields (n | q - 1), {1: 1, d: v} fields (n prime) and fields
# whose later degrees do not divide the earlier ones, so the running gcd of
# the degrees falls below the last degree.
ONE_GROUP_FIELDS = [(101, 100), (31, 15), (4001, 1000)]
TWO_DEGREE_FIELDS = [(151856329, 593), (2, 127), (3, 101)]
MIXED_DEGREE_FIELDS = [(2, 21), (4, 35), (2, 42), (2, 105), (3, 28)]


@pytest.mark.parametrize(
    "fields", [SMALL_SWEEP, ONE_GROUP_FIELDS, TWO_DEGREE_FIELDS, MIXED_DEGREE_FIELDS],
    ids=["small-sweep", "one-group", "two-degrees", "mixed-degrees"],
)
def test_decimal_distribution_is_the_int_distribution(fields):
    for q, n in fields:
        ints = counting.distribution(q, n)
        decimals = counting.distribution(q, n, decimal.Decimal(1))
        assert all(type(c) is decimal.Decimal for c in decimals), (q, n)
        assert [str(c) for c in decimals] == [str(decimal.Decimal(c)) for c in ints], (q, n)
        assert ints.total() == q**n, (q, n)
        assert ints[0] == counting.count_normal(q, n), (q, n)


@pytest.mark.parametrize("q,n", [(2, 768), (2, 2880), (11, 700)])
def test_a_heavy_distribution_is_the_forward_end_in_ints(q, n):
    # heavy fields (P = 256, 64 and 1) read the defect end; the forward end
    # in ints is a second route to every count
    params = spectrum.derive_params(q, n)
    assert counting._ring_products(params, n) > counting.RING_PRODUCTS * n
    forward = list(reversed(counting._weight_series(params, n, defect=False)))
    decimals = counting.distribution(q, n, decimal.Decimal(1))
    assert list(counting.distribution(q, n)) == forward
    assert all(type(c) is decimal.Decimal for c in decimals)
    assert [int(c) for c in decimals] == forward
    assert forward[0] == counting.count_normal(q, n)


def test_a_heavy_distribution_makes_its_zeros_in_the_ring(monkeypatch):
    # no heavy field with q <= 64 and n <= 1500 has a zero count, so force
    # (2, 7), whose divisor degrees skip 2 and 5, onto the heavy branch
    monkeypatch.setattr(counting, "RING_PRODUCTS", 0)
    decimals = counting.distribution(2, 7, decimal.Decimal(1))
    assert [str(c) for c in decimals] == ["49", "49", "0", "14", "14", "0", "1", "1"]
    assert all(type(c) is decimal.Decimal for c in decimals)


@pytest.mark.parametrize("q, n, one", [
    (2, 3, 2),  # once read (180, 60, 12, 4) for (3, 3, 1, 1)
    (2, 768, 2),  # heavy: the defect end would return the counts unscaled
    (3, 1000, 1.0),  # a float ring: once an InternalInconsistency
    (2, 5, decimal.Decimal("1.0")),  # would carry its exponent: Decimal('15.0')
    (2, 5, True),
    (2, 5, decimal.Decimal(-1)),
], ids=["2", "2-heavy", "float", "Decimal-1.0", "True", "Decimal-minus-1"])
def test_distribution_refuses_any_other_unit_before_any_series(monkeypatch, q, n, one):
    monkeypatch.setattr(counting, "_counts", lambda *args: pytest.fail("a series ran"))
    with pytest.raises(ArgumentOutOfRange, match="one must be the int 1 or Decimal"):
        counting.distribution(q, n, one)


# Each request's route from _counts: the end it reads, the power of z it
# reads to, and the ring its series runs in (the defect end's is always int).
# A change of route changes this table in the same diff.
ROUTE_REQUESTS = {
    "k=0": lambda q, n: [counting.count_k_normal(q, n, 0)],
    "k=1": lambda q, n: [counting.count_k_normal(q, n, 1)],
    "k=n/2": lambda q, n: [counting.count_k_normal(q, n, n // 2)],
    "k=n-1": lambda q, n: [counting.count_k_normal(q, n, n - 1)],
    "k=n": lambda q, n: [counting.count_k_normal(q, n, n)],
    "k_max=3": lambda q, n: counting.low_counts(q, n, 3),
    "k_max=n-1": lambda q, n: counting.low_counts(q, n, n - 1),
    "k_max=n": lambda q, n: counting.low_counts(q, n, n),
    "ints": lambda q, n: list(counting.distribution(q, n)),
    "Decimal": lambda q, n: list(counting.distribution(q, n, decimal.Decimal(1))),
}
LIGHT_ROUTES = ["defect 0 int", "defect 1 int", "defect 6 int", "forward 1 int", "forward 0 int",
                "defect 3 int", "defect 11 int", "forward 12 int", "forward 12 int",
                "forward 12 Decimal"]
ROUTE_TABLE = {
    (2, 12): LIGHT_ROUTES,  # p | n
    (3, 12): LIGHT_ROUTES,  # p | n
    (5, 12): LIGHT_ROUTES,  # coprime
    (2, 768): ["defect 0 int", "defect 1 int", "defect 384 int", "forward 1 int",  # p | n
               "forward 0 int", "defect 3 int", "defect 767 int", "defect 768 int",
               "defect 768 int", "defect 768 int"],
    (11, 700): ["defect 0 int", "defect 1 int", "defect 350 int", "forward 1 int",  # coprime
                "forward 0 int", "defect 3 int", "defect 699 int", "defect 700 int",
                "defect 700 int", "defect 700 int"],
}


@pytest.mark.parametrize("q,n", list(ROUTE_TABLE))
def test_the_planner_picks_each_route(q, n, monkeypatch):
    # light fields read the shorter end, and all of z**n forward in the ring;
    # heavy fields (past RING_PRODUCTS) read all of z**n from the defect end
    # in ints and map the counts into the ring
    heavy = counting._ring_products(spectrum.derive_params(q, n), n) > counting.RING_PRODUCTS * n
    assert heavy == (n > 12)
    routes = []
    weight_series, defect_counts = counting._weight_series, counting._defect_counts

    def series(params, cap, defect, one=1):
        routes.append(f"{'defect' if defect else 'forward'} {cap} {type(one).__name__}")
        return weight_series(params, cap, defect, one)

    def defect_end(params, cap, ks):
        routes.append(f"_defect_counts {cap}")
        return defect_counts(params, cap, ks)

    monkeypatch.setattr(counting, "_weight_series", series)
    monkeypatch.setattr(counting, "_defect_counts", defect_end)
    for (request, call), route in zip(ROUTE_REQUESTS.items(), ROUTE_TABLE[q, n], strict=True):
        routes.clear()
        counts = call(q, n)
        end, cap, _ = route.split()
        assert routes == ([f"_defect_counts {cap}"] if end == "defect" else []) + [route], request
        ring = decimal.Decimal if request == "Decimal" else int
        assert all(type(c) is ring for c in counts), request


def test_each_count_function_is_one_call_to_the_planner(monkeypatch):
    # count_k_normal, low_counts and distribution each make one _counts call,
    # and nothing but _counts calls the series, the cost estimate or the ring
    planned, outside, depth = [], [], [0]
    counts = counting._counts

    def planner(*args):
        planned.append(args)
        depth[0] += 1
        try:
            return counts(*args)
        finally:
            depth[0] -= 1

    def watched(name, call):
        def spy(*args, **kwargs):
            if not depth[0]:
                outside.append(name)
            return call(*args, **kwargs)
        return spy

    monkeypatch.setattr(counting, "_counts", planner)
    for name in ("_weight_series", "_group_series", "_defect_counts", "_ring_products", "_exact"):
        monkeypatch.setattr(counting, name, watched(name, getattr(counting, name)))
    for q, n in [(2, 12), (5, 12), (2, 768)]:
        for request, call in ROUTE_REQUESTS.items():
            planned.clear()
            call(q, n)
            assert len(planned) == 1, (q, n, request)
    assert outside == []


def test_decimal_distribution_is_exact_under_the_default_context():
    # 2**89 has 27 digits, so the sum rounds at decimal's default precision
    # of 28 once N_0 carries into it, and N_0 and N_1 did
    with decimal.localcontext(decimal.Context()):
        dist = counting.distribution(2, 89, decimal.Decimal(1))
        total = dist.total()
    ints = counting.distribution(2, 89)
    assert type(dist[0]) is decimal.Decimal
    assert [int(c) for c in dist] == list(ints)
    assert int(total) == ints.total() == 2**89


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


def test_the_counting_references_share_no_engine_code(monkeypatch):
    # with the engine's planner, cost estimate, series, recurrence, factor
    # fractions, defect counts and content raising, the explicit and
    # enumerated counts, the closed forms and count_normal still run, and
    # each agrees with count_k_normal once the engine is restored
    fields = [(2, 12), (3, 9), (4, 6), (5, 7), (7, 5)]

    def references(q, n):
        every_k = range(n + 1)
        return (
            [counting.count_k_normal_explicit(q, n, k) for k in every_k],
            [counting.count_k_normal_enum(q, n, k) for k in every_k],
            [counting.count_normal(q, n)]
            + [form(q, n) for form in (counting.closed_form_n1, counting.closed_form_n2,
                                       counting.closed_form_n3)],
        )

    def engine(*args, **kwargs):
        raise AssertionError("a reference reached the counting engine")

    with monkeypatch.context() as patch:
        for name in ("_weight_series", "_group_series", "_recurrence_terms", "_factor_fraction",
                     "_defect_counts", "_constant_terms", "_counts", "_ring_products"):
            patch.setattr(counting, name, engine)
        computed = [references(q, n) for q, n in fields]
    for (q, n), (explicit, enum, low) in zip(fields, computed):
        counts = [counting.count_k_normal(q, n, k) for k in range(n + 1)]
        assert explicit == counts, (q, n)
        assert enum == counts, (q, n)
        assert low == counts[:4], (q, n)


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
    # the defect end is the same polynomial read from its top coefficient down,
    # when P > 1 at z = q*u (coefficient j times Q**j) and without unit**v,
    # the constant factor left out
    num, d = counting._factor_fraction(q, r, ps, cap, defect)
    group = counting._group_series(num, d, v, min(v * ps, cap) + 1)
    if defect:
        unit = q ** (r * (ps - 1))  # Q**(P-1), 1 at P = 1
        if ps > 1 and cap < ps:
            unit = counting.phi_q_prime_power(q, r, ps)  # c0 below t**P
        expected = naive_group_series(q, r, v, ps, v * ps)[::-1][: cap + 1]
        expected = [counting._exact_div(x * q ** (r * j * (ps > 1)), unit**v)
                    for j, x in enumerate(expected)]
    else:
        expected = naive_group_series(q, r, v, ps, cap)
    assert group == expected[: len(group)]
    assert not any(expected[len(group):])


@settings(max_examples=150, deadline=None, database=None)
@given(
    q=st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16, 25, 27]),
    r=st.integers(1, 4),
    v=st.integers(1, 7),
    ps=st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 16, 25]),
    cap=st.integers(0, 60),
)
def test_decimal_group_series_matches_literal_power(q, r, v, ps, cap):
    # the forward end as distribution makes it: the factor's coefficients
    # built from one * q, the whole series in the exact decimal context
    one = decimal.Decimal(1)
    with counting._exact(one):
        num, d = counting._factor_fraction(one * q, r, ps, cap, False)
        group = counting._group_series(num, d, v, min(v * ps, cap) + 1, one)
    expected = naive_group_series(q, r, v, ps, cap)
    assert all(type(g) is decimal.Decimal for g in group)
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


@pytest.mark.parametrize(
    "q,n,k,explicit",
    [
        (2, 207360, 452, True),  # p**s = 512 > k: every factor is c0 / (1 - t)
        (5, 556875, 467, False),  # p**s = 625 > k, 1.3 Mbit counts
        (2, 10**6, 1000, False),  # p**s = 64: degrees up to 15 read their full numerator
        (2, 10**6, 100, True),
        (3, 100000, 300, True),  # p does not divide n: no rescale, degrees > k in the content
    ],
)
def test_defect_end_of_large_fields(q, n, k, explicit):
    # the series holds small integers; the content enters only the counts returned
    start = time.perf_counter()
    count = counting.count_k_normal(q, n, k)
    assert time.perf_counter() - start < 1
    if explicit:
        assert count == counting.count_k_normal_explicit(q, n, k)
    start = time.perf_counter()
    low = counting.low_counts(q, n, 3)
    assert time.perf_counter() - start < 1
    assert low == [counting.count_normal(q, n), counting.closed_form_n1(q, n),
                   counting.closed_form_n2(q, n), counting.closed_form_n3(q, n)]


def test_coprime_defect_end_keeps_its_pace():
    # p = 2 does not divide n, so the series is not rescaled: the old reversed
    # recurrence runs on every degree (all <= 16 < k); about 1.5 s.  The residue
    # pins the count, which no independent route reaches at this size
    start = time.perf_counter()
    count = counting.count_k_normal(2, 65535, 30000)
    assert time.perf_counter() - start < 3
    assert (count.bit_length(), count % (2**61 - 1)) == (39617, 1966675656894518680)
