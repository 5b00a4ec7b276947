"""Extension parameters and the factor-degree pattern of x**n - 1."""

import math

import pytest

from knormal import numtheory, spectrum
from knormal.errors import InputTooLarge, InternalInconsistency, NotPrimePower

PRIME_POWERS = [q for q in range(2, 65) if len(numtheory.factorize(q)) == 1]


def test_derive_params_examples():
    params = spectrum.derive_params(27, 11)
    assert (params.p, params.m, params.s, params.n0, params.d) == (3, 3, 0, 11, 5)
    params = spectrum.derive_params(2, 12)
    assert (params.p, params.m, params.s, params.n0) == (2, 1, 2, 3)
    assert params.ps == 4
    assert not params.coprime
    assert spectrum.derive_params(16, 15).d == 1


def test_derive_params_validation():
    with pytest.raises(NotPrimePower):
        spectrum.derive_params(12, 3)
    with pytest.raises(ValueError):
        spectrum.derive_params(5, 0)
    with pytest.raises(InputTooLarge):
        spectrum.derive_params(2, 10**6 + 1)
    # the documented bound itself is accepted
    assert spectrum.derive_params(2, 10**6).n == 10**6


def test_derive_params_structure():
    for q in PRIME_POWERS:
        for n in range(1, 40):
            params = spectrum.derive_params(q, n)
            assert params.ps * params.n0 == n
            assert params.n0 % params.p != 0
            assert params.p**params.m == q
            # d divides phi(n0) and q**d = 1 mod n0
            assert numtheory.euler_phi(params.n0) % params.d == 0
            assert pow(q, params.d, params.n0) % params.n0 == 1 % params.n0


@pytest.mark.parametrize(
    "q,n,expected",
    [
        (2, 5, {1: 1, 4: 1}),
        (25, 3, {1: 3}),
        (27, 11, {1: 1, 5: 2}),
        (2, 4, {1: 1}),
        (3, 8, {1: 2, 2: 3}),
    ],
)
def test_degree_pattern_examples(q, n, expected):
    pattern = spectrum.degree_pattern(spectrum.derive_params(q, n))
    assert pattern.entries == expected


def test_degree_pattern_invariants():
    for q in PRIME_POWERS:
        for n in range(1, 40):
            params = spectrum.derive_params(q, n)
            pattern = spectrum.degree_pattern(params)
            assert pattern.degree_sum() == params.n0
            assert pattern.v(1) == math.gcd(q - 1, n)
            assert pattern.v(1) >= 1
            assert all(params.d % r == 0 for r, _ in pattern.items())
            assert all(v > 0 for _, v in pattern.items())


def test_degree_pattern_equality_ignores_zeros():
    assert spectrum.DegreePattern({1: 2}) == spectrum.DegreePattern({1: 2, 3: 0})
    assert spectrum.DegreePattern({1: 2}).v(7) == 0


def test_omega_examples():
    assert spectrum.omega(spectrum.derive_params(2, 5)) == 2
    assert spectrum.omega(spectrum.derive_params(2, 7)) == 3
    assert spectrum.omega(spectrum.derive_params(16, 15)) == 15


def test_omega_matches_pattern():
    for q in PRIME_POWERS:
        for n in range(1, 40):
            params = spectrum.derive_params(q, n)
            assert spectrum.omega(params) == spectrum.degree_pattern(params).factor_count()


def test_inexact_pattern_and_omega_are_refused(monkeypatch):
    gcd = numtheory.gcd_qr_minus_one
    params = spectrum.derive_params(2, 7)  # d = 3
    # One more at every u shifts only v_1, so the degrees no longer sum to n0.
    monkeypatch.setattr(numtheory, "gcd_qr_minus_one", lambda q, u, n: gcd(q, u, n) + 1)
    with pytest.raises(InternalInconsistency, match="pattern degree sum 8 != n0 = 7"):
        spectrum.degree_pattern.__wrapped__(params)
    # One more at u = 1 only leaves v_3 and omega fractional.
    monkeypatch.setattr(
        numtheory, "gcd_qr_minus_one", lambda q, u, n: gcd(q, u, n) + (u == 1)
    )
    with pytest.raises(InternalInconsistency, match="degree 3 multiplicity .* not integral"):
        spectrum.degree_pattern.__wrapped__(params)
    with pytest.raises(InternalInconsistency, match="factor count .* not integral"):
        spectrum.omega(params)


def reference_pattern(params):
    """degree_pattern's Moebius sum, re-factoring every divisor."""
    entries = {}
    for r in numtheory.divisors(params.d):
        total = sum(
            numtheory.moebius(r // u) * numtheory.gcd_qr_minus_one(params.q, u, params.n)
            for u in numtheory.divisors(r)
        )
        if total:
            entries[r] = total // r
    return entries


def reference_omega(params):
    return sum(
        numtheory.gcd_qr_minus_one(params.q, r, params.n) * numtheory.euler_phi(params.d // r)
        for r in numtheory.divisors(params.d)
    ) // params.d


# Fields at `factors` sizes: n >= 10**5, q up to 10**12, tau(d) >= 96.
LARGE_FIELDS = [
    (999999999989, 821632),
    (999983**2, 121679),
    (5**17, 110881),  # tau(d) = 120
    (5**17, 916245),  # p | n
    (2, 967950),  # p | n
]


def test_pattern_and_omega_match_the_divisorwise_sums():
    large = [spectrum.derive_params(q, n) for q, n in LARGE_FIELDS]
    assert min(len(numtheory.divisors(params.d)) for params in large) >= 96
    small = [spectrum.derive_params(q, n) for q in PRIME_POWERS for n in range(1, 2001)]
    for params in small + large:
        assert spectrum.degree_pattern(params).entries == reference_pattern(params), params
        assert spectrum.omega(params) == reference_omega(params), params
