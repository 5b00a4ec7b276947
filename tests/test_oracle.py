"""Brute-force field sweeps and cyclotomic cosets against the formulas."""

import ast
import collections
import copy
import pathlib
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_fields as ref
from knormal import counting, galois, lanes, numtheory, oracle, spectrum
from knormal.errors import (
    ArgumentOutOfRange,
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


def test_a_sweep_shares_only_the_record_with_the_counting_side(monkeypatch):
    # with the engine's planner, cost estimate, series and defect counts
    # raising, a sweep in each lane kernel (_Bits, _Trits, _Digits) still
    # runs, and it agrees with the engine once that is restored; (4, 5),
    # (16, 3) and (9, 5) split factors over F_p into factors over F_q
    fields = [(2, 6), (3, 4), (5, 3), (4, 5), (16, 3), (9, 5)]

    def engine(*args, **kwargs):
        raise AssertionError("a sweep reached the counting engine")

    with monkeypatch.context() as patch:
        for name in ("_weight_series", "_group_series", "_defect_counts", "_counts",
                     "_ring_products"):
            patch.setattr(counting, name, engine)
        swept = [oracle.brute_force_distribution(q, n) for q, n in fields]
    for (q, n), distribution in zip(fields, swept):
        assert distribution == counting.distribution(q, n), (q, n)


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
        conjugates.append(ref.field_pow(top, conjugates[-1], q))
    return conjugates


def _literal_rank_distribution(q, n):
    """n - rank over F_q of the conjugates, element by element, in generic arithmetic.

    F_{q^n} is F_q[v]/(h) over F_q = F_p[u]/(g), in tuples: an element of
    F_{q^n} is its n coordinates over F_q, so a rank over F_q is an
    elimination on them; the sweep's field has no such coordinates.
    """
    mid = ref.field_of_order(q)
    top = ref.ExtensionField(mid, ref.first_irreducible(mid, n))
    counts = [0] * (n + 1)
    for i in range(top.order):
        conjugates = _conjugates(top, q, n, top.element(i))
        counts[n - _rank_over(mid, conjugates)] += 1
    return counts


def _g_alpha(top, q, n, alpha):
    """Conjugate polynomial sum of alpha**(q**i) * x**(n-1-i) over i < n."""
    return ref.Poly(top, _conjugates(top, q, n, alpha)[::-1])


def _xn_minus_one(top, n):
    """x**n - 1 over top."""
    return ref.Poly(top, (top.neg(top.one),) + (top.zero,) * (n - 1) + (top.one,))


def _gcd_distribution(q, n):
    """deg gcd(x**n - 1, g_alpha) for every alpha, once per F_q*-line, in generic arithmetic.

    The field is F_p[x]/(f), f the second monic irreducible of degree n*m
    in scan order wherever one exists (the sweep's field takes the first);
    F_q enters only through alpha -> alpha**q, whose fixed points are F_q.
    As g_(c*alpha) = c*g_alpha, the degree holds on the whole line of alpha:
    its q - 1 elements c*alpha are marked one by one, and none may be marked
    twice.
    """
    p, m = numtheory.prime_power_decompose(q)
    index = 1 if galois.irreducible_count(p, n * m) > 1 else 0
    top = ref.flat_field(p, galois.find_irreducible(p, n * m, index))
    target = _xn_minus_one(top, n)
    scalars = []  # F_q*, the nonzero fixed points
    for i in range(1, top.order):
        if len(scalars) == q - 1:
            break
        beta = top.element(i)
        if ref.field_pow(top, beta, q) == beta:
            scalars.append(beta)
    assert len(scalars) == q - 1
    counts = [0] * (n + 1)
    counts[n] = 1  # g_0 = 0, and gcd(x**n - 1, 0) is x**n - 1
    marked = bytearray(top.order)
    for i in range(1, top.order):
        if marked[i]:
            continue
        alpha = top.element(i)
        k = ref.poly_gcd(target, _g_alpha(top, q, n, alpha)).degree
        for c in scalars:
            j = top.index(top.mul(c, alpha))
            assert not marked[j], "two F_q*-lines share an element"
            marked[j] = 1
            counts[k] += 1
    return counts


def test_g_alpha_f4_example():
    tower = galois.build_tower(2, 2, 0)
    top = ref.flat_field(tower.p, tower.modulus)
    w = top.element(2)
    g = _g_alpha(top, 2, 2, w)
    # g_w = w*x + w^2 over F_4
    assert g.coeffs == (top.mul(w, w), w)
    assert _g_alpha(top, 2, 2, top.zero).is_zero


def test_g_alpha_respects_scaling_and_frobenius():
    tower = galois.build_tower(3, 3, 0)
    top = ref.flat_field(tower.p, tower.modulus)
    target = _xn_minus_one(top, 3)
    x = ref.Poly(top, (top.zero, top.one))
    for i in range(1, top.order, 7):
        a = top.element(i)
        # g_{a^q} = x * g_a mod x^n - 1
        lhs = _g_alpha(top, 3, 3, ref.field_pow(top, a, 3))
        rhs = (x * _g_alpha(top, 3, 3, a)) % target
        assert lhs == rhs
    # scalar from F_3: g_{c*a} = c * g_a
    c = (2, 0, 0)  # the constant 2 of F_3
    for i in range(1, top.order, 11):
        a = top.element(i)
        lhs = _g_alpha(top, 3, 3, top.mul(c, a))
        rhs = ref.Poly(top, tuple(top.mul(c, co) for co in _g_alpha(top, 3, 3, a).coeffs))
        assert lhs == rhs


def test_k_normal_is_the_codimension_of_the_conjugates():
    # the definition itself: the F_q-span of alpha, alpha**q, ... has
    # codimension k exactly for the k-normal alpha
    for q, n in [(2, 6), (3, 4), (4, 3), (8, 2), (9, 2), (25, 2)]:
        literal = _literal_rank_distribution(q, n)
        assert literal == _gcd_distribution(q, n)
        assert literal == lanes.sweep(galois.build_tower(q, n, 0))


def test_gcd_reference_on_a_second_modulus_agrees_with_the_sweep():
    # the per-element gcd sweep, on a second modulus where one exists, validates the sweep
    for q, n in [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4),
                 (4, 2), (4, 3), (5, 2), (7, 2), (8, 2), (9, 2), (16, 2), (25, 1), (27, 2),
                 (4, 4), (8, 3), (16, 3), (27, 3), (67, 2)]:
        assert _gcd_distribution(q, n) == list(oracle.brute_force_distribution(q, n))


def test_a_cached_field_scans_for_its_modulus_once(monkeypatch):
    # a sweep reads its field from the cache: a second sweep, and a direct
    # build_tower of the same field, scan for no modulus
    calls = []
    find_irreducible = galois.find_irreducible
    monkeypatch.setattr(
        galois, "find_irreducible",
        lambda p, *args: calls.append((p, *args)) or find_irreducible(p, *args),
    )
    galois.build_tower.cache_clear()
    try:
        for _ in range(2):
            assert oracle.brute_force_distribution(25, 3) == counting.distribution(25, 3)
        hits = galois.build_tower.cache_info().hits
        tower = galois.build_tower(25, 3, 0)  # the sweep's field: a hit, no new scan
        assert galois.build_tower.cache_info().hits == hits + 1
        assert calls == [(5, 6, 0)] and tower.p == 5
        with pytest.raises(TypeError):
            galois.build_tower(25, 3)  # the index has no default, so no second key
    finally:
        galois.build_tower.cache_clear()  # drop the field built by the wrapper


@pytest.mark.parametrize("q,n", [(25, 2)])
def test_dependent_scaled_copies_are_refused(monkeypatch, q, n):
    # b_1 = 2 * b_0: every multiple b_1 * alpha is an F_p-multiple of alpha
    monkeypatch.setattr(lanes, "_fq_basis", lambda F, images, m: [F.one, F.scale(F.one, 2)])
    with pytest.raises(InternalInconsistency, match="the basis of F_q is dependent"):
        lanes.sweep(galois.build_tower(q, n, 0))


def test_a_dependent_f_q_basis_is_refused(monkeypatch):
    # b_1 = b_0 = 1: every multiple b_1 * alpha is alpha itself
    monkeypatch.setattr(lanes, "_fq_basis", lambda F, images, m: [F.one] * m)
    for q, n in [(4, 3), (9, 3), (25, 3)]:
        with pytest.raises(InternalInconsistency, match="the basis of F_q is dependent"):
            lanes.sweep(galois.build_tower(q, n, 0))


def _replace_frobenius(monkeypatch, make):
    """Sweep with make(F, the true x**q) as x**q, the one input of the powers of x -> x**q."""
    frobenius_table = lanes._frobenius_table
    monkeypatch.setattr(lanes, "_frobenius_table",
                        lambda F, xq, *rest: frobenius_table(F, make(F, xq), *rest))


def _changed(c, t):
    """x**q with t times x**c added."""

    def make(F, xq):
        for _ in range(t):
            xq = F.add(xq, F.monomial(c))
        return xq

    return make


@pytest.mark.parametrize("q,n,c,t", [(2, 5, 0, 1), (4, 4, 1, 1), (3, 4, 1, 2), (9, 3, 5, 1),
                                     (5, 3, 0, 1), (25, 2, 1, 1)])
def test_a_perturbed_frobenius_is_refused(monkeypatch, q, n, c, t):
    # t * x**c, and x**c' for every c' < N, added to x**q, with the check tied
    # to f taken out: (x**q + t * x**c)**(q**(n-1)) is x plus
    # (t * x**c)**(q**(n-1)) != 0, so x**q no longer returns to x after n steps
    tower = galois.build_tower(q, n, 0)
    for change in sorted({(c, t)} | {(c2, 1) for c2 in range(tower.n * tower.m)}):
        monkeypatch.setattr(lanes, "_check_frobenius", lambda F, xq: None)
        _replace_frobenius(monkeypatch, _changed(*change))
        with pytest.raises(InternalInconsistency, match="taken n times is not 1 on its columns"):
            lanes.sweep(tower)
        monkeypatch.undo()


@pytest.mark.parametrize("q,n", [(2, 5), (3, 4), (5, 3)])
def test_every_single_digit_change_of_the_frobenius_is_refused(monkeypatch, q, n):
    # every t * x**c added to x**q, 1 <= t < p, is not a root of f, and the
    # root check refuses it first; c = 0, t = 1 gives the non-root x**q + 1
    tower = galois.build_tower(q, n, 0)
    N, p = tower.n * tower.m, tower.p
    for c, t in [(c, t) for c in range(N) for t in range(1, p)]:
        _replace_frobenius(monkeypatch, _changed(c, t))
        with pytest.raises(InternalInconsistency, match="Frobenius column 1 is not a root of f"):
            lanes.sweep(tower)
        monkeypatch.undo()  # the next change starts from the true x**q


@pytest.mark.parametrize("q,n", [(2, 4), (4, 4), (3, 4), (9, 4), (5, 4)])
def test_a_wrong_f_q_dimension_is_refused(monkeypatch, q, n):
    # x -> x**(q*q) fixes F_{q^2}, of dimension 2m, inside F_{q^n} for even n;
    # its x**(q*q) is a root of f, and its powers return to x after n steps
    frobenius_table = lanes._frobenius_table
    monkeypatch.setattr(
        lanes, "_frobenius_table",
        lambda F, xq, q, *rest: frobenius_table(F, lanes._power(F.mulmod, xq, q), q * q, *rest),
    )
    with pytest.raises(InternalInconsistency, match="F_q has dimension"):
        lanes.sweep(galois.build_tower(q, n, 0))


def test_f3_digit_arithmetic_over_all_digits():
    # lane l of a plane holds digit a[l] of a vector; every pair of digits
    F = lanes._Trits(galois.build_tower(3, 2, 0).modulus)

    def plane(digits):
        return (sum(1 << l for l, d in enumerate(digits) if d == 1),
                sum(1 << l for l, d in enumerate(digits) if d == 2))

    def digits(v, count):
        return [F.lane_digit(v, l) for l in range(count)]

    a, b = [d // 3 for d in range(9)], [d % 3 for d in range(9)]
    ones = lanes._lane_mask(F, 9)
    # plus: digit c of an element added to every lane of plane c, whose lanes
    # hold every digit, so every digit pair; a sweep's lanes get their
    # coordinates from plus and concat
    every = range(3)
    element = sum(c << c * F.width for c in every)
    total = F.plus([plane(every)] * 3, element, lanes._lane_mask(F, 3))
    assert [digits(v, 3) for v in total] == [[(c + d) % 3 for d in every] for c in every]
    # nonzero: the lanes whose vector (a[l], b[l]) is not 0
    assert F.nonzero([plane(a), plane(b)], ones) == sum(1 << l for l in range(9) if a[l] or b[l])


@pytest.mark.parametrize("p", [3, 5, 7, 11, 131])
def test_packed_digit_arithmetic_over_all_digits(p):
    # lane l of a plane holds digit a[l] of a vector; every pair of digits
    tower = galois.build_tower(p, 2, 0)
    F = lanes._Digits(tower.modulus, p)
    field = ref.flat_field(p, tower.modulus)

    def plane(digits):
        return sum(d << l * F.lane_width for l, d in enumerate(digits))

    def element(digits):
        return sum(d << k * F.width for k, d in enumerate(digits))

    def digits(v, count):
        return [F.lane_digit(v, l) for l in range(count)]

    a, b = [d // p for d in range(p * p)], [d % p for d in range(p * p)]
    ones = lanes._lane_mask(F, p * p)
    # plus: digit c of an element added to every lane of plane c, whose lanes
    # hold every digit, so every digit pair; a sweep's lanes get their
    # coordinates from plus and concat
    every = range(p)
    total = F.plus([plane(every)] * p, element(every), lanes._lane_mask(F, p))
    assert [digits(v, p) for v in total] == [[(c + d) % p for d in every] for c in every]
    # nonzero: the lanes whose vector (a[l], b[l]) is not 0, at the low bit of each lane
    live = [int(x != 0 or y != 0) for x, y in zip(a, b)]
    assert F.nonzero([plane(a), plane(b)], ones) == plane(live)
    # element sums, digit multiples and products match the generic field F_p[x]/(f)
    elements = range(field.order) if p < 12 else range(0, field.order, 97)
    for i in elements:
        x = field.element(i)
        assert F.scale(element(x), i % p) == element([i % p * d % p for d in x])
        for j in elements:
            y = field.element(j)
            assert F.add(element(x), element(y)) == element(field.add(x, y))
            assert F.mulmod(element(x), element(y)) == element(field.mul(x, y))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 131, 2039, 4194301])
def test_a_product_fits_the_element_fields(p):
    # mulmod multiplies packed elements as given, so every digit of a product
    # before mod p must fit its field: the worst case has every digit of both
    # operands and of f below x**N at p - 1, at every N of a sweepable field
    # and one N past them; then a few random pairs.  At N = 1 a digit of a
    # product is at most (p - 1)**2, a bit under the 2N(p - 1)**2 the fields
    # are sized for, so for p = 4194301, sweepable only at N = 1, N = 2 is
    # the first N that a field one bit short fails
    rng = random.Random(p)
    N = 1
    while p ** (N - 1) <= oracle.DEFAULT_MAX_ORDER:
        coeffs = (p - 1,) * N + (1,)
        F = lanes._field(p, coeffs)
        ring = ref.flat_field(p, coeffs)

        def element(digits):
            return sum(d << k * F.width for k, d in enumerate(digits))

        top = (p - 1,) * N
        pairs = [(top, top)] + [tuple(tuple(rng.randrange(p) for _ in range(N)) for _ in "ab")
                                for _ in range(3)]
        for a, b in pairs:
            assert F.mulmod(element(a), element(b)) == element(ring.mul(a, b)), (N, a, b)
        N += 1


@pytest.mark.parametrize("p", [3, 5, 131])
def test_a_digit_multiple_takes_no_lane_product(monkeypatch, p):
    # c*v is double-and-add over F.add, every digit of 2N, and never a field
    # product
    F = lanes._field(p, galois.build_tower(p, 2, 0).modulus)

    def refuse(*args):
        raise AssertionError("a product")

    def packed(digits):
        return sum(d << k * F.width for k, d in enumerate(digits))

    monkeypatch.setattr(F, "mulmod", refuse)
    v = [1, p - 1, 0, p // 2]  # 2N digits, N = 2
    for c in range(p):
        assert F.scale(packed(v), c) == packed([c * d % p for d in v])


def test_a_sweep_uses_no_generic_field_arithmetic(monkeypatch):
    # every sweep and modulus scan, whatever its characteristic, works in
    # packed digits, with no coset count and no generic field arithmetic,
    # which no module of the package defines or imports; (4, 5), (16, 3) and
    # (9, 5) split factors over F_p into factors over F_q on orbits of their own
    generic = {"reference_fields", "PrimeField", "ExtensionField", "Poly", "field_pow",
               "poly_gcd", "is_irreducible", "first_irreducible"}
    sources = sorted(pathlib.Path(galois.__file__).parent.glob("*.py"))
    assert {"galois.py", "lanes.py", "oracle.py"} <= {path.name for path in sources}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            # a class or function defined, a module imported from, a name imported or bound
            for name in (getattr(node, attr, None) for attr in ("name", "module", "asname")):
                assert not {*str(name).split(".")} & generic, (path.name, name)
    fields = [(2, 9), (4, 4), (8, 3), (16, 1), (3, 7), (9, 3), (27, 2), (81, 1),
              (5, 4), (7, 3), (25, 2), (125, 1), (131, 2), (4, 5), (16, 3), (9, 5)]

    def refuse(*args):
        raise AssertionError("not part of a lane sweep")

    for owner, name in [(oracle, "cyclotomic_cosets"), (ref, "field_pow"),
                        (ref.PrimeField, "mul"), (ref.PrimeField, "inv"),
                        (ref.ExtensionField, "mul"), (ref.ExtensionField, "inv")]:
        monkeypatch.setattr(owner, name, refuse)
    for q, n in fields:
        assert lanes.sweep(galois.TowerField(q, n, 0)) == list(counting.distribution(q, n))


def test_lanes_split_into_small_blocks(monkeypatch):
    # at most 2**bits lanes a block, 2**bits for p = 2 and 3 or 9 for p = 3,
    # 5 for p = 5: the first block takes the degrees with fewer lanes, each
    # larger degree fills blocks whose high digits add a constant to whole
    # planes; with p = 11 > 2**3 a block is one lane and the first is empty
    for bits in (3, 4):
        monkeypatch.setattr(lanes, "_LANE_BLOCK_BITS", bits)
        for q, n in [(2, 10), (4, 5), (8, 3), (16, 2), (2, 3), (3, 6), (9, 3), (27, 2), (3, 2),
                     (5, 4), (25, 2), (11, 2)]:
            assert oracle.brute_force_distribution(q, n) == counting.distribution(q, n)


def test_the_ranker_returns_one_mask_per_rank_covering_its_block(monkeypatch):
    # for every block, n + 1 masks: no lane in two, every lane of the block in
    # one; the planes and the layers it is given come back unchanged
    lane_blocks, rank_lanes = lanes._lane_blocks, lanes._rank_lanes
    yielded, ranked = [], []

    def recording(F, n, m, heads, digits):
        for block in lane_blocks(F, n, m, heads, digits):
            yielded.append(block)
            yield block

    def checked(F, planes, count, n, P, layers):
        given = copy.deepcopy((planes, layers))
        masks = rank_lanes(F, planes, count, n, P, layers)
        assert (planes, layers) == given and len(masks) == n + 1
        union = 0
        for mask in masks:
            assert not union & mask
            union |= mask
        assert union == lanes._lane_mask(F, count)
        ranked.append((planes, count))
        return masks

    monkeypatch.setattr(lanes, "_lane_blocks", recording)
    monkeypatch.setattr(lanes, "_rank_lanes", checked)
    for bits in (3, 4):
        monkeypatch.setattr(lanes, "_LANE_BLOCK_BITS", bits)
        for q, n in [(2, 10), (4, 5), (3, 6), (9, 3), (5, 4), (25, 2)]:
            yielded.clear()
            ranked.clear()
            assert lanes.sweep(galois.build_tower(q, n, 0)) == list(counting.distribution(q, n))
            assert ranked == yielded and len(yielded) > 1


def _fq_arithmetic(q):
    """(F, basis, tower): the sweep's digit arithmetic on F_q = F_p[x]/(f)
    itself, deg f = m, the basis of F_q in it, and the field's record."""
    tower = galois.build_tower(q, 1, 0)
    F = lanes._field(tower.p, tower.modulus)
    xq = lanes._power(F.mulmod, F.mulmod(F.one, F.monomial(1)), q)
    return F, lanes._fq_basis(F, lanes._frobenius_table(F, xq, q, 1)[1], tower.m), tower


def test_the_factors_of_x_to_the_n0_minus_1():
    # every q <= 64 and n0 <= 60 prime to q: monic factors whose product, in
    # the generic arithmetic, is x**n0 - 1, one per cyclotomic coset; over F_p
    # each passes Rabin's test (once: x**n0 - 1 shares factors across n0)
    irreducible = set()
    for q in [q for q in PRIME_POWERS_4096 if q <= 64]:
        F, basis, tower = _fq_arithmetic(q)
        p, m = tower.p, tower.m
        # F_p itself or F_p[x]/(f), deg f = m
        field = ref.PrimeField(p) if m == 1 else ref.flat_field(p, tower.modulus)
        for n0 in [n0 for n0 in range(1, 61) if n0 % p]:
            factors = lanes._factors(F, basis, q, n0, random.Random(n0))
            product = ref.Poly(field, [field.one])
            for f in factors:
                assert f[-1] == F.one, (q, n0, f)
                coeffs = f if m == 1 else [tuple(F.digit(c, k) for k in range(m)) for c in f]
                product = product * ref.Poly(field, coeffs)
                if m == 1 and (p, *f) not in irreducible:
                    assert ref.is_irreducible(ref.Poly(field, f)), (q, n0, f)
                    irreducible.add((p, *f))
            assert product == _xn_minus_one(field, n0), (q, n0)
            assert sorted(len(f) - 1 for f in factors) == oracle.cyclotomic_cosets(q, n0)


@pytest.mark.parametrize("q,n", [(2, 9), (3, 8), (4, 6)])
def test_two_factors_taken_as_one_are_refused_or_miscount(monkeypatch, q, n):
    # the product of two factors of x**n0 - 1, treated as one factor, ranks
    # alpha by the larger of its two exponents
    factors = lanes._factors

    def merged(F, basis, q, n0, rng):
        first, second, *rest = factors(F, basis, q, n0, rng)
        return [lanes._product(F, first, second)] + rest

    monkeypatch.setattr(lanes, "_factors", merged)
    try:
        counts = lanes.sweep(galois.build_tower(q, n, 0))
    except InternalInconsistency:
        return
    assert counts != list(counting.distribution(q, n))


@pytest.mark.parametrize("q,n", [(2, 6), (3, 4), (25, 2)])
def test_a_lane_that_survives_p_steps_is_refused(monkeypatch, q, n):
    # a factor f taken as x**deg f: its cofactor (x**n0 - 1) // f is then a
    # power of x, so cofactor**P * f**P is x**n, which is 1, not 0, mod
    # x**n - 1, and f(x -> x**q)**P would kill no column of f
    factors = lanes._factors

    def monomial_first(F, basis, q, n0, rng):
        first, *rest = factors(F, basis, q, n0, rng)
        return [[F.zero] * (len(first) - 1) + [F.one]] + rest

    monkeypatch.setattr(lanes, "_factors", monomial_first)
    with pytest.raises(InternalInconsistency, match=r"cofactor\*\*P \* f\*\*P is not x\*\*n - 1"):
        lanes.sweep(galois.build_tower(q, n, 0))


MISRANKED_FIELDS = [(2, 6), (3, 4), (5, 3), (25, 2), (2039, 2), (7, 4)]


@pytest.mark.parametrize("q,n", MISRANKED_FIELDS)
def test_a_flag_basis_short_of_a_layer_or_with_a_repeated_column_is_refused(monkeypatch, q, n):
    # the basis of _flag_basis with one layer of one factor dropped, or with
    # one column replaced by another, spans too little to give every lane
    # its coordinates: the sweep raises or miscounts
    tower = galois.build_tower(q, n, 0)
    flag_basis, built = lanes._flag_basis, []
    monkeypatch.setattr(lanes, "_flag_basis",
                        lambda *args: built.append((flag_basis(*args), args[-1])) or built[-1][0])
    lanes.sweep(tower)
    (columns, layers), P = built[0]
    mutants, start = [], 0
    for _, width in layers:
        for _ in range(P):
            mutants.append(columns[:start] + columns[start + width:])
            start += width
    assert start == len(columns) == tower.n * tower.m
    for c in range(len(columns)):
        mutants.append(columns[:c] + [columns[(c + 1) % len(columns)]] + columns[c + 1:])
    expected = list(counting.distribution(q, n))
    for mutant in mutants:
        monkeypatch.setattr(lanes, "_flag_basis", lambda *args: (mutant, layers))
        try:
            counts = lanes.sweep(tower)
        except InternalInconsistency:
            continue
        assert counts != expected


@pytest.mark.parametrize("q,n", MISRANKED_FIELDS)
def test_a_wrong_inverse_of_the_flag_basis_is_refused(monkeypatch, q, n):
    # x's coordinates plus e_0: the lanes are enumerated at coordinates that
    # are no lane's, and the re-rank of B c, whose coordinates are c, cannot
    # see it, so only the check of B**-1 B = 1 refuses the sweep; without it,
    # (2, 6) returns wrong counts
    inverse = lanes._inverse

    def planted(F, columns):
        images = inverse(F, columns)
        return [images[0], F.add(images[1], F.one), *images[2:]]

    monkeypatch.setattr(lanes, "_inverse", planted)
    with pytest.raises(
        InternalInconsistency, match="the inverse of the basis adapted to the flags"
    ):
        lanes.sweep(galois.build_tower(q, n, 0))


@pytest.mark.parametrize("q,n", MISRANKED_FIELDS)
def test_a_generator_whose_top_layer_is_0_is_refused(monkeypatch, q, n):
    # gamma = 1 has h(x -> x**q) gamma = h(1), 0 for h = h_(P-1) of every
    # factor f but x - 1 (and of x - 1 too when P > 1): taken as the
    # generator there, it gives f fewer independent columns than it has
    generator, taken = lanes._generator, []

    def one(F, conjugates, h):
        if lanes._column(F, h, conjugates[0], 0) == F.zero:
            taken.append(h)
            return conjugates[0]
        return generator(F, conjugates, h)

    monkeypatch.setattr(lanes, "_generator", one)
    with pytest.raises(InternalInconsistency, match="adapted to the flags is not invertible"):
        lanes.sweep(galois.build_tower(q, n, 0))
    assert taken


@pytest.mark.parametrize("q,n", MISRANKED_FIELDS)
def test_a_generator_list_that_is_not_conjugates_is_refused(monkeypatch, q, n):
    # the columns are shifts of the generator's conjugates; with x added to
    # gamma**q the list is no orbit of x -> x**q, and on these fields layer
    # P - 1 of some factor is then no orbit of x -> x**q, taken by q-th
    # powers in the field, that f(x -> x**q) kills
    generator = lanes._generator

    def changed(F, conjugates, h):
        first, second, *rest = generator(F, conjugates, h)
        return [first, F.add(second, conjugates[1][0]), *rest]

    monkeypatch.setattr(lanes, "_generator", changed)
    with pytest.raises(InternalInconsistency, match="layer P - 1 is no orbit of x -> x"):
        lanes.sweep(galois.build_tower(q, n, 0))


@pytest.mark.parametrize("q,n", [(2, 6), (3, 4), (5, 3), (7, 4)])
def test_a_top_layer_that_is_no_orbit_is_refused(monkeypatch, q, n):
    # each field has a factor of degree 2; with x added to column i = 1 of
    # every layer, column 1 of layer P - 1 is no longer x -> x**q of column
    # 0, and f(x -> x**q) need not kill it though it kills column 0
    column = lanes._column

    def shifted(F, c, gamma, i):
        out = column(F, c, gamma, i)
        return F.add(out, F.mulmod(F.one, F.monomial(1))) if i == 1 else out

    monkeypatch.setattr(lanes, "_column", shifted)
    with pytest.raises(InternalInconsistency, match="layer P - 1 is no orbit of x -> x"):
        lanes.sweep(galois.build_tower(q, n, 0))


@pytest.mark.parametrize("q,n", [(2, 6), (3, 4), (25, 2)])
def test_a_generator_search_that_finds_none_is_refused(q, n):
    # h = x**n - 1 at x -> x**q is 0 on the whole field, so no x**k, k < N,
    # has h(x -> x**q) x**k != 0
    tower = galois.build_tower(q, n, 0)
    F = lanes._field(tower.p, tower.modulus)
    xq = lanes._power(F.mulmod, F.mulmod(F.one, F.monomial(1)), q)
    powers, _ = lanes._frobenius_table(F, xq, q, n)
    h = [F.p - 1] + [F.zero] * (n - 1) + [F.one]
    with pytest.raises(InternalInconsistency, match="kills every x\\*\\*k, k < N"):
        lanes._generator(F, [[F.one] * n, powers], h)


def test_the_generator_search_reaches_x_squared_where_1_and_x_fail(monkeypatch):
    # F_{3^3} at both moduli: x**3 - 1 = (x - 1)**3, and h_2 = (x - 1)**2
    # at x -> x**q kills both 1 and x, so the generator is x**2 or later
    generator, reached = lanes._generator, []

    def recording(F, conjugates, h):
        gamma = generator(F, conjugates, h)
        reached.append(next(k for k, c in enumerate(conjugates) if c is gamma))
        return gamma

    monkeypatch.setattr(lanes, "_generator", recording)
    for index in (0, 1):
        reached.clear()
        assert lanes.sweep(galois.build_tower(3, 3, index)) == list(counting.distribution(3, 3))
        assert reached and min(reached) >= 2, (index, reached)


def test_a_factor_that_does_not_split_is_refused(monkeypatch):
    # the orbits of k -> 2k mod 9, not k -> 4k, make every sum of x**k over
    # an orbit take one value at all roots of a factor over F_2, so no draw
    # splits x**2 + x + 1 over F_4, and the sweep stops after its draws
    orbits = lanes._orbits
    monkeypatch.setattr(lanes, "_orbits", lambda r, n0: orbits(2, n0))
    with pytest.raises(InternalInconsistency, match="did not split"):
        lanes.sweep(galois.build_tower(4, 9, 0))


def test_brute_force_refuses_a_miscount(monkeypatch):
    monkeypatch.setattr(lanes, "sweep", lambda tower: [1] * (tower.n + 1))
    with pytest.raises(InternalInconsistency, match="missed or double-counted"):
        oracle.brute_force_distribution(2, 3)


class _Unchecked:
    """A span dimension that no rank contradicts."""

    def __ne__(self, other):
        return False


def _misrank(monkeypatch, tower, rank):
    """Patch the nonzero-lane kernel of the sweep's digit arithmetic so that
    one lane drops out of the mask of one layer of one factor, as if its
    coordinates there were 0: the lowest lane, at its first such layer, that
    then reads rank `rank`, its rank less a multiple of the degree of the
    layer's factor.  Its q - 1 elements move to N_(n-rank), and the counts
    still sum to q**n.
    """
    q, n = tower.q, tower.n
    F = lanes._field(tower.p, tower.modulus)
    nonzero = type(F).nonzero
    masks = []  # the masks returned so far

    def dropping(lane, call):
        def kernel(self, planes, ones):
            live = nonzero(self, planes, ones)
            masks.append(live)
            return live & ~(1 << lane * self.lane_width) if len(masks) == call + 1 else live

        return kernel

    with monkeypatch.context() as patch:
        patch.setattr(lanes, "_span_dimension", lambda *args: _Unchecked())
        patch.setattr(type(F), "nonzero", dropping(0, -1))
        true = lanes.sweep(tower)
        steps = sorted((s // F.lane_width, call) for call, live in enumerate(list(masks))
                       for s in range(live.bit_length()) if live >> s & 1)
        for lane, call in steps:
            masks.clear()
            patch.setattr(type(F), "nonzero", dropping(lane, call))
            if lanes.sweep(tower)[n - rank] == true[n - rank] + q - 1:
                break
    masks.clear()
    monkeypatch.setattr(type(F), "nonzero", dropping(lane, call))


@pytest.mark.parametrize("q,n", MISRANKED_FIELDS)
def test_a_misranked_lane_is_refused(monkeypatch, q, n):
    # rank 0 is below every true rank; at rank 2 (for n >= 4 here) the lane
    # is the first one found with that rank, but neither the lowest rank
    # found (alpha = 1 has rank 1) nor full rank, so only a re-rank of each
    # rank found sees it
    tower = galois.build_tower(q, n, 0)
    for rank in (0, 2) if n >= 4 else (0,):
        _misrank(monkeypatch, tower, rank)
        monkeypatch.setattr(lanes, "_span_dimension", lambda *args: _Unchecked())
        counts = lanes.sweep(tower)
        assert sum(counts) == q**n and counts != list(counting.distribution(q, n))
        monkeypatch.undo()
        _misrank(monkeypatch, tower, rank)
        with pytest.raises(
            InternalInconsistency, match=f"a lane of rank {rank} re-ranks differently"
        ):
            oracle.brute_force_distribution(q, n)
        monkeypatch.undo()


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
    for q in (2, 3, 4, 9, 25, 49, 131, 251):
        dist = oracle.brute_force_distribution(q, 1)
        assert dist.counts == (q - 1, 1)


def test_the_largest_prime_under_the_guard_sweeps_one_lane():
    # F_4194301 is one line over itself: a sweep builds no table of O(p) entries
    galois.build_tower.cache_clear()
    t0 = time.perf_counter()
    dist = oracle.brute_force_distribution(4194301, 1)
    elapsed = time.perf_counter() - t0
    assert dist.counts == (4194300, 1)
    assert elapsed < 0.5


def test_n_equals_one_is_swept_by_the_definition():
    t0 = time.perf_counter()
    dist = oracle.brute_force_distribution(65537, 1)
    elapsed = time.perf_counter() - t0
    assert dist.counts == (65536, 1)
    assert elapsed < 1.0


@pytest.mark.parametrize("q", [2**16, 3**10])
def test_n_equals_one_sweeps_without_o_q_work(q):
    # F_q = F_p[x]/(f) has no tables of its own: a sweep at n = 1 with m > 1
    # takes only a handful of field operations, none of them O(q)
    galois.build_tower.cache_clear()
    t0 = time.perf_counter()
    dist = oracle.brute_force_distribution(q, 1)
    elapsed = time.perf_counter() - t0
    assert dist.counts == (q - 1, 1)
    assert elapsed < 0.5


def test_large_prime_field_sweeps_only_the_lines():
    # F_{2039^2} has 2040 lines over F_2039: the sweep ranks 2040 lanes, not 2039**2 - 1 elements
    t0 = time.perf_counter()
    dist = oracle.brute_force_distribution(2039, 2)
    elapsed = time.perf_counter() - t0
    assert dist == counting.distribution(2039, 2)
    assert elapsed < 0.5


@pytest.mark.parametrize("q, n, bound", [(3, 13, 1.0), (5, 9, 4.0), (11, 6, 1.0), (131, 3, 0.5)])
def test_each_odd_p_sweeps_its_largest_field_at_the_guard(q, n, bound):
    # the largest n with q**n inside DEFAULT_MAX_ORDER, modulus scan included;
    # each bound is three to four times the time taken on a 2-core VM (CPython 3.11)
    assert q ** (n + 1) > oracle.DEFAULT_MAX_ORDER >= q**n
    galois.build_tower.cache_clear()
    t0 = time.perf_counter()
    dist = oracle.brute_force_distribution(q, n)
    elapsed = time.perf_counter() - t0
    assert dist == counting.distribution(q, n)
    assert elapsed < bound


@pytest.mark.parametrize("q, n, bound", [(2, 22, 0.15), (4, 11, 0.06), (25, 5, 0.6)])
def test_p_two_and_a_square_q_sweep_their_largest_field(q, n, bound):
    # as for odd p above: F_{2^22} and F_{4^11}, the largest fields over F_2
    # inside the guard, and F_{25^5}, past it, where x**5 - 1 = (x - 1)**5;
    # F_{4^11} ranks by the factors of x**11 - 1 over F_4; each bound is
    # three to four times the time taken on a 2-core VM (CPython 3.11)
    assert q ** (n + 1) > oracle.DEFAULT_MAX_ORDER
    galois.build_tower.cache_clear()
    t0 = time.perf_counter()
    dist = oracle.brute_force_distribution(q, n, max_order=q**n)
    elapsed = time.perf_counter() - t0
    assert dist == counting.distribution(q, n)
    assert elapsed < bound


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
    with pytest.raises(ArgumentOutOfRange):
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
