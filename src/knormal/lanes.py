"""Sweeps of F_{q^n} that rank every F_q*-line at once, in packed lanes.

``sweep(tower)`` gives the counts N_0..N_n of F = F_p[x]/(f) for ``oracle``.
The F_q-span of the conjugates of alpha is the F_q[Phi]-module that alpha
generates, Phi: y -> y**q, so its dimension, the rank of alpha, is the
degree of its F_q-order: the monic g of least degree with g(Phi) alpha = 0,
a divisor of x**n - 1 as Phi**n = 1.  The rank depends only on the
F_q*-line of alpha, so each line is ranked once and weighted by q - 1.  A
vector over F_p is one int with a field per digit, each kept in [0, p),
where a sum is one int addition and a subtraction of p where a field
reached p (SIMD within a register, after Fisher and Dietz).  For ``_Bits``
(p = 2) a field is one bit.  For ``_Digits`` (p >= 3) a plane has
bitlen(p - 1) + 1 bits a lane, and an element bitlen(2N(p - 1)**2) bits a
digit, as many as a digit of a product of two elements takes before mod p,
so ``mulmod`` is one int product.  Every element of F is such a vector,
whatever p, so only the plane kernels differ by p: ``_Trits`` (p = 3) keeps
a plane as two bit planes, lo and hi, after Boothby and Bradshaw, so a sum
of planes takes seven AND/OR/XOR operations and a negation swaps them.

* Digit k of an element is its coefficient of x**k.  x**q must be a root
  of f, and F_q = ker(x -> x**q minus 1), with an F_p-basis b_0 = 1, ...,
  b_{m-1} found by elimination, must have dimension m.
* {1, x, ..., x**(n-1)} is an F_q-basis of F, so each line has one
  representative x**j + sum_{k<j} c_k x**k, c_k in F_q: one lane each,
  L = (q**n - 1)/(q - 1) in all.  Plane c holds coordinate c of every lane,
  lane l at bit l * lane_width, and a lane mask has the low bit of each
  lane set.
* With n = P * n0, P = p**s and p not dividing n0, x**n - 1 = (x**n0 - 1)**P
  and x**n0 - 1 is the product of distinct F_q-irreducible f.  So the
  order of alpha is the product of the f**e_f, 0 <= e_f <= P, and its rank
  the sum of deg f * e_f: ((x**n0 - 1)/f)**P (Phi) alpha has order f**e_f,
  so it is nonzero for exactly e_f steps of f(Phi).  Phi is a ring map, so
  column k of g(Phi) is the sum of c_i * (x**(q**i))**k over the
  coefficients c_i of g, summed from a table of the powers of x**q; each
  map acts on all lanes as digitwise sums of planes, and ``_rank_lanes``
  adds deg f to a bit-sliced per-lane counter at each step where a lane is
  nonzero: one lane mask per rank.  x**(q**n) must be x, no lane may
  survive P steps of f(Phi), and ``sweep`` ranks the first lane found of
  every rank again by elimination in scalar arithmetic.  At most
  2**_LANE_BLOCK_BITS lanes are taken at a time, so memory stays flat.  A
  mask x & ~y is written x ^ (x & y): ~y is a negative int, and & with one
  takes extra passes.
* The factors f come from the sweep's own arithmetic: ``_factors`` splits
  x**n0 - 1 over F_p with packed polynomials, then over F_q, whose elements
  are those of F fixed by x -> x**q, with lists of them as coefficients,
  on the sums of x**k over the orbits of k -> k*q mod n0 (Berlekamp).
* ``galois.find_irreducible`` scans for f over F_p with ``ben_or``:
  Ben-Or's test run in this arithmetic (powers by ``mulmod``, a gcd of
  packed polynomials).
* One ``_power``, doubling from the top bit, repeats every operation that is
  repeated: ``mulmod`` for powers, ``add`` for a multiple c*a, the join of
  ``_repeat`` for a lane pattern, and the products mod g of ``_split``.
"""

import math
import random

from .errors import InternalInconsistency

# A sweep ranks at most 2**_LANE_BLOCK_BITS lines at once.
_LANE_BLOCK_BITS = 16


def sweep(tower) -> list[int]:
    """Counts N_0..N_n of F = F_p[x]/(f), a ``galois.TowerField``, every
    F_q*-line ranked at once.

    ``_order_maps`` sums the columns of one map per factor of x**n0 - 1
    from the powers of x**q in ``_frobenius_table``, and ``_rank_lanes``
    ranks all lanes of a block at once by them (``apply`` of the digit
    arithmetic F).  Its masks give the counts, a lane of rank r weighted
    q - 1 in N_{n-r}.
    """
    F = _field(tower.base.order, tower.modulus.coeffs)
    n, q, m = tower.n, tower.q, tower.m
    P = 1  # n = P * n0, p not dividing n0
    while n % (P * F.p) == 0:
        P *= F.p
    xq = _power(F.mulmod, F.mulmod(F.one, F.monomial(1)), q)
    # rows i <= max(n - P, 1): cofactor**P has degree <= (n0 - 1) * P = n - P,
    # f at most n0 - 1 unless it is x - 1, and _fq_basis reads row 1
    table = _frobenius_table(F, xq, q, n, max(n - P, 1))
    basis = _fq_basis(F, table[1], m)
    rows = {}
    if any(_eliminate(F, rows, b) is None for b in basis):
        raise InternalInconsistency("the basis of F_q is dependent over F_p")
    maps = _order_maps(F, table, basis, q, n, P)
    # base-p digit s of a lane's index adds a multiple of b_i * x**k, s = k*m + i
    digits = [F.mulmod(b, F.monomial(k)) for k in range(n - 1) for b in basis]
    counts = [0] * n + [1]  # alpha = 0 spans nothing
    samples = {}  # rank -> the element of the first lane found with that rank
    for planes, lanes in _lane_blocks(F, n, m, digits):
        for rank, ranked in enumerate(_rank_lanes(F, planes, lanes, n, P, maps)):
            counts[n - rank] += (q - 1) * ranked.bit_count()
            if ranked and rank not in samples:
                samples[rank] = _lane_element(F, planes, ranked)
    for rank, alpha in samples.items():
        if _span_dimension(F, alpha, n, q, basis) != rank * m:
            raise InternalInconsistency(f"a lane of rank {rank} re-ranks differently")
    return counts


def _field(p: int, coeffs):
    """The packed digit arithmetic of F_p[x]/(f), f monic with `coeffs`, constant first."""
    return _Bits(coeffs) if p == 2 else _Trits(coeffs) if p == 3 else _Digits(coeffs, p)


def ben_or(p: int, N: int):
    """Ben-Or's irreducibility test for monic polynomials of degree N >= 1
    over F_p: a function of their coefficients.

    f is irreducible iff gcd(x**(p**i) - x, f) = 1 for i = 1..N // 2, since a
    factor of degree i divides x**(p**i) - x.  The powers are one walk of
    p-th powers by ``mulmod`` in F_p[x]/(f), stopped at the first gcd
    (``_poly_gcd``, on packed polynomials) that is not a constant.
    """
    F = _field(p, (0,) * N + (1,))  # set to each f in turn
    x, minus_x = F.monomial(1), F.shift(p - 1, 1)

    def irreducible(coeffs):
        F.set_modulus(coeffs)
        power = x
        for _ in range(N // 2):
            power = _power(F.mulmod, power, p)
            if F.top(_poly_gcd(F, F.add(power, minus_x), F.f)) != 1:
                return False
        return True

    return irreducible


def _poly_gcd(F, a, b):
    """A gcd of the polynomials a and b over F_p, packed as vectors (digit k
    the coefficient of x**k, at most 2N digits), by Euclid's algorithm; a
    nonzero constant as soon as one is met."""
    p, width = F.p, F.width
    while b:
        top = -(-b.bit_length() // width)  # digits up to the top nonzero one, as F.top
        if top == 1:
            return b
        inverse = pow(b >> (top - 1) * width, -1, p)
        while (shift := -(-a.bit_length() // width) - top) >= 0:
            c = a >> (top + shift - 1) * width  # the top digit of a
            m = (p - c) * inverse % p
            a = F.add(a, F.scale(b, m) << shift * width)
        a, b = b, a
    return a


def _power(op, a, e: int):
    """a op a op ... op a, e >= 1 times a, for an associative op: doubling
    from the top bit of e, so O(log e) ops."""
    result = a
    for bit in bin(e)[3:]:
        result = op(result, result)
        if bit == "1":
            result = op(result, a)
    return result


def _frobenius_table(F, xq, q: int, n: int, top: int) -> list:
    """table[i][k] = (x**(q**i))**k mod f packed, k < deg f, for i <= top:
    column k of Phi**i, Phi: y -> y**q, as Phi is a ring map.

    x**q = `xq` is the only input: x**(q**i) is its (q**(i-1))-th power by
    ``_power``.  xq must be a root of f (``_check_frobenius``), and
    x**(q**n) = x, so Phi**n = 1 on every column as Phi is multiplicative.
    """
    _check_frobenius(F, xq)
    x = F.mulmod(F.one, F.monomial(1))
    powers = [x, xq]  # powers[i] = x**(q**i)
    for _ in range(n - 1):
        powers.append(_power(F.mulmod, powers[-1], q))
    if powers[n] != x:
        raise InternalInconsistency("x -> x**q taken n times is not 1 on its columns")
    table = []
    for y in powers[:top + 1]:
        row = [F.one]
        for _ in range(F.N - 1):
            row.append(F.mulmod(row[-1], y))
        table.append(row)
    return table


def _check_frobenius(F, xq) -> None:
    """Refuse an x**q that is not a root of f.

    Then y -> y(xq) is a field automorphism x -> x**(p**i) of F_p[x]/(f) for
    some i; the F_q dimension (``_fq_basis``) and x**(q**n) = x
    (``_frobenius_table``) pin it down to a generator of the Galois group of
    F over F_q.
    """
    root = F.zero  # f(xq) by Horner's rule
    for c in reversed(F.coeffs):
        root = F.add(F.mulmod(root, xq), c)
    if root != F.zero:
        raise InternalInconsistency("Frobenius column 1 is not a root of f")


def _eliminate(F, rows: dict, v):
    """Reduce v by monic `rows` (keyed by top digit + 1); keep a nonzero rest as a row.

    Returns the new row, or None when v is in their span.
    """
    p, width = F.p, F.width
    while v:
        top = -(-v.bit_length() // width)  # as F.top
        d = v >> (top - 1) * width  # the top digit
        row = rows.get(top)
        if row is None:
            row = rows[top] = F.scale(v, pow(d, -1, p))
            return row
        v = F.add(v, F.scale(row, p - d))
    return None


def _fq_basis(F, images: list, m: int) -> list:
    """F_p-basis of F_q = ker(x -> x**q minus 1) in F, packed, with 1 first.

    Column k of the map minus 1 is eliminated as (column) * x**N + x**k: a
    rest below x**N is a kernel vector with top digit k, so they are
    independent; column 0 gives 1, which x -> x**q fixes.
    """
    rows, basis = {}, []
    for k, image in enumerate(images):
        x_k = F.monomial(k)
        row = _eliminate(F, rows, F.add(F.shift(F.add(image, F.scale(x_k, F.p - 1)), F.N), x_k))
        if row is not None and F.top(row) <= F.N:
            basis.append(row)
    if len(basis) != m:
        raise InternalInconsistency(f"F_q has dimension {len(basis)} over F_{F.p}, not m = {m}")
    return basis


def _span_dimension(F, alpha, n: int, q: int, basis: list) -> int:
    """F_p-dimension of the span of the b_i * alpha**(q**j), m times the F_q-rank.

    Scalar arithmetic, sharing neither the lanes' maps nor their ranking by
    order: powers by ``mulmod`` and one ``_eliminate``, up to the first
    conjugate already in the span.
    """
    rows, conjugate = {}, alpha
    for j in range(n):
        if j:
            conjugate = _power(F.mulmod, conjugate, q)
        if _eliminate(F, rows, conjugate) is None:  # b_0 = 1
            break
        for b in basis[1:]:
            _eliminate(F, rows, F.mulmod(conjugate, b))
    return len(rows)


def _order_maps(F, table, basis, q: int, n: int, P: int) -> list:
    """Per F_q-irreducible factor f of x**n0 - 1, n0 = n / P, the triple
    (deg f, the map of ((x**n0 - 1)/f)**P at Phi, the map of f at Phi) for
    ``_rank_lanes``.

    Column k of the map of g at Phi is the sum of c_i * (x**(q**i))**k over
    the coefficients c_i of g, read from the `table` of
    ``_frobenius_table``: packed elements, made a ``linear_map``.  The
    factors are drawn by a ``random.Random`` seeded from (q, n), so a sweep
    repeats.
    """
    p, n0 = F.p, n // P

    def at_frobenius(g):  # g constant first
        columns = [F.zero] * F.N
        for i, c in enumerate(g):
            if c:
                times = F.scale if c < p else F.mulmod  # c * e for a digit c, or an element
                columns = [F.add(s, times(e, c)) for s, e in zip(columns, table[i])]
        return F.linear_map(columns)

    maps = []
    for f in _factors(F, basis, q, n0, random.Random(f"{q} {n}")):
        cofactor = _divide(F, [p - 1] + [0] * (n0 - 1) + [1], f)[0]
        spread = [0] * ((len(cofactor) - 1) * P + 1)  # cofactor**P: c**P at x**(i*P)
        for i, c in enumerate(cofactor):
            spread[i * P] = c if c < p else _power(F.mulmod, c, P)
        maps.append((len(f) - 1, at_frobenius(spread), at_frobenius(f)))
    return maps


def _factors(F, basis: list, q: int, n0: int, rng) -> list:
    """The monic F_q-irreducible factors of x**n0 - 1, p not dividing n0, as
    lists of coefficients, constant first, that are elements of F_q in F.

    x**n0 - 1 is squarefree.  Its factors of degree D over F_p divide
    x**(p**D) - x, which is x**(p**D mod n0) - x mod x**n0 - 1, so a gcd
    (``_poly_gcd``) and an exact ``_divide`` take their product out degree
    by degree; ``_halves`` splits it over F_p, and ``_split`` each of its
    factors over F_q = F_{p**m}, into factors of degree D/gcd(D, m).
    """
    p, m = F.p, len(basis)
    R = _field(p, (p - 1,) + (0,) * (n0 - 1) + (1,))  # packs the polynomials for _poly_gcd
    minus_x, orbits = R.shift(p - 1, 1), _orbits(q, n0)
    rest, D, factors = [p - 1] + [0] * (n0 - 1) + [1], 0, []
    while 2 * (D + 1) < len(rest):  # rest may still have two factors of degree > D
        D += 1
        power = R.monomial(pow(p, D, n0))
        part = _poly_gcd(R, R.add(power, minus_x), sum(c << k * R.width for k, c in enumerate(rest)))
        if R.top(part) > 1:
            part = _monic(F, q, [R.digit(part, k) for k in range(R.top(part))])
            rest = _divide(F, rest, part)[0]
            for g in _halves(F, q, part, D, rng):
                factors += _split(F, basis, q, g, D // math.gcd(D, m), orbits, rng)
    if len(rest) > 1:  # one factor over F_p
        D = len(rest) - 1
        factors += _split(F, basis, q, rest, D // math.gcd(D, m), orbits, rng)
    return factors


def _orbits(r: int, n0: int) -> list:
    """The orbits of k -> k*r mod n0, r prime to n0: for each k < n0 the
    number of its orbit, 0, 1, ... in order of their least k."""
    labels, count = [None] * n0, 0
    for k in range(n0):
        if labels[k] is None:
            j = k
            while labels[j] is None:
                labels[j] = count
                j = j * r % n0
            count += 1
    return labels


def _halves(F, q: int, g: list, D: int, rng) -> list:
    """The monic factors over F_p of a monic g whose irreducible factors all
    have degree D, by Cantor and Zassenhaus in the packed F_p[x]/(g): in the
    field F_{p**D} of each factor a random a has a trace to F_2 (p = 2) or a
    power a**((p**D - 1)/2) that is 0 or 1 (1 or -1) at random, so its gcd
    with g takes some factors, and each part is split again until it has
    degree D.  A draw splits with probability at least 4/9, so 64 draws
    that do not are refused."""
    if len(g) - 1 == D:
        return [g]
    p = F.p
    G = _field(p, g)
    for _ in range(64):
        a = sum(rng.randrange(p) << k * G.width for k in range(G.N))
        if p == 2:
            s = a
            for _ in range(D - 1):
                s = G.mulmod(s, s)
                a ^= s
        else:
            a = G.add(_power(G.mulmod, a, (p**D - 1) // 2), p - 1)
        s = _poly_gcd(G, a, G.f)
        if 1 < G.top(s) <= G.N:
            s = _monic(F, q, [G.digit(s, k) for k in range(G.top(s))])
            return _halves(F, q, s, D, rng) + _halves(F, q, _divide(F, g, s)[0], D, rng)
    raise InternalInconsistency("x**n0 - 1 did not split")


def _split(F, basis: list, q: int, g: list, e: int, orbits: list, rng) -> list:
    """The monic factors over F_q of a monic divisor g of x**n0 - 1 whose
    irreducible factors over F_q all have degree e.

    By Berlekamp, the y with y**q = y mod x**n0 - 1 are the F_q-combinations
    of the sums e_C of x**k over the `orbits` C of k -> k*q mod n0, so each
    e_C is a constant of F_q modulo every factor, and a random combination h
    takes independent random values in F_q there.  Its trace to F_2 (p = 2)
    or h**((q - 1)/2) - 1 is then 0 at random at each factor, and the rest
    is as in ``_halves``, in lists over F_q, until the parts have degree e.
    """
    if len(g) - 1 == e:
        return [g]
    p = F.p

    def mulmod(a, b):
        return _divide(F, _product(F, a, b), g)[1]

    for _ in range(64):
        values = []
        for _ in range(max(orbits) + 1):
            c = F.zero
            for b in basis:
                c = F.add(c, F.scale(b, rng.randrange(p)))
            values.append(c)
        h = _divide(F, [values[C] for C in orbits], g)[1]
        if p == 2:
            t = s = h
            for _ in range(len(basis) - 1):
                s = mulmod(s, s)
                t = [F.add(u, v) for u, v in zip(t, s)]
        else:
            t = _power(mulmod, h, (q - 1) // 2)
            t[0] = F.add(t[0], p - 1)
        s = _gcd(F, q, t, g)
        if 0 < len(s) - 1 < len(g) - 1:
            return (_split(F, basis, q, s, e, orbits, rng)
                    + _split(F, basis, q, _divide(F, g, s)[0], e, orbits, rng))
    raise InternalInconsistency("x**n0 - 1 did not split")


def _gcd(F, q: int, a: list, f: list) -> list:
    """The monic gcd over F_q of a and a monic f, as in ``_product``."""
    while any(a):
        a = _monic(F, q, a)
        f, a = a, _divide(F, f, a)[1]
    return f


def _times(F, a, b):
    """a*b for elements a and b of F: by ``scale`` where one is in F_p."""
    if a < F.p:
        return a * b % F.p if b < F.p else F.scale(b, a)
    return F.scale(a, b) if b < F.p else F.mulmod(a, b)


def _product(F, a: list, b: list) -> list:
    """The product of two polynomials whose coefficients, constant first, are elements of F."""
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, e in enumerate(b):
                if e:
                    out[i + j] = F.add(out[i + j], _times(F, c, e))
    return out


def _divide(F, a: list, g: list):
    """(quotient, rest) of the polynomial a by a monic g, as in ``_product``."""
    d = len(g) - 1
    minus = [(k, _times(F, F.p - 1, c)) for k, c in enumerate(g[:d]) if c]
    a = list(a)
    quotient = [F.zero] * max(len(a) - d, 0)
    for i in range(len(a) - 1, d - 1, -1):
        c = a[i]
        if c:
            quotient[i - d] = c
            for k, e in minus:
                a[i - d + k] = F.add(a[i - d + k], _times(F, c, e))
    return quotient, a[:d]


def _monic(F, q: int, a: list) -> list:
    """The nonzero polynomial a over F_q, as in ``_product``, made monic."""
    while not a[-1]:
        a = a[:-1]
    lead = a[-1]
    inverse = pow(lead, -1, F.p) if lead < F.p else _power(F.mulmod, lead, q - 2)
    return [_times(F, inverse, c) for c in a]


def _lane_mask(F, lanes: int) -> int:
    """The lane mask of `lanes` lanes: the low bit of each lane."""
    return ((1 << lanes * F.lane_width) - 1) // ((1 << F.lane_width) - 1)


def _lane_element(F, planes: list, mask: int):
    """The element held by the lowest lane of `mask` in `planes`."""
    lane = ((mask & -mask).bit_length() - 1) // F.lane_width
    return sum(F.shift(F.lane_digit(plane, lane), c) for c, plane in enumerate(planes))


def _lane_blocks(F, n, m, digits):
    """(planes, lane count) of the F_q*-lines of F, at most 2**_LANE_BLOCK_BITS lanes a block.

    Lane t < q**j of degree j < n is x**j plus the sum of d * digits[s] over
    the base-p digits d of t.  Over the low digits of t the planes are one
    pattern (``_repeat``), and a higher digit of t only adds a constant to
    whole planes.  The degrees with fewer lanes than a block share the first
    block, which is empty when a block is one lane; the others fill blocks.
    """
    block_digits = 0  # p**block_digits lanes a block, at most 2**_LANE_BLOCK_BITS
    while F.p ** (block_digits + 1) <= 1 << _LANE_BLOCK_BITS:
        block_digits += 1
    patterns = [[F.plane_zero] * (n * m)]  # patterns[s]: the p**s lanes of the low s digits
    lanes = 1
    for d in digits[:block_digits]:
        patterns.append(_repeat(F, patterns[-1], lanes, d))
        lanes *= F.p
    head, wide = [], []
    for j in range(n):
        if j * m >= block_digits:
            wide.append(j)
            continue
        width = F.p ** (j * m)
        head.append((F.plus(patterns[j * m], F.monomial(j), _lane_mask(F, width)), width))
    if head:
        yield F.concat(head), sum(width for _, width in head)
    full = _lane_mask(F, lanes)
    for j in wide:
        for high in range(F.p ** (j * m - block_digits)):
            offset = F.monomial(j)
            s = block_digits
            while high:
                high, d = divmod(high, F.p)
                offset = F.add(offset, F.scale(digits[s], d))
                s += 1
            yield F.plus(patterns[-1], offset, full), lanes


def _repeat(F, planes, lanes, d):
    """p copies of the `lanes` lanes of `planes`, copy t with t * d added.

    A run of c copies is (planes, lane count, c * d), and two runs join as
    the first's lanes, then the second's with the first's multiple added:
    the p copies are the p-th ``_power`` of one copy under that join, so
    O(log p) concatenations, not p.
    """
    def join(a, b):
        shifted = F.plus(b[0], a[2], _lane_mask(F, b[1]))
        return F.concat([a[:2], (shifted, b[1])]), a[1] + b[1], F.add(a[2], b[2])

    return _power(join, (planes, lanes, d), F.p)[0]


def _rank_lanes(F, planes, lanes, n, P, maps):
    """n + 1 lane masks: mask r holds the lanes whose F_q-order has degree r.

    Per factor f of x**n0 - 1 in `maps` (``_order_maps``), the lanes go
    through the cofactor map, then through f(Phi) up to P times.  Each step
    where a lane is nonzero adds deg f to its count, kept bit-sliced:
    counter[b] holds bit b of every lane's count.
    """
    apply, nonzero = F.apply, F.nonzero
    ones = _lane_mask(F, lanes)
    counter = [0] * n.bit_length()
    for degree, cofactor, factor in maps:
        image = apply(cofactor, planes, ones)
        for _ in range(P):
            live = nonzero(image, ones)
            if not live:
                break
            for b in range(degree.bit_length()):  # add degree on the lanes of live
                if degree >> b & 1:
                    carry = live
                    for c in range(b, len(counter)):
                        counter[c], carry = counter[c] ^ carry, counter[c] & carry
            image = apply(factor, image, ones)
        else:
            if nonzero(image, ones):
                raise InternalInconsistency("a lane survives P steps of f(x -> x**q)")
    masks = []
    for rank in range(n + 1):
        mask = ones
        for b, bit in enumerate(counter):
            mask &= bit if rank >> b & 1 else ones ^ bit
        masks.append(mask)
    return masks


class _Packed:
    """An element of F packed in one int, `width` bits a digit, digit k at
    bit k*width.  Planes but in ``_Trits`` are packed ints too, `lane_width`
    bits a lane, and the plane code reads a lane by ``lane_digit``.
    """

    # bits of an element's digit and of a lane, the mask of a lane, and the doublings taken
    width = lane_width = fill = bits = 1
    zero = plane_zero = 0
    one = 1

    def monomial(self, k):
        return 1 << k * self.width

    def shift(self, a, k):
        return a << k * self.width

    def top(self, a):
        """The number of digits up to the top nonzero one."""
        return -(-a.bit_length() // self.width)

    def digit(self, a, k):
        """Digit k of an element."""
        return a >> k * self.width & (1 << self.width) - 1

    def lane_digit(self, plane, l):
        shift = l * self.lane_width
        return (plane & self.fill << shift) >> shift  # masked first: a plane has many lanes

    def concat(self, blocks):
        """The planes of the lanes of `blocks`, (planes, lane count) pairs, in turn."""
        out, offset = blocks[0]
        for planes, lanes in blocks[1:]:
            shift = offset * self.lane_width
            out = [v | w << shift for v, w in zip(out, planes)]
            offset += lanes
        return out

    def linear_map(self, images):
        """For each output coordinate c, the pairs (k, j) with bit j set in
        digit c of the image of input coordinate k: its j-th doubling enters."""
        out = [[] for _ in range(self.N)]
        for k, image in enumerate(images):
            for s in _set_bits(image):  # bit s is bit s % width of digit s // width
                out[s // self.width].append((k, s % self.width))
        return out


def _set_bits(v: int) -> list:
    """The positions of the set bits of v >= 0, lowest first."""
    out = []
    while v:
        out.append((v & -v).bit_length() - 1)
        v &= v - 1
    return out


class _Bits(_Packed):
    """Digits of F_2, bit-sliced: a vector is an int whose bit k is digit k.

    A vector is an element of F = F_2[x]/(f), digit k its coefficient of
    x**k, or a plane, digit l the coordinate of lane l.  The lane mask
    `ones` of ``apply`` and ``nonzero`` is read only by ``_Digits``.
    """

    p = 2

    def __init__(self, coeffs):
        self.N = len(coeffs) - 1
        self.set_modulus(coeffs)

    def set_modulus(self, coeffs):
        """Reduce by the monic f of degree N with `coeffs`, constant first."""
        self.coeffs = coeffs
        self.f = sum(c << k for k, c in enumerate(coeffs))  # packed

    def add(self, a, b):
        return a ^ b

    def scale(self, a, c):
        return a if c else 0

    def mulmod(self, a, b):
        """a*b mod f for a and b reduced mod f (b = x too when N = 1): a shifted
        copy of a for each set bit of b, then f shifted under each top bit
        from x**N up."""
        f, N = self.f, self.N
        product = 0
        while b:
            low = b & -b
            product ^= a * low
            b ^= low
        while (top := product.bit_length() - 1) >= N:
            product ^= f << top - N
        return product

    def plus(self, planes, element, ones):
        """The planes with `element` added to each lane of `ones`."""
        return [v ^ ones if element >> c & 1 else v for c, v in enumerate(planes)]

    def apply(self, linear_map, planes, ones):
        """The planes of the images of all lanes under a ``linear_map``."""
        out = []
        for terms in linear_map:
            v = 0
            for k, _ in terms:
                v ^= planes[k]
            out.append(v)
        return out

    def nonzero(self, planes, ones):
        """The lane mask of the lanes whose vector in `planes` is not 0."""
        out = 0
        for v in planes:
            out |= v
        return out


class _Digits(_Packed):
    """Digits of F_p, p >= 3.  A plane is an int whose lane l, w =
    bitlen(p - 1) + 1 bits at bit l*w, holds a digit in [0, p), so a lane's
    top bit is free; at p = 3 planes are kept as ``_Trits``.  An element is an
    int whose field k holds digit k in [0, p), each field as wide as a digit
    of a product of two elements before mod p, which is below 2N (p - 1)**2.

    A sum s = a + b subtracts p from each field or lane whose bit w - 1 is
    set in s + (2**(w-1) - p), so none carries into the next.
    """

    def __init__(self, coeffs, p):
        self.p = p
        self.N = N = len(coeffs) - 1
        self.bits = (p - 1).bit_length()  # of a digit, and its doublings taken
        self.fill = (1 << self.bits + 1) - 1  # a lane's mask
        self.width = width = (2 * N * (p - 1) ** 2).bit_length()  # of an element's field
        self.excess = (1 << self.bits) - p  # per field or lane: s + excess has bit `bits` iff s >= p
        self.low = ((1 << 2 * N * width) - 1) // ((1 << width) - 1)  # ``_fq_basis`` has 2N digits
        self.bias = self.low * self.excess
        self.tops = [(i * width, (i - N) * width) for i in range(2 * N - 1, N - 1, -1)]  # x**i, i >= N
        self.lows = [k * width for k in reversed(range(N))]
        self.set_modulus(coeffs)

    def set_modulus(self, coeffs):
        """Reduce by the monic f of degree N with `coeffs`, constant first."""
        self.coeffs = coeffs
        self.f = sum(c << k * self.width for k, c in enumerate(coeffs))  # packed

    @property
    def lane_width(self):
        return self.bits + 1

    def add(self, a, b):
        s = a + b
        return s - ((s + self.bias) >> self.bits & self.low) * self.p

    def scale(self, a, c):
        """c*a for a digit c: a added to itself c times, by double-and-add."""
        return _power(self.add, a, c) if c else 0

    def mulmod(self, a, b):
        """a*b mod f for a and b reduced mod f (b = x too when N = 1).

        The fields are wide enough for the sums of the product, so one int
        product of a and b as given gives a*b.  From the top, a digit c at x**i, i >= N, is reduced by adding
        (p - c) * f * x**(i-N) to the whole product: each field below i gets
        what (p - c) * (f - x**N) * x**(i-N) adds, so it stays below
        2N (p - 1)**2 and never reaches the next.  Field i, now a multiple of
        p, may carry into field i + 1, but that field lies above every field
        still to be read.  The low N fields, mod p, are the result.
        """
        p, width, f = self.p, self.width, self.f
        product, field = a * b, (1 << width) - 1
        for at, down in self.tops:
            c = (product >> at & field) % p
            if c:
                product += (p - c) * f << down
        out = 0
        for at in self.lows:
            out = out << width | (product >> at & field) % p
        return out

    def plus(self, planes, element, ones):
        """The planes with `element` added to each lane of `ones`."""
        bias, bits, p = ones * self.excess, self.bits, self.p
        sums = [v + self.digit(element, c) * ones for c, v in enumerate(planes)]
        return [s - ((s + bias) >> bits & ones) * p for s in sums]

    def doublings(self, v, ones):
        """(v, 2v, 4v, ...) mod p, bitlen(p - 1) of them, on the lanes of `ones`."""
        bias, bits, p = ones * self.excess, self.bits, self.p
        out = [v]
        for _ in range(bits - 1):
            s = v << 1
            v = s - ((s + bias) >> bits & ones) * p
            out.append(v)
        return out

    def apply(self, linear_map, planes, ones):
        """The planes of the images of all lanes under a ``linear_map``."""
        bias, bits, p = ones * self.excess, self.bits, self.p
        doublings = [self.doublings(v, ones) for v in planes]
        out = []
        for terms in linear_map:
            v = 0
            for k, j in terms:
                s = v + doublings[k][j]
                v = s - ((s + bias) >> bits & ones) * p
            out.append(v)
        return out

    def nonzero(self, planes, ones):
        """The lane mask of the lanes whose vector in `planes` is not 0: a
        lane's digits ORed, plus 2**(w-1) - 1, reach its free top bit iff
        one is not 0."""
        out = 0
        for v in planes:
            out |= v
        return (out + ones * (self.fill >> 1)) >> self.bits & ones


class _Trits(_Digits):
    """Digits of F_3: elements as in ``_Digits``, but a plane is a
    pair (lo, hi) of ints, bit l of lo set where lane l's digit is 1 and bit
    l of hi where it is 2.  The doublings of a plane are the plane and its
    negation, which swaps lo and hi.
    """

    lane_width = 1
    plane_zero = (0, 0)

    def __init__(self, coeffs):
        super().__init__(coeffs, 3)

    def lane_digit(self, plane, l):
        bit = 1 << l  # masked first, as in _Packed.lane_digit
        return (plane[0] & bit) >> l | (plane[1] & bit) >> l << 1

    def plus(self, planes, element, ones):
        """The planes with `element` added to each lane of `ones`: a digit
        added to a plane permutes its zero, lo and hi masks cyclically."""
        out = []
        for c, (lo, hi) in enumerate(planes):
            d = self.digit(element, c)
            if d == 1:
                lo, hi = ones ^ (ones & (lo | hi)), lo
            elif d == 2:
                lo, hi = hi, ones ^ (ones & (lo | hi))
            out.append((lo, hi))
        return out

    def concat(self, blocks):
        """The planes of the lanes of `blocks`, (planes, lane count) pairs, in turn."""
        out, offset = blocks[0]
        for planes, lanes in blocks[1:]:
            out = [(lo | wl << offset, hi | wh << offset) for (lo, hi), (wl, wh) in zip(out, planes)]
            offset += lanes
        return out

    def apply(self, linear_map, planes, ones):
        """The planes of the images of all lanes under a ``linear_map``."""
        doublings = [(v, v[::-1]) for v in planes]
        out = []
        for terms in linear_map:
            lo = hi = 0
            for k, j in terms:
                bl, bh = doublings[k][j]
                t = (lo | bh) ^ (hi | bl)
                lo, hi = (hi | bh) ^ t, (lo | bl) ^ t
            out.append((lo, hi))
        return out

    def nonzero(self, planes, ones):
        """The lane mask of the lanes whose vector in `planes` is not 0."""
        out = 0
        for lo, hi in planes:
            out |= lo | hi
        return out
