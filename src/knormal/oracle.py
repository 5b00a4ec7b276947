"""Ground-truth classification of field elements, with no counting formulas.

``brute_force_distribution`` walks all of F_{q^n} and buckets every element
alpha by k = n - dim span_{F_q}(alpha, alpha**q, ..., alpha**(q**(n-1))),
the definition of k-normality.  The field is F_p[x]/(f), f of degree
n*m for q = p**m (``galois.TowerField``), with no F_q coordinates: F_q*
is generated by beta = gen**L, and x -> x**q is exponent arithmetic.
Three facts keep full sweeps up to 2**22 elements feasible, none of which
borrows anything from the counting side:

* elements are packed ints in an exp table, entry e holding gen**e for one
  fixed generator, with each F_p coordinate in its own bit field (one bit
  when p = 2, a ``_field_width`` field otherwise), so a rank over F_p is an
  elimination on ints (XOR into a list indexed by pivot bit when p = 2,
  lazily reduced bit fields otherwise, whose new rows are reduced and
  scaled by ``bytes.translate`` when a field is one byte), and
  multiplication by gen, being F_p-linear, builds the table with two
  lookups and one addition per entry (list tables and an inline XOR when
  p = 2);
* the rank is constant on classes {c * alpha**(p**i): c in F_q*, i < m*n}.
  The conjugates of c*alpha are c times those of alpha, and x -> x**p is
  a field automorphism fixing F_q as a set, so it maps the F_q-span of the
  conjugates of alpha onto that of the conjugates of alpha**p, of the same
  dimension.  One rank per class suffices, weighted by class size.  In
  exponent terms the class of e is {p**i * e + j*L mod M} with
  M = q**n - 1, L = M/(q-1): the preimage of the orbit of e mod L under
  multiplication by p, up to m times larger than its orbit under q;
* the F_q-span of the conjugates depends only on their F_q*-lines, so the
  sweep works on F_{q^n}*/F_q* = Z/L and reads a conjugate gen**f with f
  mod L.  The span is the F_p-span of the multiples of the conjugates by
  1, beta, ..., beta**(m-1), beta = gen**L: entries f + j*L with f < L and
  j < m, so the exp table stops at m*L entries.  It stops growing at the
  first conjugate already inside it.

The equivalent gcd form, k = deg gcd(x**n - 1, g_alpha), is not computed
here.  The tests take it element by element on F_p[x]/(f') for a second
modulus f' of the same degree wherever one exists, so that it shares no
representation with the sweep's field, and assert that the sweep matches it.

``cyclotomic_cosets`` gives the orbit sizes of Z/n0 under multiplication by
q, an independent route to the factor-degree pattern of x**n0 - 1.
"""

import math
import struct

from . import galois, numtheory, spectrum
from .counting import Distribution
from .errors import InstanceTooLarge, InternalInconsistency, NotCoprime

# Refuse full-field sweeps beyond this many elements by default.
DEFAULT_MAX_ORDER = 1 << 22


def brute_force_distribution(
    q: int,
    n: int,
    *,
    max_order: int = DEFAULT_MAX_ORDER,
    modulus_index: int = 0,
) -> Distribution:
    """Exact k-normal distribution computed from the field itself."""
    sweep_params(q, n, max_order)
    counts = _classify_by_classes(galois.build_tower(q, n, modulus_index))
    if sum(counts) != q**n:
        raise InternalInconsistency("classification missed or double-counted elements")
    return Distribution(q=q, n=n, counts=tuple(counts))


def sweep_params(q: int, n: int, max_order: int = DEFAULT_MAX_ORDER):
    """``spectrum.derive_params(q, n)``, refusing q**n > max_order by bit lengths
    first (q**n >= 2**(n*(b-1)) for q of b bits), so a huge q**n is never built.
    """
    params = spectrum.derive_params(q, n)  # validates q prime power, n >= 1
    if n * (q.bit_length() - 1) >= max_order.bit_length() or q**n > max_order:
        raise InstanceTooLarge(f"q**n = {q}**{n} exceeds the sweep guard {max_order}")
    return params


def cyclotomic_cosets(q: int, n0: int) -> list[int]:
    """Sorted orbit sizes of Z/n0 under b -> q*b mod n0 (needs gcd(q, n0) = 1).

    The orbit sizes are exactly the degrees of the distinct irreducible
    factors of x**n0 - 1 over F_q, one factor per orbit.
    """
    if n0 < 1:
        raise ValueError(f"n0 must be >= 1, got {n0}")
    if math.gcd(q, n0) != 1:
        raise NotCoprime(f"q = {q} and n0 = {n0} share a factor")
    return sorted(size for _, size in _orbits(q, n0))


def _orbits(q: int, modulus: int):
    """(least member, size) of each orbit of Z/modulus under b -> q*b, ascending."""
    seen = bytearray(modulus)
    for start in range(modulus):
        if seen[start]:
            continue
        size = 0
        b = start
        while not seen[b]:
            seen[b] = 1
            size += 1
            b = b * q % modulus
        yield start, size


def _classify_by_classes(tower: galois.TowerField) -> list[int]:
    """F_q-rank of the conjugates once per class under F_q* and x -> x**p, weighted by size."""
    n, q, p = tower.n, tower.q, tower.base.order
    exp_packed = _power_table(tower)
    L = len(exp_packed) // tower.m
    if p == 2:
        rank = _rank_char2(tower, exp_packed)
    else:
        rank = _rank_odd(tower, exp_packed)
    counts = [0] * (n + 1)
    counts[n] += 1  # alpha = 0 spans nothing
    # The class of gen**e is the whole preimage in Z/M of the orbit of e mod L
    # under multiplication by p, so classes are walked on Z/L.
    for e, size in _orbits(p, L):
        counts[n - rank(e)] += (q - 1) * size
    return counts


def _rank_char2(tower, exp_packed):
    """rank(e): F_q-rank of the conjugates of gen**e, characteristic 2.

    A packed element is its F_2 coordinate vector, so elimination is an XOR
    basis indexed by the pivot bit; basis[0] stays 0 and ends the reduction
    of a vector that reaches 0.  See ``_rank_odd`` for the scaled copies
    and the early stop.
    """
    n, q = tower.n, tower.q
    L = len(exp_packed) // tower.m
    offsets = [j * L for j in range(tower.m)]  # exponents of the copies beta**j * alpha
    N = n * len(offsets)

    def rank(e):
        basis = [0] * (N + 1)  # basis[b]: the row whose top bit is b - 1
        f = e
        for i in range(n):
            for s in offsets:
                v = exp_packed[f + s]
                b = v.bit_length()
                while basis[b]:
                    v ^= basis[b]
                    b = v.bit_length()
                if not v:
                    if s:
                        raise InternalInconsistency(
                            "scaled conjugate copies are dependent"
                        )
                    return i
                basis[b] = v
            f = f * q % L
        return n

    return rank


def _rank_odd(tower, exp_packed):
    """rank(e): F_q-rank of the conjugates of gen**e, odd characteristic.

    A packed element holds its F_p coordinates as digits in [0, p), one per
    ``_field_width`` bit field, and the fields are wide enough that a vector
    survives one lazy reduction v += (p - c) * row per basis row without a
    carry between fields; only new basis rows are brought back to digits in
    [0, p), with pivot digit 1.

    The conjugate alpha**(q**i) = gen**(e * q**i) enters as gen**f, f = e *
    q**i mod L, an F_q*-multiple of it on the same F_q-line, and as the m
    copies beta**j * gen**f = gen**(f + j*L), j < m, with beta = gen**L a
    generator of F_q*: they span its F_q-multiples over F_p, so the F_q-rank
    is the number of conjugates taken.  The first conjugate that is already
    in the span ends the walk, because the span of the earlier ones is then
    Frobenius-invariant.
    """
    n, q, p = tower.n, tower.q, tower.base.order
    L = len(exp_packed) // tower.m
    offsets = [j * L for j in range(tower.m)]  # exponents of the copies beta**j * alpha
    digits_total = n * len(offsets)
    width = _field_width(tower)
    mask = (1 << width) - 1
    inverse = [0] + [pow(c, -1, p) for c in range(1, p)]

    if width == 8:
        # One byte per field: bytes.translate reduces and scales in C.
        mod_p = bytes(d % p for d in range(256))
        scale_by = [b""] + [bytes(d * inverse[c] % p for d in range(256)) for c in range(1, p)]

        def normalise(v):
            """(pivot shift, row) of v with digits in [0, p), pivot digit 1; None for 0."""
            digits = v.to_bytes(digits_total, "little").translate(mod_p).rstrip(b"\0")
            if not digits:
                return None
            row = digits.translate(scale_by[digits[-1]])
            return (len(digits) - 1) * 8, int.from_bytes(row, "little")
    else:
        # A vector's fields as little-endian unsigned ints of `width` bits.
        code = {16: "H", 32: "I", 64: "Q"}[width]
        fields = struct.Struct(f"<{digits_total}{code}")

        def normalise(v):
            """(pivot shift, row) of v with digits in [0, p), pivot digit 1; None for 0."""
            digits = fields.unpack(v.to_bytes(fields.size, "little"))
            top = digits_total - 1
            while top >= 0 and not digits[top] % p:
                top -= 1
            if top < 0:
                return None
            scale = inverse[digits[top] % p]
            row = fields.pack(*[d * scale % p for d in digits])
            return top * width, int.from_bytes(row, "little")

    def rank(e):
        rows = []  # (pivot shift, row), pivots descending
        f = e
        for i in range(n):
            for s in offsets:
                v = exp_packed[f + s]
                for pivot, row in rows:
                    c = (v >> pivot & mask) % p
                    if c:
                        v += (p - c) * row
                new = normalise(v)
                if new is None:
                    if s:
                        raise InternalInconsistency(
                            "scaled conjugate copies are dependent"
                        )
                    return i
                rows.append(new)
                rows.sort(reverse=True)
            f = f * q % L
        return n

    return rank


def _field_width(tower) -> int:
    """Bits per F_p coordinate of a packed element.

    One bit when p = 2, where addition is XOR.  Otherwise the smallest of
    8, 16, 32, 64 bits that holds (p - 1) + (N - 1) * (p - 1)**2 with
    N = max(2, n*m): a vector of digits < p after the at most n*m - 1 lazy
    reductions of ``_rank_odd``.  N is at least 2 so that the bound, p*(p-1)
    < 2**width, also gives the p <= 2**(width-1) that ``_power_table``'s
    fieldwise addition needs when n*m = 1.
    """
    p = tower.base.order
    if p == 2:
        return 1
    coords = max(2, tower.n * tower.m)
    width = 8
    while (p - 1) + (coords - 1) * (p - 1) ** 2 >= 1 << width:
        width *= 2
    return width


def _power_table(tower: galois.TowerField) -> list[int]:
    """Exp table of the field: entry e is gen**e packed, e < m*L.

    These are the entries the ranks read, L = (q**n - 1)/(q - 1) being the
    size of F_{q^n}*/F_q* (see the module docstring).

    The N = n*m coefficients of an element of F_p[x]/(f) are its F_p
    coordinates; packing puts coefficient k in bit field k of
    ``_field_width`` bits.
    Multiplication by gen is F_p-linear, so one step of the walk looks up
    the images of the low and the high half of the coordinates, each table
    holding at most p**ceil(N/2) entries, and adds them.

    The walk is checked twice: gen must generate F_{q^n}*, and the value
    after its last step must be gen**(m*L) as computed in the field.
    """
    p, m, gen = tower.base.order, tower.m, tower.gen
    steps = m * ((tower.order - 1) // (tower.q - 1))
    coords = tower.n * m
    width = _field_width(tower)
    if not galois.generates(tower, gen, numtheory.factorize(tower.order - 1)):
        raise InternalInconsistency("the walk's multiplier does not generate F_{q^n}*")

    def pack(y):
        return sum(c << k * width for k, c in enumerate(y))

    images = [pack(tower.mul(gen, tower.element(p**k))) for k in range(coords)]
    half = (coords + 1) // 2
    shift = half * width
    low_mask = (1 << shift) - 1

    exp_packed = [0] * steps
    x = 1
    if p == 2:
        # Entry `bits` of a half's list is the image of those bits.
        low, high = ([0], [0])
        for table, part in ((low, images[:half]), (high, images[half:])):
            for image in part:
                table += [v ^ image for v in table]
        for e in range(steps):
            exp_packed[e] = x
            x = low[x & low_mask] ^ high[x >> shift]
    else:
        # Fieldwise sum mod p.  A field of s = a + b is at most 2p - 2, and
        # adding bias = 2**(width-1) - p to it sets its top bit exactly when
        # it is >= p.  Exact while p <= 2**(width-1), so that bias >= 0 and
        # s + bias never carries into the next field.
        top_bit = width - 1
        if p > 1 << top_bit:
            raise InternalInconsistency(f"{width}-bit fields are too narrow for p = {p}")
        tops = sum(1 << k * width + top_bit for k in range(coords))
        bias = tops - p * sum(1 << k * width for k in range(coords))

        def add(a, b):
            s = a + b
            return s - (((s + bias) & tops) >> top_bit) * p

        # A half's keys are its bits, sparse in the bit fields, so dicts.
        low, high = ({0: 0}, {0: 0})
        for table, part in ((low, images[:half]), (high, images[half:])):
            for k, image in enumerate(part):
                entries = list(table.items())
                multiple = 0
                for c in range(1, p):
                    multiple = add(multiple, image)
                    key = c << k * width
                    table.update({bits | key: add(v, multiple) for bits, v in entries})
        for e in range(steps):
            exp_packed[e] = x
            s = low[x & low_mask] + high[x >> shift]
            x = s - (((s + bias) & tops) >> top_bit) * p
    if x != pack(tower.pow(gen, steps)):
        raise InternalInconsistency("generator walk did not end at gen**(m*L)")
    return exp_packed
