"""Ground-truth classification of field elements, with no counting formulas.

``brute_force_distribution`` walks all of F_{q^n} and buckets every element
alpha by k = n - dim span_{F_q}(alpha, alpha**q, ..., alpha**(q**(n-1))),
the definition of k-normality.  The field is F_p[x]/(f), f of degree
N = n*m for q = p**m (``galois.TowerField``), with no F_q coordinates.
The F_q-span of the conjugates depends only on their F_q*-lines, so each
line is ranked once and weighted by q - 1; alpha = 0 spans nothing.  The
two characteristics take two routes, which keep full sweeps up to 2**22
elements feasible and borrow nothing from the counting side.

Characteristic 2 (``_sweep_char2``) ranks every line at once, bit-sliced:

* elements are packed ints, bit k the coefficient of x**k, multiplied by a
  carry-less mulmod; F_q = ker(x -> x**q minus 1) gets an F_2-basis
  b_0 = 1, b_1, ..., b_{m-1} by elimination, and must have dimension m;
* {1, x, ..., x**(n-1)} is an F_q-basis of F, since x has degree n over
  F_q, so each line has one representative x**j + sum_{k<j} c_k x**k with
  c_k in F_q, j < n: L = (q**n - 1)/(q - 1) lanes, every nonzero element
  when q = 2.  Plane c is an int whose bit l is coordinate c of lane l,
  built from periodic bit patterns;
* x -> x**q and the products by b_i are F_2-linear, so they act on all
  lanes as XORs of planes, and the m vectors b_i * alpha**(q**j), which
  span the F_q-multiples of a conjugate over F_2, enter an XOR basis per
  lane, kept as one row mask per pivot bit.  A lane is ranked at the first
  conjugate already in its span, which is then Frobenius-invariant; the
  other b_i-copies of a new conjugate must be new too, and the planes must
  return to their start after n steps of x -> x**q.  The lanes are taken
  2**_LANE_BLOCK_BITS at a time, so memory stays flat as the field grows.

Odd characteristic ranks one line per class, through a table of powers of
the first generator gen of F_{q^n}*, F_q* being generated by beta = gen**L
and x -> x**q being exponent arithmetic:

* elements are packed ints in an exp table, entry e holding gen**e, with
  each F_p coordinate in its own ``_field_width`` bit field, so a rank over
  F_p is an elimination on lazily reduced bit fields, whose new rows are
  reduced and scaled by ``bytes.translate`` when a field is one byte, and
  multiplication by gen, being F_p-linear, builds the table with two
  lookups and one fieldwise addition per entry;
* the rank is constant on classes {c * alpha**(p**i): c in F_q*, i < m*n}.
  The conjugates of c*alpha are c times those of alpha, and x -> x**p is
  a field automorphism fixing F_q as a set, so it maps the F_q-span of the
  conjugates of alpha onto that of the conjugates of alpha**p, of the same
  dimension.  One rank per class suffices, weighted by class size.  In
  exponent terms the class of e is {p**i * e + j*L mod M} with
  M = q**n - 1: the preimage of the orbit of e mod L under multiplication
  by p, up to m times larger than its orbit under q;
* the sweep works on F_{q^n}*/F_q* = Z/L and reads a conjugate gen**f with
  f mod L.  The span is the F_p-span of the multiples of the conjugates by
  1, beta, ..., beta**(m-1): entries f + j*L with f < L and j < m, so the
  exp table stops at m*L entries.  It stops growing at the first conjugate
  already inside it.

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
# A characteristic-2 sweep ranks at most 2**_LANE_BLOCK_BITS lines at once.
_LANE_BLOCK_BITS = 16


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
    """F_q-rank of the conjugates once per class under F_q* and x -> x**p, weighted by size.

    Characteristic 2 ranks every F_q*-line instead, bit-sliced (``_sweep_char2``).
    """
    n, q, p = tower.n, tower.q, tower.base.order
    if p == 2:
        return _sweep_char2(tower)
    exp_packed = _power_table(tower)
    L = len(exp_packed) // tower.m
    rank = _rank_odd(tower, exp_packed)
    counts = [0] * (n + 1)
    counts[n] += 1  # alpha = 0 spans nothing
    # The class of gen**e is the whole preimage in Z/M of the orbit of e mod L
    # under multiplication by p, so classes are walked on Z/L.
    for e, size in _orbits(p, L):
        counts[n - rank(e)] += (q - 1) * size
    return counts


def _sweep_char2(tower: galois.TowerField) -> list[int]:
    """Counts N_0..N_n of F = F_2[x]/(f), every F_q*-line ranked at once.

    A lane is one line representative alpha, and plane c is an int whose
    bit l is coordinate c of lane l.  x -> x**q and the products by an
    F_2-basis b_0 = 1, b_1, ... of F_q are F_2-linear, so they map all lanes
    at once by XORs of planes (``_apply``), and ``_rank_lanes`` runs one
    elimination per lane in the same bitwise operations.
    """
    n, q, m = tower.n, tower.q, tower.m
    f = sum(c << k for k, c in enumerate(tower.modulus.coeffs))
    images = _frobenius_images(f, q)
    basis = _fq_basis(images, m)
    N = len(images)
    frobenius = _linear_map(images)
    scalings = [_linear_map([_mulmod2(b, 1 << k, f) for k in range(N)]) for b in basis[1:]]
    # bit k*m + i of a lane's index adds b_i * x**k (see _lane_blocks)
    digits = [_mulmod2(basis[s % m], 1 << s // m, f) for s in range((n - 1) * m)]
    counts = [0] * (n + 1)
    counts[n] += 1  # alpha = 0 spans nothing
    for planes, lanes in _lane_blocks(n, m, digits, _LANE_BLOCK_BITS):
        _rank_lanes(planes, lanes, n, q, frobenius, scalings, counts)
    return counts


def _mulmod2(a: int, b: int, f: int) -> int:
    """a*b mod f over F_2 for a reduced mod f; bit k of a packed poly is its x**k coefficient."""
    top = f.bit_length() - 1
    product = 0
    while b:
        if b & 1:
            product ^= a
        b >>= 1
        a <<= 1
        if a >> top & 1:
            a ^= f
    return product


def _frobenius_images(f: int, q: int) -> list[int]:
    """(x**k)**q mod f packed, k < deg f: the columns of x -> x**q over F_2."""
    xq = _mulmod2(1, 2, f)  # x, which deg f = 1 reduces
    for _ in range(q.bit_length() - 1):
        xq = _mulmod2(xq, xq, f)
    images = [1]
    for _ in range(f.bit_length() - 2):
        images.append(_mulmod2(images[-1], xq, f))
    return images


def _fq_basis(images: list[int], m: int) -> list[int]:
    """F_2-basis of F_q = ker(x -> x**q minus 1) in F, packed, with 1 first.

    Each column of the map minus 1 is reduced into an XOR basis together
    with the set of columns it has combined.  A column that reaches 0 gives
    a kernel vector whose top bit is that column's own, so the vectors are
    independent; column 0 gives 1, which x -> x**q fixes.
    """
    pivots = {}  # top bit -> (reduced column, combination)
    basis = []
    for k, image in enumerate(images):
        v, combination = image ^ 1 << k, 1 << k
        while v:
            top = v.bit_length()
            if top not in pivots:
                pivots[top] = (v, combination)
                break
            row, row_combination = pivots[top]
            v ^= row
            combination ^= row_combination
        else:
            basis.append(combination)
    if len(basis) != m:
        raise InternalInconsistency(f"F_q has dimension {len(basis)} over F_2, not m = {m}")
    return basis


def _linear_map(images: list[int]) -> list[list[int]]:
    """For each output coordinate c, the input coordinates whose images have bit c."""
    return [[k for k, image in enumerate(images) if image >> c & 1] for c in range(len(images))]


def _apply(linear_map: list[list[int]], planes: list[int]) -> list[int]:
    """The planes of the images of all lanes under a ``_linear_map``."""
    out = []
    for inputs in linear_map:
        v = 0
        for k in inputs:
            v ^= planes[k]
        out.append(v)
    return out


def _lane_blocks(n, m, digits, block_bits):
    """(planes, lane count) of the F_q*-lines of F, at most 2**block_bits lanes a block.

    Each line has one representative x**j + sum of c_k * x**k over k < j,
    c_k in F_q, j < n: {1, x, ..., x**(n-1)} is an F_q-basis of F, since x
    has degree n over F_q.  Lane t < q**j of degree j is x**j plus the sum
    of digits[s] over the bits s of t.  Over the low bits of t the planes
    are one pattern, built by doubling, and a higher bit of t only flips
    whole planes.  The degrees with fewer lanes than a block share the
    first block; each other degree fills whole blocks.
    """
    N = n * m
    pattern = [0] * N  # bit u of plane c: coordinate c of the sum of digits[s] over bits s of u
    for s in range(min(block_bits, len(digits))):
        half = 1 << s
        ones = (1 << half) - 1
        d = digits[s]
        pattern = [v | (v ^ (ones if d >> c & 1 else 0)) << half for c, v in enumerate(pattern)]
    head, head_lanes = [0] * N, 0
    wide = []
    for j in range(n):
        if j * m >= block_bits:
            wide.append(j)
            continue
        lanes = 1 << j * m
        mask = (1 << lanes) - 1
        for c in range(N):
            head[c] |= (pattern[c] & mask ^ (mask if c == j else 0)) << head_lanes
        head_lanes += lanes
    yield head, head_lanes
    full = (1 << (1 << block_bits)) - 1
    for j in wide:
        for high in range(1 << j * m - block_bits):
            offset = 1 << j
            for s in range(j * m - block_bits):
                if high >> s & 1:
                    offset ^= digits[block_bits + s]
            yield [v ^ (full if offset >> c & 1 else 0) for c, v in enumerate(pattern)], 1 << block_bits


def _rank_lanes(planes, lanes, n, q, frobenius, scalings, counts):
    """Add (q - 1) to N_{n-r} for each lane whose conjugates have F_q-rank r.

    The conjugate alpha**(q**j) enters as the m vectors b_i * alpha**(q**j),
    which span its F_q-multiples over F_2.  ``alive`` marks the lanes whose
    conjugates so far are independent; a lane leaves it at the first
    conjugate already in the span, whose span is then Frobenius-invariant.
    """
    start = planes
    alive = (1 << lanes) - 1
    pivots = [0] * len(planes)  # lanes with a basis row of that top bit
    rows = [[0] * b for b in range(len(planes))]  # the rows' planes below the top bit
    for j in range(n):
        if alive:
            inserted = _insert(planes, rows, pivots)
            counts[n - j] += (q - 1) * (alive & ~inserted).bit_count()
            alive &= inserted
            for scaling in scalings:
                if alive & ~_insert(_apply(scaling, planes), rows, pivots):
                    raise InternalInconsistency("scaled conjugate copies are dependent")
        planes = _apply(frobenius, planes)
    if planes != start:
        raise InternalInconsistency("the lanes did not return after n steps of x -> x**q")
    counts[0] += (q - 1) * alive.bit_count()


def _insert(vector, rows, pivots):
    """Reduce one vector per lane into that lane's XOR basis; the lanes where it was new.

    rows[b] holds, plane by plane below b, the row with top bit b of every
    lane in pivots[b] (0 elsewhere).  A lane whose vector has bit b set and
    no such row takes the vector as that row, and in every lane with bit b
    set the row is then XORed out of the vector.
    """
    v = list(vector)
    inserted = 0
    for b in range(len(v) - 1, -1, -1):
        vb = v[b]
        if not vb:
            continue
        new = vb & ~pivots[b]
        if new:
            pivots[b] |= new
            inserted |= new
            rows[b] = [r | x & new for r, x in zip(rows[b], v)]
        v[:b] = [x ^ r & vb for x, r in zip(v, rows[b])]
    return inserted


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
    """Bits per F_p coordinate of a packed element, odd p.

    The smallest of 8, 16, 32, 64 bits that holds (p - 1) + (N - 1) * (p - 1)**2
    with N = max(2, n*m): a vector of digits < p after the at most n*m - 1
    lazy reductions of ``_rank_odd``.  N is at least 2 so that the bound,
    p*(p-1) < 2**width, also gives the p <= 2**(width-1) that
    ``_power_table``'s fieldwise addition needs when n*m = 1.
    """
    p = tower.base.order
    coords = max(2, tower.n * tower.m)
    width = 8
    while (p - 1) + (coords - 1) * (p - 1) ** 2 >= 1 << width:
        width *= 2
    return width


def _power_table(tower: galois.TowerField) -> list[int]:
    """Exp table of the field, odd p: entry e is gen**e packed, e < m*L.

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
    exp_packed = [0] * steps
    x = 1
    for e in range(steps):
        exp_packed[e] = x
        s = low[x & low_mask] + high[x >> shift]
        x = s - (((s + bias) & tops) >> top_bit) * p
    if x != pack(tower.pow(gen, steps)):
        raise InternalInconsistency("generator walk did not end at gen**(m*L)")
    return exp_packed
