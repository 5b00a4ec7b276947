"""Sweeps of F_{q^n} that rank every F_q*-line at once, in packed lanes.

``sweep(tower)`` gives the counts N_0..N_n of F = F_p[x]/(f) for ``oracle``:
the F_q-span of the conjugates depends only on their F_q*-lines, so each
line is ranked once and weighted by q - 1.  A vector over F_p is one int
with a w-bit field per digit, each kept in [0, p): w = 1 for ``_Bits``
(p = 2), w = bitlen(p - 1) + 1 for ``_Digits`` (p >= 3), where a sum is one
int addition and a subtraction of p where a field reached p (SIMD within a
register, after Fisher and Dietz).  Every element of F is such a vector,
whatever p, so only the plane kernels differ by p: ``_Trits`` (p = 3) keeps
a plane as two bit planes, lo and hi, after Boothby and Bradshaw, so a sum
of planes takes seven AND/OR/XOR operations and a negation swaps them.

* Digit k of an element is its coefficient of x**k.  The
  columns of x -> x**q must be the powers of a root of f, and F_q =
  ker(x -> x**q minus 1), with an F_p-basis b_0 = 1, ..., b_{m-1} found by
  elimination, must have dimension m.  No generator or exp table is needed.
* {1, x, ..., x**(n-1)} is an F_q-basis of F, so each line has one
  representative x**j + sum_{k<j} c_k x**k, c_k in F_q: one lane each,
  L = (q**n - 1)/(q - 1) in all.  Plane c holds coordinate c of every lane,
  lane l at bit l * lane_width, and a lane mask has the low bit of each
  lane set.
* x -> x**q and the products by b_i are F_p-linear, so they act on all
  lanes as digitwise sums of planes, and the b_i * alpha**(q**j) enter an
  echelon basis per lane, one row per pivot digit.  A lane is ranked at its
  first conjugate already in the span, which is then Frobenius-invariant.
  The other b_i-copies of a new conjugate must be new too, the planes must
  return after n steps of x -> x**q, and the first lane found of every rank
  is ranked again in scalar arithmetic.  At most 2**_LANE_BLOCK_BITS lanes
  are taken at a time, so memory stays flat.
"""

from . import galois
from .errors import InternalInconsistency

# A sweep ranks at most 2**_LANE_BLOCK_BITS lines at once.
_LANE_BLOCK_BITS = 16


def sweep(tower: galois.TowerField) -> list[int]:
    """Counts N_0..N_n of F = F_p[x]/(f), every F_q*-line ranked at once.

    x -> x**q and the products by b_1, ... map all lanes at once (``apply``
    of the digit arithmetic F), and ``_rank_lanes`` runs one elimination per
    lane in the same digitwise operations.
    """
    p, coeffs = tower.base.order, tower.modulus.coeffs
    F = {2: _Bits, 3: _Trits}[p](coeffs) if p < 5 else _Digits(coeffs, p)
    n, q, m = tower.n, tower.q, tower.m
    N = n * m
    images = _frobenius_images(F, q)
    _check_frobenius(F, images)
    basis = _fq_basis(F, images, m)
    frobenius = F.linear_map(images)
    x = F.mulmod(F.one, F.monomial(1))  # x, which deg f = 1 reduces
    columns = [[F.monomial(k) for k in range(N)]]  # columns[i][k] = b_i * x**k
    for b in basis[1:]:
        columns.append([b])
        for _ in range(N - 1):
            columns[-1].append(F.mulmod(columns[-1][-1], x))
    scalings = [F.linear_map(column) for column in columns[1:]]
    # base-p digit s of a lane's index adds a multiple of b_i * x**k, s = k*m + i
    digits = [columns[s % m][s // m] for s in range((n - 1) * m)]
    block_digits = 0  # p**block_digits lanes a block, at most 2**_LANE_BLOCK_BITS
    while p ** (block_digits + 1) <= 1 << _LANE_BLOCK_BITS:
        block_digits += 1
    counts = [0] * (n + 1)
    counts[n] += 1  # alpha = 0 spans nothing
    samples = {}  # rank -> the element of the first lane found with that rank
    for planes, lanes in _lane_blocks(F, n, m, digits, block_digits):
        _rank_lanes(F, planes, lanes, n, q, frobenius, scalings, counts, samples)
    for rank, alpha in samples.items():
        if _span_dimension(F, alpha, n, q, basis) != rank * m:
            raise InternalInconsistency(f"a lane of rank {rank} re-ranks differently")
    return counts


def _power(F, a, e: int):
    """a**e in F for e >= 1, squaring from the top bit of e."""
    if a == F.one:  # every sweep re-ranks the lane of alpha = 1
        return a
    result = a
    for bit in bin(e)[3:]:
        result = F.mulmod(result, result)
        if bit == "1":
            result = F.mulmod(result, a)
    return result


def _frobenius_images(F, q: int) -> list:
    """(x**k)**q mod f packed, k < deg f: the columns of x -> x**q over F_p."""
    xq = _power(F, F.mulmod(F.one, F.monomial(1)), q)
    images = [F.one]
    for _ in range(F.N - 1):
        images.append(F.mulmod(images[-1], xq))
    return images


def _check_frobenius(F, images: list) -> None:
    """Refuse columns that are not those of a field automorphism of F_p[x]/(f).

    Column 0 must be 1, column k the k-th power of column 1 and column 1 a
    root of f.  Then the map is x -> x**(p**i) for some i; the F_q dimension
    and the return after n steps pin it down to a generator of the Galois
    group of F over F_q.
    """
    if images[0] != F.one:
        raise InternalInconsistency("Frobenius column 0 is not 1")
    if F.N == 1:
        return
    power, root = F.one, F.zero  # column 1 to the power k, and f(column 1) so far
    for k, c in enumerate(F.coeffs):
        if k:
            power = F.mulmod(images[1], power)
        if k < F.N and images[k] != power:
            raise InternalInconsistency(f"Frobenius column {k} is not column 1 to the power {k}")
        if c:
            root = F.add(root, F.scale(power, c))
    if root != F.zero:
        raise InternalInconsistency("Frobenius column 1 is not a root of f")


def _eliminate(F, rows: dict, v):
    """Reduce v by monic `rows` (keyed by top digit + 1); keep a nonzero rest as a row.

    Returns the new row, or None when v is in their span.
    """
    while top := F.top(v):
        d = F.digit(v, top - 1)
        row = rows.get(top)
        if row is None:
            row = rows[top] = v if d == 1 else F.scale(v, pow(d, -1, F.p))
            return row
        v = F.add(v, row if d == F.p - 1 else F.scale(row, F.p - d))
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

    Scalar arithmetic, sharing neither the lanes' map x -> x**q nor their
    elimination: powers by ``mulmod`` and one ``_eliminate``, up to the first
    conjugate already in the span.
    """
    rows, conjugate = {}, alpha
    for j in range(n):
        if j:
            conjugate = _power(F, conjugate, q)
        if _eliminate(F, rows, conjugate) is None:  # b_0 = 1
            break
        for b in basis[1:]:
            _eliminate(F, rows, F.mulmod(conjugate, b))
    return len(rows)


def _lane_mask(F, lanes: int) -> int:
    """The lane mask of `lanes` lanes: the low bit of each lane."""
    return ((1 << lanes * F.lane_width) - 1) // ((1 << F.lane_width) - 1)


def _lane_element(F, planes: list, mask: int):
    """The element held by the lowest lane of `mask` in `planes`."""
    lane = ((mask & -mask).bit_length() - 1) // F.lane_width
    return sum(F.shift(F.lane_digit(plane, lane), c) for c, plane in enumerate(planes))


def _lane_blocks(F, n, m, digits, block_digits):
    """(planes, lane count) of the F_q*-lines of F, at most p**block_digits lanes a block.

    Lane t < q**j of degree j < n is x**j plus the sum of d * digits[s] over
    the base-p digits d of t.  Over the low digits of t the planes are one
    pattern (``_repeat``), and a higher digit of t only adds a constant to
    whole planes.  The degrees with fewer lanes than a block share the first
    block, which is empty when a block is one lane; the others fill blocks.
    """
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
    """p copies of the `lanes` lanes of `planes`, copy t with t * d added,
    doubled from the top bit of p down: O(log p) concatenations, not p."""
    out, copies = planes, 1
    for bit in bin(F.p)[3:]:
        width = copies * lanes
        parts = [(out, width), (F.plus(out, F.scale(d, copies), _lane_mask(F, width)), width)]
        copies *= 2
        if bit == "1":
            parts.append((F.plus(planes, F.scale(d, copies), _lane_mask(F, lanes)), lanes))
            copies += 1
        out = F.concat(parts)
    return out


def _rank_lanes(F, planes, lanes, n, q, frobenius, scalings, counts, samples):
    """Add (q - 1) to N_{n-r} for each lane whose conjugates have F_q-rank r.

    alpha**(q**j) enters as the m vectors b_i * alpha**(q**j), which span its
    F_q-multiples over F_p.  ``alive`` marks the lanes whose conjugates so
    far are independent.  `samples` maps each rank found to the element of
    the first lane found with it.
    """
    apply, insert = F.apply, F.insert
    start = planes
    ones = alive = _lane_mask(F, lanes)
    pivots = [0] * len(planes)  # per top digit, the lanes with a basis row there (see insert)
    rows = [[F.row_zero] * b for b in range(len(planes))]  # the rows' planes below the top digit
    for j in range(n):
        if alive:
            inserted = insert(planes, rows, pivots, ones)
            ranked = alive & ~inserted
            if ranked:
                counts[n - j] += (q - 1) * ranked.bit_count()
                if j not in samples:
                    samples[j] = _lane_element(F, start, ranked)
            alive &= inserted
            for scaling in scalings:
                if alive & ~insert(apply(scaling, planes, ones), rows, pivots, ones):
                    raise InternalInconsistency("scaled conjugate copies are dependent")
        planes = apply(frobenius, planes, ones)
    if planes != start:
        raise InternalInconsistency("the lanes did not return after n steps of x -> x**q")
    counts[0] += (q - 1) * alive.bit_count()
    if alive and n not in samples:
        samples[n] = _lane_element(F, start, alive)


class _Packed:
    """A vector packed in one int, `width` bits a digit, digit k at bit k*width.

    Elements of F are such vectors, and so are planes but in ``_Trits``:
    the plane code reads a lane by ``lane_digit``, `lane_width` bits a lane.
    """

    width = fill = bits = 1  # bits of a digit, the mask of one, and its doublings taken
    zero = plane_zero = 0
    one = 1

    @property
    def lane_width(self):
        return self.width

    def monomial(self, k):
        return 1 << k * self.width

    def shift(self, a, k):
        return a << k * self.width

    def top(self, a):
        """The number of digits up to the top nonzero one."""
        return -(-a.bit_length() // self.width)

    def digit(self, a, k):
        shift = k * self.width
        return (a & self.fill << shift) >> shift  # masked first: a may be a plane of many lanes

    lane_digit = digit

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
            while image:  # bit s is bit s % width of digit s // width
                s = (image & -image).bit_length() - 1
                out[s // self.width].append((k, s % self.width))
                image &= image - 1
        return out


class _Bits(_Packed):
    """Digits of F_2, bit-sliced: a vector is an int whose bit k is digit k.

    A vector is an element of F = F_2[x]/(f), digit k its coefficient of
    x**k, or a plane, digit l the coordinate of lane l.  The lane mask
    `ones` of ``apply`` and ``insert`` is read only by ``_Digits``.
    """

    p = 2
    row_zero = 0

    def __init__(self, coeffs):
        self.coeffs = coeffs  # of f, constant first
        self.N = len(coeffs) - 1
        self.f = sum(c << k for k, c in enumerate(coeffs))

    def add(self, a, b):
        return a ^ b

    def scale(self, a, c):
        return a if c else 0

    def mulmod(self, a, b):
        """a*b mod f for a reduced mod f, by shifts and XORs."""
        f, top = self.f, self.N
        product = 0
        while b:
            if b & 1:
                product ^= a
            b >>= 1
            a <<= 1
            if a >> top & 1:
                a ^= f
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

    def insert(self, vector, rows, pivots, ones):
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


class _Digits(_Packed):
    """Digits of F_p, p >= 3: a vector is an int whose w-bit field k holds
    digit k in [0, p), w = bitlen(p - 1) + 1, so a field's top bit is free.
    At p = 3 only elements are such vectors (``_Trits``).

    A sum s = a + b subtracts p from each field whose top bit is set in
    s + (2**(w-1) - p), so no field carries into the next.  A product by
    per-lane digits d adds the j-th doubling of the vector where bit j of d
    is set, and 1/d = d**(p-2).
    """

    def __init__(self, coeffs, p):
        self.p = p
        self.coeffs = coeffs  # of f, constant first
        self.N = len(coeffs) - 1
        self.bits = (p - 1).bit_length()  # of a digit, and its doublings taken
        self.width = self.bits + 1
        self.fill = (1 << self.width) - 1
        self.excess = (1 << self.bits) - p  # per field: s + excess has the top bit iff s >= p
        self.tail = [(k, c) for k, c in enumerate(coeffs[:-1]) if c]  # f - x**N, sparse
        self.wide = (self.N * (p - 1) ** 2).bit_length()  # a digit of a product before mod p
        self.low = ((1 << 2 * self.N * self.width) - 1) // self.fill  # ``_fq_basis`` has 2N digits
        self.bias = self.low * self.excess

    @property
    def row_zero(self):
        return (0,) * self.bits  # a row is kept as its doublings

    def add(self, a, b):
        s = a + b
        return s - ((s + self.bias) >> self.bits & self.low) * self.p

    def scale(self, a, c):
        """c*a for a digit c: the lane product by c in every digit."""
        return self.mul(a, c * self.low, self.low)

    def mulmod(self, a, b):
        """a*b mod f for a reduced mod f: one int product of the digits spread
        to fields wide enough for their sums, then reduced digit by digit."""
        p, N, width, fill, wide = self.p, self.N, self.width, self.fill, self.wide
        spread = []
        for v in a, b:
            out = shift = 0
            while v:
                out, v, shift = out | (v & fill) << shift, v >> width, shift + wide
            spread.append(out)
        product, digits = spread[0] * spread[1], []
        while product:
            digits.append(product & (1 << wide) - 1)
            product >>= wide
        for i in range(len(digits) - 1, N - 1, -1):  # f is monic
            c = digits[i] % p
            if c:
                for k, t in self.tail:
                    digits[i - N + k] -= c * t
        out = 0
        for c in reversed(digits[:N]):
            out = out << width | c % p
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

    def mul(self, a, d, ones):
        """a times the per-lane digits d."""
        bias, bits, p, fill = ones * self.excess, self.bits, self.p, self.fill
        out = 0
        for j, doubling in enumerate(self.doublings(a, ones)):
            s = out + (doubling & (d >> j & ones) * fill)
            out = s - ((s + bias) >> bits & ones) * p
        return out

    def inverse(self, d, ones):
        """1/d per lane as d**(p-2), so 0 where d is 0."""
        out = d
        for bit in bin(self.p - 2)[3:]:
            out = self.mul(out, out, ones)
            if bit == "1":
                out = self.mul(out, d, ones)
        return out

    def insert(self, vector, rows, pivots, ones):
        """Reduce one vector per lane into that lane's echelon basis; the lanes where it was new.

        rows[b] holds, plane by plane below b, the doublings of the row with
        top digit b of every lane that has one, and pivots[b] the inverse of
        that digit (0 elsewhere).  A lane with a digit d != 0 at b and no row
        there takes the vector as its row; then -d/(digit b of the row) times
        the row is added to the vector, a doubling for each bit of it.
        """
        bias, bits, p, fill = ones * self.excess, self.bits, self.p, self.fill
        nonzero = ones * (fill >> 1)  # per field: d + nonzero has the top bit iff d != 0
        v = list(vector)
        inserted = 0
        for b in range(len(v) - 1, -1, -1):
            d = v[b]
            if not d:
                continue
            inverse = pivots[b]
            live = (d + nonzero) >> bits & ones
            new = live & ~((inverse + nonzero) >> bits)
            if new:
                inserted |= new
                spread = new * fill
                lead = d & spread
                inverse |= new if lead == new else self.inverse(lead, ones)  # 1/1 = 1
                pivots[b] = inverse
                rows[b] = [row if not x & spread else tuple(
                    r | y for r, y in zip(row, self.doublings(x & spread, ones)))
                    for row, x in zip(rows[b], v)]
            if inverse & live * fill != live:  # unless every digit b of the rows is 1
                d = self.mul(d, inverse, ones)
            factor = live * p - d  # -d/(digit b of the row)
            masks = [(factor >> j & ones) * fill for j in range(bits)]
            reduced = []
            for x, row in zip(v, rows[b]):
                for mask, r in zip(masks, row):
                    t = r & mask
                    if t:
                        s = x + t
                        x = s - ((s + bias) >> bits & ones) * p
                reduced.append(x)
            v[:b] = reduced
        return inserted


class _Trits(_Digits):
    """Digits of F_3: elements as in ``_Digits`` (w = 3), but a plane is a
    pair (lo, hi) of ints, bit l of lo set where lane l's digit is 1 and bit
    l of hi where it is 2.  The doublings of a plane are the plane and its
    negation, which swaps lo and hi.  As 1/1 = 1 and 1/2 = 2, a row is made
    monic by its own leading digit.
    """

    lane_width = 1
    plane_zero = row_zero = (0, 0)

    def __init__(self, coeffs):
        super().__init__(coeffs, 3)

    def lane_digit(self, plane, l):
        bit = 1 << l  # masked first, as in _Packed.digit
        return (plane[0] & bit) >> l | (plane[1] & bit) >> l << 1

    def plus(self, planes, element, ones):
        """The planes with `element` added to each lane of `ones`: a digit
        added to a plane permutes its zero, lo and hi masks cyclically."""
        out = []
        for c, (lo, hi) in enumerate(planes):
            d = self.digit(element, c)
            if d == 1:
                lo, hi = ones & ~(lo | hi), lo
            elif d == 2:
                lo, hi = hi, ones & ~(lo | hi)
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

    def insert(self, vector, rows, pivots, ones):
        """Reduce one vector per lane into that lane's echelon basis; the lanes where it was new.

        rows[b] holds, plane by plane below b, the row with top digit b of
        every lane in pivots[b] (0 elsewhere), made monic: its digit b is 1
        and implied.  A lane whose vector has a digit d != 0 at b and no such
        row takes d times the vector as that row, and in every lane with
        digit d at b, -d times the row is then added to the vector.
        """
        v = list(vector)
        inserted = 0
        for b in range(len(v) - 1, -1, -1):
            dl, dh = v[b]
            if not dl | dh:
                continue
            new = (dl | dh) & ~pivots[b]
            if new:
                pivots[b] |= new
                inserted |= new
                sl, sh = dl & new, dh & new
                rows[b] = [(rl | xl & sl | xh & sh, rh | xh & sl | xl & sh)
                           for (rl, rh), (xl, xh) in zip(rows[b], v)]
            reduced = []
            for (xl, xh), (rl, rh) in zip(v, rows[b]):
                yl, yh = rl & dh | rh & dl, rh & dh | rl & dl  # -d times the row
                t = (xl | yh) ^ (xh | yl)
                reduced.append(((xh | yh) ^ t, (xl | yl) ^ t))
            v[:b] = reduced
        return inserted
