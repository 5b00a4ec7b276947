"""Sweeps of F_{q^n} that rank every F_q*-line at once, in packed lanes.

``sweep(tower)`` gives the counts N_0..N_n of F = F_p[x]/(f) for ``oracle``:
the F_q-span of the conjugates depends only on their F_q*-lines, so each
line is ranked once and weighted by q - 1.  A vector over F_p is one int
with a field per digit, each kept in [0, p), where a sum is one int
addition and a subtraction of p where a field reached p (SIMD within a
register, after Fisher and Dietz).  For ``_Bits`` (p = 2) a field is one
bit.  For ``_Digits`` (p >= 3) a plane has bitlen(p - 1) + 1 bits a lane,
and an element bitlen(2N(p - 1)**2) bits a digit, as many as a digit of a
product of two elements takes before mod p, so ``mulmod`` is one int
product.  Every element of F is such a vector, whatever p, so only the
plane kernels differ by p: ``_Trits`` (p = 3) keeps a plane as two bit
planes, lo and hi, after Boothby and Bradshaw, so a sum of planes takes
seven AND/OR/XOR operations and a negation swaps them.

* Digit k of an element is its coefficient of x**k.  The
  columns of x -> x**q must be the powers of a root of f, and F_q =
  ker(x -> x**q minus 1), with an F_p-basis b_0 = 1, ..., b_{m-1} found by
  elimination, must have dimension m.
* {1, x, ..., x**(n-1)} is an F_q-basis of F, so each line has one
  representative x**j + sum_{k<j} c_k x**k, c_k in F_q: one lane each,
  L = (q**n - 1)/(q - 1) in all.  Plane c holds coordinate c of every lane,
  lane l at bit l * lane_width, and a lane mask has the low bit of each
  lane set.
* x -> x**q and the products by b_i are F_p-linear, so they act on all
  lanes as digitwise sums of planes, and the b_i * alpha**(q**j) enter an
  echelon basis per lane, one row per pivot digit.  A lane is ranked at its
  first conjugate already in the span, which is then Frobenius-invariant:
  ``_rank_lanes`` returns one lane mask per rank.  The other b_i-copies of a
  new conjugate must be new too, the planes must return after n steps of
  x -> x**q, and ``sweep`` ranks the first lane found of every rank again
  in scalar arithmetic.  At most 2**_LANE_BLOCK_BITS lanes are taken at a
  time, so memory stays flat.  A mask x & ~y is written x ^ (x & y): ~y is
  a negative int, and & with one takes extra passes.
* ``galois.find_irreducible`` scans for f over F_p with ``ben_or``:
  Ben-Or's test run in this arithmetic (powers by ``mulmod``, a gcd of
  packed polynomials).
* One ``_power``, doubling from the top bit, repeats every operation that is
  repeated: ``mulmod`` for powers, the lane product for the lane inverse
  d**(p-2), ``add`` for a multiple c*a, and the join of ``_repeat`` for a
  lane pattern.
"""

from .errors import InternalInconsistency

# A sweep ranks at most 2**_LANE_BLOCK_BITS lines at once.
_LANE_BLOCK_BITS = 16


def sweep(tower) -> list[int]:
    """Counts N_0..N_n of F = F_p[x]/(f), a ``galois.TowerField``, every
    F_q*-line ranked at once.

    x -> x**q and the products by b_1, ... map all lanes at once (``apply``
    of the digit arithmetic F), and ``_rank_lanes`` runs one elimination per
    lane in the same digitwise operations.  Its masks give the counts, a
    lane of rank r weighted q - 1 in N_{n-r}.
    """
    F = _field(tower.base.order, tower.modulus.coeffs)
    n, q, m, N = tower.n, tower.q, tower.m, F.N
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
    counts = [0] * n + [1]  # alpha = 0 spans nothing
    samples = {}  # rank -> the element of the first lane found with that rank
    for planes, lanes in _lane_blocks(F, n, m, digits):
        for rank, ranked in enumerate(_rank_lanes(F, planes, lanes, n, frobenius, scalings)):
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


def _frobenius_images(F, q: int) -> list:
    """(x**k)**q mod f packed, k < deg f: the columns of x -> x**q over F_p."""
    xq = _power(F.mulmod, F.mulmod(F.one, F.monomial(1)), q)
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

    Scalar arithmetic, sharing neither the lanes' map x -> x**q nor their
    elimination: powers by ``mulmod`` and one ``_eliminate``, up to the first
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


def _rank_lanes(F, planes, lanes, n, frobenius, scalings):
    """n + 1 lane masks: mask r holds the lanes whose conjugates have F_q-rank r.

    alpha**(q**j) enters as the m vectors b_i * alpha**(q**j), which span its
    F_q-multiples over F_p.  ``alive`` marks the lanes whose conjugates so
    far are independent: a lane has rank j at its first dependent conjugate j.
    """
    apply, insert = F.apply, F.insert
    start = planes
    ones = alive = _lane_mask(F, lanes)
    pivots = [0] * len(planes)  # per top digit, the lanes with a basis row there (see insert)
    rows = [[F.row_zero] * b for b in range(len(planes))]  # the rows' planes below the top digit
    ranks = [0] * n
    for j in range(n):
        if alive:
            inserted = insert(planes, rows, pivots, ones)
            ranks[j] = alive ^ (alive & inserted)
            alive &= inserted
            for scaling in scalings:
                if alive ^ (alive & insert(apply(scaling, planes, ones), rows, pivots, ones)):
                    raise InternalInconsistency("scaled conjugate copies are dependent")
        planes = apply(frobenius, planes, ones)
    if planes != start:
        raise InternalInconsistency("the lanes did not return after n steps of x -> x**q")
    return ranks + [alive]


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
            new = vb ^ (vb & pivots[b])
            if new:
                pivots[b] |= new
                inserted |= new
                rows[b] = [r | x & new for r, x in zip(rows[b], v)]
            v[:b] = [x ^ r & vb for x, r in zip(v, rows[b])]
        return inserted


class _Digits(_Packed):
    """Digits of F_p, p >= 3.  A plane is an int whose lane l, w =
    bitlen(p - 1) + 1 bits at bit l*w, holds a digit in [0, p), so a lane's
    top bit is free; at p = 3 planes are kept as ``_Trits``.  An element is an
    int whose field k holds digit k in [0, p), each field as wide as a digit
    of a product of two elements before mod p, which is below 2N (p - 1)**2.

    A sum s = a + b subtracts p from each field or lane whose bit w - 1 is
    set in s + (2**(w-1) - p), so none carries into the next.  A product by
    per-lane digits d adds the j-th doubling of the vector where bit j of d
    is set, and 1/d = d**(p-2), a ``_power`` of that product taken once per
    ``insert``.
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

    @property
    def row_zero(self):
        return (0,) * self.bits  # a row is kept as its doublings

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

    def mul(self, a, d, ones):
        """a times the per-lane digits d."""
        bias, bits, p, fill = ones * self.excess, self.bits, self.p, self.fill
        out = 0
        for j, doubling in enumerate(self.doublings(a, ones)):
            s = out + (doubling & (d >> j & ones) * fill)
            out = s - ((s + bias) >> bits & ones) * p
        return out

    def insert(self, vector, rows, pivots, ones):
        """Reduce one vector per lane into that lane's echelon basis; the lanes where it was new.

        rows[b] holds, plane by plane below b, the doublings of the row with
        top digit b of every lane that has one, and pivots[b] the inverse of
        that digit (0 elsewhere).  A lane with a digit d != 0 at b and no row
        there takes the vector as its row; then -d/(digit b of the row) times
        the row is added to the vector, a doubling for each bit of it.  That
        factor is -1 in a lane whose row is new, which leaves the rest of its
        vector 0.  So a lane takes at most one row per insert, and the
        inverses of the new rows' digits b are taken once, as one d**(p-2)
        over all lanes, and written to pivots at the end.
        """
        bias, bits, p, fill = ones * self.excess, self.bits, self.p, self.fill
        nonzero = ones * (fill >> 1)  # per field: d + nonzero has the top bit iff d != 0
        v = list(vector)
        inserted = leads = 0  # the lanes with a new row, and its digit at its top
        fresh = []  # (b, the lanes with a new row at b)
        for b in range(len(v) - 1, -1, -1):
            d = v[b]
            if not d:
                continue
            inverse = pivots[b]
            live = (d + nonzero) >> bits & ones
            new = live ^ (live & (inverse + nonzero) >> bits)
            if new:
                inserted |= new
                spread = new * fill
                leads |= d & spread
                fresh.append((b, new))
                rows[b] = [row if not x & spread else tuple(
                    r | y for r, y in zip(row, self.doublings(x & spread, ones)))
                    for row, x in zip(rows[b], v)]
            d = self.mul(d, inverse, ones)  # 0 where the row is new
            factor = live * p - d - new  # -d/(digit b of the row); -1 where it is new
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
        leads = _power(lambda a, b: self.mul(a, b, ones), leads, p - 2)  # 1/d, 0 where d is 0
        for b, new in fresh:
            pivots[b] |= leads & new * fill
        return inserted


class _Trits(_Digits):
    """Digits of F_3: elements as in ``_Digits``, but a plane is a
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
            nonzero = dl | dh
            if not nonzero:
                continue
            new = nonzero ^ (nonzero & pivots[b])
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
