"""Bit-sliced sweeps of the fields of characteristic 2 and 3, all lines at once.

``sweep(tower)`` gives the counts N_0..N_n of F = F_p[x]/(f), p = 2 or 3,
for ``oracle``: the F_q-span of the conjugates depends only on their
F_q*-lines, so each line is ranked once and weighted by q - 1.  The digit
arithmetic of F_p is kept apart, in ``_Bits`` and ``_Trits``; the rest does
not branch on p.

* An F_p-vector is packed by digit: in characteristic 2 one int, bit k the
  digit k; in characteristic 3 a pair (lo, hi) of ints, bit k of lo set
  where digit k is 1 and of hi where it is 2 (two bit planes per F_3
  digit, after Boothby and Bradshaw), so that a sum takes seven
  AND/OR/XOR operations and a negation swaps lo and hi.
* Elements of F are such vectors, digit k the coefficient of x**k, and are
  multiplied by shifts and digitwise sums mod f.  The columns of
  x -> x**q must be the powers of a root of f; F_q = ker(x -> x**q minus 1)
  gets an F_p-basis b_0 = 1, b_1, ..., b_{m-1} by elimination, and must
  have dimension m.  No generator, exp table or orbit walk is needed.
* {1, x, ..., x**(n-1)} is an F_q-basis of F, since x has degree n over
  F_q, so each line has one representative x**j + sum_{k<j} c_k x**k with
  c_k in F_q, j < n: L = (q**n - 1)/(q - 1) lanes, every nonzero element
  when q = 2.  Plane c is a vector whose digit l is coordinate c of lane l,
  built from periodic digit patterns.
* x -> x**q and the products by b_i are F_p-linear, so they act on all
  lanes as digitwise sums of planes, and the m vectors b_i * alpha**(q**j),
  which span the F_q-multiples of a conjugate over F_p, enter an echelon
  basis per lane, kept as one row per pivot digit.  A lane is ranked at the
  first conjugate already in its span, which is then Frobenius-invariant;
  the other b_i-copies of a new conjugate must be new too, and the planes
  must return to their start after n steps of x -> x**q.  The lanes are
  taken at most 2**_LANE_BLOCK_BITS at a time (3**10 for p = 3), so memory
  stays flat as the field grows.
"""

from . import galois
from .errors import InternalInconsistency

# A sweep ranks at most 2**_LANE_BLOCK_BITS lines at once.
_LANE_BLOCK_BITS = 16


def sweep(tower: galois.TowerField) -> list[int]:
    """Counts N_0..N_n of F = F_p[x]/(f), p = 2 or 3, every F_q*-line ranked at once.

    A lane is one line representative alpha, and plane c holds coordinate c
    of every lane.  x -> x**q and the products by an F_p-basis b_0 = 1,
    b_1, ... of F_q are F_p-linear, so they map all lanes at once (the
    ``apply`` of the digit arithmetic F), and ``_rank_lanes`` runs one
    elimination per lane in the same digitwise operations.
    """
    F = {2: _Bits, 3: _Trits}[tower.base.order](tower.modulus.coeffs)
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
    while F.p ** (block_digits + 1) <= 1 << _LANE_BLOCK_BITS:
        block_digits += 1
    counts = [0] * (n + 1)
    counts[n] += 1  # alpha = 0 spans nothing
    for planes, lanes in _lane_blocks(F, n, m, digits, block_digits):
        _rank_lanes(F, planes, lanes, n, q, frobenius, scalings, counts)
    return counts


def _frobenius_images(F, q: int) -> list:
    """(x**k)**q mod f packed, k < deg f: the columns of x -> x**q over F_p."""
    x = F.mulmod(F.one, F.monomial(1))
    xq = x
    for bit in bin(q)[3:]:
        xq = F.mulmod(xq, xq)
        if bit == "1":
            xq = F.mulmod(xq, x)
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
            root = F.add(root, power if c == 1 else F.neg(power))  # c = 2 = -1 when p = 3
    if root != F.zero:
        raise InternalInconsistency("Frobenius column 1 is not a root of f")


def _fq_basis(F, images: list, m: int) -> list:
    """F_p-basis of F_q = ker(x -> x**q minus 1) in F, packed, with 1 first.

    Each column of the map minus 1 is reduced into an echelon basis with
    pivot digit 1, together with the combination of columns it stands for.
    A column that reaches 0 gives a kernel vector whose top digit is that
    column's own, so the vectors are independent; column 0 gives 1, which
    x -> x**q fixes.
    """
    pivots = {}  # top digit + 1 -> (reduced column, combination)
    basis = []
    for k, image in enumerate(images):
        combination = F.monomial(k)
        v = F.add(image, F.neg(combination))
        while top := F.support(v).bit_length():
            if F.digit(v, top - 1) != 1:  # 2 = -1 when p = 3
                v, combination = F.neg(v), F.neg(combination)
            if top not in pivots:
                pivots[top] = (v, combination)
                break
            row, row_combination = pivots[top]
            v = F.add(v, F.neg(row))
            combination = F.add(combination, F.neg(row_combination))
        else:
            basis.append(combination)
    if len(basis) != m:
        raise InternalInconsistency(f"F_q has dimension {len(basis)} over F_{F.p}, not m = {m}")
    return basis


def _lane_blocks(F, n, m, digits, block_digits):
    """(planes, lane count) of the F_q*-lines of F, at most p**block_digits lanes a block.

    Each line has one representative x**j + sum of c_k * x**k over k < j,
    c_k in F_q, j < n: {1, x, ..., x**(n-1)} is an F_q-basis of F, since x
    has degree n over F_q.  Lane t < q**j of degree j is x**j plus the sum
    of d * digits[s] over the base-p digits d of t.  Over the low digits of
    t the planes are one pattern, built by repeating it p times with
    digits[s] added 0, 1, ..., p - 1 times, and a higher digit of t only
    adds a constant to whole planes.  The degrees with fewer lanes than a
    block share the first block; each other degree fills whole blocks.
    """
    patterns = [[F.zero] * (n * m)]  # patterns[s]: the p**s lanes of the low s digits
    lanes = 1
    for d in digits[:block_digits]:
        ones = (1 << lanes) - 1
        parts = [patterns[-1]]
        for _ in range(F.p - 1):
            parts.append(F.plus(parts[-1], d, ones))
        patterns.append(F.concat([(part, lanes) for part in parts]))
        lanes *= F.p
    head, wide = [], []
    for j in range(n):
        if j * m >= block_digits:
            wide.append(j)
            continue
        width = F.p ** (j * m)
        head.append((F.plus(patterns[j * m], F.monomial(j), (1 << width) - 1), width))
    yield F.concat(head), sum(width for _, width in head)
    full = (1 << lanes) - 1
    for j in wide:
        for high in range(F.p ** (j * m - block_digits)):
            offset = F.monomial(j)
            s = block_digits
            while high:
                high, d = divmod(high, F.p)
                for _ in range(d):
                    offset = F.add(offset, digits[s])
                s += 1
            yield F.plus(patterns[-1], offset, full), lanes


def _rank_lanes(F, planes, lanes, n, q, frobenius, scalings, counts):
    """Add (q - 1) to N_{n-r} for each lane whose conjugates have F_q-rank r.

    The conjugate alpha**(q**j) enters as the m vectors b_i * alpha**(q**j),
    which span its F_q-multiples over F_p.  ``alive`` marks the lanes whose
    conjugates so far are independent; a lane leaves it at the first
    conjugate already in the span, whose span is then Frobenius-invariant.
    """
    apply, insert = F.apply, F.insert
    start = planes
    alive = (1 << lanes) - 1
    pivots = [0] * len(planes)  # lanes with a basis row of that top digit
    rows = [[F.zero] * b for b in range(len(planes))]  # the rows' planes below the top digit
    for j in range(n):
        if alive:
            inserted = insert(planes, rows, pivots)
            counts[n - j] += (q - 1) * (alive & ~inserted).bit_count()
            alive &= inserted
            for scaling in scalings:
                if alive & ~insert(apply(scaling, planes), rows, pivots):
                    raise InternalInconsistency("scaled conjugate copies are dependent")
        planes = apply(frobenius, planes)
    if planes != start:
        raise InternalInconsistency("the lanes did not return after n steps of x -> x**q")
    counts[0] += (q - 1) * alive.bit_count()


class _Bits:
    """Digits of F_2, bit-sliced: a vector is an int whose bit k is digit k.

    A vector is an element of F = F_2[x]/(f), digit k its coefficient of
    x**k, or a plane, digit l the coordinate of lane l.
    """

    p = 2
    zero = 0
    one = 1

    def __init__(self, coeffs):
        self.coeffs = coeffs  # of f, constant first
        self.N = len(coeffs) - 1
        self.f = sum(c << k for k, c in enumerate(coeffs))

    def monomial(self, k):
        return 1 << k

    def add(self, a, b):
        return a ^ b

    def neg(self, a):
        return a

    def support(self, a):
        return a

    def digit(self, a, k):
        return a >> k & 1

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

    def concat(self, blocks):
        """The planes of the lanes of `blocks`, (planes, lane count) pairs, in turn."""
        out, offset = blocks[0]
        for planes, lanes in blocks[1:]:
            out = [v | w << offset for v, w in zip(out, planes)]
            offset += lanes
        return out

    def linear_map(self, images):
        """For each output coordinate c, the input coordinates whose images have digit c."""
        return [[k for k, image in enumerate(images) if image >> c & 1] for c in range(self.N)]

    def apply(self, linear_map, planes):
        """The planes of the images of all lanes under a ``linear_map``."""
        out = []
        for inputs in linear_map:
            v = 0
            for k in inputs:
                v ^= planes[k]
            out.append(v)
        return out

    def insert(self, vector, rows, pivots):
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


class _Trits:
    """Digits of F_3, bit-sliced: a vector is a pair (lo, hi) of ints, bit k of
    lo set where digit k is 1 and bit k of hi where it is 2.

    A vector is an element of F = F_3[x]/(f), digit k its coefficient of
    x**k, or a plane, digit l the coordinate of lane l.  Sums take seven
    AND/OR/XOR operations, negation swaps lo and hi, and as 1/1 = 1 and
    1/2 = 2 a vector is made monic by its own leading digit.
    """

    p = 3
    zero = (0, 0)
    one = (1, 0)

    def __init__(self, coeffs):
        self.coeffs = coeffs  # of f, constant first
        self.N = len(coeffs) - 1
        self.f = (sum(1 << k for k, c in enumerate(coeffs) if c == 1),
                  sum(1 << k for k, c in enumerate(coeffs) if c == 2))

    def monomial(self, k):
        return 1 << k, 0

    def add(self, a, b):
        (al, ah), (bl, bh) = a, b
        t = (al | bh) ^ (ah | bl)
        return (ah | bh) ^ t, (al | bl) ^ t

    def neg(self, a):
        return a[1], a[0]

    def support(self, a):
        return a[0] | a[1]

    def digit(self, a, k):
        return (a[0] >> k & 1) | (a[1] >> k & 1) << 1

    def mulmod(self, a, b):
        """a*b mod f for a reduced mod f, by shifts and digitwise sums."""
        f, minus_f, top = self.f, self.neg(self.f), self.N
        product = self.zero
        bl, bh = b
        while bl | bh:
            if bl & 1:
                product = self.add(product, a)
            elif bh & 1:
                product = self.add(product, self.neg(a))
            bl >>= 1
            bh >>= 1
            a = a[0] << 1, a[1] << 1
            if a[0] >> top & 1:
                a = self.add(a, minus_f)
            elif a[1] >> top & 1:
                a = self.add(a, f)
        return product

    def plus(self, planes, element, ones):
        """The planes with `element` added to each lane of `ones`: a digit
        added to a plane permutes its zero, lo and hi masks cyclically."""
        el, eh = element
        out = []
        for c, (lo, hi) in enumerate(planes):
            if el >> c & 1:
                lo, hi = ones & ~(lo | hi), lo
            elif eh >> c & 1:
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

    def linear_map(self, images):
        """For each output coordinate c, the input coordinates whose images have
        digit 1 there, and those whose images have digit 2."""
        return [([k for k, (lo, _) in enumerate(images) if lo >> c & 1],
                 [k for k, (_, hi) in enumerate(images) if hi >> c & 1]) for c in range(self.N)]

    def apply(self, linear_map, planes):
        """The planes of the images of all lanes under a ``linear_map``."""
        out = []
        for ones, twos in linear_map:
            lo = hi = 0
            for k in ones:
                bl, bh = planes[k]
                t = (lo | bh) ^ (hi | bl)
                lo, hi = (hi | bh) ^ t, (lo | bl) ^ t
            for k in twos:
                bh, bl = planes[k]
                t = (lo | bh) ^ (hi | bl)
                lo, hi = (hi | bh) ^ t, (lo | bl) ^ t
            out.append((lo, hi))
        return out

    def insert(self, vector, rows, pivots):
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
