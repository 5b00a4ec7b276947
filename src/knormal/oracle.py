"""Ground-truth classification of field elements, with no counting formulas.

``brute_force_distribution`` walks all of F_{q^n} and buckets every element
alpha by k = n - dim span_{F_q}(alpha, alpha**q, ..., alpha**(q**(n-1))),
the definition of k-normality.  Three facts keep full sweeps up to 2**22
elements feasible, none of which borrows anything from the counting side:

* elements are packed ints in an exp table, entry e holding gen**e for one
  fixed generator, and the base-p digits of a packed int are its F_p
  coordinates, so a rank over F_p is an elimination on ints (XOR when
  p = 2, lazily reduced bit fields otherwise);
* the rank is constant on classes {c * alpha**(q**i): c in F_q*, i < n},
  since the conjugates of c*alpha are c times those of alpha and those of
  alpha**q are those of alpha in cyclic order, so one rank per class
  suffices, weighted by class size.  In exponent terms the class of e is
  {q**i * e + j*L mod M} with M = q**n - 1, L = M/(q-1): the preimage of
  the orbit of e mod L under multiplication by q;
* the F_q-span of the conjugates is the F_p-span of their multiples by
  1, beta, ..., beta**(m-1), beta = gen**L, and it stops growing at the
  first conjugate already inside it.

``_classify_elementwise`` is the literal gcd characterisation, one generic
tower-arithmetic deg gcd(x**n - 1, g_alpha) per element with g_alpha =
sum of alpha**(q**i) * x**(n-1-i); tests assert it agrees with the class
path, and with a literal rank of the conjugates, on a spread of small
fields.

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
# Entries of the base-p widening table in the odd-characteristic rank.
_SPREAD_TABLE_SIZE = 4096


def brute_force_distribution(
    q: int,
    n: int,
    *,
    max_order: int = DEFAULT_MAX_ORDER,
    modulus_index: int = 0,
) -> Distribution:
    """Exact k-normal distribution computed from the field itself."""
    spectrum.derive_params(q, n)  # validates q prime power, n >= 1
    if q**n > max_order:
        raise InstanceTooLarge(f"q**n = {q**n} exceeds the sweep guard {max_order}")
    tower = galois.build_tower(q, n, modulus_index)
    if n == 1:
        # x - 1 against a nonzero constant: the table machinery would be
        # all overhead (and the mid tables need not fit for huge prime q).
        counts = _classify_elementwise(tower)
    else:
        counts = _classify_by_classes(tower)
    if sum(counts) != q**n:
        raise InternalInconsistency("classification missed or double-counted elements")
    return Distribution(q=q, n=n, counts=tuple(counts))


def cyclotomic_cosets(q: int, n0: int) -> list[int]:
    """Sorted orbit sizes of Z/n0 under b -> q*b mod n0 (needs gcd(q, n0) = 1).

    The orbit sizes are exactly the degrees of the distinct irreducible
    factors of x**n0 - 1 over F_q, one factor per orbit.
    """
    if n0 < 1:
        raise ValueError(f"n0 must be >= 1, got {n0}")
    if math.gcd(q, n0) != 1:
        raise NotCoprime(f"q = {q} and n0 = {n0} share a factor")
    seen = bytearray(n0)
    sizes = []
    for start in range(n0):
        if seen[start]:
            continue
        size = 0
        b = start
        while not seen[b]:
            seen[b] = 1
            size += 1
            b = b * q % n0
        sizes.append(size)
    return sorted(sizes)


def _classify_elementwise(tower: galois.TowerField) -> list[int]:
    """One generic-arithmetic gcd per element; slow reference path."""
    top = tower.top
    n = tower.n
    target = tower.xn_minus_one()
    counts = [0] * (n + 1)
    for i in range(top.order):
        alpha = top.element(i)
        if alpha == top.zero:
            counts[n] += 1
            continue
        counts[galois.poly_gcd(target, tower.g_alpha(alpha)).degree] += 1
    return counts


def _classify_by_classes(tower: galois.TowerField) -> list[int]:
    """F_q-rank of the conjugates once per scalar/Frobenius class, weighted by size."""
    n, q = tower.n, tower.q
    exp_packed = _build_tables(tower)
    L = len(exp_packed) // (q - 1)
    if tower.prime.order == 2:
        rank = _rank_char2(tower, exp_packed)
    else:
        rank = _rank_odd(tower, exp_packed)
    counts = [0] * (n + 1)
    counts[n] += 1  # alpha = 0 spans nothing
    # The class of gen**e is the whole preimage in Z/M of the orbit of e mod L
    # under multiplication by q, so classes are marked on Z/L.
    visited = bytearray(L)
    for e in range(L):
        if visited[e]:
            continue
        size = 0
        f = e
        while not visited[f]:
            visited[f] = 1
            size += 1
            f = f * q % L
        counts[n - rank(e)] += (q - 1) * size
    return counts


def _rank_char2(tower, exp_packed):
    """rank(e): F_q-rank of the conjugates of gen**e, characteristic 2.

    A packed element is its F_2 coordinate vector, so elimination is an XOR
    basis keyed by the pivot bit.  See ``_rank_odd`` for the scaled copies
    and the early stop.
    """
    n, q = tower.n, tower.q
    M = len(exp_packed)
    offsets = _scalar_offsets(tower, M)

    def rank(e):
        basis = {}
        f = e
        for i in range(n):
            for s in offsets:
                v = exp_packed[(f + s) % M]
                b = v.bit_length()
                while b in basis:
                    v ^= basis[b]
                    b = v.bit_length()
                if not v:
                    if s:
                        raise InternalInconsistency(
                            "scaled conjugate copies are dependent"
                        )
                    return i
                basis[b] = v
            f = f * q % M
        return n

    return rank


def _rank_odd(tower, exp_packed):
    """rank(e): F_q-rank of the conjugates of gen**e, odd characteristic.

    The base-p digits of a packed element are its F_p coordinates.  Each is
    widened into a bit field of ``width`` bits, wide enough that a vector
    survives one lazy reduction v += (p - c) * row per basis row without a
    carry between fields; only new basis rows are brought back to digits in
    [0, p), with pivot digit 1.

    The conjugate alpha**(q**i) enters as its m copies beta**j *
    alpha**(q**i), j < m, with beta = gen**L a generator of F_q*: they span
    its F_q-multiples over F_p, so the F_q-rank is the number of conjugates
    taken.  The first conjugate that is already in the span ends the walk,
    because the span of the earlier ones is then Frobenius-invariant.
    """
    n, q, p = tower.n, tower.q, tower.prime.order
    M = len(exp_packed)
    offsets = _scalar_offsets(tower, M)
    digits_total = n * len(offsets)
    width = 8
    while (p - 1) + (digits_total - 1) * (p - 1) ** 2 >= 1 << width:
        width *= 2
    # A vector's fields as little-endian unsigned ints of `width` bits.
    code = {8: "B", 16: "H", 32: "I", 64: "Q"}[width]
    fields = struct.Struct(f"<{digits_total}{code}")
    mask = (1 << width) - 1
    # spread[r]: the base-p digits of r < p**chunk, one per bit field.
    chunk = 1
    while p ** (chunk + 1) <= _SPREAD_TABLE_SIZE:
        chunk += 1
    chunk_base = p**chunk
    chunk_bits = chunk * width
    spread = [0] * chunk_base
    for r in range(1, chunk_base):
        spread[r] = spread[r // p] << width | r % p
    inverse = [0] + [pow(c, -1, p) for c in range(1, p)]

    def rank(e):
        rows = []  # (pivot shift, row), pivots descending
        f = e
        for i in range(n):
            for s in offsets:
                x = exp_packed[(f + s) % M]
                v = 0
                shift = 0
                while x:
                    x, r = divmod(x, chunk_base)
                    v |= spread[r] << shift
                    shift += chunk_bits
                for pivot, row in rows:
                    c = (v >> pivot & mask) % p
                    if c:
                        v += (p - c) * row
                digits = fields.unpack(v.to_bytes(fields.size, "little"))
                top = digits_total - 1
                while top >= 0 and not digits[top] % p:
                    top -= 1
                if top < 0:
                    if s:
                        raise InternalInconsistency(
                            "scaled conjugate copies are dependent"
                        )
                    return i
                scale = inverse[digits[top] % p]
                row = fields.pack(*[d * scale % p for d in digits])
                rows.append((top * width, int.from_bytes(row, "little")))
                rows.sort(reverse=True)
            f = f * q % M
        return n

    return rank


def _scalar_offsets(tower, M):
    """Exponent offsets j*L, j < m, of the copies beta**j * alpha."""
    L = M // (tower.q - 1)
    return [j * L for j in range(tower.mid_modulus.degree)]


def _build_tables(tower: galois.TowerField) -> list[int]:
    """Exp table of the top field: entry e is gen**e packed, e < q**n - 1.

    Packing concatenates coefficient indices in base q, constant coefficient
    least significant, so its base-p digits are F_p coordinates.
    """
    n, q = tower.n, tower.q
    mid = tower.mid
    order = tower.top.order
    M = order - 1
    add_t, mul_t = _mid_tables(mid)

    # Negated non-leading top-modulus coefficients, as indices: the
    # reduction v**n = sum hneg[j] * v**j.
    hcoeffs = tower.top_modulus.coeffs
    hneg = [mid.index(mid.neg(hcoeffs[j])) for j in range(n)]

    gamma = _find_generator(M, n, q, add_t, mul_t, hneg)

    if tower.prime.order == 2 and all(c <= 1 for c in gamma):
        return _walk_packed_char2(gamma, n, q, order, M, mul_t, hneg)
    return _walk_vector(gamma, n, q, order, M, add_t, mul_t, hneg)


def _mid_tables(mid):
    """Flattened add and mul tables of F_q on element indices.

    Addition is digitwise in base p, since an index lists the F_p
    coordinates; multiplication goes through the discrete logs of one
    generator of F_q*, found by walking its powers.
    """
    q, p = mid.order, mid.char
    add_t = [(a + b) % p for a in range(p) for b in range(p)]
    size = p
    while size < q:
        # Prepend a most significant digit: (hi, lo) + (hi', lo').
        wider = []
        for hi in range(p):
            for lo in range(size):
                row = add_t[lo * size : (lo + 1) * size]
                for hi2 in range(p):
                    top = (hi + hi2) % p * size
                    wider += [x + top for x in row]
        add_t = wider
        size *= p

    for g in range(1, q):
        gen = mid.element(g)
        antilog = [1]
        x = gen
        while x != mid.one:
            antilog.append(mid.index(x))
            x = mid.mul(x, gen)
        if len(antilog) == q - 1:
            break
    log = [0] * q
    for t, a in enumerate(antilog):
        log[a] = t
    antilog += antilog  # log a + log b < 2(q-1) indexes without a mod
    mul_t = [0] * q
    for a in range(1, q):
        la = log[a]
        mul_t += [0] + [antilog[la + log[b]] for b in range(1, q)]
    return add_t, mul_t


def _find_generator(M, n, q, add_t, mul_t, hneg):
    """Smallest-index multiplicative generator, preferring 0/1 coefficients.

    Returned as a coefficient-index vector of length n.  In characteristic
    2 an all-{0,1} generator lets the table walk run on packed ints, so
    those candidates are tried first; correctness never depends on which
    generator wins.
    """
    one = [0] * n
    one[0] = 1
    if M == 1:
        return one
    cofactors = [M // prime for prime in numtheory.factorize(M)]

    def is_generator(vec):
        return all(
            _vec_pow(vec, cf, n, q, add_t, mul_t, hneg) != one for cf in cofactors
        )

    if q % 2 == 0:
        # Subset bitmasks: bit j set -> coefficient of v**j is 1.
        for mask in range(2, 1 << min(n, 14)):
            vec = [(mask >> j) & 1 for j in range(n)]
            if is_generator(vec):
                return vec
    for idx in range(2, M + 1):
        vec = []
        t = idx
        for _ in range(n):
            t, r = divmod(t, q)
            vec.append(r)
        if is_generator(vec):
            return vec
    raise InternalInconsistency("no multiplicative generator found")


def _vec_mul(a, b, n, q, add_t, mul_t, hneg):
    """Product of coefficient-index vectors modulo the top modulus."""
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            arow = ai * q
            for j, bj in enumerate(b):
                if bj:
                    k = i + j
                    prod[k] = add_t[prod[k] * q + mul_t[arow + bj]]
    for i in range(2 * n - 2, n - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            crow = c * q
            off = i - n
            for j in range(n):
                hj = hneg[j]
                if hj:
                    k = off + j
                    prod[k] = add_t[prod[k] * q + mul_t[crow + hj]]
    del prod[n:]
    return prod


def _vec_pow(vec, e, n, q, add_t, mul_t, hneg):
    result = [0] * n
    result[0] = 1
    base = list(vec)
    while e:
        if e & 1:
            result = _vec_mul(result, base, n, q, add_t, mul_t, hneg)
        base = _vec_mul(base, base, n, q, add_t, mul_t, hneg)
        e >>= 1
    return result


def _walk_packed_char2(gamma, n, q, order, M, mul_t, hneg):
    """Generator-power walk on packed ints; characteristic 2, 0/1 gamma.

    Packing concatenates coefficient indices in base q = 2**mbits, so
    addition is XOR and multiplying by v is a shift plus one tabulated
    reduction of the overflow coefficient.
    """
    mbits = q.bit_length() - 1
    full = n * mbits
    mask = order - 1
    # corr[c]: packed form of c * (v**n reduced), i.e. sum c*hneg[j] v**j.
    corr = [0] * q
    for c in range(1, q):
        crow = c * q
        pk = 0
        for j in reversed(range(n)):
            pk = (pk << mbits) | mul_t[crow + hneg[j]]
        corr[c] = pk
    positions = [j for j, cj in enumerate(gamma) if cj]
    seen = bytearray(order)
    exp_packed = [0] * M
    x = 1
    if positions == [1]:  # gamma = v: pure shift walk
        for e in range(M):
            if seen[x]:
                raise InternalInconsistency("generator walk revisited an element")
            seen[x] = 1
            exp_packed[e] = x
            x <<= mbits
            ov = x >> full
            if ov:
                x = (x & mask) ^ corr[ov]
    else:
        for e in range(M):
            if seen[x]:
                raise InternalInconsistency("generator walk revisited an element")
            seen[x] = 1
            exp_packed[e] = x
            acc = x if gamma[0] else 0
            z = x
            prev = 0
            for j in positions:
                if j == 0:
                    continue
                for _ in range(j - prev):
                    z <<= mbits
                    ov = z >> full
                    if ov:
                        z = (z & mask) ^ corr[ov]
                prev = j
                acc ^= z
            x = acc
    return exp_packed


def _walk_vector(gamma, n, q, order, M, add_t, mul_t, hneg):
    """Generator-power walk on coefficient-index vectors; any characteristic."""
    sparse = [(j, c) for j, c in enumerate(gamma) if c]
    seen = bytearray(order)
    exp_packed = [0] * M
    vec = [0] * n
    vec[0] = 1
    for e in range(M):
        pk = 0
        for c in reversed(vec):
            pk = pk * q + c
        if seen[pk]:
            raise InternalInconsistency("generator walk revisited an element")
        seen[pk] = 1
        exp_packed[e] = pk
        acc = [0] * n
        z = vec
        prev = 0
        for j, cj in sparse:
            for _ in range(j - prev):
                # z = z * v
                top = z[-1]
                z = [0] + z[:-1]
                if top:
                    trow = top * q
                    for t in range(n):
                        hj = hneg[t]
                        if hj:
                            z[t] = add_t[z[t] * q + mul_t[trow + hj]]
            prev = j
            if cj == 1:
                for t in range(n):
                    zt = z[t]
                    if zt:
                        acc[t] = add_t[acc[t] * q + zt]
            else:
                crow = cj * q
                for t in range(n):
                    zt = z[t]
                    if zt:
                        acc[t] = add_t[acc[t] * q + mul_t[crow + zt]]
        vec = acc
    return exp_packed
