"""Exact counts of k-normal elements of F_{q^n} over F_q.

An element is k-normal when gcd(x**n - 1, g_alpha) has degree k, where
g_alpha = sum of alpha**(q**i) * x**(n-1-i).  Counting them reduces to a
weighted count of divisors of x**n - 1 of degree n - k: each distinct
irreducible factor f of degree r may appear with multiplicity a in
0..p**s, contributing degree r*a and weight phi_q(f**a) (1 when a = 0).

The weight depends on f only through r, so the production algorithm works
per degree: the v_r factors of degree r form one group whose series in
z**r is the v_r-th power of a single factor's series.  That series is a
rational function, so each group's coefficients follow from a short
integer recurrence; N_k is the coefficient of z**(n-k) in the product of
the tau(d) group series, or of z**k with every series reversed, where the
common content of the weights, q**(n-n0) * prod (q**r - 1)**v_r over some
degrees, is kept out of the product and put back in closed form.  A literal
tuple enumeration, the explicit sum over multiplicity profiles (every q
and n), and per-k closed forms are provided as independent routes for
cross-checks.  ``_counts`` alone picks the end a request reads.  Results
are plain Python ints and therefore exact; ``distribution`` can also make
its counts in exact decimal, given its unit ``one`` (ints by default).
"""

import collections
import contextlib
import itertools
import math

from . import spectrum
from .errors import ArgumentOutOfRange, EnumerationTooLarge, InternalInconsistency

# Guards: count_k_normal_enum's multiplicity tuples, looped over one by one, and
# count_k_normal_explicit's states (unplaced, unspent), summed over levels (r, j).
ENUMERATION_LIMIT = 10**7
EXPLICIT_STATE_LIMIT = 10**6
# _counts reads all of z**n in the ring up to this many products per unit of n (_ring_products).
# Set when heavy fields read forward in ints, it does not mark where the defect end overtakes it.
RING_PRODUCTS = 48


class Distribution:
    """Counts of k-normal elements for k = 0..n at fixed (q, n).

    A read-only sequence of the counts: d[k] is N_k, and slices, iteration
    and len() read the same n + 1 counts.  q, n and counts are attributes.
    """

    __slots__ = ("q", "n", "counts")

    def __init__(self, q: int, n: int, counts):
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "counts", tuple(counts))

    def __setattr__(self, name, value):
        raise AttributeError(f"Distribution is read-only; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Distribution is read-only; cannot delete {name!r}")

    def __getitem__(self, k):
        return self.counts[k]

    def __iter__(self):
        return iter(self.counts)

    def __len__(self) -> int:
        return len(self.counts)

    def __eq__(self, other):
        if not isinstance(other, Distribution):
            return NotImplemented
        return (self.q, self.n, self.counts) == (other.q, other.n, other.counts)

    def __hash__(self):
        return hash((self.q, self.n, self.counts))

    def __repr__(self):
        return f"Distribution(q={self.q!r}, n={self.n!r}, counts={self.counts!r})"

    def total(self) -> int:
        """Sum over all k; always q**n, since every element has one defect.

        Counts that are not ints are summed in the exact decimal context
        (``_exact``), whatever the caller's context.
        """
        with _exact(self.counts[0] if self.counts else 0):
            return sum(reversed(self.counts))  # small end first: the running sum stays small


def _exact(unit):
    """The context in which arithmetic on counts like ``unit`` is exact:
    none for an int; any other count is a ``Decimal``, computed at unbounded
    precision and exponent, where any rounding raises.
    """
    if isinstance(unit, int):
        return contextlib.nullcontext()
    import decimal  # only counts made in decimal need it

    return decimal.localcontext(
        decimal.Context(
            prec=decimal.MAX_PREC,
            Emax=decimal.MAX_EMAX,
            Emin=decimal.MIN_EMIN,
            traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation],
        )
    )


def phi_q_prime_power(q: int, r: int, e: int) -> int:
    """Polynomial totient of the e-th power of a degree-r irreducible.

    Counts units in F_q[x]/(f**e) for irreducible f of degree r:
    q**(r*e) - q**(r*(e-1)).  For e = 0 the empty product gives 1.
    """
    if r < 1 or e < 0:
        raise ArgumentOutOfRange(f"need r >= 1, e >= 0; got r={r}, e={e}")
    if e == 0:
        return 1
    return q ** (r * e) - q ** (r * (e - 1))


def _check_k(n: int, k: int) -> None:
    if k < 0 or k > n:
        raise ArgumentOutOfRange(f"k must lie in 0..{n}, got {k}")


def _recurrence_terms(num: dict, d, v: int):
    """(m, a_m, b_m) of the recurrence for (N/(1 - d*w))**v, where either is
    nonzero: a_m = (v+1)(m+1)*N_(m+1) + d*N_m*(v-1-m(v+1)), b_m = N_(m+1) - d*N_m.
    """
    for m in sorted({i - j for i in num for j in (0, 1)} - {-1}):
        here, up = num.get(m, 0), num.get(m + 1, 0)
        a, b = (v + 1) * (m + 1) * up + d * here * (v - 1 - m * (v + 1)), up - d * here
        if a or b:
            yield m, a, b


def _group_series(num: dict, d, v: int, length: int, one=1) -> list:
    """The first length coefficients of G = (N/(1 - d*w))**v, N sparse, in
    the ring of ``one``.

    G satisfies L*G' = R*G with L = N*(1 - d*w) and R = v*(N'*(1 - d*w) +
    d*N), so its w**(j-1) coefficient gives N_0*j*g_j = sum over m of (a_m -
    b_m*j) * g_(j-1-m), with a_m and b_m read off N and d
    (``_recurrence_terms``): one product per earlier term, at most four of
    them (m in {0, 1, P, P+1} forward, {0, P-1, P, P+1} at the defect end),
    and one exact division; g_0 = N_0**v.  a_m and b_m enter the ring once
    per group, not once per use.
    """
    terms = [(m, one * a, one * b) for m, a, b in _recurrence_terms(num, d, v)]
    lead = one * num[0]
    g = [lead**v] + [0] * (length - 1)
    for j in range(1, length):
        acc = 0
        for m, a, b in terms:
            if m >= j:
                break
            acc += (a - b * j) * g[j - 1 - m]
        g[j], rem = divmod(acc, j * lead)
        if rem:
            raise InternalInconsistency(f"group series coefficient {j} is not integral")
    return g


def _factor_fraction(q, r: int, ps: int, top: int, defect: bool) -> tuple[dict, int]:
    """One degree-r factor's series up to w**top as (N, d): N/(1 - d*w),
    w = z**r, with N and d made from q: an int, or forward ``one * q`` in
    the ring of the series (a ``Decimal`` in the exact context).

    Forward, F(w) = sum over a <= P of phi_a w**a with Q = q**r, P = p**s,
    phi_0 = 1 and phi_a = Q**a - Q**(a-1).  At P = 1 (p not dividing n) F
    = 1 + (Q-1)*w is its own N, with d = 0, and the defect end is its
    reverse (Q-1) + w.  For P > 1, in closed form N = 1 - w - c*w**(P+1),
    c = (Q-1)*Q**P, and d = Q.  The defect end reverses F: w**P * F(1/w)
    has coefficients c_j = phi_(P-j), read at z = q*u, where w = Q*t with t
    = u**r and c_j*Q**j = c0 = (Q-1)*Q**(P-1) for every j < P, so below
    t**P the factor is c0 / (1 - t), and in full it is Q**(P-1) * (Q - 1 +
    t**P - Q*t**(P+1)) / (1 - t).  Its constant factor, c0 or Q**(P-1), is
    left out: ``_defect_counts`` puts the content back in closed form.
    """
    big_q = q**r
    if ps == 1:
        return ({0: big_q - 1, 1: 1} if defect else {0: 1, 1: big_q - 1}), 0
    if not defect:
        return {0: 1, 1: -1, ps + 1: -(big_q - 1) * big_q**ps}, big_q
    if top < ps:
        return {0: 1}, 1
    return {0: big_q - 1, ps: 1, ps + 1: -big_q}, 1


def _weight_series(params: spectrum.ExtensionParams, cap: int, defect: bool, one=1) -> list:
    """Weight series s of the divisors of x**n - 1 up to z**cap, read from
    one end, in the ring of ``one``.

    On the forward end s_m is the total weight of the divisors of degree m,
    i.e. N_(n-m).  On the defect end every series is reversed, read at z =
    q*u when p | n, and without its constant factor, so s holds small
    integers (``_defect_counts`` makes N_k from them).  A degree r > cap
    adds only its constant term below z**cap, so neither end's loop expands
    it.  The first group kept is placed in s at stride r; each later one is
    multiplied into s, visiting only the multiples of the gcd of the
    degrees so far (nothing else is nonzero) and skipping zeros among them.
    Largest degrees go first: their partial product is nonzero only at
    multiples of a large stride, so it stays sparse longer.  Forward, each
    factor's coefficients are made from ``one * q``, so no big int is
    converted into the ring; every entry, zeros too, is in the ring.
    """
    q, ps, zero = params.q, params.ps, one * 0
    total, stride = [one] + [zero] * cap, 0  # stride 0: only the unit so far
    for r, v in reversed(spectrum.degree_pattern(params).items()):
        if r > cap:
            continue
        top = cap // r
        num, d = _factor_fraction(one * q, r, ps, top, defect)
        group = _group_series(num, d, v, min(v * ps, top) + 1, one)
        if not stride:
            total[: r * len(group) : r] = group
        else:
            out = [zero] * (cap + 1)
            for i in range(0, cap + 1, stride):
                t = total[i]
                if not t:
                    continue
                stop = i + r * min(len(group), (cap - i) // r + 1)
                out[i:stop:r] = [o + t * g for o, g in zip(out[i:stop:r], group)]
            total = out
        stride = math.gcd(stride, r)
    return total


def _constant_terms(params: spectrum.ExtensionParams, cap: int) -> int:
    """R = prod (q**r - 1)**v over the degrees r with cap // r < P: the part
    of the defect end's content that is not a power of q.
    """
    q, ps = params.q, params.ps
    product = 1
    for r, v in spectrum.degree_pattern(params).items():
        if cap // r < ps:
            product *= (q**r - 1) ** v
    return product


def _defect_counts(params: spectrum.ExtensionParams, cap: int, ks) -> list[int]:
    """N_k for each k in ks (all <= cap), from one defect-end series to z**cap.

    Each group's constant factor, c0 = (Q-1)*Q**(P-1) below t**P and
    Q**(P-1) above, and the constant terms c0**v of the degrees r > cap,
    multiply to the content q**(n - n0) * R (sum of r*v_r is n0, n = P*n0),
    R from ``_constant_terms``; at P = 1 it is R alone.  So N_k =
    q**(n - n0 - k) * R * s_k when p | n and R * s_k otherwise.  A zero s_k
    is N_k = 0, so R, thousands of digits on a large field, is multiplied
    out only when some requested s_k is nonzero.  For k > n - n0 the power
    of q is an exact division, which refuses an s_k with too few factors of
    q; every other wrong coefficient the tests catch by comparison with
    ``count_k_normal_explicit``.
    """
    series = _weight_series(params, cap, defect=True)
    wanted = [series[k] for k in ks]
    rest = _constant_terms(params, cap) if any(wanted) else 0  # R
    q, shift = params.q, params.n - params.n0  # shift 0 at P = 1: no rescale
    return [
        _times_q_power(rest * s, q, shift - k) if shift and s else rest * s
        for k, s in zip(ks, wanted)
    ]


def _counts(params: spectrum.ExtensionParams, ks, one=1) -> list:
    """N_k for k in ks (consecutive, ascending) in the ring of ``one``; the one
    place a route is chosen.  It reads the shorter end, forward to z**(n - low)
    or defect to z**high, the defect end on a tie, except for all of z**n (ks =
    0..n): the forward end in the ring, unless that makes over RING_PRODUCTS *
    n products of two non-unit coefficients (``_ring_products``), as libmpdec
    multiplies big operands 2-3x slower than CPython; a heavy field reads the
    defect end in ints (R = 1: each n // r >= P), mapped into the ring once.
    """
    if not ks:
        return []
    n, low, high = params.n, ks[0], ks[-1]
    if n - low < high or not low and high == n and _ring_products(params, n) <= RING_PRODUCTS * n:
        with _exact(one):
            series = _weight_series(params, n - low, defect=False, one=one)
        return series[n - high :][::-1]
    counts = _defect_counts(params, high, ks)
    if isinstance(one, int):
        return counts
    with _exact(one):
        return [one * c for c in counts]


def _ring_products(params: spectrum.ExtensionParams, cap: int) -> int:
    """About how many products of two non-unit coefficients ``_weight_series``'
    forward loop makes to z**cap: the nonzeros so far times the length of each
    group after the first (placed, not multiplied), the nonzeros bounded by the
    product of the lengths and by the multiples of the degrees' gcd up to cap.
    """
    products, nonzeros, stride = 0, 0, 0  # nonzeros 0: only the unit so far
    for r, v in reversed(spectrum.degree_pattern(params).items()):
        length = min(v * params.ps, cap // r) + 1
        products += nonzeros * length
        stride = math.gcd(stride, r)
        nonzeros = min(max(nonzeros, 1) * length, cap // stride + 1)
    return products


def count_k_normal(q: int, n: int, k: int) -> int:
    """Number of k-normal elements of F_{q^n} over F_q, read by ``_counts``."""
    params = spectrum.derive_params(q, n)
    _check_k(n, k)
    return _counts(params, [k])[0]


def low_counts(q: int, n: int, k_max: int) -> list[int]:
    """N_0..N_min(k_max, n) by ``_counts``: for k_max >= n, distribution's route."""
    return _counts(spectrum.derive_params(q, n), range(min(k_max, n) + 1))


def count_normal(q: int, n: int) -> int:
    """Number of normal (0-normal) elements: q**(n-n0) * prod (q**r - 1)**v_r.

    Independent of the group series recurrence; distribution's N_0 must agree.
    """
    params = spectrum.derive_params(q, n)
    pattern = spectrum.degree_pattern(params)
    return q ** (params.n - params.n0) * _factor_product(q, pattern)


def distribution(q: int, n: int, one=1) -> Distribution:
    """Counts of k-normal elements for every k = 0..n at once, in the ring of
    ``one``: ints by default, or ``decimal.Decimal(1)``, so that the counts
    print in linear time, made in the exact decimal context (``_exact``)
    whatever the caller's context, so no digit is ever rounded.  Any other
    ``one`` (2, 1.0, ``Decimal('1.0')``) is refused before any series.
    """
    params = spectrum.derive_params(q, n)
    if type(one) is int:
        unit = one == 1
    else:
        import decimal  # only a caller's Decimal needs it

        unit = isinstance(one, decimal.Decimal) and one.as_tuple() == (0, (1,), 0)
    if not unit:
        raise ArgumentOutOfRange(f"one must be the int 1 or Decimal(1), got {one!r}")
    return Distribution(q, n, _counts(params, range(n + 1), one))


def count_k_normal_enum(q: int, n: int, k: int) -> int:
    """Reference count by explicit enumeration of multiplicity tuples.

    Iterates every assignment of a multiplicity 0..p**s to every distinct
    irreducible factor, keeping those whose degrees sum to n - k and adding
    the product of their weights.  Exponentially slower than
    count_k_normal but with no shared convolution machinery; guarded by
    ENUMERATION_LIMIT on the raw tuple count.
    """
    params = spectrum.derive_params(q, n)
    _check_k(n, k)
    pattern = spectrum.degree_pattern(params)
    degrees = [r for r, count in pattern.items() for _ in range(count)]
    ps = params.ps
    if (ps + 1) ** len(degrees) > ENUMERATION_LIMIT:
        raise EnumerationTooLarge(
            f"{ps + 1}**{len(degrees)} multiplicity tuples exceed the guard"
            f" {ENUMERATION_LIMIT}"
        )
    target = n - k
    total = 0
    for alphas in itertools.product(range(ps + 1), repeat=len(degrees)):
        if sum(r * a for r, a in zip(degrees, alphas)) != target:
            continue
        weight = 1
        for r, a in zip(degrees, alphas):
            weight *= phi_q_prime_power(q, r, a)
        total += weight
    return total


def count_k_normal_explicit(q: int, n: int, k: int) -> int:
    """The explicit formula for every (q, n): a sum over multiplicity profiles.

    A factor f of degree r spends r*j of cap = min(k, n-k): from the defect end j
    is the shortfall of its multiplicity from P = p**s and it weighs phi_q(f**(P-j));
    from the forward end j is its multiplicity and it weighs phi_q(f**j).  Placing
    b_j of the v_r factors at each j weighs multinomial(v_r; b) * prod weight_j**b_j.
    The descent walks j down per degree over states (u factors unplaced, cap left).
    """
    params = spectrum.derive_params(q, n)
    _check_k(n, k)
    cap, ps = min(k, n - k), params.ps
    groups = spectrum.degree_pattern(params).items()
    tops = [min(ps, cap // r) for r, _ in groups]
    states = (cap + 1) * sum((top + 1) * (v + 1) for top, (_, v) in zip(tops, groups))
    if states > EXPLICIT_STATE_LIMIT:
        raise EnumerationTooLarge(f"{states} profile states exceed {EXPLICIT_STATE_LIMIT}")
    reach = {cap: 1}
    for (r, v), top in zip(groups, tops):
        weight = [phi_q_prime_power(q, r, ps - j if cap == k else j) for j in range(top + 1)]
        level = {(v, left): x for left, x in reach.items()}
        for j in range(top, 0, -1):
            step, below = r * j, collections.defaultdict(int)
            powers = [weight[j] ** b for b in range(min(v, cap // step) + 1)]
            for (u, left), x in level.items():
                for b in range(min(u, left // step) + 1):
                    below[u - b, left - step * b] += math.comb(u, b) * powers[b] * x
            level = below
        reach = collections.defaultdict(int)  # the u still unplaced take weight_0
        for (u, left), x in level.items():
            reach[left] += weight[0] ** u * x
    return reach[0]


def _exact_div(a: int, b: int) -> int:
    """a / b in ints; a remainder is refused, naming each operand's length in bits."""
    q, rem = divmod(a, b)
    if rem:
        raise InternalInconsistency(
            f"a {b.bit_length()}-bit divisor leaves a remainder on a {a.bit_length()}-bit dividend"
        )
    return q


def _times_q_power(value: int, q: int, e: int) -> int:
    """value * q**e with possibly negative e; the division must be exact."""
    if e >= 0:
        return value * q**e
    return _exact_div(value, q ** (-e))


def _factor_product(q: int, pattern: spectrum.DegreePattern) -> int:
    """prod (q**r - 1)**v_r over the degree pattern."""
    result = 1
    for r, count in pattern.items():
        result *= (q**r - 1) ** count
    return result


def closed_form_n1(q: int, n: int) -> int:
    """Closed form for the number of 1-normal elements (any n >= 1)."""
    params = spectrum.derive_params(q, n)
    pattern = spectrum.degree_pattern(params)
    v1 = pattern.v(1)
    base = _factor_product(q, pattern)
    if params.s == 0:
        # v1 * (q-1)**(v1-1) * prod over r >= 2; v1 >= 1 always.
        return v1 * _exact_div(base, q - 1)
    return v1 * _times_q_power(base, q, n - params.n0 - 1)


def closed_form_n2(q: int, n: int) -> int:
    """Closed form for the number of 2-normal elements (n >= 2)."""
    params = spectrum.derive_params(q, n)
    _check_k(n, 2)
    pattern = spectrum.degree_pattern(params)
    v1, v2 = pattern.v(1), pattern.v(2)
    base = _factor_product(q, pattern)
    pairs = math.comb(v1, 2)
    if params.s == 0:
        result = pairs * _exact_div(base, (q - 1) ** 2) if pairs else 0
        if v2:
            result += v2 * _exact_div(base, q * q - 1)
        return result
    if params.ps > 2:
        inner = (v1 + pairs + v2) * base
    else:  # p**s = 2
        inner = v1 * q * _exact_div(base, q - 1) + (pairs + v2) * base
    return _times_q_power(inner, q, n - params.n0 - 2)


def closed_form_n3(q: int, n: int) -> int:
    """Closed form for the number of 3-normal elements (n >= 3)."""
    params = spectrum.derive_params(q, n)
    _check_k(n, 3)
    pattern = spectrum.degree_pattern(params)
    v1, v2, v3 = pattern.v(1), pattern.v(2), pattern.v(3)
    base = _factor_product(q, pattern)
    triples = math.comb(v1, 3)
    if params.s == 0:
        result = triples * _exact_div(base, (q - 1) ** 3) if triples else 0
        if v1 and v2:
            result += v1 * v2 * _exact_div(base, (q - 1) * (q * q - 1))
        if v3:
            result += v3 * _exact_div(base, q**3 - 1)
        return result
    ps = params.ps
    # v1*(v1-1)*(v1+4) is always divisible by 6.
    mixed = v1 * (v1 - 1) * (v1 + 4) // 6 + v1 * v2 + v3
    if ps > 3:
        inner = (v1 + mixed) * base
    elif ps == 3:
        inner = v1 * q * _exact_div(base, q - 1) + mixed * base
    else:  # p**s = 2
        inner = v1 * (v1 - 1) * q * _exact_div(base, q - 1) + (
            triples + v1 * v2 + v3
        ) * base
    return _times_q_power(inner, q, n - params.n0 - 3)


def lower_bound_holds(q: int, n: int, k: int) -> bool:
    """Check N_k * q**k >= N_0 whenever N_k > 0, in exact integer arithmetic."""
    nk = count_k_normal(q, n, k)
    if nk == 0:
        return True
    return nk * q**k >= count_normal(q, n)
