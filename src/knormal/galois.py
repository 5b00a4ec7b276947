"""Finite fields and dense polynomial arithmetic.

The ground-truth classifier needs honest field arithmetic: a prime field
F_p, an extension F_p[x]/(f), polynomials over either, and a Euclidean gcd.
Fields stay small (the classifier refuses anything past its guard), so the
code favors clarity over asymptotics: prime-field elements are ints in
[0, p), elements of an `ExtensionField` are tuples of base-field elements
(constant coefficient first), and polynomials are trimmed coefficient
tuples.  An extension may sit over another extension; the classifier's
F_{q^n} sits over F_p directly (`TowerField`).

Moduli are found by a deterministic scan in ascending coefficient order, so
every run of every process builds the identical field for given (q, n).
Every modulus is monic, and division takes a leading coefficient of 1 as
it is, so reduction by a modulus never inverts.
"""

from functools import lru_cache

from . import numtheory
from .errors import ArgumentOutOfRange, InternalInconsistency

class PrimeField:
    """Arithmetic mod a prime; elements are ints in [0, p)."""

    def __init__(self, p: int):
        if not numtheory.is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.order = p
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return (a + b) % self.order

    def sub(self, a, b):
        return (a - b) % self.order

    def neg(self, a):
        return (-a) % self.order

    def mul(self, a, b):
        return (a * b) % self.order

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.order)

    def pow(self, a, e: int):
        return field_pow(self, a, e)

    def index(self, a) -> int:
        return a

    def element(self, i: int):
        if not 0 <= i < self.order:
            raise ValueError(f"element index {i} out of range")
        return i

    def __repr__(self):
        return f"PrimeField({self.order})"


class ExtensionField:
    """The ring F[x]/(modulus) for any monic modulus over a base field.

    It is a field, and `inv` is defined, exactly when the modulus is
    irreducible; Rabin's test walks powers in the ring of a candidate.
    Elements are tuples of exactly `degree` base-field elements, constant
    coefficient first.
    """

    def __init__(self, base, modulus: "Poly"):
        if modulus.field is not base:
            raise ValueError("modulus must be a polynomial over the base field")
        degree = modulus.degree
        if degree < 1:
            raise ValueError("modulus must have degree >= 1")
        if modulus.coeffs[-1] != base.one:
            raise ValueError("modulus must be monic")
        self.base = base
        self.modulus = modulus
        self.degree = degree
        self.order = base.order**degree
        self.zero = (base.zero,) * degree
        self.one = (base.one,) + (base.zero,) * (degree - 1)

    def add(self, a, b):
        base = self.base
        return tuple(base.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        base = self.base
        return tuple(base.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        base = self.base
        return tuple(base.neg(x) for x in a)

    def mul(self, a, b):
        prod = _product(self.base, a, b)
        _divide(self.base, prod, self.modulus.coeffs)
        return tuple(prod[: self.degree])

    def inv(self, a):
        """Inverse by the extended Euclidean algorithm on coefficient polys."""
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        base = self.base
        r0, r1 = self.modulus, Poly(base, a)
        t0 = Poly(base, ())
        t1 = Poly(base, (base.one,))
        while not r1.is_zero:
            quot, rem = divmod(r0, r1)
            r0, r1 = r1, rem
            t0, t1 = t1, t0 - quot * t1
        # r0 is a nonzero constant since the modulus is irreducible.
        scale = base.inv(r0.coeffs[0])
        coeffs = tuple(base.mul(scale, c) for c in t0.coeffs)
        return coeffs + (base.zero,) * (self.degree - len(coeffs))

    def pow(self, a, e: int):
        return field_pow(self, a, e)

    def index(self, a) -> int:
        i = 0
        base = self.base
        for c in reversed(a):
            i = i * base.order + base.index(c)
        return i

    def element(self, i: int):
        if not 0 <= i < self.order:
            raise ValueError(f"element index {i} out of range")
        return _digits(self.base, i, self.degree)

    def __repr__(self):
        return f"ExtensionField(order={self.order})"


def find_generator(field):
    """First generator of field*, an extension, scanned past the constants (from 1 at degree 1)."""
    primes = numtheory.factorize(field.order - 1)
    for i in range(field.base.order if field.degree > 1 else 1, field.order):
        g = field.element(i)
        if generates(field, g, primes):
            return g
    raise InternalInconsistency("no multiplicative generator found")


def generates(field, g, primes) -> bool:
    """g has order M = |field*|: g**(M/l) != 1 for every prime l | M, given as `primes`."""
    M = field.order - 1
    return all(field.pow(g, M // prime) != field.one for prime in primes)


def _digits(field, i: int, count: int) -> tuple:
    """The `count` base-(field order) digits of i as elements, least significant first."""
    digits = []
    for _ in range(count):
        i, r = divmod(i, field.order)
        digits.append(field.element(r))
    return tuple(digits)


def _product(field, a, b) -> list:
    """Coefficients of the product of two coefficient sequences; all zero if one is empty."""
    zero = field.zero
    out = [zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == zero:
            continue
        for j, bj in enumerate(b):
            if bj != zero:
                out[i + j] = field.add(out[i + j], field.mul(ai, bj))
    return out


def _divide(field, rem: list, divisor) -> list:
    """Reduce rem in place by divisor, leaving the remainder in rem[:deg divisor].

    Returns the quotient.  A leading coefficient of 1 is not inverted, and the
    leading term of each step, which cancels, is not computed.
    """
    zero = field.zero
    db = len(divisor) - 1
    lead = divisor[db]
    scale = None if lead == field.one else field.inv(lead)
    quot = [zero] * (len(rem) - db)  # empty when rem is the shorter
    for i in range(len(rem) - 1 - db, -1, -1):
        c = rem[i + db]
        if c == zero:
            continue
        if scale is not None:
            c = field.mul(c, scale)
        quot[i] = c
        for j in range(db):
            t = divisor[j]
            if t != zero:
                rem[i + j] = field.sub(rem[i + j], field.mul(c, t))
    return quot


def field_pow(field, a, e: int):
    """a**e by square and multiply from the top bit of e; e >= 0.

    The walk starts from a, so it never multiplies by one and never squares
    past the last bit: a**2 costs one multiplication.
    """
    if e < 0:
        raise ValueError("negative exponents are not supported")
    if e == 0:
        return field.one
    result = a
    for bit in bin(e)[3:]:
        result = field.mul(result, result)
        if bit == "1":
            result = field.mul(result, a)
    return result


class Poly:
    """Dense polynomial over a field; trailing zeros trimmed on construction.

    The zero polynomial has empty coefficients and degree -1.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == field.zero:
            coeffs.pop()
        self.field = field
        self.coeffs = tuple(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __add__(self, other):
        field = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = field.add(out[i], c)
        return Poly(field, out)

    def __neg__(self):
        field = self.field
        return Poly(field, tuple(field.neg(c) for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return Poly(self.field, _product(self.field, self.coeffs, other.coeffs))

    def __divmod__(self, other):
        """Division with remainder; the divisor may be any nonzero poly."""
        field = self.field
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quot = _divide(field, rem, other.coeffs)
        return Poly(field, quot), Poly(field, rem[: other.degree])

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        """Scale by the inverse of the leading coefficient."""
        if self.is_zero:
            return self
        field = self.field
        lead = self.coeffs[-1]
        if lead == field.one:
            return self
        inv = field.inv(lead)
        return Poly(field, tuple(field.mul(inv, c) for c in self.coeffs))

    def __repr__(self):
        return f"Poly(degree={self.degree}, coeffs={list(self.coeffs)!r})"


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm; gcd(f, 0) is monic f."""
    if f.is_zero and g.is_zero:
        raise ArgumentOutOfRange("gcd(0, 0) is undefined")
    while not g.is_zero:
        f, g = g, f % g
    return f.monic()


def is_irreducible(f: Poly) -> bool:
    """Rabin's criterion over the coefficient field of f (degree >= 1).

    f is irreducible iff x**(Q**deg) = x mod f and, for every prime l
    dividing deg, gcd(x**(Q**(deg/l)) - x, f) = 1, where Q is the field
    order.  The powers x**(Q**k), k = 1..deg, are one walk of Q-th powers
    in the quotient ring F[x]/(f), each gcd taken as its k = deg/l passes.
    """
    deg = f.degree
    if deg < 1:
        raise ValueError("irreducibility needs degree >= 1")
    if deg == 1:
        return True
    field = f.field
    ring = ExtensionField(field, f.monic())
    x = (field.zero, field.one) + (field.zero,) * (deg - 2)
    checks = {deg // prime for prime in numtheory.factorize(deg)}
    power = x
    for k in range(1, deg + 1):
        power = ring.pow(power, field.order)
        if k in checks and poly_gcd(Poly(field, ring.sub(power, x)), f).degree != 0:
            return False
    return power == x


def irreducible_count(order: int, degree: int) -> int:
    """Number of monic irreducibles of a degree >= 1 over F_order (Gauss)."""
    total = sum(
        numtheory.moebius(d) * order ** (degree // d)
        for d in numtheory.divisors(degree)
    )
    return total // degree


def find_irreducible(field, degree: int, index: int = 0):
    """(index+1)-th monic irreducible of the given degree in scan order.

    Candidates x**degree + c are enumerated with the lower coefficients c
    in ascending mixed-radix order (constant coefficient least
    significant), so the result is reproducible bit for bit across runs.
    An index beyond the irreducibles that exist is refused before the scan.
    """
    if degree < 1:
        raise ArgumentOutOfRange("degree must be >= 1")
    if index < 0:
        raise ArgumentOutOfRange("index must be >= 0")
    order = field.order
    exists = irreducible_count(order, degree)
    if index >= exists:
        raise ArgumentOutOfRange(
            f"fewer than {index + 1} monic irreducibles of degree {degree} exist"
        )
    seen = 0
    for j in range(order**degree):
        cand = Poly(field, _digits(field, j, degree) + (field.one,))
        if is_irreducible(cand):
            if seen == index:
                return cand
            seen += 1
    raise InternalInconsistency(
        f"the scan found {seen} of the {exists} monic irreducibles of degree {degree}"
    )


class TowerField(ExtensionField):
    """F_{q^n} = F_p[x]/(f) for q = p**m, flat over the prime field.

    f is a monic irreducible of degree n*m over F_p from the deterministic
    scan; `modulus_index` picks a later hit so callers can check that counts
    do not depend on the field representation.  F_q is the subfield fixed
    by x -> x**q, and the classifier reaches it through powers of `gen`, so
    the field carries no F_q coordinates.  `gen` is the first generator of
    F_{q^n}* (`find_generator`), found here once, so that a cached field
    never searches again.
    """

    def __init__(self, q: int, n: int, modulus_index: int):
        p, m = numtheory.prime_power_decompose(q)
        prime = PrimeField(p)
        super().__init__(prime, find_irreducible(prime, n * m, index=modulus_index))
        self.q = q
        self.n = n
        self.m = m
        self.gen = find_generator(self)

    def __repr__(self):
        return f"TowerField(q={self.q}, n={self.n})"


@lru_cache(maxsize=None)
def build_tower(q: int, n: int, modulus_index: int, /) -> TowerField:
    """The shared TowerField; positional arguments give each field one cache entry."""
    return TowerField(q, n, modulus_index)
