"""The modulus scan over F_p and the record of the sweep's field.

The lane sweep (``knormal.lanes``) works in F_{q^n} = F_p[x]/(f), f a monic
irreducible of degree n*m over F_p for q = p**m.  ``find_irreducible``
finds f by a deterministic scan in ascending coefficient order, so every
run of every process builds the identical field for given (q, n); each
candidate takes Ben-Or's test on the packed ints of ``knormal.lanes``,
imported with the first scan.  ``TowerField`` records the field: q, n, p,
m, its order and f as a coefficient tuple, constant first.  Generic field
arithmetic, Rabin's test and a scan over any base are the tests' reference
(``tests/reference_fields.py``), not part of the package.
"""

from functools import lru_cache

from . import numtheory, spectrum
from .errors import ArgumentOutOfRange, InternalInconsistency


def irreducible_count(order: int, degree: int) -> int:
    """Number of monic irreducibles of a degree >= 1 over F_order (Gauss)."""
    total = sum(
        numtheory.moebius(d) * order ** (degree // d)
        for d in numtheory.divisors(degree)
    )
    return total // degree


def find_irreducible(p: int, degree: int, index: int = 0) -> tuple:
    """Coefficients, constant first, of the (index+1)-th monic irreducible
    of the given degree over F_p in scan order.

    Candidates x**degree + c run through the lower coefficients c in
    ascending mixed-radix order, the constant coefficient counting fastest,
    so the result is reproducible bit for bit across runs.  Each takes
    Ben-Or's test on the packed ints of ``lanes`` (imported on the first
    scan).  An index beyond the irreducibles that exist is refused before
    the scan.
    """
    if not numtheory.is_prime(p):
        raise ArgumentOutOfRange(f"{p} is not prime")
    if degree < 1:
        raise ArgumentOutOfRange("degree must be >= 1")
    if index < 0:
        raise ArgumentOutOfRange("index must be >= 0")
    exists = irreducible_count(p, degree)
    if index >= exists:
        raise ArgumentOutOfRange(
            f"fewer than {exists + 1} monic irreducibles of degree {degree} over F_{p}"
            f" exist, so none has index {index}"
        )
    from . import lanes  # the sweep's packed arithmetic, compiled with the first scan

    irreducible = lanes.ben_or(p, degree)
    seen = 0
    for seen, coeffs in enumerate(filter(irreducible, _candidates(p, degree)), 1):
        if seen > index:
            return coeffs
    raise InternalInconsistency(
        f"the scan found {seen} of the {exists} monic irreducibles of degree {degree}"
    )


def _candidates(p: int, degree: int):
    """The monic polynomials of a degree over F_p, coefficient tuples in scan
    order: an odometer over one digit list, the constant turning fastest,
    so most steps change one digit and memory stays flat at any p."""
    digits = [0] * degree + [1]
    while True:
        yield tuple(digits)
        k = 0
        while k < degree and digits[k] == p - 1:
            digits[k] = 0
            k += 1
        if k == degree:
            return
        digits[k] += 1


class TowerField:
    """F_{q^n} = F_p[x]/(f) for q = p**m, flat over the prime field: a record.

    f, the `modulus`, is the monic irreducible of degree n*m over F_p that
    ``find_irreducible`` finds at `modulus_index`, so callers can check that
    counts do not depend on the field representation.  F_q is the subfield
    fixed by x -> x**q, which the sweep finds as the kernel of x -> x**q
    minus 1, so the field carries no F_q coordinates.
    """

    def __init__(self, q: int, n: int, modulus_index: int):
        params = spectrum.derive_params(q, n)  # refuses (q, n) as every command does
        self.q, self.n, self.p, self.m = q, n, params.p, params.m
        self.order = q**n
        self.modulus = find_irreducible(params.p, n * params.m, modulus_index)

    def __repr__(self):
        return f"TowerField(q={self.q}, n={self.n})"


@lru_cache(maxsize=spectrum.CACHED_FIELDS)
def build_tower(q: int, n: int, modulus_index: int, /) -> TowerField:
    """The shared TowerField; positional arguments give each field one cache entry.

    A process keeps the ``spectrum.CACHED_FIELDS`` fields used last, as the
    spectrum caches do.
    """
    return TowerField(q, n, modulus_index)
