"""Ground-truth classification of field elements, with no counting formulas.

``brute_force_distribution`` walks all of F_{q^n} and buckets every element
alpha by k = n - dim span_{F_q}(alpha, alpha**q, ..., alpha**(q**(n-1))),
the definition of k-normality.  That span is the F_q[Phi]-module alpha
generates, Phi: y -> y**q, so its dimension is the degree of the F_q-order
of alpha: the monic g of least degree with g(Phi) alpha = 0, a divisor of
x**n - 1 as Phi**n = 1.  This is linear algebra on the field itself, with
neither the normal basis theorem nor the counts behind the formulas.  The
field is F_p[x]/(f), f of degree N = n*m for q = p**m
(``galois.TowerField``), with no F_q coordinates.  Each F_q*-line is
ranked once and weighted by q - 1, and alpha = 0 spans nothing.  One route
serves every characteristic: ``lanes`` ranks all lines at once by their
orders, through the factors of x**n - 1 that it finds in its own
arithmetic, with F_p-vectors packed by digit, so that full sweeps up to
2**22 elements stay feasible; it ranks the first line found of each rank
again by elimination.  A sweep shares only the ``Distribution`` record
with the counting side.  ``lanes`` is imported on the first sweep, so
commands that sweep nothing never compile it.

The equivalent gcd form, k = deg gcd(x**n - 1, g_alpha), is not computed
here.  The tests take it element by element on F_p[x]/(f') for a second
modulus f' of the same degree wherever one exists, so that it shares no
representation with the sweep's field, and assert that the sweep matches it.

``cyclotomic_cosets`` gives the orbit sizes of Z/n0 under multiplication by
q, an independent route to the factor-degree pattern of x**n0 - 1.  The
sweep never reads it; the tests compare it with the sweep's factors.
"""

import math

from . import galois, spectrum
from .counting import Distribution
from .errors import ArgumentOutOfRange, InstanceTooLarge, InternalInconsistency, NotCoprime

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
    from . import lanes  # compiled on the first sweep, so commands that sweep nothing never do

    counts = lanes.sweep(galois.build_tower(q, n, modulus_index))
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
        raise ArgumentOutOfRange(f"n0 must be >= 1, got {n0}")
    if math.gcd(q, n0) != 1:
        raise NotCoprime(f"q = {q} and n0 = {n0} share a factor")
    seen, sizes = bytearray(n0), []
    for start in range(n0):
        size, b = 0, start
        while not seen[b]:
            seen[b] = 1
            size += 1
            b = b * q % n0
        if size:
            sizes.append(size)
    return sorted(sizes)
