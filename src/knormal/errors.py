"""Exception types raised on invalid inputs and guarded computations."""


class KnormalError(Exception):
    """Base class for every library-specific error."""


class NotPrimePower(KnormalError):
    """A value required to be p**m for a single prime p is not."""


class NotCoprime(KnormalError):
    """Two values required to be coprime share a factor."""


class InputTooLarge(KnormalError):
    """An input exceeds a documented bound.

    Raised for an extension degree above `spectrum.MAX_DEGREE`, for a
    candidate prime (the root p of q = p**m) at or above the bound below
    which primality is proven, and for a count past the digits the CLI's
    `count` and `table` print by str().
    """


class ArgumentOutOfRange(KnormalError, ValueError):
    """An argument lies outside the range it is defined on.

    Raised for an extension degree n < 1, for a normality defect k outside
    0..n, for gcd(0, 0), for a totient of degree r < 1 or exponent e < 0
    (`phi_q_prime_power`), for cosets of Z/n0 with n0 < 1, for a modulus
    index that names no monic irreducible (by galois, also for the last
    trial `cli._run_checks` sweeps for `--modulus-trials`, which names the
    option), for a `counting.distribution` unit other than the int 1 or
    ``Decimal(1)``, and in the CLI for a `table` range it cannot serve and a
    `--modulus-trials` count below 1.  In numtheory it refuses to factor
    x < 1, an order modulo a modulus < 1 and gcd(q**r - 1, n) unless q >= 2,
    r >= 1 and n >= 1.  In galois it refuses a prime field of an order that
    is not prime, an element index outside the field, a modulus that is not
    monic, of degree >= 1, over the base field, a negative exponent and an
    irreducibility test below degree 1.  As a ValueError, each is still
    caught where a ValueError is.
    """


class EnumerationTooLarge(KnormalError):
    """The reference tuple enumeration would exceed its size guard."""


class InstanceTooLarge(KnormalError):
    """A brute-force field sweep over q**n elements exceeds its guard."""


class InternalInconsistency(KnormalError):
    """An internal cross-check failed; indicates a bug, not bad input."""
