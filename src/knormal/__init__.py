"""Exact arithmetic for counting k-normal elements of F_{q^n} over F_q.

An element alpha of F_{q^n} is k-normal over F_q when its conjugates span a
subspace of codimension k; equivalently, gcd(x**n - 1, g_alpha) has degree
k for g_alpha = sum of alpha**(q**i) * x**(n-1-i).  This package counts
such elements exactly (plain int arithmetic throughout), cross-checks the
formulas against a brute-force field sweep, and exposes both through the
`knormal` command-line tool.
"""

from .counting import (
    Distribution,
    closed_form_n1,
    closed_form_n2,
    closed_form_n3,
    count_k_normal,
    count_k_normal_enum,
    count_k_normal_explicit,
    count_normal,
    distribution,
    lower_bound_holds,
    phi_q_prime_power,
)
from .errors import (
    ArgumentOutOfRange,
    EnumerationTooLarge,
    InputTooLarge,
    InstanceTooLarge,
    InternalInconsistency,
    KnormalError,
    NotCoprime,
    NotPrimePower,
)
from .galois import (
    ExtensionField,
    Poly,
    PrimeField,
    TowerField,
    build_tower,
    find_irreducible,
    is_irreducible,
    poly_gcd,
)
from .oracle import brute_force_distribution, cyclotomic_cosets
from .spectrum import DegreePattern, ExtensionParams, degree_pattern, derive_params, omega

__version__ = "0.1.0"

__all__ = [
    "ArgumentOutOfRange",
    "DegreePattern",
    "Distribution",
    "EnumerationTooLarge",
    "ExtensionField",
    "ExtensionParams",
    "InputTooLarge",
    "InstanceTooLarge",
    "InternalInconsistency",
    "KnormalError",
    "NotCoprime",
    "NotPrimePower",
    "Poly",
    "PrimeField",
    "TowerField",
    "brute_force_distribution",
    "build_tower",
    "closed_form_n1",
    "closed_form_n2",
    "closed_form_n3",
    "count_k_normal",
    "count_k_normal_enum",
    "count_k_normal_explicit",
    "count_normal",
    "cyclotomic_cosets",
    "degree_pattern",
    "derive_params",
    "distribution",
    "find_irreducible",
    "is_irreducible",
    "lower_bound_holds",
    "omega",
    "phi_q_prime_power",
    "poly_gcd",
]
