"""Exact arithmetic for counting k-normal elements of F_{q^n} over F_q.

An element alpha of F_{q^n} is k-normal over F_q when its conjugates span a
subspace of codimension k; equivalently, gcd(x**n - 1, g_alpha) has degree
k for g_alpha = sum of alpha**(q**i) * x**(n-1-i).  This package counts
such elements exactly (plain int arithmetic throughout), cross-checks the
formulas against a brute-force field sweep, and exposes both through the
`knormal` command-line tool.

Each public name is imported from its submodule on first access (PEP 562),
so ``import knormal`` compiles none of them, and a command-line call only
the layers its command runs.
"""

import importlib

__version__ = "0.1.0"

_SOURCES = {  # public name -> the submodule that defines it
    name: module
    for module, names in {
        "counting": """Distribution closed_form_n1 closed_form_n2 closed_form_n3
            count_k_normal count_k_normal_enum count_k_normal_explicit count_normal
            distribution lower_bound_holds phi_q_prime_power""",
        "errors": """ArgumentOutOfRange EnumerationTooLarge InputTooLarge InstanceTooLarge
            InternalInconsistency KnormalError NotCoprime NotPrimePower""",
        "galois": "TowerField build_tower find_irreducible",
        "oracle": "brute_force_distribution cyclotomic_cosets",
        "spectrum": "DegreePattern ExtensionParams degree_pattern derive_params omega",
    }.items()
    for name in names.split()
}

__all__ = sorted(_SOURCES)


def __getattr__(name):
    if name in _SOURCES.values():  # a submodule, as in `import knormal; knormal.galois`
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCES[name]}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
