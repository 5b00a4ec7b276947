"""Trust, but verify: sweeping an actual field element by element.

The formulas never touch a field element.  The oracle does nothing but:
it builds F_{q^n} = F_p[x]/(f) with a deterministically chosen modulus f
and buckets every alpha by the codimension of the F_q-span of its conjugates.
The same defect is deg gcd(x^n - 1, g_alpha), shown below for one element.
If formulas and sweep disagree anywhere, something is broken.
"""

from knormal import (
    Poly,
    brute_force_distribution,
    build_tower,
    distribution,
    poly_gcd,
)

# A full sweep of F_{3^4} = 81 elements.
brute = brute_force_distribution(3, 4)
fast = distribution(3, 4)
print("brute force:", brute.counts)
print("formulas:   ", fast.counts)
assert brute == fast

# Under the hood: the sweep's own field (modulus index 0, built once and
# cached) and one element's conjugate polynomial.
field = build_tower(3, 4, 0)
print("modulus:   ", field.modulus)
alpha = field.element(5)
conjugates = [alpha]  # alpha, alpha^q, ..., alpha^(q^(n-1))
for _ in range(field.n - 1):
    conjugates.append(field.pow(conjugates[-1], field.q))
g = Poly(field, conjugates[::-1])  # g_alpha = sum_i alpha^(q^i) x^(n-1-i)
xn_minus_one = Poly(field, [field.neg(field.one)] + [field.zero] * (field.n - 1) + [field.one])
defect = poly_gcd(xn_minus_one, g).degree
print("element 5 has defect", defect)

# The counts cannot depend on which irreducible modulus represents the
# field; ask for a different representation and sweep again.
other = brute_force_distribution(3, 4, modulus_index=1)
assert other == brute
assert build_tower(3, 4, 1).modulus != field.modulus
print("same distribution under a different modulus")

# The sweep refuses huge fields unless the guard is raised explicitly.
try:
    brute_force_distribution(2, 40)
except Exception as exc:
    print("guard:", exc)
