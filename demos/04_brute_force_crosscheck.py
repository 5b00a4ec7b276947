"""Trust, but verify: sweeping an actual field element by element.

The formulas never touch a field element.  The oracle does nothing but:
it builds F_{q^n} = F_p[x]/(f) with a deterministically chosen modulus f
and buckets every alpha by the codimension of the F_q-span of its conjugates.
If formulas and sweep disagree anywhere, something is broken.
"""

from knormal import brute_force_distribution, build_tower, distribution

# A full sweep of F_{3^4} = 81 elements.
brute = brute_force_distribution(3, 4)
fast = distribution(3, 4)
print("brute force:", brute.counts)
print("formulas:   ", fast.counts)
assert brute == fast

# Under the hood: the sweep's own field (modulus index 0, built once and
# cached), F_3[x]/(f) with f given by its coefficients, constant first.
field = build_tower(3, 4, 0)
print("modulus:    ", field.modulus)

# The counts cannot depend on which irreducible modulus represents the
# field; ask for a different representation and sweep again.
other = brute_force_distribution(3, 4, modulus_index=1)
assert other == brute
second = build_tower(3, 4, 1)
print("modulus 1:  ", second.modulus)
assert second.modulus != field.modulus
print("same distribution under a different modulus")

# The sweep refuses huge fields unless the guard is raised explicitly.
try:
    brute_force_distribution(2, 40)
except Exception as exc:
    print("guard:", exc)
