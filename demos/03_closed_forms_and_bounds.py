"""Closed forms for small k, and two structural identities.

The general algorithm multiplies one generating series per factor degree
of x^n - 1.  For k = 1, 2, 3 there are also closed-form expressions
in q, the degree pattern, and p^s; they must agree with the general route
everywhere.  Two more identities make good sanity checks:

* ratio: (q - 1) * N_1 = v_1 * N_0 when gcd(n, q) = 1,
  and q * N_1 = v_1 * N_0 otherwise;
* lower bound: N_k * q^k >= N_0 whenever N_k > 0.
"""

from knormal import (
    closed_form_n1,
    closed_form_n2,
    closed_form_n3,
    count_k_normal,
    count_normal,
    degree_pattern,
    derive_params,
    distribution,
    lower_bound_holds,
)

for q, n in [(25, 7), (27, 12), (16, 14), (2, 20), (3, 11)]:
    dist = distribution(q, n)
    assert closed_form_n1(q, n) == dist[1]
    assert closed_form_n2(q, n) == dist[2]
    assert closed_form_n3(q, n) == dist[3]
    print(f"q={q:>2} n={n:>2}: N_1={dist[1]}, N_2={dist[2]}, N_3={dist[3]}")

# The ratio identity ties N_1 to N_0 through v_1 alone.
q, n = 27, 12
params = derive_params(q, n)
v1 = degree_pattern(params).v(1)
n0_count, n1_count = count_normal(q, n), count_k_normal(q, n, 1)
assert q * n1_count == v1 * n0_count  # p divides n here
print(f"ratio check: {q} * {n1_count} == {v1} * {n0_count}")

# The lower bound holds for every k (vacuously where N_k = 0).
for k in range(n + 1):
    assert lower_bound_holds(q, n, k)
print(f"N_k * q^k >= N_0 verified for q={q}, n={n}, all k")

# N_k can genuinely vanish for k < n: there is no 2-normal element of
# F_{25^7} because no selection of factor degrees {1, 3, 3} sums to 5.
assert count_k_normal(25, 7, 2) == 0
print("N_2(q=25, n=7) =", count_k_normal(25, 7, 2))
