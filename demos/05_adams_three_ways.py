"""Adams operations three ways.

(1) directly: value at (h, x) is n^(deg/2) f(h o n, x);
(2) through the power operation on the canonical n^d-fold torsion cover,
    which pairs each entry's diagonal with a translation permutation;
(3) at degree zero and one prime at a time, as the section-dependent
    pseudo-power operation.  All three must agree.
"""

import random

from charops import (
    CommutingTuple,
    adams,
    adams_via_power,
    cyclic_group,
    power_operation,
    pseudo_power_etheory,
    quaternion_group,
    tuple_conjugacy_classes,
)
from charops.coefficients import GradedValue
from charops.classfn import ClassFunction
from charops.lattices import mat_mul
from charops.powerops import cayley_torsion_tuple

C4 = cyclic_group(4)
vals = {((k,), 0): GradedValue("complex", {0: 1j ** k}) for k in range(4)}
f = ClassFunction.from_values(C4, 1, vals)

psi2 = adams(f, 2)
print("Psi_2 of the faithful character of C4:")
for k in range(4):
    v = psi2.evaluate(CommutingTuple(C4, (k,)), 0).component(0)
    print(f"  c^{k} -> {v:.1f}")

# the torsion cover realizing Psi_2 through P_2
tau = cayley_torsion_tuple(CommutingTuple(C4, (1,)), 2)
W = tau.group
print(f"\ntorsion cover tuple for c in C4, n=2: {W.label(tau.elements[0])}")

via = adams_via_power(f, 2)
for k in range(4):
    a = psi2.evaluate(CommutingTuple(C4, (k,)), 0).component(0)
    b = via.evaluate(CommutingTuple(C4, (k,)), 0).component(0)
    assert a == b
print("adams_via_power agrees exactly with adams on C4")

# pseudo-power operations with two different sections
Q8 = quaternion_group()
raw = {}
rng = random.Random(0)
for cls in tuple_conjugacy_classes(Q8, 1):
    g = cls.representative.elements[0]
    raw[(cls.representative.elements, 0)] = GradedValue(
        "complex", {0: float(Q8.order(g))})   # order is inversion invariant
g8 = ClassFunction.from_values(Q8, 1, raw)
Q1 = pseudo_power_etheory(g8, 2, p=2)      # HNF rows
Q2 = pseudo_power_etheory(g8, 2, p=2, basis=lambda L: mat_mul(((-1,),), L.basis))
P2 = power_operation(g8, 2)
W = Q1.group
agree = 0
for cls in tuple_conjugacy_classes(W, 1):
    t = cls.representative
    k = W.order(t.elements[0])
    while k % 2 == 0:
        k //= 2
    if k != 1:
        continue   # pseudo-power is only defined on the 2-power locus
    a = Q1.evaluate(t, 0).component(0)
    b = Q2.evaluate(t, 0).component(0)
    c = P2.evaluate(t, 0).component(0)
    assert a == b == c
    agree += 1
print(f"pseudo-power: two sections and P_2 agree exactly on {agree} classes "
      f"of Q8 wr Sigma_2")
