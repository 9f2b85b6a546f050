"""Height 2: weight-graded lattice functions and the elliptic power operation.

At height 2 a class function assigns to each commuting pair a graded value
whose degree-2j slot is a weight-j function of a based oriented lattice.
Basis changes act on pairs by the substitution (g,g') -> (g^d g'^-b, g^-c g'^a)
and on coefficients by (l,l') -> (al+bl', cl+dl'); a function is invariant
when the two twists match, and modular forms are exactly the invariant
coefficients for the trivial group.
"""

from charops import (
    DEFAULT_TAU_SAMPLES,
    ClassFunction,
    GradedValue,
    cyclic_group,
    eisenstein_series,
    power_operation,
)

E4 = eisenstein_series(4, 400)
E6 = eisenstein_series(6, 400)
print("E4 q-expansion starts 1 + 240q + 2160q^2 + ...:",
      [int(c.real) for c in E4.q_coefficients()[:4]])

# the slash by [[2,0],[0,1]] rescales the first period
F = E4.slash(((2, 0), (0, 1)))
tau = 2j
print(f"(M*E4)(1, {tau}) = {F.evaluate(1, tau):.6f}")
print(f"2^-4 E4(tau/2)  = {2 ** -4 * E4.at_tau(tau / 2):.6f}")

# an invariant class function over C2 with E4 and E6 slots; its kind "lat"
# makes it elliptic, so its invariance report checks the S/T basis changes
C2 = cyclic_group(2)
from charops.classfn import pair_orbits
from charops.groups import GSet
values = {}
for i, orbit in enumerate(pair_orbits(C2, 2, GSet.point(C2), elliptic=True)):
    val = GradedValue("lat", {0: 1.0 + i, 4: E4.scale(i), 6: E6.scale(1)})
    for key in orbit:
        values[key] = val
f = ClassFunction.from_values(C2, 2, values, kind="lat")
print(f"\ninput invariance: {f.is_invariant()!r}")

P2 = power_operation(f, 2)
rep = P2.is_invariant()
print(f"P_2(f) invariance: {rep!r}")
print("\nsample value of P_2(f) at the diagonal pair of swaps:")
W = P2.group
swap = W.encode((0, 0), (1, 0))
from charops import CommutingTuple
v = P2.evaluate(CommutingTuple(W, (swap, swap)), 0)
for j in v.degrees:
    vals = [v.component(j).at_tau(t) for t in DEFAULT_TAU_SAMPLES[:2]]
    print(f"  degree 2*{j}: values at first two tau samples "
          + ", ".join(f"{z:.4f}" for z in vals))
