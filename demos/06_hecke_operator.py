"""The Hecke-type operator: summing the power-operation orbit factor over
all sublattices of a fixed index.

S_n(F) sums the pullback of F over the sigma_1(n) sublattices of index n.
On a weight-w modular form this is n^(1-w) T_n for the classical Hecke
operator, so Eisenstein series are eigenvectors with computable eigenvalues:
S_2 E4 = (9/8) E4 and S_3 E4 = (28/27) E4.
"""

from charops import DEFAULT_TAU_SAMPLES, eisenstein_series, hecke_like
from charops.powerops import hecke_q_oracle
from charops.coefficients import LatFunction

E4 = eisenstein_series(4, 400)

for n, expected in ((2, 9 / 8), (3, 28 / 27)):
    Sn = hecke_like(E4, n)
    print(f"S_{n}(E4)/E4 across the tau samples "
          f"(expected {expected:.6f}):")
    for tau in DEFAULT_TAU_SAMPLES:
        ratio = Sn.at_tau(tau) / E4.at_tau(tau)
        print(f"  tau = {tau}:  {ratio.real:.9f}")

# cross-check the normalization against the coefficientwise Hecke action
n = 2
coeffs = hecke_q_oracle(E4.q_coefficients(), 4, n)
T2 = LatFunction.from_q_expansion(4, coeffs)
print("\ncoefficient oracle: a_m(T_2 E4) for m = 0..4:",
      [int(c.real) for c in coeffs[:5]])
for tau in DEFAULT_TAU_SAMPLES[:2]:
    lhs = hecke_like(E4, n).at_tau(tau)
    rhs = n ** (1 - 4) * T2.at_tau(tau)
    print(f"  S_2 E4 = n^(1-w) T_2 E4 at {tau}: "
          f"{abs(lhs - rhs):.2e} apart")
