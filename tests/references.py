"""Scalar references that several test modules compare the package against.

None of these is used by the package itself: each restates a convention of
`charops` one element or one sample point at a time.
"""

from charops.coefficients import LatFunction, divisor_power_sums
from charops.groups import CommutingTuple, GroupError, int_mat_inverse_unimodular, perm_inverse


def gl_act_on_tuple(gamma, h):
    """Basis change of one commuting tuple: entry j of gamma.h is h at row j
    of gamma^-1 (the convention of `groups.gl_act_on_tuple_array`)."""
    d = h.d
    if len(gamma) != d or any(len(r) != d for r in gamma):
        raise GroupError("matrix shape does not match tuple arity")
    ginv = int_mat_inverse_unimodular([list(r) for r in gamma])
    return CommutingTuple(h.group, tuple(h.at(ginv[j]) for j in range(d)))


def conj(G, z, a):
    """z a z^-1 for one pair of elements (the scalar form of `conj_array`)."""
    return G.mul(G.mul(z, a), G.inv(z))


def conjugate_tuple(h, z):
    """z h z^-1, entry by entry, as a commuting tuple over the same group."""
    G = h.group
    return CommutingTuple(G, tuple(conj(G, z, e) for e in h.elements))


def centralizer(G, a):
    """The elements of G that commute with a, in index order."""
    return [g for g in range(G.size) if G.commutes(g, a)]


def cycle_product(G, bases, sigma, cycle, basepoint):
    """Ordered product of base entries along a cycle of sigma, traversed
    basepoint, sigma^-1(basepoint), sigma^-2(basepoint), ...: the basepoint
    coordinate of (bases, sigma)^m in the wreath product, m the cycle length
    (see the `orbits` module docstring)."""
    if basepoint not in cycle:
        raise GroupError("basepoint not contained in the cycle")
    si = perm_inverse(tuple(sigma))
    pts = [basepoint]
    while si[pts[-1]] != basepoint:
        pts.append(si[pts[-1]])
    if sorted(pts) != sorted(cycle):
        raise GroupError("cycle is not a single sigma-orbit")
    out = G.identity
    for p in pts:
        out = G.mul(out, bases[p])
    return out


def check_weight_homogeneity(F, rng, samples=8):
    """Max |F(mu l, mu l') - mu^-w F(l, l')| over random sample points."""
    worst = 0.0
    for _ in range(samples):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))
        l = complex(rng.uniform(0.5, 2.0), rng.uniform(-0.3, 0.3))
        mu = complex(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5))
        lhs = F.evaluate(mu * l, mu * l * tau)
        rhs = mu ** (-F.weight) * F.evaluate(l, l * tau)
        worst = max(worst, abs(lhs - rhs))
    return worst


def eisenstein_e2(n_terms=400):
    """E2 = 1 - 24 sum sigma_1(n) q^n, quasimodular of weight 2: its S-slash
    differs from it by 6 / (pi |tau|), and its S- and T-slashes both by more
    than 0.8 at every default tau, so a class function with E2 in its
    weight-2 slot is not SL2-invariant."""
    return LatFunction.from_q_expansion(
        2, [1] + [-24 * s for s in divisor_power_sums(n_terms, 1)[1:]])


QUATERNION_UNITS = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]


def quaternion_table():
    """Multiplication table of Q8 on QUATERNION_UNITS, by parsing the signs
    off the labels and multiplying units by the quaternion rules ij = k,
    jk = i, ki = j, ii = jj = kk = -1."""
    units = QUATERNION_UNITS
    base = {("1", "1"): ("+", "1"), ("i", "i"): ("-", "1"),
            ("j", "j"): ("-", "1"), ("k", "k"): ("-", "1"),
            ("i", "j"): ("+", "k"), ("j", "i"): ("-", "k"),
            ("j", "k"): ("+", "i"), ("k", "j"): ("-", "i"),
            ("k", "i"): ("+", "j"), ("i", "k"): ("-", "j")}

    def umul(u, v):
        if u == "1":
            return "+", v
        if v == "1":
            return "+", u
        return base[(u, v)]

    def mul(a, b):
        sa, ua = ("-" if units[a].startswith("-") else "+"), units[a].lstrip("-")
        sb, ub = ("-" if units[b].startswith("-") else "+"), units[b].lstrip("-")
        s, u = umul(ua, ub)
        neg = (sa == "-") ^ (sb == "-") ^ (s == "-")
        return units.index(("-" if neg else "") + u)

    return [[mul(a, b) for b in range(8)] for a in range(8)]
