"""Brute-force oracle: explicit complex representations and tensor-power
traces under wreath actions.

The oracle never touches the orbit reduction: tensor_power_trace sums the
diagonal entries of a wreath element acting on V tensor n over all dim^n
multi-indices, each a brute-force product over the n slots; no matrix is
formed and no cycle product used.  Agreement of this trace with the
geometric power operation applied to the character is the strongest
end-to-end check in the package.
"""

from __future__ import annotations

import numpy as np

from .classfn import ClassFunction
from .coefficients import GradedValue, worst_deviation
from .groups import (
    CommutingTuple,
    GroupError,
    GSet,
    perm_inverse,
    tuple_conjugacy_classes,
    wreath,
)
from .powerops import adams, power_operation

ORACLE_TOL = 1e-9
TENSOR_DIM_BUDGET = 3
TENSOR_ARITY_BUDGET = 4


class Representation:
    """Finite-dimensional complex representation given by one matrix per
    group element."""

    def __init__(self, group, matrices, name="rep", validate=True):
        self.group = group
        self.matrices = [np.asarray(m, dtype=complex) for m in matrices]
        self.dim = self.matrices[0].shape[0]
        self.name = name
        if validate:
            self.validate()

    def validate(self):
        """rho(e) = I and rho(x g) = rho(x) rho(g) for every x and every
        generator g, one batched product per generator; by induction on
        word length rho is then multiplicative on all pairs."""
        G = self.group
        if not np.allclose(self.matrices[G.identity], np.eye(self.dim), atol=ORACLE_TOL):
            raise GroupError("representation does not send identity to identity")
        mats = np.array(self.matrices)
        xs = np.arange(G.size)
        for g in G.generators():
            bad = ~np.isclose(mats[G.mul_array(xs, g)], mats @ mats[g],
                              atol=ORACLE_TOL).all(axis=(1, 2))
            if bad.any():
                raise GroupError(f"not a representation at ({int(np.argmax(bad))},{g})")

    def __repr__(self):
        return f"<Representation {self.name} dim={self.dim} of {self.group!r}>"


# built-in constructors -------------------------------------------------------


def trivial_representation(G):
    return Representation(G, [np.eye(1)] * G.size, name="trivial")


def regular_representation(G):
    """Left translation on C[G]; character is |G| at e and 0 elsewhere."""
    return permutation_representation(GSet.left_translation(G), name="regular")


def permutation_representation(X, name="permutation"):
    """Permutation matrices of a G-set; character counts fixed points."""
    G = X.group
    g, x = np.arange(G.size)[:, None], np.arange(X.size)
    mats = np.zeros((G.size, X.size, X.size))
    mats[g, X.apply_array(g, x), x] = 1.0
    return Representation(G, list(mats), name=name)


def sign_representation(G):
    """1-dimensional sign character (symmetric groups, or any group exposing
    permutation data via G.perms)."""
    perms = getattr(G, "perms", None)
    if perms is None:
        raise GroupError("sign representation needs underlying permutations")

    def parity(p):
        seen = [False] * len(p)
        sign = 1
        for i in range(len(p)):
            if seen[i]:
                continue
            j, length = i, 0
            while not seen[j]:
                seen[j] = True
                j = p[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        return sign

    return Representation(G, [np.array([[float(parity(p))]]) for p in perms],
                          name="sign")


def cyclic_character(G, k=1):
    """The 1-dimensional character c^a -> exp(2 pi i k a / n) of a cyclic
    group (generator = element 1)."""
    n = G.size
    mats = [np.array([[np.exp(2j * np.pi * k * a / n)]]) for a in range(n)]
    return Representation(G, mats, name=f"character_{k}")


def standard_s3(G):
    """The 2-dimensional irreducible of S3 with exact-entry matrices.

    Generators: the 3-cycle acts by rotation through 120 degrees realized
    over the field Q(sqrt-3) embedded in C, the transposition by a
    reflection; entries are halves of integers and sqrt(3)/2.
    """
    if G.size != 6 or not hasattr(G, "perms"):
        raise GroupError("standard_s3 expects the symmetric group S3")
    s = np.sqrt(3) / 2
    rot = np.array([[-0.5, -s], [s, -0.5]])     # order 3
    flip = np.array([[1.0, 0.0], [0.0, -1.0]])  # order 2
    gen_images = {}
    for i, p in enumerate(G.perms):
        if p == (1, 2, 0):
            gen_images[i] = rot
        if p == (1, 0, 2):
            gen_images[i] = flip
    mats = [None] * 6
    mats[G.identity] = np.eye(2)
    frontier = [G.identity]
    while frontier:
        new = []
        for x in frontier:
            for g, mg in gen_images.items():
                y = G.mul(g, x)
                if mats[y] is None:
                    mats[y] = mg @ mats[x]
                    new.append(y)
        frontier = new
    return Representation(G, mats, name="standard")


def quaternion_2d(G):
    """The 2-dimensional irreducible of Q8: i, j act by the Pauli-like
    matrices [[i,0],[0,-i]] and [[0,1],[-1,0]]."""
    if G.size != 8 or G.labels is None or "i" not in G.labels:
        raise GroupError("quaternion_2d expects the built-in quaternion group")
    mi = np.array([[1j, 0], [0, -1j]])
    mj = np.array([[0, 1], [-1, 0]], dtype=complex)
    lab = {name: idx for idx, name in enumerate(G.labels)}
    mats = [None] * 8
    mats[lab["1"]] = np.eye(2, dtype=complex)
    mats[lab["-1"]] = -np.eye(2, dtype=complex)
    mats[lab["i"]], mats[lab["-i"]] = mi, -mi
    mats[lab["j"]], mats[lab["-j"]] = mj, -mj
    mats[lab["k"]], mats[lab["-k"]] = mi @ mj, -(mi @ mj)
    return Representation(G, mats, name="irrep2")


# oracle operations -----------------------------------------------------------


def character(rep):
    """Trace character as a height-1 degree-0 class function."""
    G = rep.group
    values = {}
    for cls in tuple_conjugacy_classes(G, 1):
        g = cls.representative.elements[0]
        tr = complex(np.trace(rep.matrices[g]))
        values[(cls.representative.elements, 0)] = GradedValue("complex", {0: tr})
    return ClassFunction.from_values(G, 1, values)


def tensor_power_trace(rep, n, bases, perm):
    """Trace of a wreath element (bases, perm) acting on V tensor n.

    The matrix sends basis vector e_{j_1 .. j_n} to the tensor product over
    slots a of rho(g_a) e_{j_{perm^-1(a)}}, so its trace is the sum over all
    multi-indices j of prod_a rho(g_a)[j_a, j_{perm^-1(a)}], gathered at once
    and multiplied slot by slot.  Budgets guard dim^n blowup.
    """
    if rep.dim > TENSOR_DIM_BUDGET or n > TENSOR_ARITY_BUDGET:
        raise GroupError(
            f"tensor budget exceeded: dim={rep.dim} (<= {TENSOR_DIM_BUDGET}), "
            f"n={n} (<= {TENSOR_ARITY_BUDGET})")
    si = list(perm_inverse(tuple(perm)))
    j = np.indices((rep.dim,) * n).reshape(n, -1).T     # multi-indices, lexicographic
    mats = np.array([rep.matrices[g] for g in bases])
    entries = mats[np.arange(n), j, j[:, si]]
    diagonal = entries[:, 0]
    for a in range(1, n):
        diagonal = diagonal * entries[:, a]
    return complex(diagonal.sum())


def tensor_power_trace_wreath(rep, W, element):
    bases, perm = W.decode(element)
    return tensor_power_trace(rep, W.n, bases, perm)


def compare_with_geometric(rep, n):
    """Max deviation between the tensor-trace oracle and the geometric power
    operation of the character over all conjugacy classes of G wr Sigma_n."""
    G = rep.group
    W = wreath(G, n)
    chi = character(rep)
    Pn = power_operation(chi, n)
    worst = 0.0
    for cls in tuple_conjugacy_classes(W, 1):
        w = cls.representative.elements[0]
        oracle = tensor_power_trace_wreath(rep, W, w)
        geo = Pn.evaluate(cls.representative, 0).component(0)
        worst = worst_deviation(worst, abs(oracle - geo))
    return worst


def adams_character_check(rep, n):
    """Max over g of |Psi_n(char)(g) - Tr rho(g^n)|."""
    G = rep.group
    chi = character(rep)
    psi = adams(chi, n)
    worst = 0.0
    for g in range(G.size):
        lhs = psi.evaluate(CommutingTuple(G, (g,)), 0).component(0)
        rhs = complex(np.trace(rep.matrices[G.power(g, n)]))
        worst = worst_deviation(worst, abs(lhs - rhs))
    return worst


def builtin_representations(G, max_dim=None):
    """The hand-auditable representations available for a built-in group."""
    out = [trivial_representation(G)]
    name = getattr(G, "name", "")
    if name.startswith("S") and hasattr(G, "perms"):
        out.append(sign_representation(G))
        if G.size == 6:
            out.append(standard_s3(G))
    if name == "Q8":
        out.append(quaternion_2d(G))
    if name.startswith("C") and G.size > 1:
        out.append(cyclic_character(G, 1))
    out.append(regular_representation(G))
    if max_dim is not None:
        out = [r for r in out if r.dim <= max_dim]
    return out
