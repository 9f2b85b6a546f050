"""Exact integer-lattice machinery.

Finite-index sublattices of Z^d are canonicalized by a row-style Hermite
normal form: upper triangular, positive diagonal, and every entry above a
pivot reduced into [0, pivot).  The determinant of the HNF basis equals the
index of the sublattice, so the basis matrix is automatically orientation
preserving.  All arithmetic is over Python integers; nothing is floated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import int_mat_det, perm_compose


class LatticeError(ValueError):
    pass


def mat_mul(A, B):
    n, m, p = len(A), len(B), len(B[0]) if B else 0
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(m)) for j in range(p))
        for i in range(n)
    )


def mat_identity(d):
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def hnf_rows(rows, d):
    """Row HNF of the lattice spanned by `rows` inside Z^d.

    Requires the span to have full rank d; returns a d x d upper-triangular
    matrix with positive diagonal and reduced off-diagonal entries.
    """
    work = [list(r) for r in rows if any(r)]
    out = []
    col = 0
    while col < d:
        pivots = [r for r in work if r[col] != 0]
        if not pivots:
            raise LatticeError(f"rows do not span rank {d} (stuck at column {col})")
        # Euclidean reduction in this column.
        while True:
            pivots = [r for r in work if r[col] != 0]
            if len(pivots) == 1:
                break
            pivots.sort(key=lambda r: abs(r[col]))
            small = pivots[0]
            for r in pivots[1:]:
                q = r[col] // small[col]
                for j in range(d):
                    r[j] -= q * small[j]
            work = [r for r in work if any(r)]
        pivot = pivots[0]
        work.remove(pivot)
        if pivot[col] < 0:
            pivot = [-x for x in pivot]
        out.append(pivot)
        col += 1
    # Reduce entries above each pivot into [0, pivot).
    for i in range(d):
        for k in range(i + 1, d):
            q = out[i][k] // out[k][k]
            if q:
                for j in range(d):
                    out[i][j] -= q * out[k][j]
    return tuple(tuple(r) for r in out)


def hnf(M):
    """Unique row Hermite normal form of a nonsingular square integer matrix."""
    d = len(M)
    if any(len(r) != d for r in M):
        raise LatticeError("hnf expects a square matrix")
    if d == 0:
        return ()
    if int_mat_det([list(r) for r in M]) == 0:
        raise LatticeError("matrix is singular")
    return hnf_rows(M, d)


@dataclass(frozen=True)
class Sublattice:
    """Finite-index sublattice of Z^d, stored by its canonical HNF basis."""

    d: int
    basis: tuple

    def __init__(self, rows, d=None):
        rows = tuple(tuple(r) for r in rows)
        if d is None:
            d = len(rows)
        if d > 0:
            rows = hnf_rows(rows, d)
        else:
            rows = ()
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "basis", rows)

    @property
    def index(self):
        """[Z^d : L], equal to the determinant of the HNF basis."""
        return int_mat_det([list(r) for r in self.basis]) if self.d else 1

    def contains(self, v):
        """Exact membership test by back substitution against the HNF basis."""
        v = list(v)
        for i in range(self.d):
            piv = self.basis[i][i]
            if v[i] % piv:
                return False
            q = v[i] // piv
            for j in range(self.d):
                v[j] -= q * self.basis[i][j]
        return not any(v)

    def to_json(self):
        return [list(r) for r in self.basis]


def sublattices_of_index(d, n):
    """All sublattices of Z^d of index n, canonically ordered.

    Supported for d in {1, 2}; for d = 2 enumeration runs over HNF shapes
    [[a, b], [0, d']] with a*d' = n and 0 <= b < d'.
    """
    if n < 1:
        raise LatticeError("index must be >= 1")
    if d == 1:
        return [Sublattice(((n,),))]
    if d == 2:
        out = []
        for a in range(1, n + 1):
            if n % a:
                continue
            dd = n // a
            for b in range(dd):
                out.append(Sublattice(((a, b), (0, dd))))
        return out
    raise LatticeError(f"sublattice enumeration unsupported for rank {d}")


def orbit_with_labels(perms, basepoint):
    """BFS orbit of `basepoint` under commuting permutations.

    Returns (orbit points in visit order, labels, relations): labels[p] is a
    vector v with sigma^v(basepoint) = p, and every relation vector lies in
    the stabilizer lattice.  One relation is recorded per non-tree BFS edge.
    """
    d = len(perms)
    labels = {basepoint: tuple([0] * d)}
    order = [basepoint]
    relations = []
    head = 0
    while head < len(order):
        p = order[head]
        head += 1
        lp = labels[p]
        for j, s in enumerate(perms):
            q = s[p]
            step = tuple(lp[i] + (1 if i == j else 0) for i in range(d))
            if q not in labels:
                labels[q] = step
                order.append(q)
            else:
                rel = tuple(step[i] - labels[q][i] for i in range(d))
                if any(rel):
                    relations.append(rel)
    return order, labels, relations


def stabilizer_lattice(perms, basepoint):
    """Kernel lattice {v in Z^d : sigma^v fixes the basepoint}, in HNF.

    The permutations must commute pairwise and act transitively; the action
    of a transitive abelian group is simply transitive, so the stabilizer is
    basepoint independent and its index equals the orbit size.
    """
    perms = [tuple(p) for p in perms]
    npts = len(perms[0]) if perms else 1
    for i in range(len(perms)):
        for j in range(i + 1, len(perms)):
            if perm_compose(perms[i], perms[j]) != perm_compose(perms[j], perms[i]):
                raise LatticeError(f"permutations {i} and {j} do not commute")
    order, labels, relations = orbit_with_labels(perms, basepoint)
    if len(order) != npts:
        raise LatticeError("action is not transitive")
    return _kernel_from_relations(relations, len(perms), len(order))


def _kernel_from_relations(relations, d, orbit_size):
    if d == 0:
        if orbit_size != 1:
            raise LatticeError("rank-0 action cannot be transitive on >1 points")
        return Sublattice((), d=0)
    L = Sublattice(relations, d=d)
    if L.index != orbit_size:
        raise LatticeError(
            f"relation lattice has index {L.index}, expected orbit size {orbit_size}"
        )
    return L


def random_unimodular(d, rng, steps=6, max_coeff=2):
    """Random element of SL_d(Z) as a product of elementary row operations.

    Entry sizes grow with `steps`; keep both parameters small when the matrix
    will hit truncated q-expansions, which lose accuracy far from the
    fundamental domain.
    """
    M = [list(r) for r in mat_identity(d)]
    coeffs = [c for c in range(-max_coeff, max_coeff + 1) if c]
    for _ in range(steps):
        i = rng.randrange(d)
        j = rng.randrange(d)
        if i == j:
            continue
        c = rng.choice(coeffs)
        for k in range(d):
            M[i][k] += c * M[j][k]
    assert int_mat_det(M) == 1
    return tuple(tuple(r) for r in M)
