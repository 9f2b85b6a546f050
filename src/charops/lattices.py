"""Exact integer-lattice machinery.

Finite-index sublattices of Z^d are canonicalized by a row-style Hermite
normal form: upper triangular, positive diagonal, and every entry above a
pivot reduced into [0, pivot).  The determinant of the HNF basis equals the
index of the sublattice, so the basis matrix is automatically orientation
preserving.  All arithmetic is over Python integers; nothing is floated.
"""

from __future__ import annotations

from dataclasses import dataclass


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


def int_mat_det(M):
    n = len(M)
    if n == 0:
        return 1
    if n == 1:
        return M[0][0]
    if n == 2:
        return M[0][0] * M[1][1] - M[0][1] * M[1][0]
    det = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        det += (-1) ** j * M[0][j] * int_mat_det(minor)
    return det


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
    if any(type(x) is not int for r in M for x in r):      # bool is a subclass of int
        raise LatticeError(f"hnf expects integer entries, got {M!r}")
    if d == 0:
        return ()
    if int_mat_det([list(r) for r in M]) == 0:
        raise LatticeError("matrix is singular")
    return hnf_rows(M, d)


@dataclass(frozen=True, slots=True)
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


def orbit_lattice(perms, basepoint):
    """Orbit of `basepoint` under commuting permutations, labelled, with its
    stabilizer lattice {v in Z^d : sigma^v fixes the basepoint}.

    Walks the generators last to first.  The orbit under sigma_i, ...,
    sigma_{d-1} is the a_i disjoint translates sigma_i^t O (0 <= t < a_i) of
    the orbit O under the later generators, a_i the least t > 0 with
    sigma_i^t(basepoint) in O.  If that point has label l in O, the row
    (0, ..., 0, a_i, -l) fixes the basepoint; the rows are triangular with
    determinant a_0 ... a_{d-1}, the orbit size, so they are a basis of the
    stabilizer.  Returns (labels, L): labels maps each orbit point p to the
    v in the box prod [0, a_i) with sigma^v(basepoint) = p.
    """
    d = len(perms)
    labels = {basepoint: ()}
    rows = []
    for i in reversed(range(d)):
        sigma = perms[i]
        p, a = sigma[basepoint], 1
        while p not in labels:
            p, a = sigma[p], a + 1
        rows.append((0,) * i + (a,) + tuple(-x for x in labels[p]))
        translates = {}
        for q, v in labels.items():
            for t in range(a):
                translates[q] = (t,) + v
                q = sigma[q]
        labels = translates
    return labels, Sublattice(rows[::-1], d=d)


def stabilizer_lattice(perms, basepoint):
    """Kernel lattice {v in Z^d : sigma^v fixes the basepoint}, in HNF, read
    off `orbit_lattice`.

    The permutations must commute pairwise and act transitively; the action
    of a transitive abelian group is simply transitive, so the stabilizer is
    basepoint independent and its index equals the orbit size.  Every entry
    must permute one common range(n), with the basepoint in it.
    """
    perms = [tuple(p) for p in perms]
    npts = len(perms[0]) if perms else 1
    for i, p in enumerate(perms):
        if any(type(x) is not int for x in p) or sorted(p) != list(range(npts)):
            raise LatticeError(f"entry {i} is not a permutation of range({npts}): {p!r}")
        for j, q in enumerate(perms[:i]):
            if [p[x] for x in q] != [q[x] for x in p]:
                raise LatticeError(f"permutations {j} and {i} do not commute")
    if perms and not (type(basepoint) is int and 0 <= basepoint < npts):
        raise LatticeError(f"basepoint {basepoint!r} is not in range({npts})")
    labels, L = orbit_lattice(perms, basepoint)
    if len(labels) != npts:
        raise LatticeError("action is not transitive")
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
