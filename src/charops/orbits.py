"""Orbit reduction of commuting tuples in wreath products.

A commuting d-tuple H in G wr Sigma_n acts on the n points through the
permutation parts.  Each orbit I_k contributes a stabilizer sublattice
L_k of Z^d (index |I_k|), a basis matrix M_k of L_k (its oriented HNF unless
a `basis` hook picks other rows), and a reduced commuting tuple h_k in G:
entry j of h_k is coordinate i_k of H(row j of M_k), read off the decoded
entries of H by one walk (`_coordinate`).  This is the single code path used
for every arity; the cycle product is only a cross-check at d=1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .groups import (CommutingTuple, GroupError, PowerGSet, WreathGroup, fixed_points,
                     int_mat_det, perm_inverse)
from .lattices import _kernel_from_relations, orbit_with_labels


@dataclass
class OrbitReduction:
    group: object              # the wreath group G wr Sigma_n
    tuple: CommutingTuple      # the input tuple
    orbits: list               # sorted point lists, ordered by min point
    basepoints: list
    stabilizers: list          # Sublattice per orbit
    matrices: list             # HNF (or hook-chosen) basis rows per orbit
    reduced: list              # CommutingTuple in the base group per orbit
    labels: list               # per orbit: {point: vector} with sigma^v(i_k) = point
    parts: list                # per entry of H: (bases, sigma, sigma^-1)

    def coordinate(self, v, p):
        """Coordinate p of H(v), read off the decoded entries."""
        return _coordinate(self.group.base, self.parts, v, p)

    def transport(self, X):
        """Fixed points of X^n under im(H) against the product of orbit fixed sets.

        Returns TransportData whose forward map picks basepoint coordinates
        and whose inverse transports each orbit representative around the
        orbit by the stored labels.  Both composites are asserted to be
        identities.
        """
        W, H = self.group, self.tuple
        if X.group != W.base:
            raise GroupError("G-set group does not match the wreath base")
        moves = [None] * W.n
        for k, (orbit, labels) in enumerate(zip(self.orbits, self.labels)):
            for p in orbit:
                moves[p] = (k, self.coordinate(labels[p], p))

        # codes list the points of X^n little-endian; sorting the decoded
        # tuples restores lexicographic order
        power = PowerGSet(X, W)
        codes = np.arange(power.size, dtype=np.int64)
        moved = power.apply_array(np.array(H.elements, dtype=np.int64)[:, None], codes)
        fixed = (moved == codes).all(axis=0)
        product_fixed = sorted(power.decode_point(c)
                               for c in np.flatnonzero(fixed).tolist())
        orbit_fixed = [fixed_points(X, h_k) for h_k in self.reduced]

        data = TransportData(product_fixed, orbit_fixed, self, X, moves)

        expected = 1
        for fs in orbit_fixed:
            expected *= len(fs)
        if expected != len(product_fixed):
            raise GroupError(
                f"transport cardinality mismatch: {len(product_fixed)} vs {expected}"
            )
        fixed_set = set(product_fixed)
        for xt in product_fixed:
            if data.inverse(data.forward(xt)) != xt:
                raise GroupError("inverse . forward is not the identity")
        for ys in itertools.product(*orbit_fixed):
            back = data.inverse(ys)
            if back not in fixed_set:
                raise GroupError("inverse does not land in the product fixed set")
            if data.forward(back) != tuple(ys):
                raise GroupError("forward . inverse is not the identity")
        return data

    def to_json(self):
        return {
            "orbits": [list(o) for o in self.orbits],
            "basepoints": list(self.basepoints),
            "stabilizers": [s.to_json() for s in self.stabilizers],
            "matrices": [[list(r) for r in m] for m in self.matrices],
            "reduced": [list(t.elements) for t in self.reduced],
        }


def _coordinate(G, parts, v, p):
    """Coordinate p of H(v) = h_0^v_0 ... h_{d-1}^v_{d-1} in G wr Sigma_n.

    Walks the factors left to right: (A B)_p = A_p B_{s_A^-1(p)}, and
    coordinate q of (g, s)^-1 is g_{s(q)}^-1 with s^-1 as its permutation.
    Costs |v_0| + ... + |v_{d-1}| multiplications in G.
    """
    out = G.identity
    for (bases, sigma, sigma_inv), k in zip(parts, v):
        if k >= 0:
            for _ in range(k):
                out = G.mul(out, bases[p])
                p = sigma_inv[p]
        else:
            for _ in range(-k):
                p = sigma[p]
                out = G.mul(out, G.inv(bases[p]))
    return out


def _spans(rows, L):
    """Whether the rows are a basis of the sublattice L of Z^d: d vectors of
    L whose determinant is +-[Z^d : L]."""
    if len(rows) != L.d or any(len(r) != L.d for r in rows):
        return False
    return abs(int_mat_det(rows)) == L.index and all(map(L.contains, rows))


def reduce_tuple(H, basepoint_rng=None, basis=None):
    """Decompose a commuting tuple in G wr Sigma_n into per-orbit data.

    basepoint_rng: optional random.Random; picks random basepoints instead of
    orbit minima (the reduced tuples change only within their conjugacy
    class).  basis: optional hook L -> rows spanning the stabilizer L (the
    default is the HNF basis L.basis); it is called once per orbit, in orbit
    order, and rows spanning any other lattice raise GroupError.
    """
    W = H.group
    if not isinstance(W, WreathGroup):
        raise GroupError("reduce_tuple expects a tuple over a wreath product")
    G = W.base
    n = W.n
    d = H.d
    parts = [(bases, sigma, perm_inverse(sigma))
             for bases, sigma in map(W.decode, H.elements)]
    sigmas = [sigma for _, sigma, _ in parts]

    remaining = set(range(n))
    orbit_data = []
    while remaining:
        i0 = min(remaining)
        order, labels, relations = orbit_with_labels(sigmas, i0)
        orbit = sorted(order)
        remaining -= set(orbit)
        orbit_data.append((orbit, relations, labels))
    orbit_data.sort(key=lambda t: t[0][0])

    orbits, basepoints, stabs, mats, reduced, all_labels = [], [], [], [], [], []
    for k, (orbit, relations, labels) in enumerate(orbit_data):
        stab = _kernel_from_relations(relations, d, len(orbit))
        if basepoint_rng is not None:
            i_k = basepoint_rng.choice(orbit)
            if i_k != orbit[0]:
                _, labels, _ = orbit_with_labels(sigmas, i_k)
        else:
            i_k = orbit[0]
        rows = stab.basis if basis is None else tuple(map(tuple, basis(stab)))
        if basis is not None and not _spans(rows, stab):
            raise GroupError(f"basis rows of orbit {k} do not span its "
                             f"stabilizer {stab.to_json()}")
        entries = tuple(_coordinate(G, parts, row, i_k) for row in rows)
        try:
            h_k = CommutingTuple(G, entries)
        except GroupError as exc:
            raise GroupError(f"reduced entries of orbit {k} do not commute") from exc
        orbits.append(orbit)
        basepoints.append(i_k)
        stabs.append(stab)
        mats.append(rows)
        reduced.append(h_k)
        all_labels.append(labels)
    return OrbitReduction(W, H, orbits, basepoints, stabs, mats, reduced,
                          all_labels, parts)


def cycle_product(G, bases, sigma, cycle, basepoint):
    """Ordered product of base entries along a cycle of sigma.

    The traversal runs basepoint, sigma^-1(basepoint), sigma^-2(basepoint), ...
    so that the result equals the basepoint coordinate of (bases, sigma)^m in
    the wreath product, m the cycle length; this matches the twisted product
    convention of WreathGroup and hence agrees with reduce_tuple at d = 1.
    Any two basepoints in the same cycle give conjugate products, and for
    commuting entries the product is independent of the traversal direction.
    """
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


@dataclass
class TransportData:
    """Two-sided inverse pair between product fixed points and orbit data."""

    product_fixed: list        # n-tuples of X-points fixed by the whole image
    orbit_fixed: list          # per orbit: fixed points of X under h_k
    reduction: OrbitReduction
    space: object
    moves: list                # per point p: (orbit k, coordinate p of H(labels[p]))

    def forward(self, xtuple):
        return tuple(xtuple[i] for i in self.reduction.basepoints)

    def inverse(self, ys):
        apply = self.space.apply
        return tuple(apply(c, ys[k]) for k, c in self.moves)


def fixed_point_transport(X, H):
    """Fixed points of X^n under im(H) against the product of orbit fixed
    sets: `reduce_tuple(H).transport(X)`."""
    return reduce_tuple(H).transport(X)
