"""Orbit reduction of commuting tuples in wreath products.

A commuting d-tuple H in G wr Sigma_n acts on the n points through the
permutation parts.  One walk per orbit I_k (`lattices.orbit_lattice`) gives
its stabilizer sublattice L_k of Z^d (index |I_k|) and a label v per point p
with sigma^v(i_k) = p.  Each orbit contributes L_k, a basis matrix M_k of
L_k (its oriented HNF unless a `basis` hook picks other rows), and a reduced
commuting tuple h_k in G: entry j of h_k is coordinate i_k of H(row j of
M_k), read off the decoded entries of H by one walk (`_coordinate`), which
also gives `transport` its moves at the labels.  This is the single code
path used for every arity.  At d = 1 it is the cycle product: the basepoint
coordinate of (bases, sigma)^m, m the cycle length, is the ordered product
of the base entries at i_k, sigma^-1(i_k), sigma^-2(i_k), ... under the
twisted product of WreathGroup.  Two basepoints in one cycle give conjugate
products, and for commuting entries the product does not depend on the
direction.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .groups import (CommutingTuple, GroupError, PowerGSet, WreathGroup, fixed_points,
                     int_mat_det, perm_inverse)
from .lattices import orbit_lattice

# Most plain reductions (no basepoint_rng, no basis hook) kept, keyed on
# (W, elements) of a checked tuple; the least recently used goes first.
# A reduction depends on the tuple alone, not on the function being powered,
# and wreath and table groups compare by structure, so rebuilt groups hit
# too.  The `charops verify` suites before fixed-point-bijection leave 860
# entries (consistency-relations reduces 649 distinct tuples 20,480 times);
# fixed-point-bijection reduces its 8,646 tuples once each past the memo.
# An entry at n = 4, d = 2 holds about 1.9 KB (520 bytes of it the labels),
# so a full memo holds about 8 MB.
_REDUCTION_MEMO_BOUND = 4096

# Most entries |W| |X|^n of one fixed table (64 KB of booleans, built with
# temporaries of 8 n bytes per entry), and most tables kept, keyed on
# (W, X) with X compared by identity; the least recently used goes first.
# Together at most 4 MB.  C2 wr 4 over a three-point space has
# 384 * 81 = 31,104 entries.
_FIXED_TABLE_BOUND = 1 << 16
_FIXED_TABLE_MEMO_BOUND = 64


@dataclass(frozen=True, slots=True)
class OrbitReduction:
    """Per-orbit data of the checked elements of a commuting tuple.  Plain
    reductions are shared between callers through the memo of
    `reduce_tuple`, so every field is immutable (tuples, Sublattices, the
    reduced CommutingTuples).  `labels` keeps what the orbit walk found for
    each point p: its orbit k and a v with sigma^v(i_k) = p, from which
    `transport` reads the coordinate that moves the basepoint to p."""

    group: object              # the wreath group G wr Sigma_n
    elements: tuple            # the input tuple's entries, checked by its caller
    orbits: tuple              # sorted point tuples, ordered by min point
    basepoints: tuple
    stabilizers: tuple         # Sublattice per orbit
    matrices: tuple            # HNF (or hook-chosen) basis rows per orbit
    reduced: tuple             # CommutingTuple in the base group per orbit
    labels: tuple              # per point p: (orbit k, v with sigma^v(i_k) = p)

    def transport(self, X):
        """Fixed points of X^n under im(H) against the product of orbit fixed sets.

        Returns TransportData whose forward map picks basepoint coordinates
        and whose inverse moves each orbit representative to every point p of
        its orbit by coordinate p of H(v), v the label of p.  The sorted
        images of the inverse must be the product fixed set, which has no
        repeats, so the inverse is a bijection onto it; forward . inverse
        must be the identity, so forward is its inverse.
        """
        W = self.group
        if X.group != W.base:
            raise GroupError("G-set group does not match the wreath base")
        G = W.base
        parts = _decoded(W, self.elements)
        moves = tuple((k, _coordinate(G, parts, v, p))
                      for p, (k, v) in enumerate(self.labels))

        # codes list the points of X^n little-endian; sorting the decoded
        # tuples restores lexicographic order
        power = PowerGSet(X, W)
        fixed = _fixed_rows(power, self.elements).all(axis=0)
        product_fixed = sorted(power.decode_point(c)
                               for c in np.flatnonzero(fixed).tolist())
        orbit_fixed = [fixed_points(X, h_k) for h_k in self.reduced]

        data = TransportData(product_fixed, orbit_fixed, self, X, moves)
        orbit_product = list(itertools.product(*orbit_fixed))
        images = list(map(data.inverse, orbit_product))
        if sorted(images) != product_fixed:
            raise GroupError("inverse is not a bijection onto the product fixed set")
        if list(map(data.forward, images)) != orbit_product:
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


def _fixes(power, elements):
    """Boolean rows "w fixes the point with code c" of X^n, one per element
    w of the int64 array `elements`, by one batched action on all of X^n."""
    codes = np.arange(power.size, dtype=np.int64)
    return power.apply_array(elements[:, None], codes) == codes


def _fixed_rows(power, elements):
    """The rows of `_fixes` for the given elements of W, read off one
    read-only table over all of W per (W, X), built once; a tuple's product
    fixed set is the AND of its entries' rows.  Above _FIXED_TABLE_BOUND
    entries the rows of the given elements are computed alone."""
    els = np.array(elements, dtype=np.int64)
    if power.group.size * power.size > _FIXED_TABLE_BOUND:
        return _fixes(power, els)
    return _fixed_table(power.group, power.base_space)[els]


@functools.lru_cache(maxsize=_FIXED_TABLE_MEMO_BOUND)
def _fixed_table(W, X):
    """The read-only rows of `_fixes` for every element of W on X^n."""
    table = _fixes(PowerGSet(X, W), np.arange(W.size, dtype=np.int64))
    table.flags.writeable = False
    return table


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
    order, and rows spanning any other lattice raise GroupError.  A plain
    reduction (neither option) is memoized on (H.group, H.elements) and
    shared by every caller with an equal group and tuple; the other two are
    computed afresh on each call.  Each carries H.elements, which H's
    constructor checked, and builds tuples only over the base group.
    """
    return _reduction(H.group, H.elements, basepoint_rng, basis)


def _reduction(W, elements, basepoint_rng=None, basis=None):
    """`reduce_tuple` at the elements of a tuple over W that its caller checked."""
    if basepoint_rng is None and basis is None:
        return _plain_reduction(W, elements)
    return _reduce(W, elements, basepoint_rng, basis)


@functools.lru_cache(maxsize=_REDUCTION_MEMO_BOUND)
def _plain_reduction(W, elements):
    return _reduce(W, elements, None, None)


def _decoded(W, elements):
    """Per entry: (bases, sigma, sigma^-1)."""
    return [(bases, sigma, perm_inverse(sigma))
            for bases, sigma in map(W.decode, elements)]


def _reduce(W, elements, basepoint_rng, basis):
    if not isinstance(W, WreathGroup):
        raise GroupError("reduce_tuple expects a tuple over a wreath product")
    G = W.base
    parts = _decoded(W, elements)
    sigmas = [sigma for _, sigma, _ in parts]

    orbits, basepoints, stabs, mats, reduced = [], [], [], [], []
    labels = [None] * W.n
    remaining = set(range(W.n))
    while remaining:
        k = len(orbits)
        walk, stab = orbit_lattice(sigmas, min(remaining))
        orbit = tuple(sorted(walk))
        remaining.difference_update(orbit)
        i_k = orbit[0] if basepoint_rng is None else basepoint_rng.choice(orbit)
        if i_k != orbit[0]:
            walk = orbit_lattice(sigmas, i_k)[0]
        for p, v in walk.items():
            labels[p] = (k, v)
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
    return OrbitReduction(W, elements, tuple(orbits), tuple(basepoints), tuple(stabs),
                          tuple(mats), tuple(reduced), tuple(labels))


@dataclass
class TransportData:
    """Two-sided inverse pair between product fixed points and orbit data."""

    product_fixed: list        # n-tuples of X-points fixed by the whole image
    orbit_fixed: list          # per orbit: fixed points of X under h_k
    reduction: OrbitReduction
    space: object
    moves: tuple               # per point p: (orbit k, coordinate p of H(v)), sigma^v(i_k) = p

    def forward(self, xtuple):
        return tuple(xtuple[i] for i in self.reduction.basepoints)

    def inverse(self, ys):
        apply = self.space.apply
        return tuple(apply(c, ys[k]) for k, c in self.moves)


def fixed_point_transport(X, H):
    """Fixed points of X^n under im(H) against the product of orbit fixed
    sets: `reduce_tuple(H).transport(X)`."""
    return reduce_tuple(H).transport(X)
