"""Conjugation-invariant graded-valued functions on (commuting tuple, fixed
point) pairs.

Values are stored on canonical orbit keys of the simultaneous G-action
zeta . (h, x) = (zeta h zeta^-1, zeta x), which makes conjugation invariance
exact rather than numerical.  Functions over large wreath products are backed
by an evaluation rule instead of a table; the rules produced in this package
are themselves exactly conjugation invariant.

At height 2 a function may be flagged "elliptic": then compatibility with the
basis-change action on pairs -- value(gamma.(g,g'), x) equals the coefficient
slash by gamma of value((g,g'), x) -- is a checkable property, verified on
the generators S and T.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .coefficients import (
    DEFAULT_TAU_SAMPLES,
    TOL,
    GradedValue,
    graded_deviation,
    graded_from_json,
    graded_product,
    graded_sum,
    graded_to_json,
    kernel_table,
    kernels_from_json,
    weight_slash_graded,
)
from .groups import (
    SL2_S,
    SL2_T,
    CommutingTuple,
    DirectProductGroup,
    GroupError,
    GroupHomomorphism,
    GSet,
    commuting_tuple_array,
    conjugate_pairs,
    conjugation_orbit,
    gl_act_on_tuple,
    pair_orbit_partition,
    wreath,
)


def _as_elements(h):
    return h.elements if isinstance(h, CommutingTuple) else tuple(h)


def pair_orbits(G, d, space, elliptic=False):
    """Orbits of (commuting tuple, fixed point) pairs.

    Moves: simultaneous conjugation by group generators, plus the S and T
    basis changes on the tuple when elliptic=True (these do not move the
    point: the generated subgroup is unchanged).  Returns a list of orbits
    (sorted key lists) ordered by canonical representative.
    """
    tuples = commuting_tuple_array(G, d)
    # a point is fixed by a tuple iff every entry fixes it
    xs = np.arange(space.size)
    rows, points = np.nonzero((space.apply_array(tuples[:, :, None], xs) == xs).all(axis=1))
    moves = (SL2_S, SL2_T) if elliptic and d == 2 else ()
    return pair_orbit_partition(G, tuples[rows], points, space, basis_changes=moves)


@dataclass
class InvarianceViolation:
    kind: str          # "conjugation" | "sl2"
    key: tuple
    move: object
    deviation: float


class InvarianceReport:
    def __init__(self, violations, max_deviation, checked):
        self.violations = violations
        self.max_deviation = max_deviation
        self.checked = checked

    @property
    def ok(self):
        return not self.violations

    def __repr__(self):
        status = "ok" if self.ok else f"{len(self.violations)} violations"
        return (f"<InvarianceReport {status}, max deviation "
                f"{self.max_deviation:.3e}, {self.checked} checks>")


class ClassFunction:
    """GradedValue-valued function on pairs (commuting d-tuple, fixed point)."""

    def __init__(self, group, d, space=None, kind="complex", elliptic=False,
                 values=None, rule=None, canon=None):
        self.group = group
        self.d = d
        self.space = space if space is not None else GSet.point(group)
        self.kind = kind
        self.elliptic = elliptic
        self.values = values
        self.rule = rule
        self._canon = canon if canon is not None else {}
        self._cache = {}
        if values is None and rule is None:
            raise GroupError("class function needs stored values or a rule")

    # constructors ----------------------------------------------------------

    @classmethod
    def from_values(cls, group, d, values, space=None, kind="complex",
                    elliptic=False):
        """Build from {key: GradedValue}; keys are checked and canonicalized
        on entry."""
        space = space if space is not None else GSet.point(group)
        f = cls(group, d, space, kind, elliptic, values={}, rule=None)
        for key, val in values.items():
            els, x = (key if isinstance(key, tuple) and len(key) == 2
                      and isinstance(key[0], tuple) else (tuple(key), 0))
            f.values[f.canonical_key(*f._checked_key(els, x))] = val
        return f

    @classmethod
    def from_rule(cls, group, d, rule, space=None, kind="complex",
                  elliptic=False):
        return cls(group, d, space, kind, elliptic, values=None, rule=rule)

    @classmethod
    def constant(cls, group, d, value=1.0, space=None, kind="complex",
                 elliptic=False):
        v = GradedValue.scalar(value, kind)
        return cls.from_rule(group, d, lambda els, x: v, space, kind, elliptic)

    # keys --------------------------------------------------------------------

    def canonical_key(self, els, x):
        """The least pair of the orbit of (els, x).  The first key of an
        orbit conjugates by every group element in one batched call and
        enters the whole orbit into the canonical map, so later keys of the
        same orbit are dict hits; the map never outgrows the domain."""
        hit = self._canon.get((els, x))
        if hit is not None:
            return hit
        orbit = conjugation_orbit(self.group, els, x, self.space)
        self._canon.update(dict.fromkeys(orbit, orbit[0]))
        return orbit[0]

    def _checked_key(self, els, x):
        """(els, x) with Python int entries, after checking that it is a
        pair of the domain: a d-tuple of commuting group elements and a
        point of the space that every entry fixes."""
        try:
            els, x = tuple(map(operator.index, els)), operator.index(x)
        except TypeError:
            raise GroupError(f"key {els!r}, {x!r} is not a tuple of element "
                             f"indices and a point index") from None
        G = self.group
        if len(els) != self.d:
            raise GroupError(f"expected a {self.d}-tuple, got {els}")
        if not all(0 <= e < G.size for e in els):
            raise GroupError(f"tuple {els} leaves the group of order {G.size}")
        if not 0 <= x < self.space.size:
            raise GroupError(f"point {x} is not among the {self.space.size} points")
        CommutingTuple(G, els)      # raises unless the entries commute
        if any(self.space.apply(e, x) != x for e in els):
            raise GroupError(f"point {x} is not fixed by the tuple {els}")
        return els, x

    # evaluation ----------------------------------------------------------------

    def evaluate(self, h, x=0):
        els = _as_elements(h)
        if isinstance(h, CommutingTuple) and h.group != self.group:
            raise GroupError("tuple lives over the wrong group")
        if len(els) != self.d:
            raise GroupError(f"expected a {self.d}-tuple")
        G = self.group
        for e in els:
            if self.space.apply(e, x) != x:
                raise GroupError(f"point {x} is not fixed by the tuple")
        if self.rule is not None:
            key = (els, x)
            hit = self._cache.get(key)
            if hit is None:
                hit = self.rule(els, x)
                self._cache[key] = hit
            return hit
        key = self.canonical_key(els, x)
        val = self.values.get(key)
        if val is None:
            warnings.warn(f"no value stored for orbit of {key}; defaulting to 0")
            val = GradedValue.zero(self.kind)
        return val

    def materialize(self):
        """Evaluate the rule on every pair orbit and switch to stored values."""
        if self.values is not None:
            return self
        values = {}
        canon = {}
        for orbit in pair_orbits(self.group, self.d, self.space):
            rep = orbit[0]
            values[rep] = self.evaluate(CommutingTuple(self.group, rep[0]), rep[1])
            for key in orbit:
                canon[key] = rep
        return ClassFunction(self.group, self.d, self.space, self.kind,
                             self.elliptic, values=values, canon=canon)

    # properties ------------------------------------------------------------------

    def is_invariant(self, tau_samples=DEFAULT_TAU_SAMPLES, tol=TOL,
                     sample_pairs=None):
        """Check conjugation invariance and, when elliptic, the S/T
        compatibility value(gamma.h, x) = gamma-slash of value(h, x)."""
        G = self.group
        if sample_pairs is None:
            if self.values is not None:
                sample_pairs = list(self.values.keys())
            else:
                sample_pairs = [o[0] for o in
                                pair_orbits(G, self.d, self.space)]
        violations = []
        worst = 0.0
        checked = 0
        gens = G.generators()
        tuples = np.array([els for els, _ in sample_pairs], dtype=np.int64).reshape(
            len(sample_pairs), self.d)
        moved, points = conjugate_pairs(
            G, gens, tuples, np.array([x for _, x in sample_pairs], dtype=np.int64),
            self.space)
        moved, points = moved.tolist(), points.tolist()
        for i, (els, x) in enumerate(sample_pairs):
            base = self.evaluate(CommutingTuple(G, els), x)
            for k, z in enumerate(gens):
                dev = graded_deviation(
                    self.evaluate(tuple(moved[k][i]), points[k][i]), base, tau_samples)
                checked += 1
                worst = max(worst, dev)
                if dev > tol:
                    violations.append(
                        InvarianceViolation("conjugation", (els, x), z, dev))
            if self.elliptic and self.d == 2:
                for gamma in (SL2_S, SL2_T):
                    t2 = gl_act_on_tuple(gamma, CommutingTuple(G, els))
                    lhs = self.evaluate(t2, x)
                    rhs = weight_slash_graded(gamma, base)
                    dev = graded_deviation(lhs, rhs, tau_samples)
                    checked += 1
                    worst = max(worst, dev)
                    if dev > tol:
                        violations.append(
                            InvarianceViolation("sl2", (els, x), gamma, dev))
        return InvarianceReport(violations, worst, checked)

    # serialization -------------------------------------------------------------

    def to_json(self):
        """Height-2 values refer to one top-level "kernels" table holding
        each q-expansion once."""
        f = self if self.values is not None else self.materialize()
        out = {"height": f.d, "d": f.d, "elliptic": f.elliptic, "kind": f.kind}
        index = None
        if f.kind == "lat":
            index = kernel_table(f.values.values())
            out["kernels"] = [k.to_json() for k in index]
        out["values"] = [
            {"tuple": list(els), "point": x, "graded": graded_to_json(v, index)}
            for (els, x), v in sorted(f.values.items())]
        return out

    @classmethod
    def from_json(cls, group, data, space=None):
        """Inverse of to_json.  Malformed input raises GroupError (keys that
        are not pairs of the domain) or another ValueError."""
        if not (isinstance(data, dict) and isinstance(data.get("values"), list)):
            raise ValueError("a class function is an object with a \"values\" list")
        kind = data.get("kind", "complex")
        d = data["d"] if "d" in data else data["height"]
        if kind not in ("complex", "lat") or type(d) is not int:
            raise ValueError(f"unknown kind {kind!r} or arity {d!r}")
        kernels = kernels_from_json(data.get("kernels", []))
        values = {}
        for row in data["values"]:
            if not (isinstance(row, dict) and isinstance(row.get("tuple"), list)
                    and isinstance(row.get("graded"), dict)):
                raise ValueError(f"a value needs a \"tuple\" list and a \"graded\" "
                                 f"object, got {row!r}")
            key = (tuple(row["tuple"]), row.get("point", 0))
            if any(isinstance(v, (list, dict)) for v in key[0] + key[1:]):
                raise ValueError(f"a key holds element and point indices, got {row!r}")
            values[key] = graded_from_json(row["graded"], kind, kernels)
        return cls.from_values(group, d, values, space=space, kind=kind,
                               elliptic=data.get("elliptic", False))


# ---------------------------------------------------------------------------
# functoriality


def restrict_along(f, phi, space_map=None):
    """Pull back a class function along a group homomorphism.

    (phi* f)(h, x) = f(phi . h, space_map(x)).  space_map defaults to the
    unique map when both spaces are points; it must be phi-equivariant.
    """
    if phi.target != f.group:
        raise GroupError("homomorphism target does not match the function's group")
    source = phi.source
    src_space = GSet.point(source)
    if space_map is None:
        if f.space.size != 1:
            raise GroupError("space_map required for a non-point space")
        mapping = lambda x: 0
    else:
        src_space, mapping = space_map
        _check_equivariance(phi, src_space, f.space, mapping)

    def rule(els, x):
        mapped = CommutingTuple(f.group, tuple(phi(e) for e in els))
        return f.evaluate(mapped, mapping(x))

    return ClassFunction.from_rule(source, f.d, rule, space=src_space,
                                   kind=f.kind, elliptic=f.elliptic)


def _check_equivariance(phi, src_space, dst_space, mapping):
    """Exact check of mapping(g x) = phi(g) mapping(x) for every source
    generator g and every source point x; by induction on word length it
    then holds for every group element."""
    for g in phi.source.generators():
        pg = phi(g)
        for x in range(src_space.size):
            if mapping(src_space.apply(g, x)) != dst_space.apply(pg, mapping(x)):
                raise GroupError(
                    f"space map is not equivariant at generator {g}, point {x}")


def multiply(f, g):
    """Pointwise graded product of two class functions with matching shape."""
    if f.group != g.group or f.d != g.d or f.kind != g.kind:
        raise GroupError("shape mismatch in class function product")
    if f.space is not g.space and (f.space.size, g.space.size) != (1, 1):
        raise GroupError("class functions live on different spaces")

    def rule(els, x):
        t = CommutingTuple(f.group, els)
        return graded_product(f.evaluate(t, x), g.evaluate(t, x))

    return ClassFunction.from_rule(f.group, f.d, rule, space=f.space,
                                   kind=f.kind, elliptic=f.elliptic and g.elliptic)


def add(f, g):
    """Pointwise sum (plumbing; power operations do not respect it)."""
    if f.group != g.group or f.d != g.d or f.kind != g.kind:
        raise GroupError("shape mismatch in class function sum")

    def rule(els, x):
        t = CommutingTuple(f.group, els)
        return graded_sum(f.evaluate(t, x), g.evaluate(t, x))

    return ClassFunction.from_rule(f.group, f.d, rule, space=f.space,
                                   kind=f.kind, elliptic=f.elliptic and g.elliptic)


def external_product(f, g):
    """f boxtimes g on the product group and product space."""
    if f.d != g.d or f.kind != g.kind:
        raise GroupError("shape mismatch in external product")
    P = DirectProductGroup(f.group, g.group)
    if f.space.size == 1 and g.space.size == 1:
        space = GSet.point(P)
        split_point = lambda x: (0, 0)
    else:
        space = f.space.product(g.space)
        space = GSet(P, space.size, space.action, validate=False)
        split_point = lambda x: (x % f.space.size, x // f.space.size)

    def rule(els, x):
        e1 = tuple(P.decode(e)[0] for e in els)
        e2 = tuple(P.decode(e)[1] for e in els)
        x1, x2 = split_point(x)
        return graded_product(
            f.evaluate(CommutingTuple(f.group, e1), x1),
            g.evaluate(CommutingTuple(g.group, e2), x2))

    return ClassFunction.from_rule(P, f.d, rule, space=space, kind=f.kind,
                                   elliptic=f.elliptic and g.elliptic)


# ---------------------------------------------------------------------------
# canonical wreath inclusions, given on the source generators


def wreath_block_inclusion(G, j, k):
    """(G wr Sigma_j) x (G wr Sigma_k) -> G wr Sigma_{j+k}: base tuples
    concatenate, permutations act on disjoint blocks."""
    Wj, Wk, W = wreath(G, j), wreath(G, k), wreath(G, j + k)
    P = DirectProductGroup(Wj, Wk)

    def fn(a):
        a1, a2 = P.decode(a)
        b1, s1 = Wj.decode(a1)
        b2, s2 = Wk.decode(a2)
        perm = tuple(s1) + tuple(p + j for p in s2)
        return W.encode(b1 + b2, perm)

    return GroupHomomorphism.from_generators(P, W, [fn(a) for a in P.generators()])


def wreath_composition_inclusion(G, j, k):
    """(G wr Sigma_k) wr Sigma_j -> G wr Sigma_{jk}: the jk points split into
    j blocks of size k; inner elements act within blocks, the outer
    permutation permutes blocks."""
    Wk = wreath(G, k)
    WW = wreath(Wk, j)
    W = wreath(G, j * k)

    def fn(a):
        inner, pi = WW.decode(a)
        bases = [None] * (j * k)
        perm = [None] * (j * k)
        decoded = [Wk.decode(i) for i in inner]
        for b in range(j):
            gb, _ = decoded[b]
            for c in range(k):
                bases[b * k + c] = gb[c]
        for b in range(j):
            _, rho = decoded[pi[b]]
            for c in range(k):
                perm[b * k + c] = pi[b] * k + rho[c]
        return W.encode(tuple(bases), tuple(perm))

    return GroupHomomorphism.from_generators(WW, W, [fn(a) for a in WW.generators()])


def wreath_diagonal(G, G2, k):
    """(G x G2) wr Sigma_k -> (G wr Sigma_k) x (G2 wr Sigma_k): split base
    tuples coordinatewise, duplicate the permutation."""
    P = DirectProductGroup(G, G2)
    WP = wreath(P, k)
    W1, W2 = wreath(G, k), wreath(G2, k)
    T = DirectProductGroup(W1, W2)

    def fn(a):
        bases, s = WP.decode(a)
        g1 = tuple(P.decode(b)[0] for b in bases)
        g2 = tuple(P.decode(b)[1] for b in bases)
        return T.encode(W1.encode(g1, s), W2.encode(g2, s))

    return GroupHomomorphism.from_generators(WP, T, [fn(a) for a in WP.generators()])
