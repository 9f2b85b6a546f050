"""Conjugation-invariant graded-valued functions on (commuting tuple, fixed
point) pairs.

Values are stored on canonical orbit keys of the simultaneous G-action
zeta . (h, x) = (zeta h zeta^-1, zeta x), which makes conjugation invariance
exact rather than numerical.  Functions over large wreath products are backed
by an evaluation rule instead of a table; the rules produced in this package
are themselves exactly conjugation invariant.  A rule-backed function holds
only its rule and calls it on every read.  The one memo of rule results is
the power operation's (`powerops._RULE_CACHE_BOUND`): its values are read
again and again, and each costs an orbit reduction.

A function of kind "lat" lives at height 2 and is elliptic: compatibility
with the basis-change action on pairs -- value(gamma.(g,g'), x) equals the
coefficient slash by gamma of value((g,g'), x) -- is a checkable property,
verified on the generators S and T.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .coefficients import (
    DEFAULT_TAU_SAMPLES,
    TOL,
    GradedValue,
    _graded_deviation,
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
    CommutingTuple,
    DirectProductGroup,
    GroupError,
    GroupHomomorphism,
    GSet,
    conjugation_orbits,
    pair_moves,
    pair_orbits,
    wreath,
)

# Conjugated pairs per batch when `from_values` canonicalizes its keys: an
# unbounded batch raises the peak memory of reading a large function.
_CONJUGATION_BATCH = 4096


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

    def __init__(self, group, d, space=None, kind="complex", values=None, rule=None,
                 canon=None):
        if kind == "lat" and d != 2:
            raise GroupError(f'a "lat" function lives at d = 2, not d = {d}')
        self.group = group
        self.d = d
        self.space = space if space is not None else GSet.point(group)
        if self.space.group is not group and self.space.group != group:
            raise GroupError("the space of a class function is not a G-set over its group")
        self.kind = kind
        self.values = values
        self.rule = rule
        self._canon = canon if canon is not None else {}
        self._default_report = None
        if values is None and rule is None:
            raise GroupError("class function needs stored values or a rule")

    @property
    def elliptic(self):
        """Whether invariance includes the S/T basis changes: kind "lat"."""
        return self.kind == "lat"

    # constructors ----------------------------------------------------------

    @classmethod
    def from_values(cls, group, d, values, space=None, kind="complex"):
        """Build from {(els, x): GradedValue}: check every key, enter the orbits
        of the distinct keys into the canonical map in batches of at most
        _CONJUGATION_BATCH conjugated pairs, then store the values.  A value
        of another kind, or two differing values on one orbit, raise GroupError."""
        f = cls(group, d, space, kind, values={})
        checked = []
        for (els, x), val in values.items():
            if val.kind != kind:
                raise GroupError(f"a {val.kind!r} value in a {kind!r} function")
            checked.append((f._checked_key(els, x), val))
        keys = list(dict.fromkeys(key for key, _ in checked))
        step = max(1, _CONJUGATION_BATCH // group.size)
        for start in range(0, len(keys), step):
            f._enter_orbits([key for key in keys[start:start + step] if key not in f._canon])
        for key, val in checked:
            key = f._canon[key]
            if graded_deviation(f.values.setdefault(key, val), val) > 0:
                raise GroupError(f"keys of the orbit of {key} carry different values")
        return f

    @classmethod
    def from_rule(cls, group, d, rule, space=None, kind="complex"):
        return cls(group, d, space, kind, rule=rule)

    @classmethod
    def constant(cls, group, d, value=1.0, space=None, kind="complex"):
        v = GradedValue(kind, {0: value})
        return cls.from_rule(group, d, lambda els, x: v, space, kind)

    # keys --------------------------------------------------------------------

    def canonical_key(self, els, x):
        """The least pair of the orbit of (els, x).  A stored function's map
        holds its stored orbits from construction; the first read of another
        orbit conjugates it by every group element in one batched call and
        enters the whole orbit.  The map never outgrows the domain, since a
        point that the tuple does not fix raises GroupError."""
        hit = self._canon.get((els, x))
        if hit is not None:
            return hit
        if any(self.space.apply(e, x) != x for e in els):
            raise GroupError(f"point {x} is not fixed by the tuple {els}")
        self._enter_orbits([(els, x)])
        return self._canon[(els, x)]

    def _enter_orbits(self, pairs):
        """Enter the whole orbit of each pair into the canonical map."""
        for orbit in conjugation_orbits(self.group, pairs, self.space):
            self._canon.update(dict.fromkeys(orbit, orbit[0]))

    def _checked_key(self, h, x):
        """(els, x) with Python int entries, after checking that it is a pair
        of the domain: a `CommutingTuple` of arity d over the group (built
        here from a raw sequence h) and a point that every entry fixes."""
        checked = isinstance(h, CommutingTuple)
        try:
            els, x = h.elements if checked else tuple(h), operator.index(x)
        except TypeError:
            raise GroupError(f"key {h!r}, {x!r} is not a tuple of element "
                             f"indices and a point index") from None
        if checked and h.group != self.group:
            raise GroupError("tuple lives over the wrong group")
        if len(els) != self.d:
            raise GroupError(f"expected a {self.d}-tuple, got {els}")
        if not checked:
            els = CommutingTuple(self.group, els).elements
        if not 0 <= x < self.space.size:
            raise GroupError(f"point {x} is not among the {self.space.size} points")
        if any(self.space.apply(e, x) != x for e in els):
            raise GroupError(f"point {x} is not fixed by the tuple {els}")
        return els, x

    # evaluation ----------------------------------------------------------------

    def evaluate(self, h, x=0):
        """Value at the tuple h (a CommutingTuple over the group, checked when
        built, or a sequence of element indices, checked here) and the point
        x; a pair outside the domain raises GroupError."""
        return self._value(*self._checked_key(h, x))

    def _value(self, els, x):
        """evaluate for a pair (els, x) already known to be in the domain:
        the package's rules derive their keys from checked ones.  A stored
        function still refuses a point the tuple does not fix (see
        `canonical_key`), and warns and reads 0 on an orbit it does not
        store."""
        if self.rule is not None:
            return self.rule(els, x)
        key = self.canonical_key(els, x)
        val = self.values.get(key)
        if val is None:
            warnings.warn(f"no value stored for orbit of {key}; defaulting to 0")
            val = GradedValue(self.kind, {})
        return val

    def materialize(self):
        """Evaluate the rule on every pair orbit and switch to stored values."""
        if self.values is not None:
            return self
        values = {}
        canon = {}
        for orbit in pair_orbits(self.group, self.d, self.space):
            rep = orbit[0]
            values[rep] = self._value(*rep)
            for key in orbit:
                canon[key] = rep
        return ClassFunction(self.group, self.d, self.space, self.kind,
                             values=values, canon=canon)

    # properties ------------------------------------------------------------------

    def is_invariant(self, tau_samples=DEFAULT_TAU_SAMPLES, tol=TOL,
                     sample_pairs=None):
        """Check conjugation invariance and, when elliptic, the S/T
        compatibility value(gamma.h, x) = gamma-slash of value(h, x).  A
        check fails when its deviation exceeds tol * max(1, s), s the largest
        magnitude of the expected value at the tau samples (an infinite
        deviation always fails); the report's max_deviation is absolute.

        The report of a function with stored values at the default
        tau_samples and tol, over every stored key, is computed once and
        kept: no method writes to `values` after a constructor fills it, and
        the stored GradedValues are frozen, so the report cannot go stale."""
        tau_samples = tuple(tau_samples)    # every comparison reads them all
        default = (self.values is not None and sample_pairs is None
                   and tau_samples == DEFAULT_TAU_SAMPLES and tol == TOL)
        if default and self._default_report is not None:
            return self._default_report
        rep = self._invariance_report(tau_samples, tol, sample_pairs)
        if default:
            self._default_report = rep
        return rep

    def _invariance_report(self, tau_samples, tol, sample_pairs):
        G = self.group
        if sample_pairs is None:
            if self.values is not None:
                sample_pairs = list(self.values.keys())
            else:
                sample_pairs = [o[0] for o in
                                pair_orbits(G, self.d, self.space)]
        else:
            sample_pairs = [self._checked_key(els, x) for els, x in sample_pairs]
        tuples = np.array([els for els, _ in sample_pairs], dtype=np.int64).reshape(
            len(sample_pairs), self.d)
        points = np.array([x for _, x in sample_pairs], dtype=np.int64)
        moves = [(kind, move, moved.tolist(), moved_points.tolist())
                 for kind, move, moved, moved_points
                 in pair_moves(G, tuples, points, self.space, self.elliptic)]
        # A stored value recurs as S/T images of other keys, and a constant slashes
        # to itself; any other slashed function is new and read once, so not kept.
        stored = functools.cache(lambda F: F._sample_vector(tau_samples))
        slashed = lambda F: F._sample_vector(tau_samples) if any(F.terms) else stored(F)
        violations = []
        worst = 0.0
        checked = 0
        for i, (els, x) in enumerate(sample_pairs):
            base = self._value(els, x)
            for kind, move, moved, moved_points in moves:
                expected = base if kind == "conjugation" else weight_slash_graded(move, base)
                dev, compared = _graded_deviation(
                    self._value(tuple(moved[i]), moved_points[i]), expected,
                    stored, stored if expected is base else slashed)
                checked += 1
                worst = max(worst, dev)
                if dev > tol and (dev == math.inf or dev > tol * max(
                        1.0, *(abs(x) for samples in compared for x in samples))):
                    violations.append(InvarianceViolation(kind, (els, x), move, dev))
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
        if "d" not in data and "height" not in data:
            raise ValueError('a class function needs a "d" or a "height" field')
        d = data["d"] if "d" in data else data["height"]
        if kind not in ("complex", "lat"):
            raise ValueError(f"unknown kind {kind!r}")
        if type(d) is not int or d not in (1, 2):
            raise ValueError(f"arity {d!r} is not one of the heights 1 and 2")
        for field, view in (("height", d), ("elliptic", kind == "lat")):
            if field in data and (type(data[field]) is not type(view) or data[field] != view):
                raise ValueError(f"\"{field}\" is {str(view).lower()} for a {kind!r} function "
                                 f"at d = {d}, got {data[field]!r}")
        kernels = kernels_from_json(data.get("kernels", []))
        values = {}
        for row in data["values"]:
            if not (isinstance(row, dict) and isinstance(row.get("tuple"), list)
                    and isinstance(row.get("graded"), dict)):
                raise ValueError(f"a value needs a \"tuple\" list and a \"graded\" "
                                 f"object, got {row!r}")
            key = (tuple(row["tuple"]), row.get("point", 0))
            if any(isinstance(v, (list, dict, bool)) for v in key[0] + key[1:]):
                raise ValueError(f"a key holds element and point indices, got {row!r}")
            if key in values:
                raise GroupError(f"key {list(key[0])}, {key[1]} is listed twice")
            values[key] = graded_from_json(row["graded"], kind, kernels)
        return cls.from_values(group, d, values, space=space, kind=kind)


# ---------------------------------------------------------------------------
# functoriality


def restrict_along(f, phi, space_map=None):
    """Pull back a class function along a group homomorphism.

    (phi* f)(h, x) = f(phi . h, space_map(x)), space_map a pair (G-set over
    phi.source, map of its points into f.space).  space_map defaults to the
    unique map when both spaces are points; it must be phi-equivariant.
    """
    if phi.target != f.group:
        raise GroupError("homomorphism target does not match the function's group")
    if space_map is None:
        if f.space.size != 1:
            raise GroupError("space_map required for a non-point space")
        src_space, images = GSet.point(phi.source), [0]
    else:
        src_space, images = space_map[0], _checked_space_map(phi, *space_map, f.space)

    def rule(els, x):
        return f._value(tuple(phi(e) for e in els), images[x])

    return ClassFunction.from_rule(phi.source, f.d, rule, space=src_space, kind=f.kind)


def _checked_space_map(phi, src_space, mapping, dst_space):
    """The images of the source points under mapping, after an exact check
    that src_space is over phi.source, that they are points of dst_space and
    that mapping(g x) = phi(g) mapping(x) for every source generator g and
    every source point x; by induction on word length it then holds for
    every group element."""
    if src_space.group != phi.source:
        raise GroupError("the source space is not a G-set over the homomorphism's source")
    try:
        images = [operator.index(mapping(x)) for x in range(src_space.size)]
    except TypeError:
        raise GroupError("space map returns a non-index") from None
    if not all(0 <= y < dst_space.size for y in images):
        raise GroupError(f"space map leaves the {dst_space.size} points of the function's space")
    for g in phi.source.generators():
        pg = phi(g)
        for x in range(src_space.size):
            if images[src_space.apply(g, x)] != dst_space.apply(pg, images[x]):
                raise GroupError(
                    f"space map is not equivariant at generator {g}, point {x}")
    return images


def _check_same_domain(f, g, what):
    if f.group != g.group or f.d != g.d or f.kind != g.kind:
        raise GroupError(f"shape mismatch in class function {what}")
    if f.space != g.space:
        raise GroupError("class functions live on different spaces")


def multiply(f, g):
    """Pointwise graded product of two class functions with matching shape."""
    _check_same_domain(f, g, "product")

    def rule(els, x):
        return graded_product(f._value(els, x), g._value(els, x))

    return ClassFunction.from_rule(f.group, f.d, rule, space=f.space, kind=f.kind)


def add(f, g):
    """Pointwise sum (plumbing; power operations do not respect it)."""
    _check_same_domain(f, g, "sum")

    def rule(els, x):
        return graded_sum(f._value(els, x), g._value(els, x))

    return ClassFunction.from_rule(f.group, f.d, rule, space=f.space, kind=f.kind)


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
        split_point = lambda x: (x % f.space.size, x // f.space.size)

    def rule(els, x):
        e1 = tuple(P.decode(e)[0] for e in els)
        e2 = tuple(P.decode(e)[1] for e in els)
        x1, x2 = split_point(x)
        return graded_product(f._value(e1, x1), g._value(e2, x2))

    return ClassFunction.from_rule(P, f.d, rule, space=space, kind=f.kind)


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

    return GroupHomomorphism(P, W, [fn(a) for a in P.generators()])


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

    return GroupHomomorphism(WW, W, [fn(a) for a in WW.generators()])


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

    return GroupHomomorphism(WP, T, [fn(a) for a in WP.generators()])
