"""Finite groups, wreath products, commuting tuples, and finite G-sets.

Elements of every group are dense integer indices 0..size-1.  Small groups
(cyclic, dihedral, symmetric, quaternion, explicit tables, permutation
closures) store an explicit multiplication table; wreath products and direct
products multiply lazily through an index encoding, so G wr Sigma_n works for
n >= 4 without materializing |G|^n * n! rows.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
import zlib
from dataclasses import dataclass

import numpy as np

# Group elements per batched step of the exact validation checks (divided
# by the number of points for G-sets): bounds the temporary arrays
# independently of the group order.  Blocks of 2048 raise the traced peak
# memory of building the S3 wreath inclusions at (j, k) = (1, 1), (2, 2)
# from 0.98 MB to 2.19 MB (tracemalloc), 1.2 MB more than blocks of 512.
_VALIDATE_BLOCK = 512

# Largest order of a group stored as an explicit |G| x |G| table (7!):
# cyclic, dihedral, symmetric and permutation groups above it are refused
# before anything is built.
TABLE_ORDER_BOUND = 5040

# Element indices are int64 in every batched kernel, so wreath and direct
# products of larger order are refused before anything is built.
INDEX_BOUND = 2 ** 63


class GroupError(ValueError):
    pass


# ---------------------------------------------------------------------------
# permutation helpers (tuples p with p[i] = image of i, composition p.q = p after q)


def perm_compose(p, q):
    return tuple(p[q[i]] for i in range(len(p)))

def perm_inverse(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)

def perm_rank(p):
    """Lexicographic rank of a permutation tuple (Lehmer code)."""
    n = len(p)
    rank = 0
    for i in range(n):
        smaller = sum(1 for j in range(i + 1, n) if p[j] < p[i])
        f = 1
        for m in range(1, n - i):
            f *= m
        rank += smaller * f
    return rank

def perm_unrank(n, rank):
    avail = list(range(n))
    out = []
    fact = 1
    for m in range(1, n):
        fact *= m
    for i in range(n):
        if n - i - 1 > 0:
            idx, rank = divmod(rank, fact)
            fact //= (n - i - 1)
        else:
            idx = rank
        out.append(avail.pop(idx))
    return tuple(out)

def _unrank_inverse(n, rank):
    return perm_inverse(perm_unrank(n, rank))


# ---------------------------------------------------------------------------


class FiniteGroup:
    """Base class.  Subclasses implement mul/inv; identity is element 0 by
    convention unless stated otherwise."""

    size: int
    identity: int
    labels = None

    def mul(self, a, b):
        raise NotImplementedError

    def mul_array(self, a, b):
        """The group law on integer arrays of element indices, broadcasting
        like numpy.  Every built-in group but the wreath products above
        arity 7 overrides this scalar loop."""
        a, b = np.broadcast_arrays(np.asarray(a, dtype=np.int64),
                                   np.asarray(b, dtype=np.int64))
        out = [self.mul(x, y) for x, y in zip(a.ravel().tolist(), b.ravel().tolist())]
        return np.array(out, dtype=np.int64).reshape(a.shape)

    def inv(self, a):
        raise NotImplementedError

    def inv_array(self, a):
        """Inverses of an integer array of element indices; every built-in
        group but the wreath products above arity 7 overrides this loop."""
        a = np.asarray(a, dtype=np.int64)
        return np.array([self.inv(x) for x in a.ravel().tolist()],
                        dtype=np.int64).reshape(a.shape)

    def conj_array(self, z, a):
        """z a z^-1 on integer arrays, broadcasting like mul_array."""
        z = np.asarray(z, dtype=np.int64)
        return self.mul_array(self.mul_array(z, a), self.inv_array(z))

    def generators(self):
        """A deterministic generating set."""
        raise NotImplementedError

    def power(self, a, k):
        if k < 0:
            return self.power(self.inv(a), -k)
        out = self.identity
        base = a
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def order(self, a):
        k = 1
        x = a
        while x != self.identity:
            x = self.mul(x, a)
            k += 1
        return k

    def commutes(self, a, b):
        return self.mul(a, b) == self.mul(b, a)

    def label(self, a):
        if self.labels is not None:
            return self.labels[a]
        return str(a)

    def __repr__(self):
        return f"<{type(self).__name__} size={self.size}>"


class TableGroup(FiniteGroup):
    """Group given by an explicit multiplication table.

    A C-contiguous int64 table is kept as it is, not copied, behind a
    read-only view; the caller must not write to it afterwards.  Two table
    groups are equal when their tables are, whatever their labels and names,
    so a group rebuilt from the same description is interchangeable with the
    first build (as wreath and direct products already are); the hash is a
    CRC-32 of the table's bytes, read in place and computed once, on first
    use (about 60 ms for the 203 MB table of S7)."""

    def __init__(self, table, labels=None, name=None):
        try:
            t = np.asarray(table)
        except ValueError:      # ragged rows
            t = np.zeros(0)
        if t.ndim != 2 or len(t) != t.shape[1] or not t.size or t.dtype.kind not in "iu" \
                or t.min() < 0 or t.max() >= len(t):
            raise GroupError("a multiplication table is an n x n array of integers in [0, n)")
        self._table = t = np.ascontiguousarray(t, dtype=np.int64).view()
        t.flags.writeable = False
        self._hash = None
        self.size = len(t)
        self.labels = labels
        self.name = name
        elements = np.arange(self.size)
        neutral = np.flatnonzero(((t == elements) & (t.T == elements)).all(axis=1))
        if not neutral.size:
            raise GroupError("table has no two-sided identity")
        self.identity = int(neutral[0])
        has_inverse = (t == self.identity) & (t.T == self.identity)
        if not has_inverse.any(axis=1).all():
            raise GroupError(f"element {np.argmin(has_inverse.any(axis=1))} has no inverse")
        self._inverse = has_inverse.argmax(axis=1)
        self.validate_associativity()

    def validate_associativity(self):
        """Light's test, exact at every order: (x g) y = x (g y) for all x, y
        and every generator g.  The g satisfying this are closed under
        products, so it then holds for every g.  Compared in row blocks of x
        to bound the temporaries."""
        t = self._table
        for g in self.generators():
            for start in range(0, self.size, _VALIDATE_BLOCK):
                rows = t[start:start + _VALIDATE_BLOCK]
                bad = t[rows[:, g]] != rows[:, t[g]]
                if bad.any():
                    x, y = np.argwhere(bad)[0]
                    raise GroupError(f"non-associative triple ({start + x},{g},{y})")

    def mul(self, a, b):
        return self._table.item(a, b)

    def mul_array(self, a, b):
        return self._table[a, b]

    def inv(self, a):
        return self._inverse.item(a)

    def inv_array(self, a):
        return self._inverse[a]

    def generators(self):
        if getattr(self, "_gens", None) is None:
            gens = []
            have = {self.identity}
            while len(have) < self.size:
                nxt = min(a for a in range(self.size) if a not in have)
                gens.append(nxt)
                have = mulclose_indices(self, gens)
            self._gens = gens or [self.identity]
        return self._gens

    def __eq__(self, other):
        return self is other or (isinstance(other, TableGroup) and self.size == other.size
                                 and hash(self) == hash(other)
                                 and np.array_equal(self._table, other._table))

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.size, zlib.crc32(self._table.data)))
        return self._hash


def mulclose_indices(G, gens):
    """Closure of a set of element indices under multiplication."""
    els = {G.identity}
    bdy = [G.identity]
    while bdy:
        new = []
        for x in bdy:
            for g in gens:
                y = G.mul(x, g)
                if y not in els:
                    els.add(y)
                    new.append(y)
        bdy = new
    return els


# ---------------------------------------------------------------------------
# built-in families


def _checked_order(factors, name):
    """The product of the positive integers `factors`, refused as soon as a
    partial product passes INDEX_BOUND, so a huge order is never formed."""
    order = 1
    for f in factors:
        order *= f
        if order > INDEX_BOUND:
            raise GroupError(f"{name} has more than 2**63 elements, too many for "
                             f"64-bit element indices")
    return order


def _check_table_order(order, name):
    if order > TABLE_ORDER_BOUND:
        raise GroupError(f"{name} has more than {TABLE_ORDER_BOUND} elements, "
                         f"too many for a multiplication table")


def cyclic_group(n):
    if n < 1:
        raise GroupError("cyclic order must be >= 1")
    _check_table_order(n, f"C{n}")
    a = np.arange(n)
    table = (a[:, None] + a) % n
    labels = ["e"] + [f"c^{k}" if k > 1 else "c" for k in range(1, n)]
    return TableGroup(table, labels=labels, name=f"C{n}")


def dihedral_group(n):
    """Dihedral group of order 2n: indices 0..n-1 are r^k, n..2n-1 are s r^k."""
    if n < 1:
        raise GroupError("dihedral parameter must be >= 1")
    size = 2 * n
    _check_table_order(size, f"D{n}")
    b = np.arange(size)
    fb, kb = b // n, b % n
    fa, ka = fb[:, None], kb[:, None]
    # r^a r^b = r^(a+b), r^a sr^b = sr^(b-a), sr^a r^b = sr^(a+b), sr^a sr^b = r^(b-a)
    table = np.where(fb == 0, (ka + kb) % n, (kb - ka) % n) + n * (fa != fb)
    labels = [f"r^{k}" for k in range(n)] + [f"sr^{k}" for k in range(n)]
    labels[0] = "e"
    return TableGroup(table, labels=labels, name=f"D{n}")


def symmetric_group(n):
    """Symmetric group on n letters; elements indexed in lexicographic order.
    Its table is the read-only product table of Sigma_n that the wreath
    products of arity n read (`_SigmaTables.products`), shared, not copied;
    its order n! is checked against TABLE_ORDER_BOUND first, so 0 <= n <= 7."""
    if n < 0:
        raise GroupError("symmetric degree must be >= 0")
    _check_table_order(math.factorial(min(n, 8)), f"S{n}")   # 8! > bound
    sigma = _sigma(n)
    G = TableGroup(sigma.products, labels=["".join(map(str, p)) for p in sigma.perms],
                   name=f"S{n}")
    G.perms = list(sigma.perms)
    return G


_QUAT_UNITS = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

def quaternion_group():
    """Quaternion group of order 8 on units {±1, ±i, ±j, ±k}.  Element 2u + s
    is (-1)^s times unit u of (1, i, j, k); units multiply by XOR of their
    indices, negated for ii = jj = kk = -1, ji = -k, kj = -i and ik = -j."""
    negative = {(1, 1), (2, 2), (3, 3), (2, 1), (3, 2), (1, 3)}
    table = [[2 * (a // 2 ^ b // 2) + (a % 2 ^ b % 2 ^ ((a // 2, b // 2) in negative))
              for b in range(8)] for a in range(8)]
    return TableGroup(table, labels=list(_QUAT_UNITS), name="Q8")


def perm_group(degree, generator_perms):
    """Group generated by permutations of {0..degree-1}, by orbit closure.

    The result stores its |G| x |G| multiplication table, so orders above
    TABLE_ORDER_BOUND are refused."""
    if not (isinstance(generator_perms, (list, tuple)) and all(
            isinstance(p, (list, tuple)) and all(type(i) is int for i in p)
            for p in generator_perms)):
        raise GroupError("permutation generators are a list of integer lists")
    if degree < 0:
        raise GroupError("permutation degree must be >= 0")
    if degree and not generator_perms:
        raise GroupError(f"no generators bound the degree {degree}; the trivial group is "
                         '{"type": "cyclic", "n": 1}')
    gens = [tuple(p) for p in generator_perms]
    for p in gens:
        if sorted(p) != list(range(degree)):
            raise GroupError(f"not a permutation of 0..{degree-1}: {p}")
    perms, table = _perm_table(degree, gens)
    G = TableGroup(table, labels=["".join(map(str, p)) for p in perms],
                   name=f"perm{degree}")
    G.perms = perms
    return G


def _perm_table(degree, gens):
    """The group generated by the permutations `gens` of 0..degree-1: its
    elements `perms`, sorted lexicographically, and its multiplication
    table, whose entry [a, b] is the index of perms[a] after perms[b].

    A breadth-first closure x -> x g records the parent (x, g) of each new
    element and refuses orders above TABLE_ORDER_BOUND.  Then row(x g) =
    row(x)[L_g], where L_g[b] is the index of g after perms[b]: one gather
    per row, in closure order, so every parent row is filled first."""
    identity = tuple(range(degree))
    parents = {identity: None}
    frontier = [identity]
    while frontier:
        new = []
        for x in frontier:
            for k, g in enumerate(gens):
                y = perm_compose(x, g)
                if y not in parents:
                    if len(parents) >= TABLE_ORDER_BOUND:
                        raise GroupError(f"generated group has more than {TABLE_ORDER_BOUND} "
                                         f"elements, too many for a multiplication table")
                    parents[y] = (x, k)
                    new.append(y)
        frontier = new
    perms = sorted(parents)
    index = {p: i for i, p in enumerate(perms)}
    left = [np.array([index[perm_compose(g, p)] for p in perms], dtype=np.int64)
            for g in gens]
    table = np.empty((len(perms), len(perms)), dtype=np.int64)
    table[0] = np.arange(len(perms))         # the identity sorts first
    for y, parent in parents.items():
        if parent is not None:
            x, k = parent
            table[index[y]] = table[index[x]][left[k]]
    return perms, table


# the named groups of the command line and the verification suites
GROUP_SHORTHANDS = {
    "C1": {"type": "cyclic", "n": 1}, "C2": {"type": "cyclic", "n": 2},
    "C3": {"type": "cyclic", "n": 3}, "C4": {"type": "cyclic", "n": 4},
    "C6": {"type": "cyclic", "n": 6}, "S2": {"type": "symmetric", "n": 2},
    "S3": {"type": "symmetric", "n": 3}, "S4": {"type": "symmetric", "n": 4},
    "D4": {"type": "dihedral", "n": 4}, "Q8": {"type": "quaternion"},
}


def build_group(spec):
    """Build a group from a descriptor dict (the JSON surface).

    {"type":"cyclic","n":4} | {"type":"symmetric","n":3} | {"type":"dihedral","n":4}
    | {"type":"quaternion"} | {"type":"table","size":m,"table":[[...]]}
    | {"type":"perm","degree":k,"generators":[[...]]}
    """
    if not isinstance(spec, dict):
        raise GroupError(f"a group descriptor is an object, got {spec!r}")
    kind = spec.get("type")
    if kind == "cyclic":
        return cyclic_group(_int_field(spec, "n"))
    if kind == "dihedral":
        return dihedral_group(_int_field(spec, "n"))
    if kind == "symmetric":
        return symmetric_group(_int_field(spec, "n"))
    if kind == "quaternion":
        return quaternion_group()
    if kind == "table":
        G = TableGroup(spec["table"])
        if "size" in spec and G.size != _int_field(spec, "size"):
            raise GroupError("declared size does not match table")
        return G
    if kind == "perm":
        return perm_group(_int_field(spec, "degree"), spec["generators"])
    raise GroupError(f"unknown group descriptor type {kind!r}")


def _int_field(spec, key):
    if type(spec[key]) is not int:      # bool is a subclass of int
        raise GroupError(f"descriptor field {key!r} must be an integer, got {spec[key]!r}")
    return spec[key]


# ---------------------------------------------------------------------------
# wreath products G wr Sigma_n, multiplied lazily through an index encoding


# Largest arity whose Sigma_n tables (permutations, inverses, ranks; n! rows
# of n entries) are built once and shared by every wreath product of that
# arity; above it permutations are ranked and unranked per call.
_SIGMA_TABLE_ARITY = 7


class _SigmaTables:
    """The tables of Sigma_n that wreath products of arity n and
    symmetric_group(n) read, with permutations indexed by lexicographic
    rank.  One instance per arity is shared by all of them, so its arrays
    are read-only."""

    def __init__(self, n):
        self.n = n
        self.perms = tuple(itertools.permutations(range(n)))
        self.index = {p: i for i, p in enumerate(self.perms)}
        self.inverses = tuple(perm_inverse(p) for p in self.perms)
        perm_array = np.array(self.perms, dtype=np.int64).reshape(len(self.perms), n)
        self.perm_array = _read_only(perm_array)
        self.inverse_array = _read_only(np.argsort(perm_array, axis=1))
        self.inverse_ranks = _read_only(np.array(
            [self.index[q] for q in self.inverses], dtype=np.int64))

    @functools.cached_property
    def products(self):
        """Entry [a, b] is the rank of perm a after perm b: the table of
        Sigma_n, closed from the n-cycle and a transposition on first use
        and shared with symmetric_group(n) (203 MB at n = 7)."""
        n = self.n
        gens = [tuple(range(1, n)) + (0,), (1, 0) + tuple(range(2, n))] if n >= 2 else []
        return _read_only(_perm_table(n, gens)[1])


def _read_only(array):
    array.flags.writeable = False
    return array


def _index_array(values, what):
    """values as a fresh int64 array; GroupError if they are ragged or numpy
    reads them as anything but integers (floats, booleans)."""
    try:
        array = np.array(values)
    except ValueError:
        raise GroupError(f"{what} is ragged") from None
    if array.size and array.dtype.kind not in "iu":
        raise GroupError(f"{what} holds {array.dtype} entries, not integer indices")
    return array.astype(np.int64)


# The shared _SigmaTables of arity n <= _SIGMA_TABLE_ARITY.
_sigma = functools.lru_cache(maxsize=_SIGMA_TABLE_ARITY + 1)(_SigmaTables)


class WreathGroup(FiniteGroup):
    """G wr Sigma_n with the twisted product

        (g, s) (g', s') = (g * (s . g'), s s'),   [s . g']_b = g'_{s^-1(b)}.

    Elements encode as  index = rank(perm) * |G|^n + sum_i base_i |G|^i.
    For n <= 7 the permutations, their inverses and their ranks are tables
    built once per arity (n! rows of n entries) and shared by every wreath
    product of that arity; above that they are computed per call.  The
    batched law reads the rank of a composite permutation from the product
    table of Sigma_n, the table of symmetric_group(n), built on the first
    batched product at that arity.
    """

    def __init__(self, base, n):
        if n < 0:
            raise GroupError("wreath arity must be >= 0")
        # |G|^n n! = prod_{i <= n} |G| i
        self.size = _checked_order((base.size * i for i in range(1, n + 1)),
                                   f"{getattr(base, 'name', None) or 'G'} wr S{n}")
        self.base = base
        self.n = n
        self._bs = base.size
        self._bn = self._bs ** n
        self._powers = [self._bs ** i for i in range(n)]
        self.identity = 0
        if n <= _SIGMA_TABLE_ARITY:
            sigma = _sigma(n)
            self._perm_of = sigma.perms.__getitem__
            self._rank_of = sigma.index.__getitem__
            self._inverse_of = sigma.inverses.__getitem__
            self._perm_array = sigma.perm_array
            self._inverse_array = sigma.inverse_array
            self._inverse_rank_array = sigma.inverse_ranks
            self._power_array = np.array(self._powers, dtype=np.int64)
            # |G|^s(i) and |G|^(s^-1)(i) per permutation: digit i of a code
            # read through s or s^-1 is code // place % |G|
            self._perm_places = self._power_array[self._perm_array]
            self._inverse_places = self._power_array[self._inverse_array]
        else:
            self._perm_of = functools.partial(perm_unrank, n)
            self._rank_of = perm_rank
            self._inverse_of = functools.partial(_unrank_inverse, n)

    # encoding ------------------------------------------------------------

    def encode(self, bases, perm):
        bases = tuple(bases)
        perm = tuple(perm)
        if len(bases) != self.n or len(perm) != self.n:
            raise GroupError("wrong arity for wreath element")
        code = sum(map(operator.mul, bases, self._powers))
        return self._rank_of(perm) * self._bn + code

    def decode(self, a):
        r, code = divmod(a, self._bn)
        bs = self._bs
        return tuple(code // p % bs for p in self._powers), self._perm_of(r)

    # group law -----------------------------------------------------------

    def mul(self, a, b):
        ra, ca = divmod(a, self._bn)
        rb, cb = divmod(b, self._bn)
        s = self._perm_of(ra)
        bs, pw, bmul = self._bs, self._powers, self.base.mul
        code = 0
        for p, j in zip(pw, self._inverse_of(ra)):
            code += bmul(ca // p % bs, cb // pw[j] % bs) * p
        return self._rank_of(perm_compose(s, self._perm_of(rb))) * self._bn + code

    def inv(self, a):
        # (g, s)^-1 = (s^-1 . g^-1, s^-1), i.e. coordinate b holds g_{s(b)}^-1
        r, c = divmod(a, self._bn)
        bs, pw, binv = self._bs, self._powers, self.base.inv
        code = 0
        for p, j in zip(pw, self._perm_of(r)):
            code += binv(c // pw[j] % bs) * p
        return self._rank_of(self._inverse_of(r)) * self._bn + code

    def mul_array(self, a, b):
        """Batched group law: base digits read through the permutation
        tables and combined by the base group's own batched law; the
        composite permutation's rank is read from the product table of
        Sigma_n (`_SigmaTables.products`)."""
        if self.n > _SIGMA_TABLE_ARITY:
            return super().mul_array(a, b)
        a, b = np.broadcast_arrays(np.asarray(a, dtype=np.int64),
                                   np.asarray(b, dtype=np.int64))
        shape = a.shape
        ra, ca = np.divmod(a.ravel(), self._bn)
        rb, cb = np.divmod(b.ravel(), self._bn)
        g = ca[:, None] // self._power_array % self._bs
        h = cb[:, None] // self._inverse_places[ra] % self._bs
        code = self.base.mul_array(g, h) @ self._power_array
        rank = _sigma(self.n).products[ra, rb]
        return (rank * self._bn + code).reshape(shape)

    def inv_array(self, a):
        """Batched inverse: coordinate b of (g, s)^-1 holds g_{s(b)}^-1; the
        inverse permutation's rank is read from a table."""
        if self.n > _SIGMA_TABLE_ARITY:
            return super().inv_array(a)
        r, c = np.divmod(np.asarray(a, dtype=np.int64), self._bn)
        g = c[..., None] // self._perm_places[r] % self._bs
        return self._inverse_rank_array[r] * self._bn + \
            self.base.inv_array(g) @ self._power_array

    def generators(self):
        gens = []
        e = self.base.identity
        for g in self.base.generators():
            bases = [e] * self.n
            if self.n:
                bases[0] = g
                gens.append(self.encode(bases, tuple(range(self.n))))
        if self.n >= 2:
            swap = (1, 0) + tuple(range(2, self.n))
            gens.append(self.encode([e] * self.n, swap))
        if self.n >= 3:
            cyc = tuple(range(1, self.n)) + (0,)
            gens.append(self.encode([e] * self.n, cyc))
        return gens or [self.identity]

    def label(self, a):
        bases, perm = self.decode(a)
        inner = ",".join(self.base.label(b) for b in bases)
        return f"({inner};{''.join(map(str, perm))})"

    # wreath products over the same base group are interchangeable
    def __eq__(self, other):
        return (isinstance(other, WreathGroup) and self.n == other.n
                and self.base == other.base)

    def __hash__(self):
        return hash(("wreath", self.n, self.base))

    def __repr__(self):
        return f"<WreathGroup {getattr(self.base, 'name', self.base)} wr S{self.n} size={self.size}>"


def wreath(G, n):
    """The wreath product G wr Sigma_n (multiplies lazily)."""
    return WreathGroup(G, n)


class DirectProductGroup(FiniteGroup):
    """G1 x G2 with index = a1 + a2 * |G1|."""

    def __init__(self, g1, g2):
        self.size = _checked_order((g1.size, g2.size), "the direct product")
        self.g1 = g1
        self.g2 = g2
        self.identity = self.encode(g1.identity, g2.identity)

    def encode(self, a1, a2):
        return a1 + a2 * self.g1.size

    def decode(self, a):
        a2, a1 = divmod(a, self.g1.size)
        return a1, a2

    def mul(self, a, b):
        a1, a2 = self.decode(a)
        b1, b2 = self.decode(b)
        return self.encode(self.g1.mul(a1, b1), self.g2.mul(a2, b2))

    def mul_array(self, a, b):
        a2, a1 = np.divmod(np.asarray(a, dtype=np.int64), self.g1.size)
        b2, b1 = np.divmod(np.asarray(b, dtype=np.int64), self.g1.size)
        return self.g1.mul_array(a1, b1) + self.g2.mul_array(a2, b2) * self.g1.size

    def inv(self, a):
        a1, a2 = self.decode(a)
        return self.encode(self.g1.inv(a1), self.g2.inv(a2))

    def inv_array(self, a):
        a2, a1 = np.divmod(np.asarray(a, dtype=np.int64), self.g1.size)
        return self.g1.inv_array(a1) + self.g2.inv_array(a2) * self.g1.size

    def generators(self):
        out = [self.encode(g, self.g2.identity) for g in self.g1.generators()]
        out += [self.encode(self.g1.identity, g) for g in self.g2.generators()]
        return out

    def __eq__(self, other):
        return (isinstance(other, DirectProductGroup)
                and self.g1 == other.g1 and self.g2 == other.g2)

    def __hash__(self):
        return hash(("product", self.g1, self.g2))


def direct_product(g1, g2):
    return DirectProductGroup(g1, g2)


# ---------------------------------------------------------------------------
# homomorphisms


class GroupHomomorphism:
    """Map of groups sending source.generators()[k] to images[k], stored as a
    dense image array on source indices, built and checked by one walk over
    the source (`_extend`)."""

    def __init__(self, source, target, images):
        images = _index_array(images, "generator images")
        if images.ndim != 1:
            raise GroupError("generator images are not a flat sequence of indices")
        if images.size and (images.min() < 0 or images.max() >= target.size):
            raise GroupError("generator images leave the target group")
        self.source = source
        self.target = target
        self.image = _extend(source, images, target.mul_array, target.identity,
                             "not a homomorphism").tolist()

    def __call__(self, a):
        return self.image[a]


# ---------------------------------------------------------------------------
# commuting tuples


@dataclass(frozen=True, slots=True)
class CommutingTuple:
    """A d-tuple of pairwise commuting elements, i.e. a map Z^d -> G.  The one
    check of a tuple: construction raises GroupError unless every entry is an
    integer index in [0, |G|) and every pair commutes."""

    group: FiniteGroup
    elements: tuple

    def __post_init__(self):
        G = self.group
        try:
            els = tuple(map(operator.index, self.elements))
        except TypeError:
            raise GroupError(f"tuple {self.elements!r} holds a non-index") from None
        object.__setattr__(self, "elements", els)
        for e in els:
            if not 0 <= e < G.size:
                raise GroupError(f"tuple {els} leaves the group of order {G.size}")
        for i in range(len(els)):
            for j in range(i + 1, len(els)):
                if not G.commutes(els[i], els[j]):
                    raise GroupError(f"entries {i},{j} of {els} do not commute")

    @property
    def d(self):
        return len(self.elements)

    def at(self, vector):
        """Value of the homomorphism Z^d -> G at an integer vector."""
        G = self.group
        out = G.identity
        for e, k in zip(self.elements, vector):
            out = G.mul(out, G.power(e, k))
        return out

    def image_subgroup(self):
        """Elements of the subgroup generated by the entries (abelian)."""
        return sorted(mulclose_indices(self.group, list(self.elements) or [self.group.identity]))


def _extend(G, images, mul, identity, what):
    """The map phi on G with phi(e) = identity, phi(gens[k]) = images[k] and
    phi(x g) = mul(phi(x), phi(g)), as an array over G (images may carry
    trailing axes).  One breadth-first walk in blocks of _VALIDATE_BLOCK
    elements (divided by the trailing size) sets each element when first
    reached and checks every later product x g against it: GroupError
    "<what> at (x,g)" on a disagreement, or if the generators miss part of G."""
    gens = np.array(G.generators(), dtype=np.int64)
    images = np.asarray(images, dtype=np.int64)
    if images.shape[:1] != gens.shape:
        raise GroupError(f"{len(images)} images for {len(gens)} generators")
    trailing = images.shape[1:]
    block = max(1, _VALIDATE_BLOCK // max(1, math.prod(trailing)))
    phi = np.empty((G.size,) + trailing, dtype=np.int64)
    phi[G.identity] = identity
    seen = np.zeros(G.size, dtype=bool)
    seen[G.identity] = True
    frontier = np.array([G.identity], dtype=np.int64)
    while frontier.size:
        fresh = np.zeros(G.size, dtype=bool)
        for start in range(0, frontier.size, block):
            xs = frontier[start:start + block]
            xg = G.mul_array(xs[:, None], gens)
            value = mul(phi[xs][:, None], images[None])
            new = ~seen[xg]
            phi[xg[new]] = value[new]
            seen[xg] = fresh[xg[new]] = True
            bad = phi[xg] != value
            if bad.any():
                i, k = np.argwhere(bad)[0][:2]
                raise GroupError(f"{what} at ({xs[i]},{gens[k]})")
        frontier = np.flatnonzero(fresh)
    if not seen.all():
        raise GroupError(f"generators reach {int(seen.sum())} of {G.size} elements")
    return phi


def commuting_tuples(G, d):
    """All d-tuples of pairwise commuting elements, lexicographic order."""
    return [CommutingTuple(G, t) for t in map(tuple, commuting_tuple_array(G, d).tolist())]


def commuting_tuple_array(G, d):
    """The commuting d-tuples as the rows of an (M, d) int64 array, in
    lexicographic order.

    Brute force: each prefix filters every remaining candidate for the next
    entry with one batched commutation test.  An arity with more than
    TABLE_ORDER_BOUND**2 candidate tuples |G|^d (the most entries a stored
    table holds) is refused; the trivial group counts as order 2 here, so
    that the depth d of the recursion is bounded too.
    """
    if d < 0:
        raise GroupError("arity must be >= 0")
    if max(G.size, 2) ** min(d, 64) > TABLE_ORDER_BOUND ** 2:    # as is any d >= 64
        raise GroupError(f"{d}-tuples over a group of order {G.size} are more than "
                         f"{TABLE_ORDER_BOUND}**2 candidates")
    if d == 0:
        return np.zeros((1, 0), dtype=np.int64)
    blocks = []

    def extend(prefix, candidates):
        if len(prefix) == d - 1:
            block = np.empty((candidates.size, d), dtype=np.int64)
            block[:, :-1] = prefix
            block[:, -1] = candidates
            blocks.append(block)
            return
        for g in candidates.tolist():
            commute = G.mul_array(candidates, g) == G.mul_array(g, candidates)
            extend(prefix + (g,), candidates[commute])

    extend((), np.arange(G.size, dtype=np.int64))
    return np.concatenate(blocks)


@dataclass
class TupleClass:
    """One simultaneous-conjugation class of commuting d-tuples.

    `size` is the number of tuples in the class; `conjugation_orbit` of the
    representative lists them.
    """

    representative: CommutingTuple
    size: int


def tuple_conjugacy_classes(G, d):
    """Orbits of simultaneous conjugation on commuting d-tuples.

    Classes are sorted by representative, so the output is deterministic.
    For a WreathGroup G wr Sigma_n and d in {1, 2} the classes are built
    directly (see `_wreath_tuple_classes`) and the representatives are not
    lexicographic minima of their orbits; every other group and arity goes
    through `tuple_conjugacy_classes_bfs`, whose representatives are.
    """
    if isinstance(G, WreathGroup) and d in (1, 2):
        return _wreath_tuple_classes(G, d)
    return tuple_conjugacy_classes_bfs(G, d)


def tuple_conjugacy_classes_bfs(G, d):
    """Brute-force classification: the orbits of `pair_orbits` on the point.
    Representatives are lexicographic minima.  It tests up to |G|^d tuples
    for commutation, so it serves as the oracle for the constructive
    wreath-product path at desk scale."""
    return [TupleClass(CommutingTuple(G, orbit[0][0]), len(orbit))
            for orbit in pair_orbits(G, d, GSet.point(G))]


def _wreath_tuple_classes(W, d):
    """Classes of commuting d-tuples in W = G wr Sigma_n, d in {1, 2}.

    A class is a multiset of types (m, L, [h]) with the m summing to n: L is
    an index-m sublattice of Z^d (the stabilizer of an orbit of size m) and
    [h] a class of commuting d-tuples in G (the tuple reduced at the orbit's
    basepoint).  See Macdonald, Symmetric Functions and Hall Polynomials,
    App. B, for d = 1, and Dijkgraaf-Moore-Verlinde-Verlinde,
    hep-th/9608096, for the sum over sublattices.

    The representative places one transitive block per type on consecutive
    points (`_transitive_block`).  Its centralizer has order
    prod over distinct types of multiplicity r of (m |C_G(h)|)^r r!, which
    gives the class size.
    """
    # lattices imports this module, so the import cannot sit at the top
    from .lattices import sublattices_of_index

    G = W.base
    n = W.n
    base_classes = tuple_conjugacy_classes(G, d)
    types = []              # (m, block, centralizer order of one block)
    for m in range(1, n + 1):
        for L in sublattices_of_index(d, m):
            for c in base_classes:
                types.append((m, _transitive_block(G, L, c.representative),
                              m * (G.size // c.size)))
    classes = []
    for combo in _type_multisets([t[0] for t in types], n, 0):
        bases = [[G.identity] * n for _ in range(d)]
        perms = [[0] * n for _ in range(d)]
        offset = 0
        for i in combo:
            m, block, _ = types[i]
            for j, (sigma, entries) in enumerate(block):
                for p in range(m):
                    perms[j][offset + p] = offset + sigma[p]
                    bases[j][offset + p] = entries[p]
            offset += m
        centralizer = 1
        for i, r in collections.Counter(combo).items():
            centralizer *= types[i][2] ** r * math.factorial(r)
        rep = CommutingTuple(W, tuple(W.encode(bases[j], perms[j])
                                      for j in range(d)))
        classes.append(TupleClass(rep, W.size // centralizer))
    classes.sort(key=lambda c: c.representative.elements)
    return classes


def _type_multisets(sizes, n, start):
    """Non-decreasing index sequences from `start` whose sizes sum to n."""
    if n == 0:
        yield ()
        return
    for i in range(start, len(sizes)):
        if sizes[i] <= n:
            for rest in _type_multisets(sizes, n - sizes[i], i):
                yield (i,) + rest


def _transitive_block(G, L, h):
    """The transitive commuting tuple on m = [Z^d : L] points whose stabilizer
    lattice is L and whose reduced tuple at point 0 is h; the inverse of
    `orbits.reduce_tuple` on one orbit.

    Point p stands for the coset r_p + L, the r_p running through the HNF
    box prod_i [0, L_ii) in lexicographic order (so r_0 = 0).  The j-th
    entry sends p to q where r_p + e_j = r_q + l with l in L, and carries
    the base entry h(l) at q, h(l) = prod_i h_i^c_i for l = sum_i c_i
    (i-th HNF row).  Returns one (sigma, entries) pair per coordinate.
    """
    B = L.basis
    d = L.d
    reps = list(itertools.product(*(range(B[i][i]) for i in range(d))))
    point = {r: p for p, r in enumerate(reps)}
    block = []
    for j in range(d):
        sigma = [0] * len(reps)
        entries = [G.identity] * len(reps)
        for p, r in enumerate(reps):
            v = list(r)
            v[j] += 1
            coeffs = []
            for i in range(d):
                c = v[i] // B[i][i]
                coeffs.append(c)
                for k in range(i, d):
                    v[k] -= c * B[i][k]
            q = point[tuple(v)]
            sigma[p] = q
            entries[q] = h.at(coeffs)
        block.append((sigma, entries))
    return block


# ---------------------------------------------------------------------------
# integer matrices and the unimodular action on tuples


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


def int_mat_inverse_unimodular(M):
    """Exact inverse of a matrix with determinant +-1 (adjugate method)."""
    n = len(M)
    det = int_mat_det(M)
    if det not in (1, -1):
        raise GroupError(f"matrix is not unimodular (det={det})")
    if n == 0:
        return []
    if n == 1:
        return [[det]]
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for k, row in enumerate(M) if k != i]
            adj[j][i] = (-1) ** (i + j) * int_mat_det(minor)
    return [[a * det for a in row] for row in adj]  # det is +-1


def gl_act_on_tuple_array(G, gamma, tuples):
    """Basis-change action of GL_d(Z) on the rows of an (M, d) array of
    commuting d-tuples over G.

    The convention is precomposition with the inverse transpose: the j-th
    entry of gamma.h is h evaluated at the j-th row of gamma^-1.  For d = 2
    and gamma = [[a,b],[c,d]] this gives (g, g') -> (g^d g'^-b, g^-c g'^a).

    Composition is contravariant: T_{AB} = T_B . T_A (an action of the
    opposite group).  The coefficient-side slash composes the same way, so
    the two twists pair coherently in invariance checks.
    """
    tuples = np.asarray(tuples, dtype=np.int64)
    d = tuples.shape[-1]
    if len(gamma) != d or any(len(r) != d for r in gamma):
        raise GroupError("matrix shape does not match tuple arity")
    ginv = int_mat_inverse_unimodular([list(r) for r in gamma])
    out = np.empty_like(tuples)
    for j, row in enumerate(ginv):
        acc = np.full(tuples.shape[:-1], G.identity, dtype=np.int64)
        for i, k in enumerate(row):
            if k:
                acc = G.mul_array(acc, _power_array(G, tuples[..., i], k))
        out[..., j] = acc
    return out


def _power_array(G, a, k):
    """a^k elementwise, by repeated squaring."""
    if k < 0:
        a, k = G.inv_array(a), -k
    out = np.full(np.shape(a), G.identity, dtype=np.int64)
    while k:
        if k & 1:
            out = G.mul_array(out, a)
        a = G.mul_array(a, a)
        k >>= 1
    return out


SL2_S = ((0, -1), (1, 0))
SL2_T = ((1, 1), (0, 1))


# ---------------------------------------------------------------------------
# finite G-sets


class GSet:
    """Finite left G-set.  table[x, g] is the image of point x under g.

    The one check of a table, run on every construction: it is a map
    G x X -> X equal to the extension (`_extend_action`) of its generator
    columns.  The G-set keeps a read-only int64 copy of the checked table,
    never the caller's object."""

    def __init__(self, group, size, action):
        table = _index_array(action, "action table")
        if table.shape != (size, group.size) or table.min(initial=0) < 0 \
                or table.max(initial=0) >= size:
            raise GroupError("action table is not a map G x X -> X")
        bad = _extend_action(group, table[:, group.generators()].T, size) != table.T
        if bad.any():
            h, x = np.argwhere(bad)[0]
            raise GroupError(f"action not compatible at h={h}, x={x}")
        self.group = group
        self.size = size
        self.table = _read_only(table)

    def apply(self, g, x):
        return self.table.item(x, g)

    def apply_array(self, g, x):
        """The action on integer arrays of group elements and points,
        broadcasting like numpy."""
        return self.table[x, g]

    @classmethod
    def point(cls, group):
        return _PointGSet(group)

    @classmethod
    def trivial(cls, group, size):
        return cls(group, size, [[x] * group.size for x in range(size)])

    @classmethod
    def left_translation(cls, group):
        """The group acting on itself by left translation (a free action)."""
        elements = np.arange(group.size, dtype=np.int64)
        return cls(group, group.size, group.mul_array(elements, elements[:, None]))

    def product(self, other):
        """Product G-set of two sets over the two groups' direct product."""
        P = direct_product(self.group, other.group)
        g2, g1 = np.divmod(np.arange(P.size, dtype=np.int64), self.group.size)
        x2, x1 = np.divmod(np.arange(self.size * other.size, dtype=np.int64)[:, None],
                           self.size)
        act = self.apply_array(g1, x1) + other.apply_array(g2, x2) * self.size
        return GSet(P, self.size * other.size, act)


def _extend_action(G, perms, npoints):
    """`_extend` into permutation arrays of 0..npoints-1: row h of the result
    lists the images of the points under h."""
    return _extend(G, perms, lambda p, q: np.take_along_axis(p, q, axis=-1),
                   np.arange(npoints), "action not compatible")


@dataclass(frozen=True)
class _PointGSet(GSet):
    """One point with the trivial action; no table, so it stays cheap for
    arbitrarily large groups.  The points over equal groups are equal."""

    group: FiniteGroup
    size = 1

    def apply(self, g, x):
        return 0

    def apply_array(self, g, x):
        return np.zeros(np.broadcast_shapes(np.shape(g), np.shape(x)), dtype=np.int64)


@dataclass(frozen=True)
class PowerGSet(GSet):
    """X^n as a G wr Sigma_n set, points in base |X|; equal for equal X and W.

    The action is computed on the fly: (w . x)_a = g_a x_{sigma^-1(a)}.
    """

    base_space: GSet
    group: WreathGroup

    def __post_init__(self):
        if not isinstance(self.group, WreathGroup) or self.group.base != self.base_space.group:
            raise GroupError("the group of a power G-set is a wreath product over "
                             "the base space's group")

    @functools.cached_property
    def size(self):
        return self.base_space.size ** self.group.n

    def decode_point(self, code):
        out = []
        m = self.base_space.size
        for _ in range(self.group.n):
            code, r = divmod(code, m)
            out.append(r)
        return tuple(out)

    def encode_point(self, pts):
        m = self.base_space.size
        code = 0
        for p in reversed(pts):
            code = code * m + p
        return code

    def apply(self, g, x):
        bases, sigma = self.group.decode(g)
        xt = self.decode_point(x)
        si = perm_inverse(sigma)
        moved = tuple(self.base_space.apply(bases[a], xt[si[a]])
                      for a in range(self.group.n))
        return self.encode_point(moved)

    def apply_array(self, g, x):
        """`apply` on integer arrays, broadcasting like numpy: base digits
        and point digits gathered through the wreath group's permutation
        tables, the base space's own batched action."""
        W = self.group
        g, x = np.broadcast_arrays(np.asarray(g, dtype=np.int64),
                                   np.asarray(x, dtype=np.int64))
        if W.n > _SIGMA_TABLE_ARITY:
            return np.array([self.apply(a, b) for a, b in zip(g.ravel().tolist(),
                                                             x.ravel().tolist())],
                            dtype=np.int64).reshape(g.shape)
        r, c = np.divmod(g, W._bn)
        bases = c[..., None] // W._power_array % W._bs
        places = self.base_space.size ** np.arange(W.n, dtype=np.int64)
        digits = x[..., None] // places % self.base_space.size
        moved = self.base_space.apply_array(
            bases, np.take_along_axis(digits, W._inverse_array[r], axis=-1))
        return moved @ places


def fixed_points(X, h):
    """Points of X fixed by the subgroup generated by the tuple entries: a
    point fixed by every entry is fixed by every word in them."""
    if X.group != h.group:
        raise GroupError("G-set and tuple live over different groups")
    return [x for x in range(X.size)
            if all(X.apply(g, x) == x for g in h.elements)]


# ---------------------------------------------------------------------------
# simultaneous conjugation zeta . (h, x) = (zeta h zeta^-1, zeta x), batched


class PairCodes:
    """Integer codes of pairs (d-tuple over G, point of a G-set X):

        code(h, x) = ((h_0 |G| + h_1) |G| + ... + h_{d-1}) |X| + x,

    so codes order pairs lexicographically.  Codes are int64, so a shape
    whose codes could reach 2**63 raises GroupError instead of wrapping."""

    def __init__(self, G, d, npoints):
        if G.size ** d * npoints >= INDEX_BOUND:
            raise GroupError(f"pairs of {d}-tuples over a group of order {G.size} "
                             f"and {npoints} points overflow 64-bit codes")
        self.radix = G.size
        self.d = d
        self.npoints = npoints

    def encode(self, tuples, points):
        """Codes of the pairs (tuples[..., :], points[...])."""
        code = np.zeros(np.shape(points), dtype=np.int64)
        for i in range(self.d):
            code = code * self.radix + tuples[..., i]
        return code * self.npoints + points


def conjugate_pairs(G, zs, tuples, points, space):
    """zeta . (h, x) for every zeta in the 1-d array zs and every pair (row h
    of the (M, d) array tuples, entry x of points): arrays of shape
    (len(zs), M, d) and (len(zs), M)."""
    zs = np.asarray(zs, dtype=np.int64)
    moved = G.conj_array(zs[:, None, None], tuples[None])
    return moved, space.apply_array(zs[:, None], points[None])


def conjugation_orbit(G, els, x, space):
    """The orbit of the pair (els, x), conjugated by every element of G in
    one batched call: its distinct pairs, sorted."""
    codes = PairCodes(G, len(els), space.size)
    if not (all(0 <= e < G.size for e in els) and 0 <= x < space.size):
        raise GroupError(f"pair ({els}, {x}) leaves the group or the space")
    moved, points = conjugate_pairs(G, np.arange(G.size),
                                    np.array(els, dtype=np.int64).reshape(1, -1),
                                    np.array([x], dtype=np.int64), space)
    moved, points = moved[:, 0], points[:, 0]
    code = codes.encode(moved, points)
    # first occurrence of each code in sorted order (np.unique would import
    # numpy.ma, about 0.5 MB)
    order = np.argsort(code, kind="stable")
    keep = order[np.concatenate(([True], np.diff(code[order]) != 0))]
    return list(zip(map(tuple, moved[keep].tolist()), points[keep].tolist()))


def pair_moves(G, tuples, points, space, elliptic=False):
    """The moves on (tuple, point) pairs, applied to the M pairs given by the
    rows of the (M, d) array tuples and the entries of points: simultaneous
    conjugation by every generator of G, in one batched call, then, when
    elliptic and d = 2, the basis changes S and T of the tuple, which keep
    the point (the generated subgroup is unchanged).  Returns one
    (kind, move, moved_tuples, moved_points) per move in that order, kind
    "conjugation" (move a generator) or "sl2" (move a matrix)."""
    gens = G.generators()
    moved, moved_points = conjugate_pairs(G, gens, tuples, points, space)
    out = [("conjugation", z, moved[k], moved_points[k]) for k, z in enumerate(gens)]
    if elliptic and tuples.shape[1] == 2:
        out += [("sl2", gamma, gl_act_on_tuple_array(G, gamma, tuples), points)
                for gamma in (SL2_S, SL2_T)]
    return out


def pair_orbits(G, d, space, elliptic=False):
    """Orbits of (commuting d-tuple, fixed point) pairs under `pair_moves`:
    sorted lists of pairs, ordered by their least members."""
    tuples = commuting_tuple_array(G, d)
    # a point is fixed by a tuple iff every entry fixes it
    xs = np.arange(space.size)
    rows, points = np.nonzero((space.apply_array(tuples[:, :, None], xs) == xs).all(axis=1))
    return pair_orbit_partition(G, tuples[rows], points, space, elliptic)


def pair_orbit_partition(G, tuples, points, space, elliptic=False):
    """Split a set of pairs, closed under `pair_moves`, into orbits.  The
    pairs are the rows of the (M, d) array tuples with the entries of
    points, distinct and in lexicographic order.

    Each move acts on all M pairs at once.  Each image is found by binary
    search among the sorted pair codes, and every pair takes the least label
    of its images (min-label propagation with pointer jumping) until nothing
    changes, so a round costs O(M |moves|).  Returns the orbits as sorted
    lists of (tuple, point) pairs, ordered by their least members.
    """
    codes = PairCodes(G, tuples.shape[1], space.size)
    code = codes.encode(tuples, points)
    if (code[1:] <= code[:-1]).any():
        raise GroupError("the pairs are not distinct and in lexicographic order")
    images = [codes.encode(moved, moved_points) for _, _, moved, moved_points
              in pair_moves(G, tuples, points, space, elliptic)]
    steps = []
    for image in images:
        at = np.minimum(np.searchsorted(code, image), len(code) - 1)
        if (code[at] != image).any():
            raise GroupError("the pairs are not closed under the moves")
        steps.append(at)
    label = np.arange(len(code))
    while True:
        new = label
        for at in steps:
            new = np.minimum(new, new[at])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    pairs = list(zip(map(tuple, tuples.tolist()), points.tolist()))
    by_orbit = np.argsort(label, kind="stable")
    ends = (np.flatnonzero(np.diff(label[by_orbit])) + 1).tolist() + [len(pairs)]
    by_orbit = by_orbit.tolist()
    return [[pairs[i] for i in by_orbit[a:b]] for a, b in zip([0] + ends, ends)]
