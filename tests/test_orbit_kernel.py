"""The batched conjugation kernel against its scalar definitions.

`ClassFunction.canonical_key`, `classfn.pair_orbits` and
`groups.tuple_conjugacy_classes_bfs` (with `groups.conjugation_orbit`) act on
whole arrays of pairs at once.  The oracles below are the scalar walks they
replaced, one `G.conj` per entry: the minimum over every z of
(z h z^-1, z x), and the breadth-first search over generator moves.
"""

import functools
import random
import sys
import threading

import numpy as np
import pytest

from charops.classfn import ClassFunction, pair_orbits
from charops.coefficients import GradedValue
from charops.groups import (
    SL2_S,
    SL2_T,
    CommutingTuple,
    GroupError,
    GSet,
    PairCodes,
    commuting_tuples,
    conjugation_orbit,
    cyclic_group,
    direct_product,
    fixed_points,
    quaternion_group,
    symmetric_group,
    tuple_conjugacy_classes,
    tuple_conjugacy_classes_bfs,
    wreath,
)
from charops.powerops import PowerGSet
from references import conj, gl_act_on_tuple


def scalar_canonical_key(G, space, els, x):
    return min((tuple(conj(G, z, e) for e in els), space.apply(z, x))
               for z in range(G.size))


def scalar_pair_orbits(G, d, space, elliptic=False):
    pairs = [(t.elements, x) for t in commuting_tuples(G, d)
             for x in fixed_points(space, t)]
    seen = set()
    orbits = []
    for key in pairs:
        if key in seen:
            continue
        orbit = {key}
        bdy = [key]
        while bdy:
            new = []
            for els, x in bdy:
                moves = [(tuple(conj(G, z, e) for e in els), space.apply(z, x))
                         for z in G.generators()]
                if elliptic and d == 2:
                    moves += [(gl_act_on_tuple(gamma, CommutingTuple(G, els)).elements, x)
                              for gamma in (SL2_S, SL2_T)]
                for moved in moves:
                    if moved not in orbit:
                        orbit.add(moved)
                        new.append(moved)
            bdy = new
        seen |= orbit
        orbits.append(sorted(orbit))
    orbits.sort(key=lambda o: o[0])
    return orbits


C2, C3, S3, Q8 = cyclic_group(2), cyclic_group(3), symmetric_group(3), quaternion_group()
SWAP3 = GSet(C2, 3, [[0, 1], [1, 0], [2, 2]])

GROUPS = {
    "C3": lambda: C3,
    "S3": lambda: S3,
    "Q8": lambda: Q8,
    "C2xS3": lambda: direct_product(C2, S3),
    "C2wr2": lambda: wreath(C2, 2),
    "C2wr3": lambda: wreath(C2, 3),
    "S3wr2": lambda: wreath(S3, 2),
    "S3wr3": lambda: wreath(S3, 3),
    "Q8wr2": lambda: wreath(Q8, 2),
    "Q8wr3": lambda: wreath(Q8, 3),
    "C2wr2wr2": lambda: wreath(wreath(C2, 2), 2),
}


def spaces(name, G):
    """The point, the left translation (its table has |G|^2 entries, and the
    scalar oracles walk it, so only up to order 64), and for C2 wr n the lazy power of a three-point
    C2-set; a product space is tested separately."""
    out = {"point": GSet.point(G)}
    if G.size <= 64:
        out["translation"] = GSet.left_translation(G)
    if name in ("C2wr2", "C2wr3"):
        out["power"] = PowerGSet(SWAP3, G)
    return out


def _product_space():
    X = SWAP3.product(GSet.left_translation(S3))
    return X.group, X


# (group, d) pairs small enough for the scalar pair BFS
ORBIT_CASES = [(name, d) for name in GROUPS for d in (0, 1, 2)
               if d < 2 or name not in ("S3wr3", "Q8wr2", "Q8wr3")]


@pytest.mark.parametrize("name,d", ORBIT_CASES)
def test_pair_orbits_match_scalar_bfs(name, d):
    G = GROUPS[name]()
    for label, X in spaces(name, G).items():
        for elliptic in (False, True):
            assert pair_orbits(G, d, X, elliptic) == scalar_pair_orbits(G, d, X, elliptic), \
                (label, elliptic)


@pytest.mark.parametrize("d", [1, 2])
def test_pair_orbits_product_space(d):
    P, X = _product_space()
    assert pair_orbits(P, d, X) == scalar_pair_orbits(P, d, X)


def _sample_keys(G, d, X, count, rng):
    """Random pairs of the domain; a tuple that fixes no point (every tuple
    but the identity, on a free space) is replaced by the identity tuple."""
    tuples = commuting_tuples(G, d)
    keys = []
    for _ in range(count):
        t = rng.choice(tuples)
        fixed = fixed_points(X, t)
        if fixed:
            keys.append((t.elements, rng.choice(fixed)))
        else:
            keys.append(((G.identity,) * d, rng.randrange(X.size)))
    return keys


# at d = 2 the orders above 400 are left out: sampling keys enumerates the
# commuting pairs, which alone would dominate the test
KEY_CASES = [(name, d) for name in GROUPS for d in (0, 1, 2)
             if d < 2 or name not in ("S3wr3", "Q8wr3")]


@pytest.mark.parametrize("name,d", KEY_CASES)
def test_canonical_key_matches_scalar_minimum(name, d):
    G = GROUPS[name]()
    rng = random.Random(f"{name}-{d}")
    for label, X in spaces(name, G).items():
        f = ClassFunction.constant(G, d, 1.0, space=X)
        for els, x in _sample_keys(G, d, X, 12, rng):
            key = f.canonical_key(els, x)
            assert key == scalar_canonical_key(G, X, els, x), label
            assert all(type(e) is int for e in key[0]) and type(key[1]) is int
            # the whole orbit is now a dict hit with the same answer
            assert f.canonical_key(*scalar_canonical_key(G, X, els, x)) == key


def test_canonical_key_product_space():
    P, X = _product_space()
    f = ClassFunction.constant(P, 1, 1.0, space=X)
    for els, x in _sample_keys(P, 1, X, 20, random.Random(3)):
        assert f.canonical_key(els, x) == scalar_canonical_key(P, X, els, x)


def test_canonical_map_holds_one_orbit_per_miss():
    W = wreath(S3, 2)
    f = ClassFunction.constant(W, 1, 1.0)
    key = f.canonical_key((5,), 0)
    orbit = {(tuple(conj(W, z, e) for e in (5,)), 0) for z in range(W.size)}
    assert set(f._canon) == orbit and set(f._canon.values()) == {key}


def class_members(cls):
    """The sorted tuples of a class: its representative's conjugation orbit."""
    rep = cls.representative
    return [els for els, _ in conjugation_orbit(rep.group, rep.elements, 0, GSet.point(rep.group))]


def scalar_tuple_orbit(G, elements):
    orbit = {elements}
    bdy = [elements]
    while bdy:
        new = []
        for els in bdy:
            for z in G.generators():
                c = tuple(conj(G, z, e) for e in els)
                if c not in orbit:
                    orbit.add(c)
                    new.append(c)
        bdy = new
    return sorted(orbit)


@pytest.mark.parametrize("name,d", ORBIT_CASES)
def test_bfs_classes_and_members_match_scalar_orbits(name, d):
    G = GROUPS[name]()
    classes = tuple_conjugacy_classes_bfs(G, d)
    expected = [orbit for orbit in scalar_pair_orbits(G, d, GSet.point(G))]
    members = [class_members(c) for c in classes]
    assert members == [[els for els, _ in o] for o in expected]
    for c, m in zip(classes, members):
        assert c.representative.elements == m[0]
        assert c.size == len(m)
        assert m == scalar_tuple_orbit(G, c.representative.elements)


@pytest.mark.parametrize("name,d", [("S3wr3", 1), ("Q8wr2", 2), ("C2wr2wr2", 2)])
def test_constructive_class_members_match_scalar_orbits(name, d):
    G = GROUPS[name]()
    for c in tuple_conjugacy_classes(G, d)[:12]:
        m = class_members(c)
        assert m == scalar_tuple_orbit(G, c.representative.elements)
        assert len(m) == c.size


def test_pair_codes_refuse_overflow():
    G = wreath(C2, 7)                  # order 2^7 7! = 645120
    PairCodes(G, 3, 1)                 # 2.7e17 < 2^63
    with pytest.raises(GroupError):
        PairCodes(G, 4, 1)
    with pytest.raises(GroupError):
        PairCodes(cyclic_group(2), 63, 1)
    codes = PairCodes(S3, 2, 5)
    pairs = [((a, b), x) for a in range(6) for b in range(6) for x in range(5)]
    encoded = codes.encode(np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs]))
    assert encoded.tolist() == list(range(len(pairs)))


def test_concurrent_readers_agree_with_serial():
    """Threads that canonicalize and evaluate one function read back from
    JSON, over a shuffled key list, see exactly what a serial reader sees,
    while canonical_key fills the shared canonical map."""
    W = wreath(S3, 2)
    values = {}
    for i, cls in enumerate(tuple_conjugacy_classes(W, 2)):
        values[(cls.representative.elements, 0)] = GradedValue("complex", {0: complex(i, -i)})
    data = ClassFunction.from_values(W, 2, values).to_json()
    keys = [(t.elements, 0) for t in commuting_tuples(W, 2)]
    serial_f = ClassFunction.from_json(W, data)
    serial = {key: (serial_f.canonical_key(*key), serial_f.evaluate(*key).components)
              for key in keys}

    shared = ClassFunction.from_json(W, data)
    results = [None] * 4
    errors = []

    def reader(i):
        try:
            order = list(keys)
            random.Random(i).shuffle(order)
            results[i] = {key: (shared.canonical_key(*key), shared.evaluate(*key).components)
                          for key in order}
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # switch threads inside canonical_key
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert all(r == serial for r in results)


def test_concurrent_sample_readers_agree_with_serial(monkeypatch):
    """Threads that read the sampled values of one height-2 function read
    back from JSON, alternating two tuples of tau samples, see exactly what a
    serial reader sees while the kernel memos fill and evict (the bound is
    lowered to 8 here)."""
    from charops import coefficients
    from charops.coefficients import DEFAULT_TAU_SAMPLES
    from charops.powerops import power_operation
    from charops.verify import random_height2_function

    C2 = cyclic_group(2)
    P = power_operation(random_height2_function(C2, random.Random(5)), 2, mode="eager")
    W = P.group
    data = P.to_json()
    sample_sets = (DEFAULT_TAU_SAMPLES, (0.1 + 1.5j, 0.3 + 1.1j))

    def read(f, keys):
        return {key: [F.values(samples) for samples in sample_sets
                      for F in f.evaluate(*key).components.values()]
                for key in keys}

    serial_f = ClassFunction.from_json(W, data)
    keys = list(serial_f.values)
    serial = read(serial_f, keys)
    monkeypatch.setattr(coefficients, "_SAMPLE_MEMO_BOUND", 8)
    shared = ClassFunction.from_json(W, data)
    results = [None] * 4
    errors = []

    def reader(i):
        try:
            order = list(keys)
            random.Random(i).shuffle(order)
            results[i] = read(shared, order * 3)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # switch threads inside the sample memos
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert all(r == serial for r in results)
    kernels = {k for v in shared.values.values() for F in v.components.values()
               for factors in F.terms for k, _ in factors}
    assert kernels and all(k.sample_vector.cache_info()[2:] == (8, 8) for k in kernels)


def test_concurrent_reducers_agree_with_serial(monkeypatch):
    """Threads that reduce shuffled commuting pairs, each over its own build
    of the wreath groups, see what a serial reader sees while the shared
    reduction memo fills and evicts (the bound is lowered to 8 here); the
    memo never holds more than the bound."""
    from charops import orbits
    from charops.orbits import reduce_tuple

    def pairs():
        return (commuting_tuples(wreath(cyclic_group(2), 3), 2)
                + commuting_tuples(wreath(symmetric_group(3), 2), 2)[:150])

    def fields(red):
        return (red.orbits, red.basepoints, red.stabilizers, red.matrices,
                [t.elements for t in red.reduced])

    serial = {(H.group, H.elements): fields(orbits._reduce(H.group, H.elements, None, None))
              for H in pairs()}
    bound = 8
    monkeypatch.setattr(orbits, "_plain_reduction",
                        functools.lru_cache(maxsize=bound)(orbits._plain_reduction.__wrapped__))
    results = [None] * 4
    largest = [0] * 4
    errors = []

    def reader(i):
        try:
            order = pairs() * 2
            random.Random(i).shuffle(order)
            out = {}
            for H in order:
                out[H.group, H.elements] = fields(reduce_tuple(H))
                largest[i] = max(largest[i], orbits._plain_reduction.cache_info().currsize)
            results[i] = out
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # switch threads inside the memo writes
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert all(r == serial for r in results)
    assert max(largest) <= bound and orbits._plain_reduction.cache_info().currsize == bound


def test_concurrent_rule_readers_agree_with_serial(monkeypatch):
    """Threads that evaluate one rule-backed power operation over shuffled
    pairs see what a serial reader sees while its memo fills and evicts
    (the bound is lowered to 8 here); the memo never holds more than the
    bound."""
    from charops import powerops
    from charops.powerops import power_operation

    values = {(cls.representative.elements, 0): GradedValue("complex", {0: complex(i, 1)})
              for i, cls in enumerate(tuple_conjugacy_classes(S3, 1))}
    f = ClassFunction.from_values(S3, 1, values)
    keys = [(t.elements, 0) for t in commuting_tuples(wreath(S3, 3), 1)]
    serial_P = power_operation(f, 3, mode="lazy")
    serial = {key: serial_P.evaluate(*key).components for key in keys}
    bound = 8
    monkeypatch.setattr(powerops, "_RULE_CACHE_BOUND", bound)
    shared = power_operation(f, 3, mode="lazy")
    results = [None] * 4
    largest = [0] * 4
    errors = []

    def reader(i):
        try:
            order = keys * 8    # enough writes that an unlocked one shows
            random.Random(i).shuffle(order)
            out = {}
            for key in order:
                out[key] = shared.evaluate(*key).components
                largest[i] = max(largest[i], shared.rule.cache_info().currsize)
            results[i] = out
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # switch threads inside the cache writes
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert all(r == serial for r in results)
    assert max(largest) <= bound and shared.rule.cache_info().currsize == bound
