"""Graded coefficients: complex scalars and weight-graded lattice functions.

A GradedValue is a finitely supported map j -> coefficient modeling an even
cohomological degree 2j.  At height 1 the coefficients are complex numbers;
at height 2 they are LatFunctions: weight-j functions F of a based oriented
lattice, F(mu l, mu l') = mu^-j F(l, l'), in one normal form: a sum of
scale * prod_i kernel_i(M_i . (l, l')) with stored q-expansion kernels and
exact integer matrices M_i.  The slash by a positive-determinant matrix
composes the matrices exactly, so slashes never accumulate round-off and
every lattice function serializes exactly.  Equality of lattice
functions is numerical agreement on a fixed list of tau samples.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .lattices import LatticeError

TOL = 1e-9

# Published evaluation points tau = l'/l with l = 1.
DEFAULT_TAU_SAMPLES = (1j, 2j, 0.5 + 1j, 0.25 + 2j)

# Most terms one lattice function may hold.  Height-2 values stay far below
# it (the Hecke sum S_n has sigma_1(n) terms, a power operation value one
# term per choice of component in each orbit factor); a sum or product
# passing it raises instead of growing without bound.
_MAX_TERMS = 4096

# Largest |weight| of a q-expansion kernel.  The package builds weights 4
# and 6; at |weight| = 1024 the factor l^-weight already leaves the range of
# a double for |l| = 2 or 1/2, and a weight read from JSON may be an integer
# too large to convert to a float at all.
_WEIGHT_BOUND = 1024

# Logarithm of the largest q-expansion tail an evaluation may drop.
_LOG_TAIL_BOUND = math.log(1e-10)

# Most sample vectors one kernel keeps, one per (matrix, tau samples) pair;
# the least recently used goes first.  `charops verify` after three passes of
# the benchmark's elliptic workload leaves 301 in each of E4 and E6.
_SAMPLE_MEMO_BOUND = 4096

_IDENTITY = ((1, 0), (0, 1))

_serials = itertools.count()


def divisor_power_sums(n_terms, k):
    """[sigma_k(n) for n in range(n_terms)] with sigma_k(0) = 0, by a
    divisor sieve: every d adds d^k to each of its multiples."""
    sigma = [0] * n_terms
    for d in range(1, n_terms):
        dk = d ** k
        for m in range(d, n_terms, d):
            sigma[m] += dk
    return sigma


def _exact_matrix(M):
    """M as nested int tuples; LatticeError unless 2x2, integral, det > 0."""
    try:
        (a, b), (c, d) = M
    except (TypeError, ValueError):
        raise LatticeError("slash needs a 2x2 matrix") from None
    exact = int(a), int(b), int(c), int(d)
    if exact != (a, b, c, d):
        raise LatticeError("slash matrix entries must be integers")
    a, b, c, d = exact
    if a * d - b * c <= 0:
        raise LatticeError("slash matrix must have positive determinant")
    return (a, b), (c, d)


class LatFunction:
    """Weight-homogeneous function of a based oriented lattice (l, l').

    terms maps a sorted tuple of factors (kernel, M = ((a, b), (c, d))),
    kernels ordered by creation serial, to a complex scale; F is the sum of
    scale * prod kernel(a l + b l', c l + d l').  Equal terms merge, zero
    terms drop, and a constant is the empty product.
    """

    __slots__ = ("weight", "terms")

    def __init__(self, weight, terms):
        _check_term_count(len(terms))
        self.weight = weight
        self.terms = terms

    # construction ----------------------------------------------------------

    @classmethod
    def from_q_expansion(cls, weight, coeffs):
        """F(l, l') = l^-weight * sum_n coeffs[n] q^n with q = exp(2 pi i l'/l)."""
        kernel = _Kernel(weight, tuple(complex(c) for c in coeffs))
        return cls(weight, {((kernel, _IDENTITY),): 1 + 0j})

    @classmethod
    def constant(cls, value):
        value = complex(value)
        return cls(0, {(): value} if value else {})

    def q_coefficients(self):
        """The stored q-expansion coefficients of a single untransformed
        (possibly scaled) q-expansion, such as E4 or E6."""
        if len(self.terms) == 1:
            (factors, s), = self.terms.items()
            if len(factors) == 1 and factors[0][1] == _IDENTITY:
                return tuple(s * c for c in factors[0][0].coeffs)
        raise LatticeError("not a single untransformed q-expansion")

    # evaluation --------------------------------------------------------------

    def evaluate(self, l, lp):
        """F(l, l') term by term: the scalar definition of every sampled value."""
        total = 0j
        try:
            for factors, s in self.terms.items():
                for kernel, ((a, b), (c, d)) in factors:
                    s *= kernel(a * l + b * lp, c * l + d * lp)
                total += s
        except OverflowError:
            raise LatticeError("a factor matrix entry is too large for a float") from None
        return total

    def at_tau(self, tau):
        return self._sample_vector((tau,))[0]

    def values(self, samples=DEFAULT_TAU_SAMPLES):
        return list(self._sample_vector(tuple(samples)))

    def _sample_vector(self, samples):
        """(F(1.0, tau) for tau in samples), samples a tuple.  Products run in
        the order and terms are summed in the order of evaluate, so every
        value equals evaluate(1.0, tau) bit for bit."""
        totals = (0j,) * len(samples)
        for factors, s in self.terms.items():
            vec = (s,) * len(samples)
            for kernel, M in factors:
                vec = tuple(map(operator.mul, vec, kernel.sample_vector(M, samples)))
            totals = tuple(map(operator.add, totals, vec))
        return totals

    # algebra -----------------------------------------------------------------

    def slash(self, M):
        """The pullback (M*F)(l, l') = F(a l + b l', c l + d l'), same weight.

        M must be a 2x2 integer matrix with positive determinant; every
        factor matrix N becomes the exact product N M.
        """
        return self._slash_exact(_exact_matrix(M))

    def _slash_exact(self, M):
        """slash by a matrix already checked by _exact_matrix.  A constant
        (every term an empty product) slashes to itself."""
        if not any(self.terms):
            return self
        (e, f), (g, h) = M
        return LatFunction(self.weight, {
            tuple(sorted((k, ((a * e + b * g, a * f + b * h),
                              (c * e + d * g, c * f + d * h)))
                         for k, ((a, b), (c, d)) in factors)): s
            for factors, s in self.terms.items()})

    def scale(self, s):
        s = complex(s)
        if s == 1:
            return self
        if s == 0:
            return LatFunction(self.weight, {})
        return LatFunction(self.weight, {f: s * c for f, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, LatFunction):
            return NotImplemented
        if other.weight != self.weight:
            raise LatticeError("can only add lattice functions of equal weight")
        terms = dict(self.terms)
        for factors, s in other.terms.items():
            _accumulate(terms, factors, s)
        return LatFunction(self.weight, terms)

    def __mul__(self, other):
        if not isinstance(other, LatFunction):
            return self.scale(other)
        terms = {}
        for fa, sa in self.terms.items():
            for fb, sb in other.terms.items():
                _accumulate(terms, tuple(sorted(fa + fb)) if fa and fb else fa or fb,
                            sa * sb)
                _check_term_count(len(terms))
        return LatFunction(self.weight + other.weight, terms)

    __rmul__ = __mul__

    # JSON --------------------------------------------------------------------

    def to_json(self, kernel_index):
        """{"weight", "terms"}; each term is its scale and its factors as
        [kernel position in the kernels table, matrix rows]."""
        return {"weight": self.weight,
                "terms": [{"scale": [s.real, s.imag],
                           "factors": [[kernel_index[k], [list(r) for r in M]]
                                       for k, M in factors]}
                          for factors, s in self.terms.items()]}

    @classmethod
    def from_json(cls, data, kernels):
        """Inverse of to_json; kernels is the decoded kernels table."""
        weight = data["weight"]
        if type(weight) is not int:         # bool is a subclass of int
            raise LatticeError(f"\"weight\" must be an integer, got {weight!r}")
        if not isinstance(data["terms"], list):
            raise LatticeError(f"\"terms\" must be a list, got {data['terms']!r}")
        terms = {}
        for term in data["terms"]:
            if not (isinstance(term, dict) and isinstance(term.get("factors"), list)):
                raise LatticeError(f"a term needs a \"factors\" list, got {term!r}")
            factors = []
            for factor in term["factors"]:
                if not (isinstance(factor, list) and len(factor) == 2):
                    raise LatticeError(f"a factor must be [kernel index, matrix], got {factor!r}")
                i, M = factor
                if not (type(i) is int and 0 <= i < len(kernels)):
                    raise LatticeError(f"kernel index {i!r} is not in the kernels table")
                if not (isinstance(M, list) and len(M) == 2 and all(
                        isinstance(row, list) and len(row) == 2
                        and all(type(x) is int for x in row) for row in M)):
                    raise LatticeError(f"a factor matrix must be 2x2 integers, got {M!r}")
                factors.append((kernels[i], _exact_matrix(M)))
            if sum(k.weight for k, _ in factors) != weight:
                raise LatticeError(f"a term's kernel weights do not add up to {weight}")
            _accumulate(terms, tuple(sorted(factors)), _complex_from_json(term["scale"]))
        return cls(weight, terms)

    def __repr__(self):
        return f"<LatFunction weight={self.weight} terms={len(self.terms)}>"


def _check_term_count(count):
    if count > _MAX_TERMS:
        raise LatticeError(
            f"lattice function would hold more than {_MAX_TERMS} terms")


def _accumulate(terms, factors, s):
    """terms[factors] += s, dropping the term if it cancels to zero."""
    s = terms.get(factors, 0) + s
    if s:
        terms[factors] = s
    else:
        terms.pop(factors, None)


def _log_growth(weight, coeffs):
    """log C for the least C >= 1 with |c_n| <= C n^weight for every n >= 1;
    infinite when a coefficient is not finite."""
    sizes = np.abs(np.array(coeffs[1:], dtype=complex))
    if not np.isfinite(sizes).all():
        return math.inf
    with np.errstate(divide="ignore"):      # log 0 = -inf drops out of the max
        logs = np.log(sizes) - weight * np.log(np.arange(1, len(coeffs)))
    return float(logs.max(initial=0.0))


class _Kernel:
    """Atomic evaluator: a truncated q-expansion with memoized sample
    vectors.  Kernels compare by creation serial, which fixes the order of
    the factors inside a term."""

    def __init__(self, weight, coeffs):
        if not -_WEIGHT_BOUND <= weight <= _WEIGHT_BOUND:
            raise LatticeError(f"a kernel weight must lie in [-{_WEIGHT_BOUND}, "
                               f"{_WEIGHT_BOUND}]")
        self.weight = weight
        self.coeffs = coeffs
        self.serial = next(_serials)
        self._log_growth = _log_growth(weight, coeffs)
        self.sample_vector = functools.lru_cache(maxsize=_SAMPLE_MEMO_BOUND)(
            self._sample_vector)

    def __lt__(self, other):
        return self.serial < other.serial

    def to_json(self):
        return {"weight": self.weight, "q": [[c.real, c.imag] for c in self.coeffs]}

    def _sample_vector(self, M, samples):
        """(kernel(a 1.0 + b tau, c 1.0 + d tau) for tau in samples) for an
        exact matrix M = ((a, b), (c, d)); `sample_vector` memoizes it per
        (M, samples).  LatticeError when an entry is too large for a float."""
        (a, b), (c, d) = M
        try:
            return tuple([self(a * 1.0 + b * t, c * 1.0 + d * t) for t in samples])
        except OverflowError:
            raise LatticeError("a factor matrix entry is too large for a float") from None

    def __call__(self, l, lp):
        l, lp = complex(l), complex(lp)
        if l == 0:
            raise LatticeError("degenerate lattice: l = 0")
        tau = lp / l
        if not cmath.isfinite(tau):
            raise LatticeError(f"tau = {tau} is not a finite number")
        if tau.imag <= 0:
            raise LatticeError(f"lattice is not oriented: tau = {tau}")
        q = cmath.exp(2j * cmath.pi * tau)
        # Truncation guard: the stored coefficients grow at most like
        # C n^weight (C from _log_growth), so the dropped tail is bounded by
        # C N^(weight+1) |q|^N / (1 - |q|), compared in logarithms so that no
        # weight overflows a float.
        absq = abs(q)
        n_terms = len(self.coeffs)
        if n_terms and absq and (absq >= 1 or (
                self._log_growth + (self.weight + 1) * math.log(n_terms)
                + n_terms * math.log(absq) - math.log1p(-absq) > _LOG_TAIL_BOUND)):
            raise LatticeError(
                f"q-expansion with {n_terms} terms cannot reach tolerance at "
                f"|q| = {absq:.4f}; evaluate closer to the fundamental domain "
                f"or store more coefficients")
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * q + c
        try:
            return l ** (-self.weight) * acc
        except OverflowError:
            raise LatticeError(f"l^{-self.weight} overflows at l = {l}") from None


def eisenstein_series(weight, n_terms=256):
    """Normalized Eisenstein series E4 or E6 as a truncated q-expansion."""
    if weight == 4:
        c = 240
    elif weight == 6:
        c = -504
    else:
        raise LatticeError("only weights 4 and 6 are built in")
    if n_terms < 2:
        raise LatticeError("need at least 2 terms")
    coeffs = [1] + [c * s for s in divisor_power_sums(n_terms, weight - 1)[1:]]
    return LatFunction.from_q_expansion(weight, coeffs)


# ---------------------------------------------------------------------------
# graded values


@dataclass(frozen=True)
class GradedValue:
    """Finitely supported map j -> coefficient, even degree 2j.

    kind "complex": coefficients are complex numbers (height 1).
    kind "lat": the j-component is a LatFunction of weight j (height 2).
    """

    kind: str
    components: dict = field(default_factory=dict)

    def __post_init__(self):
        comp = {}
        for j, v in self.components.items():
            if j < 0:
                raise LatticeError("negative degrees are not supported")
            if self.kind == "lat":
                if not isinstance(v, LatFunction):
                    v = LatFunction.constant(v) if j == 0 else None
                if v is None or v.weight != j:
                    raise LatticeError(f"component {j} must have weight {j}")
                comp[j] = v
            else:
                comp[j] = complex(v)
        object.__setattr__(self, "components", comp)

    @classmethod
    def unit(cls, kind="complex"):
        if kind == "lat":
            return cls("lat", {0: LatFunction.constant(1.0)})
        return cls("complex", {0: 1.0 + 0j})

    @classmethod
    def zero(cls, kind="complex"):
        return cls(kind, {})

    @classmethod
    def scalar(cls, value, kind="complex"):
        if kind == "lat":
            return cls("lat", {0: LatFunction.constant(value)})
        return cls("complex", {0: complex(value)})

    def component(self, j):
        if self.kind == "lat":
            return self.components.get(j, LatFunction(j, {}))
        return self.components.get(j, 0j)

    @property
    def degrees(self):
        return sorted(self.components)


def scale_by_degree(r, v):
    """Multiply the j-component by r^j (the degree-2j scaling r^(deg/2))."""
    if r <= 0:
        raise LatticeError("degree scaling requires r > 0")
    if r == 1:
        return v
    return GradedValue(v.kind, {j: c * (r ** j) for j, c in v.components.items()})


def graded_product(u, v):
    """Convolution product: (uv)_j = sum_{a+b=j} u_a v_b.  Degrees are even
    so there are no signs."""
    if u.kind != v.kind:
        raise LatticeError("cannot multiply graded values of different kinds")
    comp = {}
    for a, ua in u.components.items():
        for b, vb in v.components.items():
            j = a + b
            term = ua * vb
            comp[j] = comp[j] + term if j in comp else term
    return GradedValue(u.kind, comp)


def graded_sum(u, v):
    if u.kind != v.kind:
        raise LatticeError("cannot add graded values of different kinds")
    comp = dict(u.components)
    for j, vb in v.components.items():
        comp[j] = comp[j] + vb if j in comp else vb
    return GradedValue(u.kind, comp)


def weight_slash_graded(M, v):
    """Apply the slash to every component of a height-2 graded value."""
    if v.kind != "lat":
        raise LatticeError("weight_slash_graded needs lattice-function coefficients")
    M = _exact_matrix(M)
    return GradedValue("lat", {j: F._slash_exact(M) for j, F in v.components.items()})


def worst_deviation(*devs):
    """The largest of 0.0 and devs, a NaN deviation counting as infinite:
    a bare max(0.0, nan) is 0.0, which would pass a check that computed
    nothing."""
    worst = 0.0
    for dev in devs:
        if not dev <= worst:        # NaN compares false both ways
            worst = dev if dev == dev else math.inf
    return worst


def graded_deviation(u, v):
    """Max componentwise deviation of two graded values at DEFAULT_TAU_SAMPLES,
    a NaN one counting as infinite (worst_deviation).  A value or component
    compared with itself deviates by 0.0 unevaluated (x - x is 0 or NaN)."""
    sample = functools.partial(LatFunction._sample_vector, samples=DEFAULT_TAU_SAMPLES)
    return _graded_deviation(u, v, sample, sample)


def _graded_deviation(u, v, sample_u, sample_v):
    """graded_deviation reading u's lattice functions by sample_u, v's by sample_v."""
    if u is v:
        return 0.0
    if u.kind != v.kind:
        raise LatticeError("kind mismatch")
    devs = []
    for j in sorted(set(u.degrees) | set(v.degrees)):
        a, b = u.component(j), v.component(j)
        if a is not b:
            devs += (map(abs, map(operator.sub, sample_u(a), sample_v(b)))
                     if u.kind == "lat" else (abs(a - b),))
    return worst_deviation(*devs)


# JSON surface ---------------------------------------------------------------


def kernel_table(values):
    """Kernel -> position in the JSON kernels table, over the lattice
    functions in the graded values.  Positions follow creation serials, so
    kernels_from_json reproduces the factor order of every term."""
    kernels = {k for v in values if v.kind == "lat"
               for F in v.components.values() for factors in F.terms
               for k, _ in factors}
    return {k: i for i, k in enumerate(sorted(kernels))}


def kernels_from_json(table):
    """Decode a kernels table written as [k.to_json() for k in kernel_table(...)]."""
    if not isinstance(table, list):
        raise LatticeError(f"the kernels table must be a list, got {table!r}")
    kernels = []
    for k in table:
        if not (isinstance(k, dict) and type(k.get("weight")) is int
                and isinstance(k.get("q"), list)):
            raise LatticeError(f"a kernel needs an integer \"weight\" and a \"q\" "
                               f"list, got {k!r}")
        kernels.append(_Kernel(k["weight"], tuple(map(_complex_from_json, k["q"]))))
    return kernels


def _complex_from_json(pair):
    """complex(re, im) of a JSON [re, im] pair; ValueError unless it is two
    finite numbers that a float can hold (json.loads reads a bare NaN or
    Infinity, and an integer of any size) and neither is a JSON boolean."""
    try:
        re, im = pair
        z = None if bool in (type(re), type(im)) else complex(re, im)
    except (TypeError, ValueError, OverflowError):
        z = None
    if z is None or not cmath.isfinite(z):
        raise ValueError(f"expected a [re, im] pair of finite numbers, got {pair!r}")
    return z


def graded_to_json(v, kernel_index=None):
    """Height 1: {"j": [re, im]}.  Height 2: {"j": LatFunction.to_json},
    whose factors refer to kernel_index (from kernel_table)."""
    if v.kind == "lat":
        if kernel_index is None:
            raise LatticeError("height-2 values serialize against a kernel table")
        return {str(j): F.to_json(kernel_index) for j, F in v.components.items()}
    return {str(j): [c.real, c.imag] for j, c in v.components.items()}


def graded_from_json(data, kind="complex", kernels=()):
    """Inverse of graded_to_json; kernels is the decoded kernels table.  A
    degree key is a plain decimal str(j), and every value is read by kind."""
    comp = {}
    for key, val in data.items():
        j = int(key)
        if str(j) != key:
            raise ValueError(f"degree key {key!r} is not a plain decimal such as {str(j)!r}")
        if isinstance(val, dict) != (kind == "lat"):
            raise ValueError(f"the value at degree {key} does not match the declared kind "
                             f"{kind!r}: a \"lat\" value is an object, a \"complex\" one a pair")
        comp[j] = LatFunction.from_json(val, kernels) if kind == "lat" else _complex_from_json(val)
    return GradedValue(kind, comp)
