"""Graded coefficients: complex scalars and weight-graded lattice functions.

A GradedValue is a finitely supported map j -> coefficient modeling an even
cohomological degree 2j.  At height 1 the coefficients are complex numbers;
at height 2 they are LatFunctions: weight-j functions F of a based oriented
lattice, F(mu l, mu l') = mu^-j F(l, l').  Lattice functions are represented
by an evaluator plus an exact integer matrix; acting by a positive-
determinant matrix (the "slash") composes matrices exactly, so towers of
slashes never accumulate matrix round-off.  Equality of lattice functions is
numerical agreement on a fixed list of tau samples.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

from .groups import int_mat_det
from .lattices import LatticeError, mat_mul

TOL = 1e-9

# Published evaluation points tau = l'/l with l = 1.
DEFAULT_TAU_SAMPLES = (1j, 2j, 0.5 + 1j, 0.25 + 2j)


def divisor_power_sum(n, k):
    """sigma_k(n), brute force over divisors."""
    if n <= 0:
        return 0
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


class LatFunction:
    """Weight-homogeneous function of a based oriented lattice (l, l').

    Evaluation is kernel(M . (l, l')) with an exact integer matrix M; the
    kernel is an atomic evaluator or a sum/product node over children.
    """

    def __init__(self, weight, kind, payload, matrix=None):
        self.weight = weight
        self.kind = kind          # "q" | "fn" | "sum" | "prod" | "scaled"
        self.payload = payload
        self.matrix = matrix      # 2x2 integer rows, or None for identity

    # construction ----------------------------------------------------------

    @classmethod
    def from_q_expansion(cls, weight, coeffs):
        """F(l, l') = l^-weight * sum_n coeffs[n] q^n with q = exp(2 pi i l'/l)."""
        return cls(weight, "q", _QKernel(weight, tuple(complex(c) for c in coeffs)))

    @classmethod
    def from_evaluator(cls, weight, fn):
        return cls(weight, "fn", fn)

    @classmethod
    def constant(cls, value):
        return cls(0, "fn", lambda l, lp: complex(value))

    # evaluation --------------------------------------------------------------

    def evaluate(self, l, lp):
        if self.matrix is not None:
            (a, b), (c, d) = self.matrix
            l, lp = a * l + b * lp, c * l + d * lp
        if self.kind == "q":
            return self.payload(l, lp)
        if self.kind == "fn":
            return self.payload(l, lp)
        if self.kind == "scaled":
            s, base = self.payload
            return s * base.evaluate(l, lp)
        if self.kind == "sum":
            return sum(child.evaluate(l, lp) for child in self.payload)
        if self.kind == "prod":
            out = 1.0 + 0j
            for child in self.payload:
                out *= child.evaluate(l, lp)
            return out
        raise LatticeError(f"unknown LatFunction kind {self.kind}")

    def at_tau(self, tau):
        return self.evaluate(1.0, tau)

    def values(self, samples=DEFAULT_TAU_SAMPLES):
        return [self.at_tau(t) for t in samples]

    # algebra -----------------------------------------------------------------

    def slash(self, M):
        """The pullback (M*F)(l, l') = F(a l + b l', c l + d l'), same weight.

        M must be a 2x2 integer matrix with positive determinant; repeated
        slashes multiply the matrices exactly.
        """
        if len(M) != 2 or any(len(row) != 2 for row in M):
            raise LatticeError("slash needs a 2x2 matrix")
        if any(x != int(x) for row in M for x in row):
            raise LatticeError("slash matrix entries must be integers")
        M = tuple(tuple(int(x) for x in row) for row in M)
        if int_mat_det([list(r) for r in M]) <= 0:
            raise LatticeError("slash matrix must have positive determinant")
        combined = M if self.matrix is None else mat_mul(self.matrix, M)
        return LatFunction(self.weight, self.kind, self.payload, combined)

    def scale(self, s):
        s = complex(s)
        if s == 1:
            return self
        return LatFunction(self.weight, "scaled", (s, self))

    def __add__(self, other):
        if not isinstance(other, LatFunction):
            return NotImplemented
        if other.weight != self.weight:
            raise LatticeError("can only add lattice functions of equal weight")
        return LatFunction(self.weight, "sum", (self, other))

    def __mul__(self, other):
        if isinstance(other, LatFunction):
            return LatFunction(self.weight + other.weight, "prod", (self, other))
        return self.scale(other)

    __rmul__ = __mul__

    def __repr__(self):
        return f"<LatFunction weight={self.weight} kind={self.kind}>"


class _QKernel:
    """Truncated q-expansion evaluator with memoized lattice evaluations."""

    def __init__(self, weight, coeffs):
        self.weight = weight
        self.coeffs = coeffs
        self._cache = {}

    def __call__(self, l, lp):
        key = (complex(l), complex(lp))
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        l, lp = key
        if l == 0:
            raise LatticeError("degenerate lattice: l = 0")
        tau = lp / l
        if tau.imag <= 0:
            raise LatticeError(f"lattice is not oriented: tau = {tau}")
        q = cmath.exp(2j * cmath.pi * tau)
        # Truncation guard: coefficients grow at most like n^weight, so the
        # dropped tail is bounded by N^(weight+1) |q|^N / (1 - |q|).
        absq = abs(q)
        n_terms = len(self.coeffs)
        tail = n_terms ** (self.weight + 1) * absq ** n_terms / (1 - absq)
        if tail > 1e-10:
            raise LatticeError(
                f"q-expansion with {n_terms} terms cannot reach tolerance at "
                f"|q| = {absq:.4f}; evaluate closer to the fundamental domain "
                f"or store more coefficients")
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * q + c
        out = l ** (-self.weight) * acc
        self._cache[key] = out
        return out


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
    coeffs = [1] + [c * divisor_power_sum(n, weight - 1) for n in range(1, n_terms)]
    return LatFunction.from_q_expansion(weight, coeffs)


def check_weight_homogeneity(F, rng, samples=8, tol=TOL):
    """Max |F(mu l, mu l') - mu^-w F(l, l')| over random sample points."""
    worst = 0.0
    for _ in range(samples):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))
        l = complex(rng.uniform(0.5, 2.0), rng.uniform(-0.3, 0.3))
        mu = complex(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5))
        lhs = F.evaluate(mu * l, mu * l * tau)
        rhs = mu ** (-F.weight) * F.evaluate(l, l * tau)
        worst = max(worst, abs(lhs - rhs))
    return worst


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
            return self.components.get(j, LatFunction(j, "fn", lambda l, lp: 0j))
        return self.components.get(j, 0j)

    @property
    def degrees(self):
        return sorted(self.components)

    def numbers(self, samples=DEFAULT_TAU_SAMPLES):
        """Flat list of complex numbers describing the value (for comparisons)."""
        out = []
        for j in self.degrees:
            v = self.components[j]
            if self.kind == "lat":
                out.extend(v.values(samples))
            else:
                out.append(v)
        return out


def scale_by_degree(r, v):
    """Multiply the j-component by r^j (the degree-2j scaling r^(deg/2))."""
    if r <= 0:
        raise LatticeError("degree scaling requires r > 0")
    if r == 1:
        return v
    if v.kind == "lat":
        comp = {j: F.scale(r ** j) for j, F in v.components.items()}
    else:
        comp = {j: c * (r ** j) for j, c in v.components.items()}
    return GradedValue(v.kind, comp)


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


def graded_scale(s, v):
    """Multiply every component by the scalar s (no degree dependence)."""
    if v.kind == "lat":
        comp = {j: F.scale(s) for j, F in v.components.items()}
    else:
        comp = {j: c * complex(s) for j, c in v.components.items()}
    return GradedValue(v.kind, comp)


def weight_slash(M, F):
    """Matrix action on a lattice function: (M*F)(l,l') = F(M . (l,l'))."""
    return F.slash(M)


def weight_slash_graded(M, v):
    """Apply the slash to every component of a height-2 graded value."""
    if v.kind != "lat":
        raise LatticeError("weight_slash_graded needs lattice-function coefficients")
    return GradedValue("lat", {j: F.slash(M) for j, F in v.components.items()})


def graded_close(u, v, samples=DEFAULT_TAU_SAMPLES, tol=TOL):
    """Numerical equality of two graded values."""
    if u.kind != v.kind:
        return False
    degs = sorted(set(u.degrees) | set(v.degrees))
    for j in degs:
        a, b = u.component(j), v.component(j)
        if u.kind == "lat":
            if not all(abs(x - y) <= tol for x, y in
                       zip(a.values(samples), b.values(samples))):
                return False
        else:
            if abs(a - b) > tol:
                return False
    return True


def graded_deviation(u, v, samples=DEFAULT_TAU_SAMPLES):
    """Max componentwise deviation between two graded values."""
    if u.kind != v.kind:
        raise LatticeError("kind mismatch")
    worst = 0.0
    for j in sorted(set(u.degrees) | set(v.degrees)):
        a, b = u.component(j), v.component(j)
        if u.kind == "lat":
            worst = max(worst, max(
                (abs(x - y) for x, y in zip(a.values(samples), b.values(samples))),
                default=0.0))
        else:
            worst = max(worst, abs(a - b))
    return worst


# JSON surface ---------------------------------------------------------------


def _as_q_coeffs(F):
    """Coefficient array of a lattice function when it is an (optionally
    scalar-scaled) untransformed q-expansion; None otherwise."""
    if F.matrix is not None:
        return None
    if F.kind == "q":
        return list(F.payload.coeffs)
    if F.kind == "scaled":
        s, base = F.payload
        inner = _as_q_coeffs(base)
        if inner is not None:
            return [s * c for c in inner]
    if F.kind == "fn" and F.weight == 0:
        # constants serialize as a length-1 expansion
        try:
            return [F.evaluate(1.0, 1j)]
        except Exception:
            return None
    return None


def graded_to_json(v):
    out = {}
    for j, comp in v.components.items():
        if v.kind == "lat":
            coeffs = _as_q_coeffs(comp)
            if coeffs is not None:
                out[str(j)] = {"weight": j,
                               "q": [[c.real, c.imag] for c in coeffs]}
            else:
                out[str(j)] = {"weight": j,
                               "samples": [[z.real, z.imag] for z in comp.values()]}
        else:
            out[str(j)] = [comp.real, comp.imag]
    return out


def graded_from_json(data, kind="complex"):
    comp = {}
    for key, val in data.items():
        j = int(key)
        if isinstance(val, dict):
            if "q" not in val:
                raise LatticeError(
                    "only q-expansion-backed components round-trip through "
                    "JSON; this value was serialized as samples")
            coeffs = [complex(re, im) for re, im in val["q"]]
            if len(coeffs) == 1 and val["weight"] == 0:
                comp[j] = LatFunction.constant(coeffs[0])   # exact, no tail
            else:
                comp[j] = LatFunction.from_q_expansion(val["weight"], coeffs)
            kind = "lat"
        else:
            comp[j] = complex(val[0], val[1])
    return GradedValue(kind, comp)
