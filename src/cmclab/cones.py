"""Minimal cones over products of round spheres: link spectra, stability,
indicial exponents, and Jacobi fields in the radial class.

The link of the cone over S^p(a) x S^q(b) has squared second fundamental form
p + q when a, b are the minimality radii sqrt(p/(p+q)), sqrt(q/(p+q)).  The
link operator is the Laplacian plus that constant, so its spectrum separates
into sphere harmonics; everything here rests on that closed form.  Eigenvalue
coincidences are decided exactly, on integer keys, never by float equality.
"""

import math
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .grid import (UsageError, _finite, _finite_array, _instance, _integer,
                   _positive)

# Most eigenvalues link_spectrum may list.  Time and memory grow linearly in
# K: at the limit, C(3,3) takes about 0.03 s and 34 MB (tracemalloc peak) on
# one core of a 2-core x86 machine, so an unchecked K of 1e9 would ask for
# tens of GB.
_MAX_EIGENVALUES = 10**6
# Most nodes RadialFunction.from_callable may sample: 80 MB per float64 array.
_MAX_NODES = 10**7


@dataclass(frozen=True)
class CliffordCone:
    """Cone over S^p(a) x S^q(b) inside the unit sphere of R^(p+q+2)."""

    p: int
    q: int
    n: int
    a: float
    b: float
    A2: float


def _sphere_dimensions(p, q, least):
    """p and q as ints, refused unless both are integers >= least whose sum
    is at most 2**53, so that a float holds p, q and p + q exactly."""
    p = _integer(p, "sphere dimension p", least)
    q = _integer(q, "sphere dimension q", least)
    if p + q > 2**53:
        raise UsageError("sphere dimensions must sum to at most 2**53, "
                         "the largest a float holds exactly")
    return p, q


def make_cone(p, q):
    """The minimal product-sphere cone for sphere dimensions p, q >= 1."""
    p, q = _sphere_dimensions(p, q, 1)
    return CliffordCone(p, q, p + q + 1, math.sqrt(p / (p + q)),
                        math.sqrt(q / (p + q)), float(p + q))


def _sphere_mult(p, i):
    """Dimension of the degree-i harmonics on S^p."""
    if i == 0:
        return 1
    return math.comb(i + p, p) - math.comb(i + p - 2, p)


@dataclass(frozen=True)
class SpectralData:
    """Leading spectrum of minus the link operator, smallest first.

    eigenvalues repeats each value according to multiplicity, so entry k is
    the k-th eigenvalue of the spectral sequence; multiplicities[k] is the
    total multiplicity of that entry's value.  gamma_minus/gamma_plus are the
    indicial exponents, present only when the cone is stable.
    """

    eigenvalues: tuple
    multiplicities: tuple
    gamma_minus: float
    gamma_plus: float
    stable: bool


def link_spectrum(cone, K):
    """First K eigenvalues (with multiplicity) of minus the link operator.

    Separated form: a harmonic of degree i on the first factor and j on the
    second contributes mu = i(i+p-1)/a^2 + j(j+q-1)/b^2 - (p+q), with
    multiplicity the product of the harmonic space dimensions, grouped and
    ordered exactly by the integer key (mu + p + q) pq / (p + q).  K is at
    most _MAX_EIGENVALUES = 10^6; a larger K is refused before any work.
    """
    _instance(cone, CliffordCone, "cone")
    K = _integer(K, "eigenvalue count K", 1, _MAX_EIGENVALUES)
    p, q = cone.p, cone.q

    def key(i, j):
        return q * i * (i + p - 1) + p * j * (j + q - 1)

    M = 8
    while True:
        groups = Counter()
        for i in range(M + 1):
            for j in range(M + 1):
                groups[key(i, j)] += _sphere_mult(p, i) * _sphere_mult(q, j)
        # Every pair with i or j > M has a key of at least this bound, so
        # the groups below it are complete.
        bound = min(key(M + 1, 0), key(0, M + 1))
        if sum(m for k, m in groups.items() if k < bound) >= K:
            break
        M *= 2

    evs, mults = [], []
    for k in sorted(groups):
        if len(evs) == K:
            break
        m = groups[k]
        take = min(m, K - len(evs))
        evs += [float(Fraction((p + q) * k, p * q) - (p + q))] * take
        mults += [m] * take

    stable = stability(cone)
    gm = gp = None
    if stable:
        gm, gp = gamma_pm(cone)
    return SpectralData(tuple(evs), tuple(mults), gm, gp, stable)


def stability(cone):
    """Whether the first-eigenvalue defect fits under the Hardy threshold:
    max(-lambda_1, 0) <= (n-2)^2 / 4, decided in integers."""
    s = _instance(cone, CliffordCone, "cone").p + cone.q
    return 4 * s <= (s - 1) ** 2


def indicial_exponents(n, lambda1):
    """Roots gamma of gamma^2 - (n-2) gamma - lambda1 = 0, smaller first.

    These are the decay rates r^(-gamma) of radial Jacobi fields; lambda1 = 0
    is the hyperplane case with exponents (0, n-2).
    """
    n = _integer(n, "cone dimension n", 2)
    half = (_finite(n, "cone dimension n") - 2) / 2.0
    lambda1 = _finite(lambda1, "lambda_1")
    disc = half * half + lambda1
    if disc < 0:
        raise UsageError(
            "indicial roots are complex: stability inequality "
            f"max(-lambda_1, 0) <= (n-2)^2/4 fails ({-lambda1} > {half * half})")
    s = math.sqrt(disc)
    return (half - s, half + s)


def gamma_pm(cone):
    """Indicial exponent pair (gamma_minus, gamma_plus) of a stable cone."""
    if not stability(cone):
        raise UsageError(
            f"cone ({cone.p},{cone.q}) is unstable: max(-lambda_1, 0) = "
            f"{cone.A2} exceeds (n-2)^2/4 = {(cone.n - 2) ** 2 / 4}")
    return indicial_exponents(cone.n, -cone.A2)


@dataclass(frozen=True, eq=False)
class RadialFunction:
    """Samples on a log-uniform radial grid, angular part fixed to the
    constant link eigenfunction."""

    r_min: float
    r_max: float
    values: np.ndarray

    def __post_init__(self):
        r_min, r_max = _radii(self.r_min, self.r_max)
        vals = _finite_array(self.values, "samples")
        if vals.ndim != 1 or len(vals) < 2:
            raise UsageError("need a 1-D array of at least 2 samples")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "r_min", r_min)
        object.__setattr__(self, "r_max", r_max)

    @classmethod
    def from_callable(cls, fn, r_min, r_max, n):
        r_min, r_max = _radii(r_min, r_max)
        n = _integer(n, "node count n", 2, _MAX_NODES)
        fn = _instance(fn, Callable, "sample function")
        f = cls(r_min, r_max, fn(np.geomspace(r_min, r_max, n)))
        if f.n_nodes != n:
            raise UsageError(f"sample function gave {f.n_nodes} values, "
                             f"not {n}")
        return f

    @property
    def n_nodes(self):
        return len(self.values)

    @property
    def r(self):
        return np.geomspace(self.r_min, self.r_max, self.n_nodes)

    @property
    def dt(self):
        """Log-grid spacing."""
        return (math.log(self.r_max) - math.log(self.r_min)) / (self.n_nodes - 1)


def _radii(r_min, r_max):
    """r_min and r_max as floats; UsageError unless 0 < r_min < r_max < inf."""
    r_min, r_max = _positive(r_min, "r_min"), _positive(r_max, "r_max")
    if not r_min < r_max:
        raise UsageError(f"need 0 < r_min < r_max, got {r_min}, {r_max}")
    return r_min, r_max


def _radial_derivatives(f):
    """(r, g, g', g'') of f at its interior nodes, primes in r.

    Second-order central differences in t = log r give g_t and g_tt; then
    g' = g_t / r and g'' = (g_tt - g_t) / r^2.  UsageError unless f is a
    RadialFunction of at least 16 nodes.
    """
    _instance(f, RadialFunction, "radial function f")
    if f.n_nodes < 16:
        raise UsageError(f"need at least 16 nodes, got {f.n_nodes}")
    g = f.values
    dt = f.dt
    gt = (g[2:] - g[:-2]) / (2.0 * dt)
    gtt = (g[2:] - 2.0 * g[1:-1] + g[:-2]) / dt**2
    r = f.r[1:-1]
    return r, g[1:-1], gt / r, (gtt - gt) / r**2


def _jacobi_operator(cone, r, g, g1, g2):
    """The cone's Jacobi operator L_C g = g'' + (n-1) g'/r + A2 g/r^2 on
    radial functions, from the arrays _radial_derivatives returns."""
    return g2 + (cone.n - 1) * g1 / r + cone.A2 * g / r**2


def lc_residual(cone, f):
    """Max interior node value of the cone-linearized operator applied to f,
    from second-order central differences on the log grid."""
    _instance(cone, CliffordCone, "cone")
    Lg = _jacobi_operator(cone, *_radial_derivatives(f))
    return float(np.max(np.abs(Lg)))
