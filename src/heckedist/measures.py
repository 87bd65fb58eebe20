"""Measures for Hecke and Casimir eigenvalue statistics.

Continuous measures on the Hecke interval [-2, 2]: the semicircle measure
mu_inf = (1/pi) sqrt(1 - x^2/4) dx, its p-deformation
mu_p = (p+1)/pi * sqrt(1 - x^2/4) / ((p^(1/2) + p^(-1/2))^2 - x^2) dx,
and the polynomial multiples Phi(ord) = (sum_{l<=ord} X_{2l}) mu_inf.

Spectral measures on the Casimir axis: the even/odd spectral-density pair
with continuous part tanh/coth(pi*sqrt(lambda - 1/4)) on [1/4, inf) plus
discrete-series atoms 2*beta at 1/4 - beta^2, the comparison measure v1
(atoms beta), and their discrete counterparts in the nu-coordinate.  The
atoms in an interval are one progression beta = s + k; the atom masses of
plancherel, v1 and tilde_pl are exact closed forms, and sampling and
tilde_v1's mass, which enumerate the atoms, stop at ATOM_CAP of them.
Every mass is a float: an empty tilde interval has mass 0.0.

The x-measures have exact CDFs in the angle t = arccos(-x/2), which runs
from 0 at x = -2 to pi at x = 2; their samplers invert those CDFs by
safeguarded Newton steps.  The continuous part of plancherel, in
u = sqrt(lambda - 1/4), is one table of 8-point Gauss-Legendre cells and
their running sums (`_cont_table`): its last entry is the mass, and the
spectral sampler interpolates it.  Against the closed forms
int_0^U 2u tanh(pi u) du = U^2 - 1/12 and int_0^U 2u coth(pi u) du =
U^2 + 1/6 it reads within 2.1e-15 relative for lambda from 100.25 to 1e12.

Both samplers draw their random numbers in one serial call, then place the
draws over fixed slices on one thread per CPU (`_over_slices`, which
equidist's label fill uses too).  Each draw sees the same operations
whatever the slice's thread, so the samples do not depend on the CPU count.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass, replace
from fractions import Fraction
from numbers import Integral
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .chebyshev import _chebyshev, chebyshev_eval
from .errors import (
    EnumerationTooLarge,
    InvalidParameter,
    NoDensity,
    ParityMismatch,
    UnboundedRegion,
    ZeroMassRegion,
)

Interval = tuple[float, float]

ATOM_CAP = 10**6  # most atoms that sampling and tilde_v1's mass enumerate

# ---------------------------------------------------------------------------
# Measure specifications


_X_TAGS = ("sato_tate", "padic_sato_tate", "phi")
_SPECTRAL_TAGS = ("plancherel", "v1")
_TILDE_TAGS = ("tilde_pl", "tilde_v1")


@dataclass(frozen=True)
class MeasureSpec:
    """Tagged measure: one of the x-measures, spectral measures, or nu-forms."""

    tag: str
    p: Optional[int] = None
    ord: Optional[int] = None
    xi: Optional[int] = None
    A: float = 2.5
    literal_middle: bool = False  # keep the weightless middle term of v1 verbatim

    def __post_init__(self):
        if self.tag == "padic_sato_tate" and not (isinstance(self.p, Integral) and self.p >= 2):
            raise InvalidParameter(f"padic_sato_tate needs an integer p >= 2, got {self.p!r}")
        if self.tag == "phi" and not (isinstance(self.ord, Integral) and self.ord >= 0):
            raise InvalidParameter(f"phi needs an integer ord >= 0, got {self.ord!r}")
        if self.tag in _SPECTRAL_TAGS + _TILDE_TAGS and self.xi not in (0, 1):
            raise InvalidParameter(f"{self.tag} needs xi in {{0, 1}}")
        if self.tag == "tilde_v1" and not 2 < self.A < math.inf:
            raise InvalidParameter(f"tilde_v1 exponent A must be finite and exceed 2, got {self.A}")
        if self.tag not in _X_TAGS + _SPECTRAL_TAGS + _TILDE_TAGS:
            raise InvalidParameter(f"unknown measure tag {self.tag!r}")

    # constructors ----------------------------------------------------------

    @staticmethod
    def sato_tate() -> "MeasureSpec":
        return MeasureSpec("sato_tate")

    @staticmethod
    def padic(p: int) -> "MeasureSpec":
        return MeasureSpec("padic_sato_tate", p=p)

    @staticmethod
    def phi(ord: int) -> "MeasureSpec":
        return MeasureSpec("phi", ord=ord)

    @staticmethod
    def plancherel(xi: int) -> "MeasureSpec":
        return MeasureSpec("plancherel", xi=xi)

    @staticmethod
    def v1(xi: int, literal_middle: bool = False) -> "MeasureSpec":
        return MeasureSpec("v1", xi=xi, literal_middle=literal_middle)

    @staticmethod
    def tilde_pl(xi: int) -> "MeasureSpec":
        return MeasureSpec("tilde_pl", xi=xi)

    @staticmethod
    def tilde_v1(xi: int, A: float = 2.5) -> "MeasureSpec":
        return MeasureSpec("tilde_v1", xi=xi, A=A)


@dataclass(frozen=True)
class PlaceBox:
    """One archimedean place: lambda-interval, class tag, parity."""

    low: float
    high: float
    place_class: str = "Q+"  # "E", "Q+" or "Q-"
    xi: int = 0


@dataclass(frozen=True)
class SpectralBox:
    places: tuple[PlaceBox, ...]

    def __post_init__(self):
        if not self.places:
            raise InvalidParameter("a spectral box needs at least one place")
        for pl in self.places:
            if pl.place_class not in ("E", "Q+", "Q-"):
                raise InvalidParameter(f"bad place class {pl.place_class!r}")


# ---------------------------------------------------------------------------
# Densities on [-2, 2]


def density(spec: MeasureSpec, x) -> Union[float, np.ndarray]:
    """Pointwise density of a continuous measure; zero outside [-2, 2]."""
    if spec.tag not in _X_TAGS:
        raise NoDensity(f"{spec.tag} has atoms and no pointwise density")
    xs = np.asarray(x, dtype=float)
    if not np.isfinite(xs).all():
        raise InvalidParameter("density needs finite points")
    # the formulas run on the points inside only: squaring one far outside
    # would overflow to warnings for a value that is 0 anyway
    inside = np.abs(xs) <= 2.0
    xi = xs[inside]
    semi = np.sqrt(np.clip(1.0 - xi * xi / 4.0, 0.0, None)) / math.pi
    out = np.zeros(xs.shape)
    if spec.tag == "sato_tate":
        out[inside] = semi
    elif spec.tag == "padic_sato_tate":
        rp = math.sqrt(spec.p)
        out[inside] = (spec.p + 1) * semi / ((rp + 1.0 / rp) ** 2 - xi * xi)
    else:  # phi: density X_ord(x)^2 * mu_inf, the closed form of the even sum
        out[inside] = chebyshev_eval(spec.ord, xi) ** 2 * semi
    return out if isinstance(x, np.ndarray) else float(out)


def _angle_cdf(spec: MeasureSpec, t):
    """CDF of an x-measure at x = -2 cos t, exact in t in [0, pi].

    Phi(ord) has density (2/pi) sin^2(n t) dt with n = ord + 1 (Sato-Tate is
    n = 1), so F = (t - sin(2 n t)/(2 n))/pi.  Summing Serre's expansion
    mu_p = sum_m p^(-m) X_2m mu_inf in closed form gives
    F = (t - (p - 1)/2 * atan2(sin 2t, p - cos 2t))/pi; both terms stay of
    order one, so F(-2) = 0 exactly and rounding stays near 1e-16 for every p.
    """
    if spec.tag == "padic_sato_tate":
        p = spec.p
        return (t - 0.5 * (p - 1) * np.arctan2(np.sin(2.0 * t), p - np.cos(2.0 * t))) / math.pi
    n = 1 if spec.tag == "sato_tate" else spec.ord + 1
    return (t - np.sin(2.0 * n * t) / (2.0 * n)) / math.pi


def _angle_density(spec: MeasureSpec, t):
    """dF/dt at x = -2 cos t: the density times dx/dt = 2 sin t."""
    if spec.tag == "padic_sato_tate":
        p, s2 = spec.p, np.sin(t) ** 2
        return 2.0 * (p + 1) * s2 / (math.pi * ((p - 1) ** 2 / p + 4.0 * s2))
    n = 1 if spec.tag == "sato_tate" else spec.ord + 1
    return (2.0 / math.pi) * np.sin(n * t) ** 2


# ---------------------------------------------------------------------------
# Atoms of the spectral measures


def _atom_range(spec: MeasureSpec, low: float, high: float) -> tuple[float, int, int]:
    """(s, k0, k1): the atoms in [low, high) sit at beta = s + k for k0 <= k < k1.

    plancherel and v1 have them at lambda = 1/4 - beta^2 (k >= 0), where
    lambda < x is (2s + 2k)^2 > 1 - 4x in integers; the nu-forms at nu = beta.
    """
    s = 0.5 if spec.xi == 0 else 1.0 if spec.tag in _SPECTRAL_TAGS else 0.0
    if spec.tag in _TILDE_TAGS:  # tilde_v1 has beta > 0 only
        k0, k1 = (math.ceil(Fraction(x) - Fraction(s)) for x in (low, high))
        return s, max(k0, 0 if s else 1) if spec.tag == "tilde_v1" else k0, k1
    # the least k >= 0 with lambda < x: 2s + 2k > isqrt(floor(1 - 4x)), of the parity of 2s
    k0, k1 = (max(0, (math.isqrt(max(math.floor(1 - 4 * Fraction(x)), 0)) + 2 - int(2 * s)) // 2)
              for x in (high, low))
    return s, k0, k1


def _atoms(spec: MeasureSpec, low: float, high: float) -> tuple[np.ndarray, np.ndarray]:
    """Position and weight arrays of the atoms in [low, high), beta ascending."""
    s, k0, k1 = _atom_range(spec, low, high)
    if k1 - k0 > ATOM_CAP:
        raise EnumerationTooLarge(f"[{low}, {high}) holds more than {ATOM_CAP} atoms")
    beta = (k0 + s) + np.arange(k1 - k0, dtype=float)
    if spec.tag == "tilde_v1":  # Python's float pow: numpy's can differ in the last bit
        return beta, np.array([b ** (-spec.A) for b in beta.tolist()])
    if spec.tag == "tilde_pl":  # with xi = 1 this keeps nu = 0, of weight 0
        return beta, np.abs(beta)
    return 0.25 - beta * beta, 2.0 * beta if spec.tag == "plancherel" else beta


def _atom_mass(spec: MeasureSpec, low: float, high: float) -> float:
    """Total atom weight in [low, high): weights 2 beta, beta and |beta| in closed form."""
    if spec.tag == "tilde_v1":
        return sum(_atoms(spec, low, high)[1].tolist(), 0.0)
    s, k0, k1 = _atom_range(spec, low, high)
    # 2 * sum(s + k for a <= k < b) = (b - a)(2s + a + b - 1), split at beta = 0
    pos, neg = (max(b - a, 0) * (int(2 * s) + a + b - 1)
                for a, b in ((max(k0, 0), k1), (k0, min(k1, 0))))
    try:
        return (pos - neg) / (1 if spec.tag == "plancherel" else 2)
    except OverflowError:  # the exact sum is beyond float range: round it as IEEE does
        return math.inf


# ---------------------------------------------------------------------------
# Mass


def _check_finite(low: float, high: float):
    if not (math.isfinite(low) and math.isfinite(high)):
        raise UnboundedRegion(f"region [{low}, {high}] is not finite")


def _abs_sqrt_antideriv(lam):
    """Antiderivative of |lambda - 1/4|^(-1/2), elementwise."""
    return np.where(lam >= 0.25, 2.0 * np.sqrt(np.clip(lam - 0.25, 0.0, None)),
                    -2.0 * np.sqrt(np.clip(0.25 - lam, 0.0, None)))


def _cont_lower(spec: MeasureSpec) -> float:
    """Lower end of a spectral measure's continuous part: 0 for v1 with xi = 0, else 1/4."""
    return 0.0 if spec.tag == "v1" and spec.xi == 0 else 0.25


def _v1_cont_mass(spec: MeasureSpec, low: float, high):
    """v1's continuous mass of [low, high], elementwise in high: the weighted
    middle term |lambda - 1/4|^(-1/2)/2 up to 5/4, then 1/2 d lambda."""
    lo = max(low, _cont_lower(spec))
    anti = _abs_sqrt_antideriv(np.minimum(high, 1.25)) - _abs_sqrt_antideriv(lo)
    return 0.5 * np.clip(anti, 0.0, None) + 0.5 * np.clip(high - max(low, 1.25), 0.0, None)


# The continuous part of plancherel(xi) is 2u tanh(pi u) du, or 2u coth(pi u)
# du for xi = 1, in u = sqrt(lambda - 1/4).  Its table has _PL_CELLS cells of u
# below _PL_SPLIT and as many above, each integrated by the 8-point
# Gauss-Legendre rule.  Past u = 4, tanh(pi u) = 1 - 2e-22, so both integrands
# are 2u to double precision, which the rule integrates exactly; below it the
# narrow cells resolve the -1/12 (coth: +1/6) by which the mass of [1/4, lambda]
# differs from lambda - 1/4.  The rule is computed here, at import, so that no
# first call pays for importing numpy.polynomial.
_GL8_NODES, _GL8_WEIGHTS = np.polynomial.legendre.leggauss(8)
_PL_CELLS = 512
_PL_SPLIT = 4.0


def _cont_table(spec: MeasureSpec, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """(lambda grid, cumulative mass) of a spectral measure's continuous part
    over [lo, hi], for _cont_lower(spec) <= lo < hi: the last entry is its mass."""
    if spec.tag == "v1":
        gx = np.linspace(lo, hi, 1025)
        return gx, _v1_cont_mass(spec, lo, gx)
    u1, u2 = math.sqrt(lo - 0.25), math.sqrt(hi - 0.25)
    split = min(max(u1, _PL_SPLIT), u2)
    us = np.concatenate([np.linspace(u1, split, _PL_CELLS + 1),
                         np.linspace(split, u2, _PL_CELLS + 1)[1:]])
    mid, half = 0.5 * (us[:-1] + us[1:]), 0.5 * (us[1:] - us[:-1])
    # every node is > 0: inside a cell of positive width, or at u2 > 0 in an
    # empty part, so coth needs no limit at u = 0
    uu = mid[:, None] + half[:, None] * _GL8_NODES
    th = np.tanh(math.pi * uu)
    f = 2.0 * uu * th if spec.xi == 0 else 2.0 * uu / th
    # a sum, not a matrix product: `@` would be the process's first BLAS call
    cells = half * np.sum(_GL8_WEIGHTS * f, axis=1)
    return 0.25 + us * us, np.concatenate([[0.0], np.cumsum(cells)])


def _interval_mass(spec: MeasureSpec, low: float, high: float) -> float:
    _check_finite(low, high)
    if high <= low:
        return 0.0
    if spec.tag in _X_TAGS:
        if low > 0:
            # the x-densities are even, and near x = -2 the CDF is small
            # enough to keep the digits that cdf(high) - cdf(low) cancels at 2
            low, high = -high, -low
        return max(0.0, cdf(spec, high) - cdf(spec, low))
    cont = 0.0  # the nu-forms have atoms only
    if spec.tag == "plancherel" and high > 0.25:
        cont = _cont_table(spec, max(low, 0.25), high)[1][-1]
    elif spec.tag == "v1" and spec.literal_middle:
        # paper-verbatim variant: the middle term carries no test function,
        # so it contributes a constant and the set function is not additive;
        # only the part of [low, high] above 5/4 counts
        cont = (_v1_cont_mass(spec, max(low, 1.25), high)
                + _v1_cont_mass(spec, _cont_lower(spec), 1.25))
    elif spec.tag == "v1":
        cont = _v1_cont_mass(spec, low, high)
    return float(cont) + _atom_mass(spec, low, high)


def mass(spec: MeasureSpec, region: Union[Interval, SpectralBox]) -> float:
    """Measure of an interval [low, high) or a spectral box (atom-half-open)."""
    if isinstance(region, SpectralBox):
        out = 1.0
        for pl in region.places:
            out *= _interval_mass(replace(spec, xi=pl.xi), pl.low, pl.high)
        return out
    low, high = region
    return _interval_mass(spec, float(low), float(high))


# ---------------------------------------------------------------------------
# Discrete-series singleton predictions


def tilde_singleton(xi: Sequence[int], b: Sequence[int], measure: str = "pl",
                    A: float = 2.5):
    """prod (b_j - 1)/2 for the nu-Plancherel singleton; (.)^(-A) variant for v1.

    Exact over the rationals when measure == "pl".
    """
    if len(xi) != len(b):
        raise InvalidParameter("parity vector and weight vector differ in length")
    out: Union[Fraction, float] = Fraction(1)
    for xij, bj in zip(xi, b):
        if bj < 2:
            raise InvalidParameter(f"discrete-series parameter must be >= 2, got {bj}")
        if bj % 2 != xij % 2:
            raise ParityMismatch(f"b = {bj} does not match parity xi = {xij}")
        if measure == "pl":
            out *= Fraction(bj - 1, 2)
        elif measure == "v1":
            if not 2 < A < math.inf:
                raise InvalidParameter(f"A must be finite and exceed 2, got {A}")
            out = float(out) * ((bj - 1) / 2.0) ** (-A)
        else:
            raise InvalidParameter(f"unknown singleton measure {measure!r}")
    return out


# ---------------------------------------------------------------------------
# Moments


def phi_moment(ord: int, ell: int) -> float:
    """Integral of X_ell against Phi(ord); 1 for even ell <= 2*ord, else 0.

    Exact: X_ord^2 = sum_{k <= ord} X_2k, and the X_l are orthonormal.
    """
    if ord < 0:
        raise InvalidParameter("phi needs ord >= 0")
    if ell < 0:
        raise InvalidParameter("ell must be >= 0")
    return 1.0 if ell % 2 == 0 and ell <= 2 * ord else 0.0


def orthonormality_matrix(max_degree: int) -> np.ndarray:
    """Gram matrix of (X_m, X_n) under the semicircle measure, m, n <= max_degree.

    After x = 2 cos t the integrand is (cos((m-n)t) - cos((m+n+2)t))/pi on
    [0, pi], which the midpoint rule on `nodes` points integrates exactly
    while m + n + 2 < 2*nodes; nodes = max(512, max_degree + 2) keeps every
    degree inside that range.  Nothing here calls LAPACK or BLAS, whose first
    call in a process can stall for about a second on an idle machine.
    """
    if max_degree < 0:
        raise InvalidParameter(f"max_degree must be >= 0, got {max_degree}")
    nodes = max(512, max_degree + 2)
    theta = (np.arange(nodes) + 0.5) * (math.pi / nodes)
    weight = math.pi / nodes
    x = 2.0 * np.cos(theta)
    dens = (2.0 / math.pi) * np.sin(theta) ** 2
    vals = np.array(list(itertools.islice(_chebyshev(x), max_degree + 1)))
    return np.einsum("mi,ni->mn", vals * (dens * weight), vals)


# ---------------------------------------------------------------------------
# Closed-form CDFs and seeded inverse-transform sampling

# cells of the t-grid that brackets each u before the Newton steps
_BRACKET_CELLS = 1024
# |F(t) - u| at which a Newton iterate counts as converged: two ulps of 1
_NEWTON_TOL = 2.0 * np.finfo(float).eps
# Newton steps at most.  Random u converge in 2 or 3; u next to a zero of the
# density is a triple root of F - u, where Newton converges only linearly, and
# took up to 44 for ord <= 5000.
_NEWTON_MAX_STEPS = 60


# CPUs this process may run on; BLAS thread variables such as
# OMP_NUM_THREADS do not apply to the threads started here
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# draws per slice of _over_slices.  `sample(phi(0), 10**5)` took, in ms
# (medians of 25 to 60, 2 CPUs, Python 3.11.7, numpy 2.4.6):
#   slice          2^11  2^12  2^13  2^14  2^15  one slice
#   on 1 thread    29.2  24.8  22.6  22.2  25.9  29.4
#   on 2 threads   33.8  22.1  16.2  14.8  18.2
# Small slices stay in cache; too small, and the threads queue for the GIL
# between numpy calls.  2^14 is no faster end to end, and the second
# thread's malloc arena keeps its larger temporaries: perfbench stats-cli
# read a peak RSS of 66.0 MiB at 2^14, 65.1 at 2^13 and 65.05 unthreaded.
_SLICE = 1 << 13


def _over_slices(work: Callable[[int, int], None], n: int):
    """Call work(lo, hi) over the consecutive _SLICE-long slices of range(n).

    The slices are dealt round-robin to k = min(_CPUS, slices) threads, the
    caller's thread among them; numpy releases the GIL inside its loops, so
    the threads run on k CPUs at once.  `work` draws nothing at random and
    writes its own slice of the output only, so each element sees the same
    operations for every k.  Every thread is joined before this returns,
    then the first exception, in thread order, is raised again here.
    """
    slices = [(lo, min(lo + _SLICE, n)) for lo in range(0, n, _SLICE)]
    if not slices:
        return
    k = min(_CPUS, len(slices))
    errors = [None] * k

    def share(j: int):
        try:
            for lo, hi in slices[j::k]:
                work(lo, hi)
        except BaseException as exc:  # raised again in the caller
            errors[j] = exc

    threads = []
    try:
        for j in range(1, k):
            t = threading.Thread(target=share, args=(j,))
            t.start()
            threads.append(t)
        share(0)
    finally:
        for t in threads:
            t.join()
    for exc in errors:
        if exc is not None:
            raise exc


def _require_x_measure(spec: MeasureSpec):
    if spec.tag not in _X_TAGS:
        raise NoDensity(f"{spec.tag} has no CDF on [-2, 2]")


def cdf(spec: MeasureSpec, x) -> Union[float, np.ndarray]:
    """CDF of an x-measure, from its closed form in t = arccos(-x/2)."""
    _require_x_measure(spec)
    xs = np.clip(np.asarray(x, dtype=float), -2.0, 2.0)
    out = np.where(xs >= 2.0, 1.0, np.clip(_angle_cdf(spec, np.arccos(-0.5 * xs)), 0.0, 1.0))
    return out if isinstance(x, np.ndarray) else float(out)


def _inverse_angle_cdf(spec: MeasureSpec, u: np.ndarray) -> np.ndarray:
    """t in [0, pi] with F(t) = u: a grid bracket, then safeguarded Newton.

    The brackets are searched for in ascending u and scattered back: the
    same cells as a search in draw order, but a search over ascending keys
    keeps to one end of the grid at a time and predicts its branches.
    """
    grid = np.linspace(0.0, math.pi, _BRACKET_CELLS + 1)
    f_grid = _angle_cdf(spec, grid)
    order = np.argsort(u)
    i = np.empty(u.size, dtype=np.intp)
    i[order] = np.searchsorted(f_grid, u[order], side="right")
    i = np.clip(i - 1, 0, _BRACKET_CELLS - 1)
    lo, hi = grid[i], grid[i + 1]
    t = lo + (u - f_grid[i]) / (f_grid[i + 1] - f_grid[i]) * (hi - lo)
    todo = np.arange(u.size)
    for _ in range(_NEWTON_MAX_STEPS):
        r = _angle_cdf(spec, t[todo]) - u[todo]
        active = np.abs(r) > _NEWTON_TOL
        todo, r = todo[active], r[active]
        if todo.size == 0:
            break
        tt = t[todo]
        lo[todo] = np.where(r < 0, tt, lo[todo])
        hi[todo] = np.where(r > 0, tt, hi[todo])
        with np.errstate(divide="ignore", invalid="ignore"):
            step = tt - r / _angle_density(spec, tt)
        # non-strict: a converged step may land on the bracket's edge
        inside = (lo[todo] <= step) & (step <= hi[todo])
        t[todo] = np.where(inside, step, 0.5 * (lo[todo] + hi[todo]))
    return t


def sample(spec: MeasureSpec, n: int, seed: int) -> np.ndarray:
    """n inverse-CDF samples from an x-measure, deterministic per seed."""
    if n < 1 or seed < 0:
        raise InvalidParameter(f"need n >= 1 and seed >= 0, got n = {n}, seed = {seed}")
    _require_x_measure(spec)
    u = np.random.default_rng(seed).random(n)
    out = np.empty(n)

    def invert(lo: int, hi: int):
        out[lo:hi] = -2.0 * np.cos(_inverse_angle_cdf(spec, u[lo:hi]))

    _over_slices(invert, n)
    return out


def sample_spectral(spec: MeasureSpec, low: float, high: float, n: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Samples from a spectral measure restricted to [low, high)."""
    _check_finite(low, high)
    if spec.literal_middle:
        # the verbatim middle term is a constant, not a measure
        raise InvalidParameter("a literal_middle spec is not a measure and cannot be sampled")
    # one table gives the continuous mass and the grid: the same float as
    # _interval_mass adds to the same closed-form atom mass
    lo_c = max(low, _cont_lower(spec))
    table = _cont_table(spec, lo_c, high) if spec.tag in _SPECTRAL_TAGS and high > lo_c else None
    total = (float(table[1][-1]) if table is not None else 0.0) + _atom_mass(spec, low, high)
    if total <= 0.0:
        raise ZeroMassRegion(f"no spectral mass in [{low}, {high})")
    pos, weight = _atoms(spec, low, high)
    atom_w = sum(weight.tolist())
    cont = total - atom_w
    grid = None
    if cont > 1e-12 * total and table is not None:
        grid = table[0], table[1] / table[1][-1]
    u = rng.random(n) * total
    # cumsum adds the weights in the order of a running sum
    running, atom_at = np.cumsum(weight), np.append(pos, 0.0)
    out = np.empty(n)

    def place(lo: int, hi: int):
        # the searches run over the slice's u in ascending order, which finds
        # the same value for each u as draw order, faster; the samples go
        # back into draw order at the end
        order = np.argsort(u[lo:hi])
        us = u[lo:hi][order]
        # u falls on the first atom whose running weight exceeds it, else on
        # the continuous part
        k = np.searchsorted(running, us, side="right")
        found = atom_at[k]
        cont_hit = k == pos.size
        if cont_hit.any():
            v = np.clip((us[cont_hit] - atom_w) / max(cont, 1e-300), 0.0, 1.0)
            gx, gcdf = grid
            found[cont_hit] = np.interp(v, gcdf, gx)
        out[lo:hi][order] = found

    _over_slices(place, n)
    return out
