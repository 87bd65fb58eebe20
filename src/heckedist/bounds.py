"""Numerical realization of the tail estimates behind the asymptotic formula.

The pieces: the per-place envelope bounding the Bessel transform of the
test function, truncated Euler products with a reported tail bound, the
assembled closed-form bound on the Kloosterman term, the Eisenstein
envelope it absorbs, and an empirical envelope-weighted Kloosterman tail
to compare against.  Hidden implied constants are never asserted; drivers
report fitted empirical ratios instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    DivergentExponent,
    EnumerationTooLarge,
    InvalidParameter,
    InvariantViolation,
    ModulusZero,
)
from .numberfield import Field, _splitting_types, rational_primes_upto

SIEVE_CAP = 10**8  # largest cutoff X whose primes euler_product_tail sieves


@dataclass(frozen=True)
class PlaceParams:
    """One archimedean place: class tag, weight |q_j|, test-function norm."""

    place_class: str  # "E", "Q+" or "Q-"
    q: float = 1.0
    phi_norm: float = 1.0

    def __post_init__(self):
        if self.place_class not in ("E", "Q+", "Q-"):
            raise InvalidParameter(f"bad place class {self.place_class!r}")
        if not (0 < self.q < math.inf and 0 < self.phi_norm < math.inf):
            raise InvalidParameter("q and phi_norm must be positive and finite")


@dataclass(frozen=True)
class BoundParams:
    """tau in (1/4,1/2), eps > 0, gamma in (tau,1/2), U >= 1, A1 > 0, all finite.

    Derived on construction: rho1 = 3/2 - gamma - tau in (1/2, 1),
    rho = rho1 + (1-rho1)*eps, A = A1 + (1-A1)*eps, t0 = tau^2 (1+eps)/2,
    and the convergence flag 2*tau*(1-eps) + 1/2 - eps > 1 for the Euler
    product exponent (recorded here, enforced by euler_product_tail).
    """

    tau: float
    eps: float
    gamma: float
    U: float = 1.0
    A1: float = 3.0
    places: tuple[PlaceParams, ...] = (PlaceParams("Q+"),)

    def __post_init__(self):
        if not (0.25 < self.tau < 0.5):
            raise InvalidParameter("tau must lie in (1/4, 1/2)")
        if not 0 < self.eps < math.inf:
            raise InvalidParameter("eps must be positive and finite")
        if not (self.tau < self.gamma < 0.5):
            raise InvalidParameter("gamma must lie in (tau, 1/2)")
        if not 1 <= self.U < math.inf:
            raise InvalidParameter("U must be >= 1 and finite")
        if not 0 < self.A1 < math.inf:
            raise InvalidParameter("A1 must be positive and finite")
        if not (0.5 < self.rho1 < 1.0):
            raise InvariantViolation(f"rho1 = {self.rho1} outside (1/2, 1)")
        # the asymptotic setting requires a nonempty Q part, but the closed
        # forms evaluate for any partition, so it is not enforced here

    @property
    def rho1(self) -> float:
        return 1.5 - self.gamma - self.tau

    @property
    def rho(self) -> float:
        return self.rho1 + (1.0 - self.rho1) * self.eps

    @property
    def A(self) -> float:
        return self.A1 + (1.0 - self.A1) * self.eps

    @property
    def t0(self) -> float:
        return self.tau**2 * (1.0 + self.eps) / 2.0

    @property
    def euler_exponent(self) -> float:
        return self.eps - 0.5 - 2.0 * self.tau * (1.0 - self.eps)

    @property
    def converges(self) -> bool:
        # 2 tau (1-eps) + 1/2 - eps > 1, i.e. euler_exponent < -1
        return self.euler_exponent < -1.0


# ---------------------------------------------------------------------------
# Envelope of the Bessel transform


def bessel_envelope(
    params: BoundParams,
    r_embs: Sequence[float],
    rp_embs: Sequence[float],
    c_embs: Sequence[float],
    gamma_scalar: float,
) -> float:
    """prod_j min(a_j * (4 pi sqrt|r_j r'_j| / (|c_j| sqrt|gamma|))^(2 tau), b_j).

    The (a_j, b_j) pair depends on the place class: (norm, norm) at E
    places, (|q|^(-A1), |q|) at Q-, (e^(tau^2 U / 2) |q|^rho1, |q|) at Q+.
    """
    if not math.isfinite(gamma_scalar):
        raise InvalidParameter(f"gamma must be finite, got {gamma_scalar}")
    if gamma_scalar == 0:
        raise ModulusZero("gamma must be nonzero")
    if len(r_embs) != len(params.places) or len(c_embs) != len(params.places):
        raise InvalidParameter("embedding vectors must match the place count")
    out = 1.0
    for pl, rj, rpj, cj in zip(params.places, r_embs, rp_embs, c_embs):
        if cj == 0:
            raise ModulusZero("modulus embedding must be nonzero")
        z = 4.0 * math.pi * math.sqrt(abs(rj * rpj)) / (abs(cj) * math.sqrt(abs(gamma_scalar)))
        if pl.place_class == "E":
            a, b = pl.phi_norm, pl.phi_norm
        elif pl.place_class == "Q-":
            a, b = pl.q ** (-params.A1), pl.q
        else:
            a, b = math.exp(params.tau**2 * params.U / 2.0) * pl.q**params.rho1, pl.q
        out *= min(a * z ** (2.0 * params.tau), b)
    return out


# ---------------------------------------------------------------------------
# Truncated Euler products


@dataclass(frozen=True)
class EulerProductResult:
    truncated: float
    tail_bound: float  # multiplicative: full product <= truncated * (1 + tail_bound)
    exponent: float
    cutoff: int
    rational_truncated: float  # same exponent, rational primes (comparison product)
    rational_tail_bound: float


def _tail_log_bound(exponent: float, X: int, per_norm_multiplicity: int) -> float:
    """Upper bound on sum over prime-ideal norms > X of -log(1 - n^exponent).

    Compares against the integer sum: at most `per_norm_multiplicity` prime
    ideals share any given norm, and -log(1-y) <= y/(1-y) for y in (0,1).
    """
    if not exponent < -1.0:
        raise InvariantViolation(f"tail bound needs exponent < -1, got {exponent}")
    top = X**exponent  # largest possible factor argument
    s_int = X ** (exponent + 1.0) / (-exponent - 1.0) + top
    return per_norm_multiplicity * s_int / (1.0 - top)


def euler_product_tail(params: BoundParams, field: Field, X: int,
                       level_norms: Sequence[int] = ()) -> EulerProductResult:
    """prod over prime ideals of norm <= X of 1/(1 - N^e), with a tail bound.

    e = eps - 1/2 - 2 tau (1 - eps) must be < -1, else DivergentExponent.
    `level_norms` holds rational primes p: each drops the rational factor of
    p and every prime-ideal factor above p.  The rational-prime product at
    the same exponent is reported for comparison.  X above SIEVE_CAP raises
    EnumerationTooLarge before anything is sieved.
    """
    if X < 2:
        raise InvalidParameter(f"X must be >= 2, got {X}")
    if X > SIEVE_CAP:
        raise EnumerationTooLarge(f"X = {X} exceeds the sieve cap {SIEVE_CAP}")
    if not params.converges:
        raise DivergentExponent(
            f"exponent {params.euler_exponent:.4f} is not < -1; "
            "need 2 tau (1-eps) + 1/2 - eps > 1"
        )
    e = params.euler_exponent
    skip = set(level_norms)
    primes = [p for p in rational_primes_upto(X) if p not in skip]
    # Python's float pow per prime (numpy's may differ in the last bit), and
    # each product one left fold in prime order
    f = [1.0 / (1.0 - float(p) ** e) for p in primes]
    rational = math.prod(f, start=1.0)
    if field.degree == 1:
        prod = rational
    else:
        factors = []
        for p, fp, tag in zip(primes, f, _splitting_types(field, primes)):
            if tag == "split":
                factors.append(fp**2)
            elif tag == "ramified":
                factors.append(fp)
            elif p * p <= X:
                factors.append(1.0 / (1.0 - float(p * p) ** e))
        prod = math.prod(factors, start=1.0)
    mult = 1 if field.degree == 1 else 2
    tail = math.expm1(_tail_log_bound(e, X, mult))
    rational_tail = math.expm1(_tail_log_bound(e, X, 1))
    return EulerProductResult(prod, tail, e, X, rational, rational_tail)


# ---------------------------------------------------------------------------
# Assembled bounds


def kloosterman_term_bound(params: BoundParams) -> float:
    """e^(t0 U |Q+|) * ||phi_E|| * prod_{Q+} |q|^rho * prod_{Q-} |q|^(-A)."""
    q_plus = [pl for pl in params.places if pl.place_class == "Q+"]
    q_minus = [pl for pl in params.places if pl.place_class == "Q-"]
    e_norm = math.prod(pl.phi_norm for pl in params.places if pl.place_class == "E")
    out = math.exp(params.t0 * params.U * len(q_plus)) * e_norm
    for pl in q_plus:
        out *= pl.q**params.rho
    for pl in q_minus:
        out *= pl.q ** (-params.A)
    return out


def eisenstein_envelope(params: BoundParams) -> float:
    """||phi_E|| * prod_{Q+} |q|^(2 eps); zero when Q- is nonempty."""
    if any(pl.place_class == "Q-" for pl in params.places):
        return 0.0
    e_norm = math.prod(pl.phi_norm for pl in params.places if pl.place_class == "E")
    out = e_norm
    for pl in params.places:
        if pl.place_class == "Q+":
            out *= pl.q ** (2.0 * params.eps)
    return out


def empirical_kloosterman_tail(
    params: BoundParams,
    ks_abs_by_c: dict[int, float],
    r: float = 1.0,
    rp: float = 1.0,
    gamma_scalar: float = 1.0,
) -> float:
    """sum over c of |S(r, r'; c)| * envelope(c) / c, over Q (one place).

    The |S| values are supplied by the caller (typically precomputed once
    with the kloosterman module for a whole parameter grid).
    """
    if len(params.places) != 1:
        raise InvalidParameter("the empirical tail driver is single-place (over Q)")
    total = 0.0
    for c, ks_abs in sorted(ks_abs_by_c.items()):
        env = bessel_envelope(params, [r], [rp], [float(c)], gamma_scalar)
        total += ks_abs * env / float(c)
    return total
