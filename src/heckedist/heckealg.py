"""Hecke-operator combinatorics on eigenvalues and Fourier indices.

The operators themselves are never materialized; what is computed is their
shadow: Chebyshev transport of normalized eigenvalues between prime powers,
the upper-triangular coset system for a prime power, the descent package
(b, eta, a_s, b~_s) that moves the Hecke action back to a fixed ideal-class
component, the totally-positive-unit indicator governing the diagonal term
of the sum formula, and an exact rational check of the induced coefficient
relation over Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .chebyshev import RAMANUJAN_SLACK, chebyshev_eval
from .errors import (
    DivisibilityViolation,
    EnumerationTooLarge,
    InvalidParameter,
    InvariantViolation,
    NotNarrowSquare,
    NotPrime,
    RamanujanViolation,
    ZeroArgument,
)
from .numberfield import (
    FieldElement,
    FractionalIdeal,
    QuotientModule,
    _rational_factorization,
    _valuation,
    _witness,
    find_generator,
    ideal_from_elements,
    ideal_valuation,
    is_prime_ideal,
    is_rational_prime,
)

COSET_CAP = 10**6  # most coset representatives coset_reps enumerates


def hecke_power_eigenvalue(lam_p: Union[float, Fraction], ell: int):
    """Normalized eigenvalue at the ell-th prime power: X_ell(lam_p)."""
    if abs(float(lam_p)) > 2.0 + RAMANUJAN_SLACK:
        raise RamanujanViolation(f"|lambda| = {abs(float(lam_p))} exceeds 2")
    return chebyshev_eval(ell, lam_p)


# ---------------------------------------------------------------------------
# Coset representatives of the determinant-valuation-ell double coset


@dataclass(frozen=True)
class CosetRep:
    """Upper-triangular representative (pi^(ell-s), beta; 0, pi^s).

    The matrix is recorded as the two diagonal valuations plus the residue
    beta in O/P^(ell-s), stored both as a field element and as its canonical
    index in [0, N(P)^(ell-s)).
    """

    s: int
    upper_valuation: int  # ell - s
    lower_valuation: int  # s
    beta: FieldElement
    beta_index: int


def coset_reps(P: FractionalIdeal, ell: int) -> list[CosetRep]:
    """All (N^(ell+1)-1)/(N-1) coset representatives for P^ell, at most COSET_CAP of them."""
    if not is_prime_ideal(P):
        raise NotPrime("coset decomposition requires a prime ideal")
    if ell < 0:
        raise InvalidParameter("ell must be >= 0")
    np_ = int(P.norm())
    total = (np_ ** (ell + 1) - 1) // (np_ - 1)
    if total > COSET_CAP:
        raise EnumerationTooLarge(f"{total} cosets exceeds cap {COSET_CAP}")
    O = P.field.unit_ideal()
    out = []
    for s in range(ell + 1):
        Q = QuotientModule(O, P ** (ell - s))
        a1, c1 = Q.shape
        for i in range(a1):
            for j in range(c1):
                out.append(CosetRep(s, ell - s, s, Q.element(i, j), i * c1 + j))
    if len(out) != total:
        raise InvariantViolation(f"{len(out)} coset representatives, expected {total}")
    return out


# ---------------------------------------------------------------------------
# Descent data (prime a square in the narrow class group)


@dataclass(frozen=True)
class DescentData:
    """(b, eta, {a_s}, {b~_s}) for P^ell with P*b^2 = (eta), eta totally positive.

    a_s lies in P^s b^ell with v_P(a_s) = s + ell*v_P(b); the shift b~_s is
    normalized to 0 (any integral choice is admissible, and 0 matches the
    principal diagonal case where the unipotent part is absorbed).
    """

    prime: FractionalIdeal
    ell: int
    b_ideal: FractionalIdeal
    eta: FieldElement
    a_elems: tuple[FieldElement, ...]
    b_shifts: tuple[FieldElement, ...]

    def verify(self) -> bool:
        """Exact check of every membership/valuation invariant; raises InvariantViolation."""
        P, ell = self.prime, self.ell
        vb = ideal_valuation(self.b_ideal, P)  # NotPrime unless P is a prime ideal
        if not self.eta.is_totally_positive():
            raise InvariantViolation("eta is not totally positive")
        f = P.field
        if P * self.b_ideal * self.b_ideal != ideal_from_elements(f, [self.eta]):
            raise InvariantViolation("P * b^2 != (eta)")
        target = self.b_ideal**ell  # P^s b^ell, one more P per s
        for s, (a_s, bt_s) in enumerate(zip(self.a_elems, self.b_shifts)):
            if s:
                target = target * P
            if not target.contains(a_s):
                raise InvariantViolation(f"a_{s} not in P^s b^ell")
            if _valuation(a_s, P) != s + ell * vb:
                raise InvariantViolation(f"a_{s} has wrong valuation")
            if not bt_s.is_integral():
                raise InvariantViolation(f"b~_{s} not integral")
            if ell % 2 == 0 and 2 * s == ell:
                u = a_s * a_s / self.eta**ell
                if not (u.is_unit() and u.is_totally_positive()):
                    raise InvariantViolation("midpoint element is not a totally positive unit")
        return True


def _element_with_exact_valuation(J: FractionalIdeal, P: FractionalIdeal,
                                  target: int) -> FieldElement:
    """Element of J with v_P equal to v_P(J); one of the basis elements works."""
    for g in J.basis_elements():
        if _valuation(g, P) == target:
            return g
    raise InvariantViolation("no basis element attains the minimal valuation")


def descent_data(P: FractionalIdeal, ell: int) -> DescentData:
    """Construct descent data for P^ell; P must be a narrow-class-group square."""
    if not is_prime_ideal(P):
        raise NotPrime("descent data requires a prime ideal")
    if ell < 0:
        raise InvalidParameter("ell must be >= 0")
    witness = _witness(P)
    if witness is None:
        raise NotNarrowSquare(
            "prime is not a square in the narrow class group; no descent data"
        )
    b_ideal, eta = witness
    vb = _valuation(b_ideal, P)
    a_elems = []
    J = b_ideal**ell  # P^s b^ell, one more P per s
    for s in range(ell + 1):
        if s:
            J = J * P
        if ell % 2 == 0 and 2 * s == ell:
            a_s = eta ** (ell // 2)
        else:
            a_s = find_generator(J)
            if a_s is None:
                a_s = _element_with_exact_valuation(J, P, s + ell * vb)
        a_elems.append(a_s)
    b_shifts = (P.field.zero(),) * (ell + 1)
    data = DescentData(P, ell, b_ideal, eta, tuple(a_elems), b_shifts)
    data.verify()
    return data


# ---------------------------------------------------------------------------
# Totally-positive-unit indicator


def delta_tilde(r: FieldElement, rp: FieldElement) -> int:
    """1 iff r/r' is a totally positive unit of the ring of integers."""
    if r.is_zero() or rp.is_zero():
        raise ZeroArgument("delta~ needs nonzero arguments")
    q = r / rp
    return int(q.is_unit() and q.is_totally_positive())


# ---------------------------------------------------------------------------
# Exact coefficient relation over Q


def verify_coefficient_relation(lam_p: Union[int, Fraction], p: int, ell: int,
                                r: int, lam_other=None) -> bool:
    """Exact check of X_ell(lam_p) * c(r) = sum_s c(r * p^(ell-2s)) over Q.

    The synthetic multiplicative coefficient system is
    c(prod q^(m_q)) = prod X_(m_q)(lam_q), with lam_q = lam_p at q = p and
    lam_other (default: lam_p as well) at the other primes.
    """
    if not is_rational_prime(p):
        raise NotPrime(f"{p} is not prime")
    if r == 0:
        raise ZeroArgument("r must be nonzero")
    if ell < 0:
        raise InvalidParameter("ell must be >= 0")
    r = abs(r)
    if r % p**ell:
        raise DivisibilityViolation(f"p^ell = {p**ell} does not divide r = {r}")
    lam_p = Fraction(lam_p)
    lam_other = lam_p if lam_other is None else Fraction(lam_other)

    def coeff(m: int) -> Fraction:
        out = Fraction(1)
        for q, e in _rational_factorization(m).items():
            out *= chebyshev_eval(e, lam_p if q == p else lam_other)
        return out

    lhs = chebyshev_eval(ell, lam_p) * coeff(r)
    rhs = Fraction(0)
    for s in range(ell + 1):
        num = r * p**ell
        den = p ** (2 * s)
        if num % den:
            raise InvariantViolation(f"p^(2s) = {den} does not divide r * p^ell = {num}")
        rhs += coeff(num // den)
    return lhs == rhs
