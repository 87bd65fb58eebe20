"""Exact arithmetic for Q and real quadratic fields Q(sqrt(D)).

Everything is written over the integral basis (1, w), where
w = (1+sqrt(D))/2 for D = 1 mod 4 and w = sqrt(D) otherwise, as integer
rows (u, v) ~ u + v*w over a positive denominator.  An element is one row
over its denominator in lowest terms, (u + v*w)/den; a nonzero fractional
ideal is a Hermite-reduced 2-row module basis over its least denominator.  So
equality is a structural comparison, and products, norms, conjugates and
signs of elements and ideals alike come from the same row helpers; powers of
both, kloosterman's powers mod an ideal and square roots mod p from one
square-and-multiply.
Ideal classes are keyed by cycles of reduced binary quadratic forms, and
principal generators are read off the same rho-walk.  Everything is
immutable and exact; floating point appears only in `embeddings`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterable, Optional, Union

from .errors import (
    DegreeUnsupported,
    EnumerationTooLarge,
    InvalidParameter,
    InvariantViolation,
    NotPrime,
    NotSquarefree,
    ZeroArgument,
    ZeroIdeal,
)
from .quadforms import REDUCE_STEPS, Form, is_reduced, principal_form, rho

Rat = Union[int, Fraction]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(a, b) = s*a + t*b, g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _power(base, k: int, mul, one):
    """base**k for k >= 0 by square-and-multiply under the product `mul`."""
    out = one
    while k:
        if k & 1:
            out = mul(out, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return out


def is_squarefree(n: int) -> bool:
    return n >= 1 and all(e == 1 for e in _rational_factorization(n).values())


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_rational_prime(p: int) -> bool:
    """Trial division by the first 13 primes, then Miller-Rabin to those
    bases, which is exact below _MR_BOUND (Sorenson and Webster 2015); a
    larger p with no factor among them raises EnumerationTooLarge."""
    if p < 2 or any(p % q == 0 for q in _MR_BASES):
        return p in _MR_BASES
    if p >= _MR_BOUND:
        raise EnumerationTooLarge(f"{p} is past the deterministic primality bound {_MR_BOUND}")
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


def rational_primes_upto(bound: int) -> list[int]:
    if bound < 2:
        return []
    import numpy as np  # here, so that importing numberfield loads no numpy

    sieve = np.ones(bound + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve).tolist()


def _sqrt_mod_prime(n: int, p: int) -> Optional[int]:
    """Square root of n mod an odd prime p, or None.  Cipolla: for the first
    a >= 1 with d = a^2 - n a non-residue, (a + sqrt(d))^((p+1)/2) in
    F_p(sqrt(d)) lies in F_p and squares to n."""
    n %= p
    if n == 0:
        return 0
    if pow(n, (p - 1) // 2, p) != 1:
        return None
    a = 1
    while pow(d := a * a - n, (p - 1) // 2, p) != p - 1:
        a += 1

    def mul(x, y):
        return (x[0] * y[0] + x[1] * y[1] * d) % p, (x[0] * y[1] + x[1] * y[0]) % p

    return _power((a, 1), (p + 1) // 2, mul, (1, 0))[0]


# ---------------------------------------------------------------------------
# Fields


class Field:
    """Q (degree 1) or a real quadratic field Q(sqrt(D)) (degree 2).

    For degree 2 the integral basis is (1, w); w satisfies
    w^2 = t*w - n with t = Tr(w), n = N(w).  The fundamental unit eps0 > 1 at
    the first place is read off the principal rho-cycle (`_fundamental_unit`).
    """

    def __init__(self, degree: int, D: Optional[int]):
        self.degree = degree
        self.D = D
        if degree == 1:
            self.disc = 1
            self.omega_trace = 0
            self.omega_norm = 0
            self.fundamental_unit = None
            self.unit_norm = None
            return
        if D is None:
            raise InvariantViolation("a quadratic field needs its radicand D")
        if D % 4 == 1:
            self.disc = D
            self.omega_trace = 1
            self.omega_norm = (1 - D) // 4
        else:
            self.disc = 4 * D
            self.omega_trace = 0
            self.omega_norm = -D
        self.fundamental_unit = _fundamental_unit(self)
        self.unit_norm = int(self.fundamental_unit.norm())

    # basic constructors ----------------------------------------------------

    def element(self, x: Rat, y: Rat = 0) -> "FieldElement":
        x, y = Fraction(x), Fraction(y)
        return FieldElement(self, (x.numerator * y.denominator, y.numerator * x.denominator),
                            x.denominator * y.denominator)

    def zero(self) -> "FieldElement":
        return self.element(0)

    def one(self) -> "FieldElement":
        return self.element(1)

    def omega(self) -> "FieldElement":
        if self.degree == 1:
            raise DegreeUnsupported("Q has no quadratic generator")
        return self.element(0, 1)

    def sqrt_D(self) -> "FieldElement":
        """sqrt(D) expressed in the integral basis."""
        if self.degree == 1:
            raise DegreeUnsupported("Q has no quadratic generator")
        if self.D % 4 == 1:
            return self.element(-1, 2)  # 2w - 1
        return self.omega()

    def unit_ideal(self) -> "FractionalIdeal":
        return FractionalIdeal(self, 1, (1,) if self.degree == 1 else (1, 0, 1))

    def ideal(self, *gens) -> "FractionalIdeal":
        elems = [g if isinstance(g, FieldElement) else self.element(g) for g in gens]
        return ideal_from_elements(self, elems)

    # embeddings --------------------------------------------------------------

    def omega_embeddings(self) -> tuple[float, ...]:
        if self.degree == 1:
            return ()
        r = math.sqrt(self.D)
        if self.D % 4 == 1:
            return ((1 + r) / 2, (1 - r) / 2)
        return (r, -r)

    def minkowski_bound(self) -> int:
        if self.degree == 1:
            return 1
        return math.isqrt(self.disc) // 2 + 1

    def __repr__(self):
        if self.degree == 1:
            return "Field(Q)"
        return f"Field(Q(sqrt({self.D})))"

    def __eq__(self, other):
        return isinstance(other, Field) and (self.degree, self.D) == (other.degree, other.D)

    def __hash__(self):
        return hash((self.degree, self.D))


@cache
def make_field(D) -> Field:
    """Build Q (D == "rational") or Q(sqrt(D)) for squarefree D > 1."""
    if D == "rational" or D == 1:
        return Field(1, None)
    if not isinstance(D, int):
        raise DegreeUnsupported(f"unsupported field spec {D!r}")
    if D <= 1:
        raise DegreeUnsupported(f"need a squarefree integer > 1, got {D}")
    if not is_squarefree(D):
        raise NotSquarefree(f"{D} is not squarefree")
    return Field(2, D)


# ---------------------------------------------------------------------------
# Elements


class FieldElement:
    """(u + v*w)/den: integer `row` = (u, v) (v = 0 over Q) and `den` > 0 in lowest
    terms, the row format of `FractionalIdeal`; x + y*w gives the rationals x, y.
    A row with v != 0 over Q raises DegreeUnsupported."""

    __slots__ = ("field", "row", "den")

    def __init__(self, field: Field, row: tuple[int, int], den: int = 1):
        if not den:
            raise ZeroDivisionError("field element with denominator 0")
        if row[1] and field.degree == 1:
            raise DegreeUnsupported("Q elements have no w-coordinate")
        g = math.gcd(*row, den) if den > 0 else -math.gcd(*row, den)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "row", (row[0] // g, row[1] // g))
        object.__setattr__(self, "den", den // g)

    def __setattr__(self, *a):
        raise AttributeError("FieldElement is immutable")

    @property
    def x(self) -> Fraction:
        return Fraction(self.row[0], self.den)

    @property
    def y(self) -> Fraction:
        return Fraction(self.row[1], self.den)

    # ring structure -------------------------------------------------------

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        return self.field.element(other)

    def __add__(self, other):
        o = self._coerce(other)
        (u1, v1), (u2, v2) = self.row, o.row
        return FieldElement(self.field, (u1 * o.den + u2 * self.den, v1 * o.den + v2 * self.den),
                            self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, (-self.row[0], -self.row[1]), self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return FieldElement(self.field, _mul_coords(self.field, self.row, o.row), self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # a/b = a * conj(b) / N(b), and over Q conj(b) = b with N = b^2 on rows
        o = self._coerce(other)
        if o.is_zero():
            raise ZeroDivisionError("division by zero field element")
        u, v = _mul_coords(self.field, self.row, _conj_row(self.field, o.row))
        return FieldElement(self.field, (u * o.den, v * o.den),
                            self.den * _row_norm(self.field, o.row))

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k: int):
        base = self.field.one() / self if k < 0 else self
        return _power(base, abs(k), operator.mul, self.field.one())

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except (ValueError, TypeError):
            return NotImplemented
        return self.row == o.row and self.den == o.den

    def __hash__(self):
        # a rational element hashes like the Fraction it equals
        return hash(self.x) if self.row[1] == 0 else hash((self.field, self.row, self.den))

    # maps -------------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.row == (0, 0)

    def conjugate(self) -> "FieldElement":
        return FieldElement(self.field, _conj_row(self.field, self.row), self.den)

    def trace(self) -> Fraction:
        return Fraction(_row_trace(self.field, self.row), self.den)

    def norm(self) -> Fraction:
        if self.field.degree == 1:
            return self.x
        return Fraction(_row_norm(self.field, self.row), self.den * self.den)

    def embeddings(self) -> tuple[float, ...]:
        x, y = self.row[0] / self.den, self.row[1] / self.den
        if self.field.degree == 1:
            return (x,)
        w1, w2 = self.field.omega_embeddings()
        e1, e2 = x + y * w1, x + y * w2
        # the smaller one cancels when the coefficients are large, so it is the
        # exact N(e) over the larger (both are 0 only for e = 0)
        if abs(e1) >= abs(e2):
            return (e1, self.norm() / e1) if e1 else (e1, e2)
        return (self.norm() / e2, e2)

    def sign_at(self, j: int) -> int:
        """Exact sign of the j-th embedding (j = 0 or 1)."""
        a, b = _sqrtD_row(self.field, self.row)
        if j == 1:
            b = -b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if (a > 0) == (b > 0):
            return 1 if a > 0 else -1
        # opposite signs: compare a^2 against b^2 * D
        big = a * a > b * b * self.field.D
        return (1 if a > 0 else -1) if big else (1 if b > 0 else -1)

    def is_totally_positive(self) -> bool:
        return self.sign_at(0) > 0 and self.sign_at(1) > 0

    def is_integral(self) -> bool:
        return self.den == 1

    def is_unit(self) -> bool:
        return self.is_integral() and abs(self.norm()) == 1

    def to_json(self) -> dict:
        return {"x": str(self.x), "y": str(self.y)}

    def __repr__(self):
        if self.field.degree == 1:
            return f"Elem({self.x})"
        return f"Elem({self.x} + {self.y}*w; D={self.field.D})"


# ---------------------------------------------------------------------------
# Integer rows (u, v) ~ u + v*w, shared by elements and ideals; fractional ideals


def _mul_coords(field: Field, p: tuple[int, int], q: tuple[int, int]) -> tuple[int, int]:
    """(x1 + y1 w)(x2 + y2 w) on integer coordinates, with w^2 = t*w - n."""
    (x1, y1), (x2, y2) = p, q
    t, n = field.omega_trace, field.omega_norm
    return (x1 * x2 - n * y1 * y2, x1 * y2 + y1 * x2 + t * y1 * y2)


def _conj_row(field: Field, p: tuple[int, int]) -> tuple[int, int]:
    """conj(x + y*w) = (x + t*y) - y*w on integer coordinates."""
    x, y = p
    return (x + field.omega_trace * y, -y)


def _row_norm(field: Field, p: tuple[int, int]) -> int:
    """N(x + y*w) on integer coordinates; x^2 over Q, where t = n = 0."""
    x, y = p
    return x * x + field.omega_trace * x * y + field.omega_norm * y * y


def _row_trace(field: Field, p: tuple[int, int]) -> int:
    """Tr(x + y*w) = 2x + t*y on integer coordinates; x over Q."""
    x, y = p
    return x if field.degree == 1 else 2 * x + field.omega_trace * y


def _sqrtD_row(field: Field, p: tuple[int, int]) -> tuple[int, int]:
    """Integers (A, B) with x + y*w a positive multiple of A + B*sqrt(D):
    x + y*w = ((2x + y) + y*sqrt(D))/2 when w = (1 + sqrt(D))/2."""
    x, y = p
    return ((2 * x + y) if field.omega_trace else x, y)


def _hnf_rows_deg2(rows: Iterable[tuple[int, int]]) -> tuple[int, int, int]:
    """Hermite form of the Z-module spanned by rows (u, v) ~ u + v*w.

    Returns (a, b, c) describing Z*a + Z*(b + c*w) with a, c > 0 and
    0 <= b < a for full-rank modules; zero entries signal lower rank.
    """
    a = b = c = 0
    for u, v in rows:
        # (b, c) and (u, v) span the same lattice as (s*b + t*u, g) and
        # (v/g)*(b, c) - (c/g)*(u, v), whose second coordinate is 0
        g, s, t = _xgcd(c, v)
        if g:
            a = math.gcd(a, b * (v // g) - u * (c // g))
            b, c = s * b + t * u, g
        else:
            a = math.gcd(a, u)
    if a:
        b %= a
    return (a, b, c)


_UNIT_HNFS = ((1,), (1, 0, 1))  # the HNF of O over Q and over Q(sqrt(D)), at den 1


class FractionalIdeal:
    """Nonzero fractional ideal as (integral HNF module) / (positive denominator).

    Degree 2 stores (a, b, c): the module Z*a + Z*(b + c*w); degree 1
    stores (a,).  Every construction passes through `_canonicalize`, so
    equality is a plain tuple comparison and no built value is zero or a
    Z-module that is not an ideal.
    """

    __slots__ = ("field", "den", "hnf")

    def __init__(self, field: Field, den: int, hnf: tuple[int, ...]):
        if den <= 0:
            raise ValueError("denominator must be positive")
        den, hnf = _canonicalize(field, den, hnf)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "hnf", hnf)

    def __setattr__(self, *a):
        raise AttributeError("FractionalIdeal is immutable")

    # structure ---------------------------------------------------------------

    def _is_unit_ideal(self) -> bool:
        return self.den == 1 and self.hnf in _UNIT_HNFS

    def is_integral(self) -> bool:
        return self.den == 1

    def int_rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """Integer rows (u, v) of the Z-basis, each standing for (u + v*w)/den.

        Over Q the second row is (0, 0), so both degrees share one shape.
        """
        if self.field.degree == 1:
            return ((self.hnf[0], 0), (0, 0))
        a, b, c = self.hnf
        return ((a, 0), (b, c))

    def basis_elements(self) -> tuple[FieldElement, ...]:
        """Module generators of the ideal over Z (exact field elements)."""
        rows = self.int_rows()[: self.field.degree]
        return tuple(FieldElement(self.field, r, self.den) for r in rows)

    def norm(self) -> Fraction:
        if self.field.degree == 1:
            return Fraction(self.hnf[0], self.den)
        a, _, c = self.hnf
        return Fraction(a * c, self.den * self.den)

    def __eq__(self, other):
        if not isinstance(other, FractionalIdeal):
            return NotImplemented
        return self.field == other.field and self.den == other.den and self.hnf == other.hnf

    def __hash__(self):
        return hash((self.field, self.den, self.hnf))

    def __repr__(self):
        return f"Ideal(den={self.den}, basis={self.hnf})"

    def to_json(self) -> dict:
        return {"den": self.den, "basis": [list(r) for r in self.int_rows()]}

    # arithmetic ---------------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            other = ideal_from_elements(self.field, [other])
        if not isinstance(other, FractionalIdeal):
            return NotImplemented
        if self.field != other.field:
            raise ValueError("ideals of different fields")
        # O is the identity: every P**s starts from it
        if self._is_unit_ideal():
            return other
        if other._is_unit_ideal():
            return self
        # the pairwise products of two Z-bases span the product ideal over Z
        rows = [_mul_coords(self.field, p, q) for p in self.int_rows() for q in other.int_rows()]
        return _ideal_from_rows(self.field, self.den * other.den, rows)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        base = self.inverse() if k < 0 else self
        return _power(base, abs(k), operator.mul, self.field.unit_ideal())

    def __add__(self, other):
        """Ideal sum = gcd."""
        if self.field != other.field:
            raise ValueError("ideals of different fields")
        den = self.den * other.den // math.gcd(self.den, other.den)
        rows = [(u * (den // I.den), v * (den // I.den))
                for I in (self, other) for (u, v) in I.int_rows()]
        return _ideal_from_rows(self.field, den, rows)

    def conjugate(self) -> "FractionalIdeal":
        rows = [_conj_row(self.field, r) for r in self.int_rows()]
        return _ideal_from_rows(self.field, self.den, rows)

    def inverse(self) -> "FractionalIdeal":
        if self._is_unit_ideal():
            return self
        f = self.field
        if f.degree == 1:
            return FractionalIdeal(f, self.hnf[0], (self.den,))
        # M * conj(M) = N(M) * O for the integral part M, so
        # (M/den)^-1 = den * conj(M) / (a*c); conj(M) has M's content c,
        # which is prime to den, so it is the integral part of the conjugate
        a, _, c = self.hnf
        return FractionalIdeal(f, a * c, tuple(v * self.den for v in self.conjugate().hnf))

    def contains(self, e: FieldElement) -> bool:
        if e.field != self.field:
            raise ValueError("element of a different field")
        return self._row_coords(*e.row, e.den) is not None

    def contains_ideal(self, other: "FractionalIdeal") -> bool:
        return all(self._row_coords(u, v, other.den) is not None for (u, v) in other.int_rows())

    def element_coords(self, e: FieldElement) -> tuple[int, ...]:
        """Coordinates of e in the ideal's Z-basis; raises if e not a member."""
        co = self._row_coords(*e.row, e.den)
        if co is None:
            raise ValueError("element not in ideal")
        return co

    def _row_coords(self, u: int, v: int, d: int) -> Optional[tuple[int, ...]]:
        """Coordinates of (u + v*w)/d in the ideal's Z-basis, or None if not a member."""
        if u == 0 and v == 0:
            return (0,) if self.field.degree == 1 else (0, 0)
        x, y = u * self.den, v * self.den
        if x % d or y % d:
            return None
        x, y = x // d, y // d
        if self.field.degree == 1:
            return None if x % self.hnf[0] else (x // self.hnf[0],)
        a, b, c = self.hnf
        if y % c:
            return None
        j = y // c
        i, rest = divmod(x - j * b, a)
        return None if rest else (i, j)


def _canonicalize(field: Field, den: int, hnf: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Stored form of (Z*a + Z*(b + c*w))/den, or (Z*a)/den over Q: a, c > 0,
    0 <= b < a and the least den.  Rank below the degree raises ZeroIdeal, and
    a module that is no ideal, unless c | a, c | b and (a/c) | N(b/c + w)
    (Cohen, GTM 138, 5.2), InvariantViolation; so an ideal's content is c."""
    if field.degree == 1:
        a = abs(hnf[0])
        if not a:
            raise ZeroIdeal("the zero module is not a fractional ideal")
        g = math.gcd(den, a)
        return den // g, (a // g,)
    a, b, c = hnf
    if not (a and c):
        raise ZeroIdeal("a module of rank below 2 is not a fractional ideal")
    a = abs(a)
    if c < 0:
        b, c = -b, -c
    if a % c or b % c or _row_norm(field, (b // c, 1)) % (a // c):
        raise InvariantViolation("module basis is not an ideal")
    g = math.gcd(den, c)
    return den // g, (a // g, b % a // g, c // g)


def _ideal_from_rows(field: Field, den: int, rows: Iterable[tuple[int, int]]) -> FractionalIdeal:
    """The ideal spanned over Z by the rows (u + v*w)/den."""
    if field.degree == 1:
        a = 0
        for u, _ in rows:
            a = math.gcd(a, u)
        return FractionalIdeal(field, den, (a,))
    return FractionalIdeal(field, den, _hnf_rows_deg2(rows))


def ideal_from_elements(field: Field, elems: Iterable[FieldElement]) -> FractionalIdeal:
    """The fractional O_F-ideal generated by the elements; ZeroIdeal if all are 0."""
    elems = list(elems)
    den = math.lcm(*(e.den for e in elems))
    rows = []
    for e in elems:
        # e and e*w span e*O over Z
        p = (e.row[0] * (den // e.den), e.row[1] * (den // e.den))
        rows.append(p)
        if field.degree == 2:
            rows.append(_mul_coords(field, p, (0, 1)))
    return _ideal_from_rows(field, den, rows)


# ---------------------------------------------------------------------------
# Quotients O-module style (shared by the residue and coset machinery)


class QuotientModule:
    """Finite quotient L/Lsub of two fractional ideals with Lsub contained in L.

    A coset is named by integer coordinates (i, j) over the Z-basis of L
    (`L.int_rows()`).  In those coordinates Lsub is the lattice
    Z*(a1, 0) + Z*(b1, c1) given by `sub_hnf`, so every coset has exactly one
    canonical pair with 0 <= i < a1 and 0 <= j < c1 (`shape`), and there are
    `index` = a1*c1 cosets.  Over Q, sub_hnf = (a1, 0, 1) and j is always 0.
    `reduce` and `contains` take Python ints or numpy int64 arrays alike.
    """

    def __init__(self, L: FractionalIdeal, Lsub: FractionalIdeal):
        if L.field != Lsub.field:
            raise ValueError("ideals of different fields")
        if not L.contains_ideal(Lsub):
            raise ValueError("Lsub is not contained in L")
        self.L = L
        self.Lsub = Lsub
        self.field = L.field
        coords = [L._row_coords(u, v, Lsub.den) for (u, v) in Lsub.int_rows()]
        if self.field.degree == 1:
            a1, b1, c1 = abs(coords[0][0]), 0, 1
        else:
            a1, b1, c1 = _hnf_rows_deg2(coords)
        self.sub_hnf = (a1, b1, c1)
        self.shape = (a1, c1)
        self.index = a1 * c1

    def reduce(self, co):
        """Canonical coordinates of the coset of co = (i, j)."""
        a, b, c = self.sub_hnf
        q = co[1] // c
        return ((co[0] - q * b) % a, co[1] - q * c)

    def contains(self, co):
        """Whether co = (i, j) lies in Lsub (a boolean mask for arrays)."""
        a, b, c = self.sub_hnf
        return (co[1] % c == 0) & ((co[0] - (co[1] // c) * b) % a == 0)

    def element(self, i: int, j: int) -> FieldElement:
        """The element of L with coordinates (i, j)."""
        (u1, v1), (u2, v2) = self.L.int_rows()
        return FieldElement(self.field, (i * u1 + j * u2, i * v1 + j * v2), self.L.den)


# ---------------------------------------------------------------------------
# Splitting of rational primes


@dataclass(frozen=True)
class PrimeFactorization:
    p: int
    tag: str  # "split" | "inert" | "ramified"
    primes: tuple[FractionalIdeal, ...]
    residue_degrees: tuple[int, ...]


def _splitting_type(field: Field, p: int) -> str:
    """Splitting tag of a p already known to be prime, without constructing ideals."""
    if field.degree == 1:
        return "inert"
    if field.disc % p == 0:
        return "ramified"
    if p == 2:
        # disc odd here, so D = 1 mod 4; split iff D = 1 mod 8
        return "split" if field.D % 8 == 1 else "inert"
    return "split" if pow(field.disc, (p - 1) // 2, p) == 1 else "inert"


def factor_rational_prime(field: Field, p: int) -> PrimeFactorization:
    """Factor (p) into prime ideals via roots of x^2 - t x + n mod p."""
    if not is_rational_prime(p):
        raise NotPrime(f"{p} is not prime")
    return _factor_prime(field, p)


@cache
def _factor_prime(field: Field, p: int) -> PrimeFactorization:
    """factor_rational_prime for a p already known to be prime, checked once
    and memoised per (field, p)."""
    tag = _splitting_type(field, p)
    if tag == "inert":  # every p over Q
        ideals = (field.ideal(p),)
    else:
        # split or ramified: (p, w - r) for the roots r of x^2 - t x + n mod p
        t, n = field.omega_trace, field.omega_norm
        if p == 2:
            roots = [r for r in (0, 1) if (r * r - t * r + n) % 2 == 0]
        else:
            inv2 = pow(2, p - 2, p)
            s = _sqrt_mod_prime((t * t - 4 * n) % p, p)
            if s is None:
                raise InvariantViolation(f"no square root of the discriminant mod {p}")
            roots = sorted({(t + s) * inv2 % p, (t - s) * inv2 % p})
        ideals = tuple(field.ideal(p, field.omega() - r) for r in roots)
        if len(ideals) != (1 if tag == "ramified" else 2):
            raise InvariantViolation(f"{len(ideals)} roots mod {p} for a {tag} prime")
    degree = field.degree if tag == "inert" else 1
    return PrimeFactorization(p, tag, ideals, (degree,) * len(ideals))


def is_prime_ideal(I: FractionalIdeal) -> bool:
    """Whether I is a nonzero integral prime ideal, read off its integer HNF.

    Over Q, (a,) is prime iff a is.  Over Q(sqrt(D)) the prime ideals are
    Z*p + Z*(b + w), of norm p at a split or ramified p (p | N(b + w) holds
    for every ideal HNF (a, b, 1)), and (p) = (p, 0, p) at an inert p.  No
    other HNF is one.
    """
    if not I.is_integral():
        return False
    if I.field.degree == 1:
        return is_rational_prime(I.hnf[0])
    a, b, c = I.hnf
    if c == 1:
        return is_rational_prime(a)
    return I.hnf == (a, 0, a) and is_rational_prime(a) and _splitting_type(I.field, a) == "inert"


def prime_ideals_of_norm_upto(field: Field, bound: int) -> list[FractionalIdeal]:
    """All prime ideals with norm <= bound, ascending by norm."""
    out = []
    for p in filter(is_rational_prime, range(2, bound + 1)):
        fac = _factor_prime(field, p)
        for P in fac.primes:
            if P.norm() <= bound:
                out.append(P)
    out.sort(key=lambda P: (P.norm(), P.hnf))
    return out


# ---------------------------------------------------------------------------
# Valuations


def _rational_factorization(n: int) -> dict[int, int]:
    n = abs(n)
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _int_valuation(n: int, p: int) -> int:
    """Exponent of the prime p in the nonzero integer n."""
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def ideal_valuation(arg, P: FractionalIdeal) -> int:
    """v_P of a nonzero element or fractional ideal at a prime ideal P.

    Read off integer rows, with no ideal product.  The argument is
    content * (primitive part) / den with content and den rational integers,
    and v_P of an integer n is e*v_p(n) (e = 2 at a ramified p, else 1).  A
    primitive part has no inert factor and at most P^1 at a ramified P; at a
    split p only one of P, conj(P) divides it, to the power v_p of its norm.
    P of norm p has HNF (p, b_P, 1), so w = -b_P mod P and the primitive
    row (u, v) lies in P iff u - v*b_P = 0 mod p.  An element's primitive
    part is its row over gcd(u, v); an ideal's HNF (a, b, c) is
    c * (Z*A + Z*(B + w)) with A = a/c the norm of the primitive row (B, 1).
    """
    if not is_prime_ideal(P):
        raise NotPrime("valuation requires a prime ideal")
    return _valuation(arg, P)


def _valuation(arg, P: FractionalIdeal) -> int:
    """ideal_valuation for a P already known to be a prime ideal."""
    field, hnf = P.field, P.hnf
    p = hnf[0]
    if isinstance(arg, FieldElement):
        if arg.is_zero():
            raise ZeroArgument("valuation of zero")
        (u, v), den = arg.row, arg.den
        content = math.gcd(u, v)
        row = (u // content, v // content)
        nrm = _row_norm(field, row)
    else:
        den = arg.den
        if field.degree == 1:
            content, row, nrm = arg.hnf[0], (1, 0), 1
        else:
            a, b, c = arg.hnf
            content, row, nrm = c, (b // c, 1), a // c
    e = 2 if _splitting_type(field, p) == "ramified" else 1
    val = e * (_int_valuation(content, p) - _int_valuation(den, p))
    if field.degree == 2 and hnf[2] == 1 and (row[0] - row[1] * hnf[1]) % p == 0:
        val += _int_valuation(nrm, p)
    return val


# ---------------------------------------------------------------------------
# Different


@cache
def different_ideal(field: Field) -> FractionalIdeal:
    """The different; its trace-dual inverse satisfies S(x*O) in Z (cached per field)."""
    if field.degree == 1:
        return field.unit_ideal()
    return field.ideal(field.element(-field.omega_trace, 2))  # f'(w) = 2w - t


# ---------------------------------------------------------------------------
# Generators, principality, class groups


def find_generator(M: FractionalIdeal) -> Optional[FieldElement]:
    """A generator of the integral ideal M, or None if M is not principal.

    The generator comes from the rho-walk of `_rho_walk` and is normalised to
    the least (y, N(g) < 0, 2x + t*y < 0) over the generators x + y*w with
    y >= 0; the balanced associate and its two neighbours under eps0 hold
    that least one.  It is checked by its exact norm and by membership.
    """
    field = M.field
    if not M.is_integral():
        raise InvalidParameter("find_generator needs an integral ideal")
    if field.degree == 1:
        return field.element(M.hnf[0])
    p = _rho_walk(M, generator=True)
    if p is None:
        return None
    p = _canonical_row(field, p)
    cands = [q for r in (p, *(_mul_coords(field, p, e) for e in _unit_rows(field)))
             for q in (r, (-r[0], -r[1])) if q[1] >= 0]
    x, y = min(cands, key=lambda q: (q[1], _row_norm(field, q) < 0,
                                     2 * q[0] + field.omega_trace * q[1] < 0))
    a, _, c = M.hnf
    if abs(_row_norm(field, (x, y))) != a * c or M._row_coords(x, y, 1) is None:
        raise InvariantViolation(f"the rho-walk element {(x, y)} does not generate {M}")
    return FieldElement(field, (x, y))


def totally_positive_adjust(g: FieldElement) -> Optional[FieldElement]:
    """The first totally positive sigma * g * eps0^k, sigma = +-1, in the order
    k = 0, 1, -1, 2, -2, ...; None if there is none.

    The embeddings of sigma * g * eps0^k have signs sigma*s0 and
    sigma*s1*N(eps0)^k (s0, s1 those of g; eps0 > 1 at the first place), so
    k = 0 works iff N(g) > 0, k = 1 iff N(g) < 0 and N(eps0) = -1, and no
    other k can succeed first.
    """
    field = g.field
    if field.degree == 1:
        return g if g.x > 0 else -g
    nrm = g.norm()
    if nrm > 0:
        cand = g
    elif nrm < 0 and field.unit_norm == -1:
        cand = g * field.fundamental_unit
    else:
        return None
    return cand if g.sign_at(0) > 0 else -cand


def principal_totally_positive_generator(I: FractionalIdeal) -> Optional[FieldElement]:
    """eta with (eta) = I and eta totally positive, or None."""
    M = FractionalIdeal(I.field, 1, I.hnf)
    g = find_generator(M)
    if g is None:
        return None
    g = totally_positive_adjust(g)
    if g is None:
        return None
    return g / I.den


def _rho_walk(M: FractionalIdeal, generator: bool = False):
    """Walk the form of M through its reduction and once round its rho-cycle.

    The integral part c*(Z*A + Z*(B' + w)) maps to the form
    (A, 2B' + t, N(B' + w)/A) of discriminant disc.  Without `generator`
    return the narrow key of M: the least form with a > 0 on the rho-cycle
    of its reduction (Buchmann-Vollmer, Binary Quadratic Forms, ch. 6;
    Cohen, GTM 138, 5.6-5.7).

    With `generator` return the integer row of a generator of the integral
    part, or None if it is not principal.  The form (a, b, e) has the module
    I = Z*|a| + Z*theta, theta = (b + sqrt(disc))/2 = (b - t)/2 + w, and
    I = (theta/e) * I' for the module I' of rho(a, b, e).  So the walk keeps
    M = (num/den) * I_k, and at the first form with |a| = 1, where I_k = O,
    num/den generates M.  A principal M meets such a form within one cycle
    (Shanks's infrastructure; Lenstra 1982; Cohen, GTM 138, 5.7).
    """
    field, t = M.field, M.field.omega_trace
    a, b, c = M.hnf
    A, B = a // c, b // c
    return _walk_from(field, (A, 2 * B + t, _row_norm(field, (B, 1)) // A), (c, 0), 1, generator)


def _walk_from(field: Field, f: Form, num: tuple[int, int], den: int, generator: bool):
    """The loop of `_rho_walk`, started at the form f with M = (num/den) * (module of f)."""
    Delta, t = field.disc, field.omega_trace
    cycle: list[Form] = []
    steps = 0
    while not cycle or f != cycle[0]:
        if generator and abs(f[0]) == 1:
            if num[0] % den or num[1] % den:
                raise InvariantViolation(f"the rho-walk ends in a non-integral element at {f}")
            return (num[0] // den, num[1] // den)
        if is_reduced(f, Delta):
            # a reduced form has 0 < b < sqrt(Delta) and 0 < |a| < sqrt(Delta),
            # so there are fewer than 2*Delta of them
            if len(cycle) >= 2 * Delta:
                raise InvariantViolation(f"no rho-cycle of reduced forms through {cycle[0]}")
            cycle.append(f)
        elif cycle or steps >= REDUCE_STEPS:
            raise InvariantViolation(f"rho left the reduced forms or never reached them at {f}")
        if generator:
            num = _mul_coords(field, num, ((f[1] - t) // 2, 1))
            den *= f[2]
        f = rho(f, Delta)
        steps += 1
    if generator:
        return None
    return min(g for g in cycle if g[0] > 0)


def _fundamental_unit(field: Field) -> FieldElement:
    """eps0 > 1 at the first place, read off the principal rho-cycle.

    The principal form has module O.  One rho-step from it carries
    O = (theta/e) * I_1, and the walk goes on to the next form with |a| = 1,
    whose module is O again, so the element it carries is a unit.  O is met
    once per period of the cycle, so that unit is +-eps0, already > 1 in
    absolute value at the first place; its sign there is fixed exactly.
    """
    Delta, t = field.disc, field.omega_trace
    P = principal_form(Delta)
    p = _walk_from(field, rho(P, Delta), ((P[1] - t) // 2, 1), P[2], generator=True)
    if p is None or abs(_row_norm(field, p)) != 1:
        raise InvariantViolation(f"the principal rho-cycle of {field} carries no unit")
    # no inversion: each theta = (b + sqrt(Delta))/2 walked in has 0 < b < sqrt(Delta),
    # so |theta_1| > |theta_2|, and dividing by the rational e's keeps that
    eps = FieldElement(field, p)
    if eps.sign_at(0) < 0:
        eps = -eps
    if _abs_embedding_cmp(field, p) <= 0:
        raise InvariantViolation("fundamental unit is not > 1 at the first place")
    return eps


def _key_ideal(field: Field, key: Form) -> FractionalIdeal:
    """The ideal Z*A + Z*((B - t)/2 + w) of the key form (A, B, C); O for the principal form."""
    A, B, _ = key
    return _ideal_from_rows(field, 1, [(A, 0), ((B - field.omega_trace) // 2, 1)])


@dataclass(frozen=True)
class ClassGroupDescription:
    """The wide or narrow class group.  `representatives[0]` is O; the narrow
    tuple is in the order the walk meets the classes, and the wide tuple
    follows that order, one ideal per wide class."""

    order: int
    narrow_order: int
    cyclic_factors: tuple[int, ...]
    representatives: tuple[FractionalIdeal, ...]
    narrow: bool


@cache
def _class_structure(field: Field):
    """(cyclic_factors, representatives) of Cl+, then of Cl, memoised per field.

    Narrow classes are indexed by their `_rho_walk` keys.  The primes below
    the Minkowski bound generate Cl, and (sqrt(D)) is the product of the
    ramified primes above p | D, so with the ramified primes they generate
    Cl+.  N(sqrt(D)) < 0, so Cl = Cl+/<s> for s the narrow class of
    (sqrt(D)), and the wide key of a class g is the lesser of the keys of g
    and g*s.  One walk over the powers of g gives its order in Cl+ (the
    first power at O) and in Cl (the first power at O or s).
    """
    O = field.unit_ideal()
    if field.degree == 1:
        return ((), (O,)), ((), (O,))
    gens = prime_ideals_of_norm_upto(field, field.minkowski_bound())
    for p in sorted(_rational_factorization(field.disc)):
        gens.extend(_factor_prime(field, p).primes)
    index: dict[Form, int] = {}
    reps: list[FractionalIdeal] = []

    def cls_of(M: FractionalIdeal) -> int:
        key = _rho_walk(M)
        if key not in index:
            index[key] = len(reps)
            reps.append(_key_ideal(field, key))
        return index[key]

    cls_of(O)
    gen_cls = sorted({cls_of(P) for P in gens})
    # close the group under multiplication by generator classes
    frontier = [0]
    seen = {0}
    while frontier:
        i = frontier.pop()
        for g in gen_cls:
            k = cls_of(reps[i] * reps[g])
            if k not in seen:
                seen.add(k)
                frontier.append(k)
    s = cls_of(field.ideal(field.sqrt_D()))
    orders: list[int] = []
    wide: dict[Form, int] = {}  # wide key -> order in Cl, in the order of the narrow walk
    for g, key in enumerate(list(index)):
        powers = [g]  # g, g^2, ..., O
        while powers[-1] != 0:
            powers.append(cls_of(reps[powers[-1]] * reps[g]))
        orders.append(len(powers))
        wide.setdefault(min(key, _rho_walk(reps[g] * reps[s])),
                        next(k for k, x in enumerate(powers, 1) if x in (0, s)))
    return ((tuple(_abelian_invariants(orders)), tuple(reps)),
            (tuple(_abelian_invariants(list(wide.values()))),
             tuple(_key_ideal(field, key) for key in wide)))


def _abelian_invariants(orders: list[int]) -> list[int]:
    """Invariant factors, largest first, of a finite abelian group with these element orders.

    The p-part of G is a sum of cyclic groups Z/p^e, and |G[p^k]|/|G[p^(k-1)]|
    is p^r with r the number of them with e >= k, where G[m] is the set of
    elements whose order divides m.  So the first r invariant factors each
    take one more power of p at every k.
    """
    factors: list[int] = []
    for p, e in _rational_factorization(len(orders)).items():
        below = 1
        for k in range(1, e + 1):
            count = sum(1 for o in orders if p**k % o == 0)
            r, q = 0, count // below
            while q > 1:
                q //= p
                r += 1
            below = count
            factors += [1] * (r - len(factors))
            for i in range(r):
                factors[i] *= p
    return factors


def class_group(field: Field, narrow: bool = False) -> ClassGroupDescription:
    """The wide or narrow class group; the first call builds both."""
    narrow_cg, wide_cg = _class_structure(field)
    fac, reps = narrow_cg if narrow else wide_cg
    return ClassGroupDescription(len(wide_cg[1]), len(narrow_cg[1]), fac, reps, narrow)


def _abs_embedding_cmp(field: Field, p: tuple[int, int]) -> int:
    """Exact sign of |e_1| - |e_2| for e = x + y*w on integer coordinates."""
    # e_1^2 - e_2^2 is a positive multiple of A*B*sqrt(D)
    A, B = _sqrtD_row(field, p)
    return (A * B > 0) - (A * B < 0)


def canonical_associate(e: FieldElement) -> FieldElement:
    """Canonical representative of {+-e * eps0^k}: first embedding positive,
    |e_1| >= |e_2|, and strictly unbalanced after one division by eps0.

    The walk runs on the integer row of d*e, d the least common denominator
    (scaling by d > 0 changes no sign or comparison); dividing by eps0 is
    multiplying by N(eps0) * conj(eps0).
    """
    field = e.field
    if e.is_zero():
        return e
    if field.degree == 1:
        return e if e.row[0] > 0 else -e
    return FieldElement(field, _canonical_row(field, e.row), e.den)


def _unit_rows(field: Field) -> tuple[tuple[int, int], tuple[int, int]]:
    """Integer rows of eps0 and eps0^(-1) = N(eps0) * conj(eps0)."""
    eps = field.fundamental_unit.row
    u, v = _conj_row(field, eps)
    return eps, (field.unit_norm * u, field.unit_norm * v)


def _canonical_row(field: Field, p: tuple[int, int]) -> tuple[int, int]:
    """canonical_associate on the integer row of a nonzero element."""
    eps, eps_inv = _unit_rows(field)
    while _abs_embedding_cmp(field, p) < 0:
        p = _mul_coords(field, p, eps)
    while True:
        q = _mul_coords(field, p, eps_inv)
        if _abs_embedding_cmp(field, q) < 0:
            break
        p = q
    # now A*B >= 0, so the first embedding has the sign of A, or of B when A = 0
    A, B = _sqrtD_row(field, p)
    return (-p[0], -p[1]) if A < 0 or (A == 0 and B < 0) else p


def elements_of_norm(field: Field, n: int) -> list[FieldElement]:
    """Canonical associates of all integral elements with |norm| = n."""
    if n <= 0:
        raise InvalidParameter("norm bound must be positive")
    if field.degree == 1:
        return [field.element(n)]
    # the integral ideals of norm n are c*(Z*A + Z*(B + w)) with c^2*A = n,
    # 0 <= B < A and A | N(B + w)
    rows = set()
    for c in range(1, math.isqrt(n) + 1):
        A, rest = divmod(n, c * c)
        if rest:
            continue
        for B in range(A):
            if _row_norm(field, (B, 1)) % A:
                continue
            p = _rho_walk(FractionalIdeal(field, 1, (c * A, c * B, c)), generator=True)
            if p is not None:
                rows.add(_canonical_row(field, p))
    return [FieldElement(field, p) for p in sorted(rows)]


def narrow_square_witness(P: FractionalIdeal) -> Optional[tuple[FractionalIdeal, FieldElement]]:
    """(b, eta) with P*b^2 = (eta), eta totally positive; None if no witness."""
    if not is_prime_ideal(P):
        raise NotPrime("witness requires a prime ideal")
    return _witness(P)


@cache
def _square_classes(field: Field) -> dict[Form, FractionalIdeal]:
    """The least narrow representative b, by (norm, hnf), of each narrow
    class of b^2, keyed by `_rho_walk(b*b)`; memoised per field."""
    roots: dict[Form, FractionalIdeal] = {}
    for b in sorted(class_group(field, narrow=True).representatives,
                    key=lambda I: (I.norm(), I.hnf)):
        roots.setdefault(_rho_walk(b * b), b)
    return roots


@cache
def _witness(P: FractionalIdeal) -> Optional[tuple[FractionalIdeal, FieldElement]]:
    """narrow_square_witness for a P already known to be prime, checked once
    and memoised per P."""
    field = P.field
    if field.degree == 1:
        return field.unit_ideal(), field.element(int(P.norm()))
    # P*conj(P) = (N(P)) is narrowly principal, so P*b^2 is iff b^2 lies
    # in the narrow class of conj(P)
    if (b := _square_classes(field).get(_rho_walk(P.conjugate()))) is None:
        return None
    eta = principal_totally_positive_generator(P * b * b)
    if eta is None or not (eta.is_integral() and eta.is_totally_positive()):
        raise InvariantViolation("a narrow-principal ideal has no totally positive "
                                 "integral generator")
    return b, eta
