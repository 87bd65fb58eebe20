"""Twisted Kloosterman sums over Q and real quadratic fields.

KS(r, a; r', a; c, c_frak) sums e(S((r x + r' x^(-1))/c)) * conj(chi(x))
over the generators x of the module a*c_frak^(-1) / a*(c), where x^(-1) is
the unique element of a^(-1)*c_frak / a^(-1)*(c)*c_frak^2 with
x*x^(-1) = 1 mod (c)*c_frak, and e(y) = exp(2 pi i y).  Over Q with the
trivial twist this is the classical sum S(r, r'; c).

Residues are integer coordinates over the Z-bases of the two modules, held
in numpy int64 arrays and made canonical by numberfield.QuotientModule.
Over Q(sqrt(D)) the units are the residues outside P*L for every prime P
dividing the modulus; inverses come from one inverse found by an exact scan
and numberfield's square-and-multiply in O/modulus.  Over Q both modules
have one basis element, and their product is 1, so the coordinates are the
units x of Z/N, N = N(modulus), with inverses x^(phi(N)-1) mod N: one Z/N
enumeration that residue_unit_group and classical_weil_table share.  Every
pair is checked against x*x^(-1) = 1 before it is used.  The exponent is
linear in the coordinates, so each term's phase is an integer numerator
modulo one common denominator, reduced exactly before any exponential is
taken; the terms are then accumulated in unit order with Kahan
compensation.  An int64 product that could overflow raises
EnumerationTooLarge instead of wrapping.

Q is the degree-1 case of one path: ks_twisted and weil_check share one sum
core, and both Weil sweeps are one loop over elements_of_norm that builds
the twists' gcd ideals once.  Only the vectorised classical_weil_table has
its own sum.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    EnumerationTooLarge,
    InvalidParameter,
    InvariantViolation,
    ModulusZero,
    PreconditionViolation,
)
from .numberfield import (
    Field,
    FieldElement,
    FractionalIdeal,
    QuotientModule,
    different_ideal,
    elements_of_norm,
    ideal_from_elements,
    is_rational_prime,
    make_field,
    _factor_prime,
    _mul_coords,
    _power,
    _rational_factorization,
)

DEFAULT_RESIDUE_CAP = 10**6
_INT64_LIMIT = 2**63 - 1


# ---------------------------------------------------------------------------
# Residue unit groups


@dataclass(frozen=True, eq=False)
class ResidueUnitGroup:
    """Generators x of L = a*c_frak^(-1) modulo a*(c), with verified inverses.

    Row k of `units` holds the coordinates (i, j) of x over the Z-basis of
    L, canonical for `quotient`; row k of `inverses` holds those of x^(-1)
    over the Z-basis of L^(-1) = a^(-1)*c_frak, reduced for
    `inverse_quotient`.  Over Q the second coordinate is always 0.
    """

    field: Field
    a_ideal: FractionalIdeal
    c: FieldElement
    c_ideal: FractionalIdeal
    modulus: FractionalIdeal  # (c) * c_frak
    units: np.ndarray  # (phi, 2) int64
    inverses: np.ndarray  # (phi, 2) int64
    quotient: QuotientModule
    inverse_quotient: QuotientModule

    def __len__(self):
        return len(self.units)

    def elements(self) -> list[tuple[FieldElement, FieldElement]]:
        """The pairs (x, x^(-1)) as field elements."""
        return [(self.quotient.element(*x), self.inverse_quotient.element(*y))
                for x, y in zip(self.units.tolist(), self.inverses.tolist())]


def _distinct_prime_divisors(field: Field, I: FractionalIdeal) -> list[FractionalIdeal]:
    out = []
    for p in sorted(_rational_factorization(int(I.norm()))):
        for P in _factor_prime(field, p).primes:
            if P.contains_ideal(I):
                out.append(P)
    return out


def _combine(elems, coeffs, mod: QuotientModule):
    """sum of coeffs[n] * elems[n] for O-elements elems[n] = (u, v), reduced in O/modulus."""
    return mod.reduce((coeffs[0] * elems[0][0] + coeffs[1] * elems[1][0],
                       coeffs[0] * elems[0][1] + coeffs[1] * elems[1][1]))


def _check_int64(bound: int):
    if bound > _INT64_LIMIT:
        raise EnumerationTooLarge(f"integer coordinates up to {bound} would overflow int64")


def _pow_mod(field: Field, base, e: int, mod: QuotientModule):
    """base**e in O/modulus by square-and-multiply, reducing after every product."""
    return _power(base, e, lambda p, q: mod.reduce(_mul_coords(field, p, q)),
                  (np.full_like(base[0], 1 % mod.shape[0]), np.zeros_like(base[1])))


def _units_mod(N: int) -> tuple[np.ndarray, np.ndarray]:
    """The units x of Z/N in increasing order and their inverses x^(phi(N)-1) mod N.

    Z/1 has the one unit 0, its own inverse.  Every pair is checked against
    x * x^(-1) = 1 mod N.
    """
    _check_int64(N * N)  # bounds every product below
    keep = np.ones(N, dtype=bool)
    for p in _rational_factorization(N):
        keep[::p] = False
    x = np.flatnonzero(keep).astype(np.int64)
    y = _power(x, len(x) - 1, lambda p, q: p * q % N, np.full_like(x, 1 % N))
    if not np.all(x * y % N == 1 % N):
        raise InvariantViolation("inverse congruence x * x^(-1) = 1 failed")
    return x, y


def _unit_coords(quo: QuotientModule, quo_inv: QuotientModule,
                 mod: QuotientModule) -> tuple[np.ndarray, np.ndarray]:
    """Units of quo = L/L*modulus and their inverses in quo_inv = L^(-1)/L^(-1)*modulus.

    mod is O/modulus.  Returns two (phi, 2) int64 arrays of coordinates over
    the Z-bases of L and L^(-1).
    """
    field, L, Linv = quo.field, quo.L, quo_inv.L
    if field.degree == 1:
        # L = (q) and L^(-1) = (1/q): the coordinate of x^(-1) is the inverse
        # of that of x in Z/N(modulus) once the two basis elements multiply to 1
        if L.hnf[0] * Linv.hnf[0] != L.den * Linv.den:
            raise InvariantViolation("the Z-bases of L and L^(-1) do not multiply to 1")
        x, y = _units_mod(quo.index)
        zero = np.zeros_like(x)
        return np.stack((x, zero), axis=1), np.stack((y, zero), axis=1)
    # every intermediate below is at most this many times N(modulus)^2
    _check_int64((abs(field.omega_norm) + abs(field.omega_trace) + 4) * quo.index**2)
    one = mod.reduce((1, 0))

    # x generates L/L*modulus iff (x) L^(-1) is coprime to the modulus, i.e.
    # x avoids P*L for every prime P dividing the modulus
    a1, c1 = quo.shape
    i, j = np.divmod(np.arange(a1 * c1, dtype=np.int64), c1)
    keep = np.ones(len(i), dtype=bool)
    for P in _distinct_prime_divisors(field, mod.Lsub):
        keep &= ~QuotientModule(L, P * L).contains((i, j))
    x = (i[keep], j[keep])
    phi = len(x[0])

    # products e_m * f_n of the two Z-bases lie in L*L^(-1) = O
    den = L.den * Linv.den
    prod = []
    for f in Linv.int_rows():
        row = []
        for e in L.int_rows():
            u, v = _mul_coords(field, e, f)
            if u % den or v % den:
                raise InvariantViolation("L * L^(-1) is not the ring of integers")
            row.append(mod.reduce((u // den, v // den)))
        prod.append(row)
    # x * f_n for every unit x; then x * y = sum over n of y_n * (x * f_n)
    xf = [_combine(p, x, mod) for p in prod]

    # one inverse y0 of x0 by an exact scan of L^(-1)/L^(-1)*modulus
    b1, d1 = quo_inv.shape
    k, l = np.divmod(np.arange(b1 * d1, dtype=np.int64), d1)
    scan = _combine([(u[:1], v[:1]) for u, v in xf], (k, l), mod)
    hit = np.flatnonzero((scan[0] == one[0]) & (scan[1] == one[1]))
    if len(hit) == 0:
        raise InvariantViolation("no inverse of the first unit residue")
    y0 = (int(k[hit[0]]), int(l[hit[0]]))

    # x^(-1) = y0 * u^(phi-1) with u = x*y0 a unit of O/modulus, u^phi = 1
    s, t = _pow_mod(field, _combine(xf, y0, mod), phi - 1, mod)
    yw = quo_inv.reduce(Linv.element_coords(quo_inv.element(*y0) * field.omega()))
    y = quo_inv.reduce((s * y0[0] + t * yw[0], s * y0[1] + t * yw[1]))

    check = _combine(xf, y, mod)
    if not (np.all(check[0] == one[0]) and np.all(check[1] == one[1])):
        raise InvariantViolation("inverse congruence x * x^(-1) = 1 failed")
    return np.stack(x, axis=1), np.stack(y, axis=1)


def residue_unit_group(
    a_ideal: FractionalIdeal,
    c: FieldElement,
    c_ideal: FractionalIdeal,
    cap: int = DEFAULT_RESIDUE_CAP,
) -> ResidueUnitGroup:
    """Enumerate the unit residues and pair each with its verified inverse."""
    field = a_ideal.field
    if c.is_zero():
        raise ModulusZero("modulus element c must be nonzero")
    c_inv = c_ideal.inverse()
    if not c_inv.contains(c):
        raise PreconditionViolation("c not in c_frak^(-1)")
    modulus = c_ideal * c
    if not modulus.is_integral():
        raise PreconditionViolation("modulus (c)*c_frak is not integral")
    L = a_ideal * c_inv
    Q = QuotientModule(L, L * modulus)  # L * modulus = a*(c)
    if Q.index > cap:
        raise EnumerationTooLarge(f"{Q.index} residues exceeds cap {cap}")
    Linv = a_ideal.inverse() * c_ideal
    Qinv = QuotientModule(Linv, Linv * modulus)
    units, inverses = _unit_coords(Q, Qinv, QuotientModule(field.unit_ideal(), modulus))
    units.setflags(write=False)
    inverses.setflags(write=False)
    return ResidueUnitGroup(field, a_ideal, c, c_ideal, modulus, units, inverses, Q, Qinv)


# ---------------------------------------------------------------------------
# Twist characters


class TwistCharacter:
    """Character of the unit residues mod (c)*c_frak: a value table, or trivial without one.

    Tables are keyed by the canonical residue coordinates of the quotient
    O/(c)*c_frak and are validated for |value| = 1.  Quadratic residue
    (Legendre) twists over Q are provided as a constructor.
    """

    def __init__(self, table: Optional[dict] = None):
        self.table = table
        for k, v in (table or {}).items():
            if abs(abs(complex(v)) - 1.0) > 1e-12:
                raise InvalidParameter(f"character value at {k} is not unimodular")

    @staticmethod
    def legendre(p: int) -> "TwistCharacter":
        """Quadratic residue character mod an odd prime p (over Q)."""
        if p == 2 or not is_rational_prime(p):
            raise InvalidParameter(f"legendre twist needs an odd prime, got {p}")
        table = {}
        for x in range(1, p):
            table[(x,)] = complex(1.0 if pow(x, (p - 1) // 2, p) == 1 else -1.0)
        return TwistCharacter(table)

    def values(self, group: ResidueUnitGroup) -> list[complex]:
        """chi(x) for the units x of the group, in their order."""
        if self.table is None:
            return [1.0 + 0.0j] * len(group)
        return self._lookup(group, (group.units[:, 0], group.units[:, 1]))

    def _lookup(self, group: ResidueUnitGroup, co) -> list[complex]:
        # tables are defined on the O/(c)*c_frak coordinates; this requires
        # the residue module to be the ring of integers itself
        if group.quotient.L != group.field.unit_ideal():
            raise PreconditionViolation(
                "explicit twist tables need a*c_frak^(-1) = O (module = O/(c)c_frak)"
            )
        i, j = group.quotient.reduce(co)
        keys = zip(i.tolist()) if group.field.degree == 1 else zip(i.tolist(), j.tolist())
        out = []
        for key in keys:
            if key not in self.table:
                raise PreconditionViolation(f"character table missing residue {key}")
            out.append(complex(self.table[key]))
        return out

    def verify_multiplicative(self, group: ResidueUnitGroup, tol: float = 1e-12) -> bool:
        """chi(xy) = chi(x) chi(y) over all unit pairs of the group."""
        if self.table is None:
            return True
        chi = np.array(self.values(group))
        # the residue module is O here, so unit coordinates are O-coordinates
        x = group.quotient.reduce((group.units[:, 0], group.units[:, 1]))
        xy = _mul_coords(group.field, (x[0][:, None], x[1][:, None]), (x[0][None, :], x[1][None, :]))
        lhs = np.array(self._lookup(group, (xy[0].ravel(), xy[1].ravel())))
        return bool(np.all(np.abs(lhs - np.outer(chi, chi).ravel()) <= tol))


# ---------------------------------------------------------------------------
# The twisted sum


def _kahan_add(acc, comp, term):
    y = term - comp
    t = acc + y
    comp = (t - acc) - y
    return t, comp


def _phase_numerators(group: ResidueUnitGroup, r: FieldElement, rp: FieldElement,
                      c: FieldElement) -> tuple[np.ndarray, int]:
    """(p, den) with Tr((r*x + r'*x^(-1))/c) = p[k]/den mod 1 for the k-th unit.

    The trace is linear in the coordinates of x and x^(-1), so four
    rational coefficients, brought to one denominator, give every phase.
    """
    field = group.field
    c_inv = field.one() / c
    coeffs = []
    for scale, quo in ((r * c_inv, group.quotient), (rp * c_inv, group.inverse_quotient)):
        for e in (quo.element(1, 0), quo.element(0, 1)):
            coeffs.append((scale * e).trace())
    den = math.lcm(*(cf.denominator for cf in coeffs))
    nums = [int(cf * den) % den for cf in coeffs]
    co = (group.units[:, 0], group.units[:, 1], group.inverses[:, 0], group.inverses[:, 1])
    _check_int64(den * sum(int(np.abs(a).max(initial=0)) for a in co))
    p = sum(n * a for n, a in zip(nums, co)) % den
    return p, den


def _check_twists(r: FieldElement, a_ideal: FractionalIdeal, rp: FieldElement,
                  c_ideal: FractionalIdeal):
    dinv = different_ideal(a_ideal.field).inverse()
    if not r.is_zero() and not (a_ideal.inverse() * dinv).contains(r):
        raise PreconditionViolation("r not in a^(-1) d^(-1)")
    if not rp.is_zero() and not (a_ideal * dinv * c_ideal.inverse() ** 2).contains(rp):
        raise PreconditionViolation("r' not in a d^(-1) c_frak^(-2)")


def _twisted_sum(group: ResidueUnitGroup, r: FieldElement, rp: FieldElement,
                 c: FieldElement, chi: Optional[TwistCharacter]) -> complex:
    """The sum over the units of a group, for twists already checked."""
    phases, den = _phase_numerators(group, r, rp, c)
    acc, comp = 0.0 + 0.0j, 0.0 + 0.0j
    for p, v in zip(phases.tolist(), (chi or TwistCharacter()).values(group)):
        # p/den is the exact phase in [0, 1), rounded once to a float
        term = cmath.exp(2j * math.pi * (p / den)) * v.conjugate()
        acc, comp = _kahan_add(acc, comp, term)
    return acc


def ks_twisted(
    r: FieldElement,
    a_ideal: FractionalIdeal,
    rp: FieldElement,
    c: FieldElement,
    c_ideal: FractionalIdeal,
    chi: Optional[TwistCharacter] = None,
    group: Optional[ResidueUnitGroup] = None,
) -> complex:
    """The twisted Kloosterman sum; classical S(r, r'; c) over Q, trivial chi."""
    _check_twists(r, a_ideal, rp, c_ideal)
    return _twisted_sum(group or residue_unit_group(a_ideal, c, c_ideal), r, rp, c, chi)


def ks_classical(m: int, n: int, c: int, chi: Optional[TwistCharacter] = None) -> complex:
    """S(m, n; c) over Q through the general machinery."""
    Q = make_field("rational")
    O = Q.unit_ideal()
    return ks_twisted(Q.element(m), O, Q.element(n), Q.element(c), O, chi=chi)


# ---------------------------------------------------------------------------
# Weil bound


@dataclass(frozen=True)
class WeilCheck:
    ks_abs: float
    rhs: float
    ratio: float
    gcd_norm: float
    modulus_norm: float
    value: complex  # the sum itself


def _weil_parts(r: FieldElement, a_ideal: FractionalIdeal, rp: FieldElement,
                c_ideal: FractionalIdeal, eps: float) -> list[FractionalIdeal]:
    """Check eps and the twists; the gcd parts (r)*a*d and (r')*c_frak^2*a^(-1)*d.

    A zero twist contributes no part.  The parts do not depend on the
    modulus, so a sweep builds them once.
    """
    if not math.isfinite(eps):
        raise InvalidParameter(f"eps must be finite, got {eps}")
    _check_twists(r, a_ideal, rp, c_ideal)
    field = a_ideal.field
    d = different_ideal(field)
    parts = []
    if not r.is_zero():
        parts.append(ideal_from_elements(field, [r]) * a_ideal * d)
    if not rp.is_zero():
        parts.append(
            ideal_from_elements(field, [rp]) * c_ideal * c_ideal * a_ideal.inverse() * d
        )
    return parts


def _weil_row(group: ResidueUnitGroup, r: FieldElement, rp: FieldElement, c: FieldElement,
              chi: Optional[TwistCharacter], eps: float,
              parts: list[FractionalIdeal]) -> WeilCheck:
    """weil_check on a group, for the gcd parts `_weil_parts` returned."""
    ks = _twisted_sum(group, r, rp, c, chi)
    gcd_norm = float(sum(parts, group.modulus).norm())
    mod_norm = float(group.modulus.norm())
    rhs = math.sqrt(gcd_norm) * mod_norm ** (0.5 + eps)
    ks_abs = abs(ks)
    return WeilCheck(ks_abs, rhs, ks_abs / rhs, gcd_norm, mod_norm, ks)


def weil_check(
    r: FieldElement,
    a_ideal: FractionalIdeal,
    rp: FieldElement,
    c: FieldElement,
    c_ideal: FractionalIdeal,
    chi: Optional[TwistCharacter] = None,
    eps: float = 0.0,
    group: Optional[ResidueUnitGroup] = None,
) -> WeilCheck:
    """|KS| against N(gcd(r a d, r' c_frak^2 a^(-1) d, c c_frak))^(1/2) N(c c_frak)^(1/2+eps)."""
    parts = _weil_parts(r, a_ideal, rp, c_ideal, eps)
    group = group or residue_unit_group(a_ideal, c, c_ideal)
    return _weil_row(group, r, rp, c, chi, eps, parts)


# ---------------------------------------------------------------------------
# Sweep drivers


@dataclass(frozen=True)
class SweepRow:
    c_label: str
    c_norm: float
    ks_abs: float
    imag_abs: float
    weil_rhs: float
    ratio: float


def classical_weil_table(c_max: int, m_max: int = 5, n_max: int = 5):
    """S(m, n; c) for all m <= m_max, n <= n_max, c <= c_max, vectorized.

    High-volume path for sweeps: per modulus, the one Z/c unit enumeration
    that residue_unit_group also uses over Q, then one cosine-table lookup
    for all (m, n) together.  The sums are real, so only the real part is
    accumulated; the general ks_twisted path cross-checks a subsample of
    these values in the test suite.

    Yields (c, m, n, value) with value = S(m, n; c) as a float.
    """
    ms = np.arange(1, m_max + 1, dtype=np.int64)[:, None]
    ns = np.arange(1, n_max + 1, dtype=np.int64)[:, None]
    mn = [(m, n) for m in range(1, m_max + 1) for n in range(1, n_max + 1)]
    for c in range(1, c_max + 1):
        x, x_inv = _units_mod(c)
        # (m*x mod c) + (n*x^(-1) mod c) < 2c indexes the table tiled twice
        cos_table = np.tile(np.cos(2.0 * np.pi * np.arange(c) / c), 2)
        idx = (ms * x % c)[:, None, :] + (ns * x_inv % c)[None, :, :]
        for (m, n), value in zip(mn, cos_table[idx].sum(axis=2).ravel().tolist()):
            yield (c, m, n, value)


def _weil_sweep(field: Field, bound: int, r: int, rp: int, eps: float) -> list[SweepRow]:
    """Weil rows for the canonical moduli c with |N(c)| <= bound, a = c_frak = O, trivial chi.

    Over Q the moduli are c = 1, ..., bound, labelled `c`; over Q(sqrt(D))
    they are labelled `x+yw`.
    """
    O = field.unit_ideal()
    r_el, rp_el = field.element(r), field.element(rp)
    parts = _weil_parts(r_el, O, rp_el, O, eps)
    rows = []
    for n in range(1, bound + 1):
        for c in elements_of_norm(field, n):
            chk = _weil_row(residue_unit_group(O, c, O), r_el, rp_el, c, None, eps, parts)
            label = str(c.x) if field.degree == 1 else f"{c.x}+{c.y}w"
            rows.append(SweepRow(label, float(abs(c.norm())), chk.ks_abs,
                                 abs(chk.value.imag), chk.rhs, chk.ratio))
    return rows


def classical_weil_sweep(c_max: int, m: int = 1, n: int = 1,
                         eps: float = 0.0) -> list[SweepRow]:
    """Classical sums S(m, n; c) for c <= c_max with Weil-bound ratios."""
    return _weil_sweep(make_field("rational"), c_max, m, n, eps)


def quadratic_weil_sweep(field: Field, norm_max: int, r_val: int = 1,
                         rp_val: int = 1, eps: float = 0.0) -> list[SweepRow]:
    """Twisted sums over Q or a real quadratic field for modulus norms <= norm_max."""
    return _weil_sweep(field, norm_max, r_val, rp_val, eps)
