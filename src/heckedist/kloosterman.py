"""Twisted Kloosterman sums over Q and real quadratic fields.

KS(r, a; r', a; c, c_frak) sums e(S((r x + r' x^(-1))/c)) * conj(chi(x))
over the generators x of the module a*c_frak^(-1) / a*(c), where x^(-1) is
the unique element of a^(-1)*c_frak / a^(-1)*(c)*c_frak^2 with
x*x^(-1) = 1 mod (c)*c_frak, and e(y) = exp(2 pi i y).  Over Q with the
trivial twist this is the classical sum S(r, r'; c).

Residues are integer coordinates over the Z-bases of the two modules, held
as tuples of Python ints and made canonical by numberfield.QuotientModule.
The modulus picks one of two paths.  When O/modulus and both modules are
cyclic of order N = N(modulus), generated by their first basis elements e_1
and f_1 (always over Q; over O for every modulus of prime norm), the units
are i*e_1 for the units i of Z/N, and their inverses are j*f_1 with
j = i^(-1) * g^(-1) mod N, g = e_1*f_1 mod modulus; i*i^(-1) = 1 mod N is
checked for every pair and gcd(g, N) = 1 once.  Otherwise the units are the
residues outside P*L for every prime P dividing the modulus, struck out one
arithmetic progression at a time.  An exact scan finds the first f in
L^(-1) with x0*f a unit of O/modulus, x0 the first unit; then every
x^(-1) = f * (x*f)^(-1), and x*x^(-1) = 1 in O/modulus is checked for every
pair.  Both paths invert in batch: the prefix products of the units are
inverted from one power u^(phi-1), three products per unit.  Every check
raises InvariantViolation, also under python -O.  The exponent is linear in
the coordinates, so each term's phase is an integer numerator modulo one
common denominator, reduced exactly before any exponential is taken; the
terms are then accumulated in unit order with Kahan compensation.

Q is the degree-1 case of one path: ks_twisted and weil_check share one sum
core, and both Weil sweeps are one loop over elements_of_norm that builds
the twists' gcd ideals once.  Only the vectorised classical_weil_table has
its own sum, and only it imports numpy: one inverse DFT per prime power q
gives S(m, j; q) for every j, on the units h^i of Z/q with inverses h^(o-i)
read off the reversed exponent (h a generator, a block of prime powers per
doubling pass), and the other moduli follow by twisted multiplicativity.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Optional

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
    rational_primes_upto,
    _conj_row,
    _factor_prime,
    _mul_coords,
    _power,
    _rational_factorization,
    _row_norm,
    _row_trace,
)

RESIDUE_CAP = 10**6  # most residues residue_unit_group enumerates
TABLE_CAP = 10**7  # most (c, m, n) cells classical_weil_table accumulates
_UNIT_TOL = 1e-12  # how far a twist value may stray from the unit circle
_UNIT_BLOCK = 2**15  # most generator powers one doubling pass fills


# ---------------------------------------------------------------------------
# Residue unit groups


@dataclass(frozen=True, eq=False)
class ResidueUnitGroup:
    """Generators x of L = a*c_frak^(-1) modulo a*(c), with verified inverses.

    Row k of `units` holds the coordinates (i, j) of x over the Z-basis of
    L, canonical for `quotient` and in ascending order; row k of `inverses`
    holds those of x^(-1) over the Z-basis of L^(-1) = a^(-1)*c_frak, reduced
    for `inverse_quotient`.  When both quotients are cyclic (always over Q)
    the second coordinate is 0.
    """

    field: Field
    a_ideal: FractionalIdeal
    c: FieldElement
    c_ideal: FractionalIdeal
    modulus: FractionalIdeal  # (c) * c_frak
    units: tuple[tuple[int, int], ...]
    inverses: tuple[tuple[int, int], ...]
    quotient: QuotientModule
    inverse_quotient: QuotientModule

    def __len__(self):
        return len(self.units)

    def elements(self) -> list[tuple[FieldElement, FieldElement]]:
        """The pairs (x, x^(-1)) as field elements."""
        return [(self.quotient.element(*x), self.inverse_quotient.element(*y))
                for x, y in zip(self.units, self.inverses)]


def _distinct_prime_divisors(field: Field, I: FractionalIdeal) -> list[FractionalIdeal]:
    return [P for p in sorted(_rational_factorization(int(I.norm())))
            for P in _factor_prime(field, p).primes if P.contains_ideal(I)]


def _batch_inverse(units: list, mul, inverse) -> list:
    """The inverses of `units` under the product `mul`, from one call of `inverse`.

    With the prefix products P_k = u_0 ... u_k, the P_k^(-1) follow from
    P_(k-1)^(-1) = P_k^(-1) * u_k back to front, and u_k^(-1) = P_k^(-1) *
    P_(k-1): three products per unit.  A list passed as a temporary is
    freed before the inverses are built.
    """
    prefix = list(itertools.accumulate(units, mul))
    inv = list(itertools.accumulate(units[:0:-1], mul, initial=inverse(prefix[-1])))
    del units
    inv.reverse()  # inv[k] = P_k^(-1)
    return [inv[0], *map(mul, inv[1:], prefix)]


def _zn_units(N: int) -> tuple[list[int], list[int]]:
    """The units x of Z/N in increasing order and their inverses mod N.

    Z/1 has the one unit 0, its own inverse.  Every pair is checked against
    x * x^(-1) = 1 mod N.
    """
    keep = bytearray(b"\x01") * N
    for p in _rational_factorization(N):
        keep[::p] = bytes(len(range(0, N, p)))
    x = list(itertools.compress(range(N), keep))
    y = _batch_inverse(x, lambda a, b: a * b % N, lambda a: pow(a, len(x) - 1, N))
    if any(a * b % N != 1 % N for a, b in zip(x, y)):
        raise InvariantViolation("inverse congruence x * x^(-1) = 1 failed")
    return x, y


def _unit_coords(quo: QuotientModule, quo_inv: QuotientModule, mod: QuotientModule):
    """Units of quo = L/L*modulus and their inverses in quo_inv = L^(-1)/L^(-1)*modulus.

    mod is O/modulus.  Returns two tuples of phi rows (i, j): coordinates
    over the Z-bases of L and L^(-1).
    """
    field, L, Linv = quo.field, quo.L, quo_inv.L
    den = L.den * Linv.den

    def product(e, f):
        # e * f for basis rows e of L and f of L^(-1) lies in L*L^(-1) = O
        u, v = _mul_coords(field, e, f)
        if u % den or v % den:
            raise InvariantViolation("L * L^(-1) is not the ring of integers")
        return mod.reduce((u // den, v // den))

    if mod.shape[1] == quo.shape[1] == quo_inv.shape[1] == 1:
        # O/modulus = Z/N, and e_1, f_1 generate L/L*modulus and
        # L^(-1)/L^(-1)*modulus: the units are i*e_1 for the units i of Z/N,
        # with inverses j*f_1, j = i^(-1) * g^(-1) for g = e_1*f_1 mod modulus
        N = mod.index
        g = product(L.int_rows()[0], Linv.int_rows()[0])[0]
        if math.gcd(g, N) != 1:
            raise InvariantViolation("e_1 * f_1 is not a unit modulo the modulus")
        x, y = _zn_units(N)
        if g != 1:  # g = 1 over Q
            g_inv = pow(g, -1, N)
            y = [v * g_inv % N for v in y]
        return tuple(zip(x, itertools.repeat(0))), tuple(zip(y, itertools.repeat(0)))
    # products and reductions in O/modulus = Z^2 / (Z*(a, 0) + Z*(b, c)) run
    # several times per unit, so they are written out here: mul is
    # _mul_coords, and (u, v) reduces to ((u - (v // c)*b) % a, v % c) as in
    # QuotientModule.reduce
    a, b, c = mod.sub_hnf
    tr, nm = field.omega_trace, field.omega_norm
    one = mod.reduce((1, 0))

    def mul(p, q):
        (x1, y1), (x2, y2) = p, q
        yy = y1 * y2
        v = x1 * y2 + y1 * x2 + tr * yy
        return (x1 * x2 - nm * yy - v // c * b) % a, v % c

    # x*y = i*k*(e_1 f_1) + j*k*(e_2 f_1) + i*l*(e_1 f_2) + j*l*(e_2 f_2) in
    # O/modulus for x = (i, j) in L and y = (k, l) in L^(-1)
    (u11, v11), (u21, v21), (u12, v12), (u22, v22) = (
        product(e, f) for f in Linv.int_rows() for e in L.int_rows())

    def times(x, y):
        (i, j), (k, l) = x, y
        ik, jk, il, jl = i * k, j * k, i * l, j * l
        v = ik * v11 + jk * v21 + il * v12 + jl * v22
        return (ik * u11 + jk * u21 + il * u12 + jl * u22 - v // c * b) % a, v % c

    # x generates L/L*modulus iff (x) L^(-1) is coprime to the modulus, i.e.
    # x avoids P*L for every prime P dividing the modulus.  Residue (i, j)
    # has index i*c1 + j, and in column j the residues of P*L are those with
    # i = (j/pc)*pb mod pa, for P*L = Z*(pa, 0) + Z*(pb, pc) in the coordinates of L
    a1, c1 = quo.shape
    keep = bytearray(b"\x01") * quo.index
    for P in _distinct_prime_divisors(field, mod.Lsub):
        pa, pb, pc = QuotientModule(L, P * L).sub_hnf
        for j in range(0, c1, pc):
            start = (j // pc * pb % pa) * c1 + j
            keep[start::pa * c1] = bytes(len(range(start, quo.index, pa * c1)))
    x = list(map(divmod, itertools.compress(range(quo.index), keep), itertools.repeat(c1)))

    # f: the first residue of L^(-1)/L^(-1)*modulus with x0*f a unit u of
    # O/modulus, i.e. u * u^(phi-1) = 1.  The inverse of x0 is such an f, so
    # the scan fails only when x0 has no inverse
    phi = len(x)

    def is_unit(u):
        return mul(u, _power(u, phi - 1, mul, one)) == one

    b1, d1 = quo_inv.shape
    f = next((f for f in itertools.product(range(b1), range(d1)) if is_unit(times(x[0], f))), None)
    if f is None:
        raise InvariantViolation("no inverse of the first unit residue")

    # x^(-1) = f * u^(-1) with u = x*f, a unit of O/modulus for every unit x;
    # u and f*(s + t*w) are linear in the coordinates (i, j) of x and (s, t),
    # and the u^(-1) come from one power by _batch_inverse
    (p1, q1), (p2, q2) = times((1, 0), f), times((0, 1), f)  # e_1*f, e_2*f
    u_inv = _batch_inverse(
        [((i * p1 + j * p2 - (v := i * q1 + j * q2) // c * b) % a, v % c) for i, j in x],
        mul, lambda u: _power(u, phi - 1, mul, one))
    ia, ib, ic = quo_inv.sub_hnf
    (k0, l0), (kw, lw) = f, quo_inv.reduce(
        Linv.element_coords(quo_inv.element(*f) * field.omega()))  # f and f*w
    y = [((s * k0 + t * kw - (v := s * l0 + t * lw) // ic * ib) % ia, v % ic) for s, t in u_inv]
    if any(map(one.__ne__, map(times, x, y))):
        raise InvariantViolation("inverse congruence x * x^(-1) = 1 failed")
    return tuple(x), tuple(y)


def residue_unit_group(
    a_ideal: FractionalIdeal,
    c: FieldElement,
    c_ideal: FractionalIdeal,
) -> ResidueUnitGroup:
    """The unit residues, at most RESIDUE_CAP of them, each paired with its verified inverse."""
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
    if Q.index > RESIDUE_CAP:
        raise EnumerationTooLarge(f"{Q.index} residues exceeds cap {RESIDUE_CAP}")
    Linv = a_ideal.inverse() * c_ideal
    Qinv = QuotientModule(Linv, Linv * modulus)
    units, inverses = _unit_coords(Q, Qinv, QuotientModule(field.unit_ideal(), modulus))
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
            try:
                v = complex(v)
            except (TypeError, ValueError):
                raise InvalidParameter(f"character value at {k} is not a number") from None
            if not abs(abs(v) - 1.0) <= _UNIT_TOL:  # also refuses NaN
                raise InvalidParameter(f"character value at {k} is not unimodular")

    @staticmethod
    def legendre(p: int) -> "TwistCharacter":
        """Quadratic residue character mod an odd prime p (over Q)."""
        if p == 2 or not is_rational_prime(p):
            raise InvalidParameter(f"legendre twist needs an odd prime, got {p}")
        return TwistCharacter({(x,): complex(1.0 if pow(x, (p - 1) // 2, p) == 1 else -1.0)
                               for x in range(1, p)})

    def values(self, group: ResidueUnitGroup) -> list[complex]:
        """chi(x) for the units x of the group, in their order."""
        if self.table is None:
            return [1.0 + 0.0j] * len(group)
        return self._lookup(group, group.units)

    def _lookup(self, group: ResidueUnitGroup, rows) -> list[complex]:
        # tables are defined on the O/(c)*c_frak coordinates; this requires
        # the residue module to be the ring of integers itself
        if group.quotient.L != group.field.unit_ideal():
            raise PreconditionViolation("explicit twist tables need a*c_frak^(-1) = O "
                                        "(module = O/(c)c_frak)")
        keys = (group.quotient.reduce(x)[:group.field.degree] for x in rows)
        try:
            return [complex(self.table[key]) for key in keys]
        except KeyError as exc:
            raise PreconditionViolation(f"character table missing residue {exc.args[0]}") from None

    def verify_multiplicative(self, group: ResidueUnitGroup) -> bool:
        """chi(xy) = chi(x) chi(y) over all unit pairs of the group, within _UNIT_TOL."""
        if self.table is None:
            return True
        chi = self.values(group)
        # the residue module is O here, so unit coordinates are O-coordinates
        x = [group.quotient.reduce(u) for u in group.units]
        lhs = self._lookup(group, [_mul_coords(group.field, p, q) for p in x for q in x])
        return all(abs(v - a * b) <= _UNIT_TOL
                   for v, (a, b) in zip(lhs, itertools.product(chi, chi)))


# ---------------------------------------------------------------------------
# The twisted sum


def _phase_numerators(group: ResidueUnitGroup, r: FieldElement, rp: FieldElement,
                      c: FieldElement) -> tuple[list[int], int]:
    """(p, den) with Tr((r*x + r'*x^(-1))/c) = p[k]/den mod 1 for the k-th unit.

    The trace is linear in the coordinates of x and x^(-1), so four
    rational coefficients, brought to one denominator, give every phase.
    """
    field = group.field
    # s*b/c = s.row*b_row*conj(c.row)*c.den / (s.den*L.den*N(c.row)) for s = r, r'
    # and b a Z-basis row of L, on integer rows
    c_conj, c_norm = _conj_row(field, c.row), _row_norm(field, c.row)
    fracs = []
    for s, L in ((r, group.quotient.L), (rp, group.inverse_quotient.L)):
        sc = _mul_coords(field, s.row, c_conj)
        for b in L.int_rows():
            num = _row_trace(field, _mul_coords(field, sc, b)) * c.den
            d = s.den * L.den * c_norm
            g = math.gcd(num, d) if d > 0 else -math.gcd(num, d)
            fracs.append((num // g, d // g))
    den = math.lcm(*(d for _, d in fracs))
    n0, n1, n2, n3 = (n * (den // d) % den for n, d in fracs)
    p = [(n0 * i + n1 * j + n2 * k + n3 * l) % den
         for (i, j), (k, l) in zip(group.units, group.inverses)]
    return p, den


def _check_twists(r: FieldElement, a_ideal: FractionalIdeal, rp: FieldElement,
                  c_ideal: FractionalIdeal):
    dinv = different_ideal(a_ideal.field).inverse()
    if not r.is_zero() and not (a_ideal.inverse() * dinv).contains(r):
        raise PreconditionViolation("r not in a^(-1) d^(-1)")
    if not rp.is_zero() and not (a_ideal * dinv * c_ideal.inverse() ** 2).contains(rp):
        raise PreconditionViolation("r' not in a d^(-1) c_frak^(-2)")


def _group_for(a_ideal: FractionalIdeal, c: FieldElement, c_ideal: FractionalIdeal,
               group: Optional[ResidueUnitGroup]) -> ResidueUnitGroup:
    """A new residue group for a, (c) and c_frak, or the given one checked against them;
    it serves every c' with c'/c a unit, since a*(c') = a*(c)."""
    if group is None:
        return residue_unit_group(a_ideal, c, c_ideal)
    if not (group.a_ideal == a_ideal and group.c_ideal == c_ideal and (c / group.c).is_unit()):
        raise PreconditionViolation("the residue group was built for another a, (c) or c_frak")
    return group


def _twisted_sum(group: ResidueUnitGroup, r: FieldElement, rp: FieldElement,
                 c: FieldElement, chi: Optional[TwistCharacter]) -> complex:
    """The sum over the units of a group, for twists already checked."""
    phases, den = _phase_numerators(group, r, rp, c)
    tau, exp = 2j * math.pi, cmath.exp
    acc, comp = 0.0 + 0.0j, 0.0 + 0.0j
    for p, v in zip(phases, map(complex.conjugate, (chi or TwistCharacter()).values(group))):
        # p/den is the exact phase in [0, 1), rounded once to a float; the
        # term is added with Kahan compensation
        y = exp(tau * (p / den)) * v - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
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
    """The twisted Kloosterman sum; classical S(r, r'; c) over Q, trivial chi.

    A `group` built for another a, c_frak or ideal (c) raises PreconditionViolation, in
    weil_check too."""
    _check_twists(r, a_ideal, rp, c_ideal)
    return _twisted_sum(_group_for(a_ideal, c, c_ideal, group), r, rp, c, chi)


def ks_classical(m: int, n: int, c: int, chi: Optional[TwistCharacter] = None) -> complex:
    """S(m, n; c) over Q through ks_twisted, whose residue group is the cyclic case Z/|c|."""
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
        parts.append(ideal_from_elements(field, [rp]) * c_ideal * c_ideal * a_ideal.inverse() * d)
    return parts


def _weil_row(group: ResidueUnitGroup, r: FieldElement, rp: FieldElement, c: FieldElement,
              eps: float, parts: list[FractionalIdeal]) -> WeilCheck:
    """weil_check on a group, for the gcd parts `_weil_parts` returned."""
    ks = _twisted_sum(group, r, rp, c, None)
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
    eps: float = 0.0,
    group: Optional[ResidueUnitGroup] = None,
) -> WeilCheck:
    """|KS| against N(gcd(r a d, r' c_frak^2 a^(-1) d, c c_frak))^(1/2) N(c c_frak)^(1/2+eps)."""
    parts = _weil_parts(r, a_ideal, rp, c_ideal, eps)
    return _weil_row(_group_for(a_ideal, c, c_ideal, group), r, rp, c, eps, parts)


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


def _check_int64(bound: int):
    if bound >= 2**63:  # past the int64 range
        raise EnumerationTooLarge(f"integer coordinates up to {bound} would overflow int64")


def _generator_powers(h, q, n: int):
    """h^i mod q for i < n, a row per entry of the int64 arrays h and q,
    filled by doubling: pw[:, s:2s] = pw[:, :s] * h^s mod q."""
    import numpy as np

    pw = np.empty((len(q), n), dtype=np.int64)
    pw[:, 0], q, hs, s = 1, q[:, None], h[:, None], 1  # hs = h^s mod q
    while s < n:
        np.remainder(pw[:, :min(s, n - s)] * hs, q, out=pw[:, s:2 * s])
        hs, s = hs * hs % q, 2 * s
    return pw


def _prime_power_units(c_max: int):
    """Yield (p, k, q, x, y) for each prime power q = p^k <= c_max, by p and
    then k: the units x of Z/q and their inverses y, as int64 arrays.

    x = h^i for i < o, y = h^(o-i) off the reversed exponent; h of order o is
    the least primitive root g mod p, or g + p if g^(p-1) = 1 mod p^2, and
    for q = 2^k, k >= 2, x = +-5^i, o = 2^(k-2).  One doubling pass fills
    h^0, ..., h^o for a block of consecutive prime powers, up to _UNIT_BLOCK
    powers.  Every pair is checked against x * x^(-1) = 1 mod q, and the
    number of distinct units against phi(q).
    """
    import numpy as np

    rows = []  # (p, k, q, h, o)
    for p in rational_primes_upto(c_max):
        exps = [(p - 1) // ell for ell in _rational_factorization(p - 1)]
        g = next(g for g in itertools.count(2) if all(pow(g, e, p) != 1 for e in exps))
        h, q, k = 5 if p == 2 else g + p * (pow(g, p - 1, p * p) == 1), p, 1
        while q <= c_max:
            rows.append((p, k, q, h % q, q // p * (p - 1) // (2 if p == 2 < q else 1)))
            q, k = q * p, k + 1
    step = max(1, _UNIT_BLOCK // c_max)  # o + 1 <= q <= c_max powers per row
    for block in (rows[b:b + step] for b in range(0, len(rows), step)):
        q, h, o = np.array([row[2:] for row in block], dtype=np.int64).T
        for (p, k, qb, _, ob), pw in zip(block, _generator_powers(h, q, o.max() + 1)):
            x, y = pw[:ob], pw[ob:0:-1]
            if p == 2 < qb:  # the units +-5^i
                x, y = np.concatenate((x, qb - x)), np.concatenate((y, qb - y))
            if not np.all(x * y % qb == 1):
                raise InvariantViolation("inverse congruence x * x^(-1) = 1 failed")
            if np.count_nonzero(np.bincount(x, minlength=qb)) != qb // p * (p - 1):
                raise InvariantViolation("the units of Z/q are not phi(q) in number")
            yield p, k, qb, x, y


def classical_weil_table(c_max: int, m_max: int = 5, n_max: int = 5):
    """S(m, n; c) for all m <= m_max, n <= n_max, c <= c_max, vectorized.

    High-volume path for sweeps.  Direct sums are taken only at the prime
    powers q = p^k <= c_max, in order of p and then k.  There the units
    x = h^i of Z/q, generator powers from `_prime_power_units`, place
    e(p^e x/q) at index x^(-1) = h^(o-i), and one inverse DFT turns it into
    the row S(p^e, j; q) for every j mod q; a row is made for each p-adic
    valuation e <= k that some m has, since S(m, j; q) = S(p^e, u*j; q) for
    m = p^e*u with p not dividing u (e capped at k, where p^k = 0 mod q).
    Every c = q*r with p not dividing r then takes its q-part by twisted
    multiplicativity, S(m, n; c1*c2) = S(m, n*c2b^2; c1) * S(m, n*c1b^2; c2)
    for coprime c1, c2 with c1*c1b = 1 mod c2 and c2*c2b = 1 mod c1: one
    gather per prime power at n*rbar^2, rbar = pow(r, -1, q), into an
    accumulator of every (c, m, n); c = 1 takes 1.  The sums are real, so
    the rows keep their real part.  Tests check it against a direct sum per
    modulus and against ks_twisted.

    Yields (c, m, n, value), value = S(m, n; c) as a float, in ascending
    (c, m, n) order.  More than TABLE_CAP accumulator cells, or products
    beyond int64, raise EnumerationTooLarge before anything is allocated.
    """
    if min(c_max, m_max, n_max) < 1:
        return
    cells = (c_max + 1) * m_max * n_max
    if cells > TABLE_CAP:
        raise EnumerationTooLarge(f"{cells} table cells exceeds cap {TABLE_CAP}")
    _check_int64(max(m_max, n_max, c_max) * c_max)  # bounds every product below
    import numpy as np

    ms, ns = (np.arange(1, v + 1, dtype=np.int64) for v in (m_max, n_max))
    acc = np.ones((c_max + 1, m_max, n_max))
    for p, k, q, x, y in _prime_power_units(c_max):
        if k == 1:
            # m = p^val * u with p not dividing u; no m <= m_max < p has p
            val, u = np.zeros_like(ms), ms.copy()
            while p <= m_max and np.any(hit := u % p == 0):
                val += hit
                u[hit] //= p
        e = np.minimum(val, k)
        f = np.zeros((e.max() + 1, q), dtype=complex)
        f[:, y] = np.exp(2j * np.pi / q * (p ** np.arange(len(f))[:, None] * x % q))
        rows = (q * np.fft.ifft(f, axis=1)).real
        r, t = np.array([(r, pow(r, -2, q)) for r in range(1, c_max // q + 1) if r % p],
                        dtype=np.int64).T  # t = rbar^2 mod q
        # index (R, M, N): u_m * (n * t_r mod q) mod q
        j = u[:, None] * (ns * t[:, None, None] % q) % q
        acc[q * r] *= rows[e[:, None], j]
    cmn = itertools.product(range(1, c_max + 1), range(1, m_max + 1), range(1, n_max + 1))
    for (c, m, n), value in zip(cmn, acc[1:].ravel().tolist()):
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
            chk = _weil_row(residue_unit_group(O, c, O), r_el, rp_el, c, eps, parts)
            label = str(c.x) if field.degree == 1 else f"{c.x}+{c.y}w"
            rows.append(SweepRow(label, float(abs(c.norm())), chk.ks_abs,
                                 abs(chk.value.imag), chk.rhs, chk.ratio))
    return rows


def classical_weil_sweep(c_max: int, m: int = 1, n: int = 1) -> list[SweepRow]:
    """Classical sums S(m, n; c) for c <= c_max with Weil-bound ratios (eps = 0)."""
    return _weil_sweep(make_field("rational"), c_max, m, n, 0.0)


def quadratic_weil_sweep(field: Field, norm_max: int, r_val: int = 1,
                         rp_val: int = 1, eps: float = 0.0) -> list[SweepRow]:
    """Twisted sums over Q or a real quadratic field for modulus norms <= norm_max."""
    return _weil_sweep(field, norm_max, r_val, rp_val, eps)
