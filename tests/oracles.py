"""Independent brute-force oracles used by the test suite.

Everything here is deliberately primitive: exact integer power series for
the classical level-one eigenforms, affine point counting for the level-11
elliptic curve, direct-loop Kloosterman sums over Q and Q(sqrt D), the
classical Kloosterman table summed directly at every modulus, the residue
unit groups on numpy int64 arrays with one vectorised power for every
inverse, a smallest-unit search, the continued-fraction fundamental unit,
the Pell-type y-scan for principal generators and elements of a given norm, the
narrow-square witness by a walk over the narrow representatives, real
embeddings bracketed by integer square roots, P-adic valuations by
multiplying P^j out and prime ideals by their norm, invariant
factors by recursive quotients, unit-power scans in Fraction arithmetic, the
trace-dual module from the trace pairing, the Euler product one sieved prime
at a time, x-measure CDFs by adaptive quadrature and by Serre's series, the
spectral atoms walked one at a time, the per-sample loop of the spectral
sampler, the x-measure sampler with its bracket search in draw order,
synthetic labels built by string operations, the empirical CDF ordered by a
(lambda, label) lexsort, and synthetic datasets built and read one DataPoint
at a time.
These generate the bundled fixtures and re-verify them from scratch.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction


# --- integer power series (lists indexed by q-exponent) --------------------


def series_mul(a: list[int], b: list[int], n: int) -> list[int]:
    out = [0] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: n + 1 - i]):
            if bj:
                out[i + j] += ai * bj
    return out


def series_pow(a: list[int], k: int, n: int) -> list[int]:
    out = [1] + [0] * n
    base = list(a[: n + 1])
    while k:
        if k & 1:
            out = series_mul(out, base, n)
        base = series_mul(base, base, n)
        k >>= 1
    return out


def sigma(k: int, n: int) -> int:
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def eisenstein_series(weight: int, n: int) -> list[int]:
    if weight == 4:
        return [1] + [240 * sigma(3, m) for m in range(1, n + 1)]
    if weight == 6:
        return [1] + [-504 * sigma(5, m) for m in range(1, n + 1)]
    raise ValueError(weight)


def delta_qexp(n: int) -> list[int]:
    """q * prod_{m>=1} (1 - q^m)^24 up to q^n; coefficients are tau(m)."""
    eta24 = [1] + [0] * n
    for m in range(1, n + 1):
        factor = [0] * (n + 1)
        factor[0] = 1
        if m <= n:
            factor[m] = -1
        eta24 = series_mul(eta24, series_pow(factor, 24, n), n)
    return [0] + eta24[:n]  # shift by q


def level_one_eigenform(weight: int, n: int) -> list[int]:
    """q-expansion of the unique normalized cusp eigenform of level 1."""
    delta = delta_qexp(n)
    if weight == 12:
        return delta
    extra = {16: [(4, 1)], 18: [(6, 1)], 20: [(4, 2)], 22: [(4, 1), (6, 1)],
             26: [(4, 2), (6, 1)]}
    if weight not in extra:
        raise ValueError(f"level-one space of weight {weight} is not 1-dimensional")
    out = delta
    for w, k in extra[weight]:
        out = series_mul(out, series_pow(eisenstein_series(w, n), k, n), n)
    return out


# --- elliptic curve 11a: y^2 + y = x^3 - x^2 - 10x - 20 --------------------


def ec11_ap(p: int) -> int:
    """Trace of Frobenius by affine point counting (good primes only)."""
    assert p != 11, "11 is the bad prime"
    count = 1  # point at infinity
    for x in range(p):
        rhs = (x * x * x - x * x - 10 * x - 20) % p
        for y in range(p):
            if (y * y + y - rhs) % p == 0:
                count += 1
    return p + 1 - count


# --- classical Kloosterman sum, direct loop --------------------------------


def kloosterman_direct(m: int, n: int, c: int) -> complex:
    total = 0j
    for x in range(1, c + 1):
        if math.gcd(x, c) != 1:
            continue
        xinv = pow(x, -1, c)
        total += cmath.exp(2j * cmath.pi * ((m * x + n * xinv) % c) / c)
    return total


def classical_weil_table_direct(c_max: int, m_max: int = 5, n_max: int = 5):
    """The classical table summed directly at every modulus c.

    Per modulus, the Python-int Z/c unit enumeration of the residue groups
    (not the table's vectorised one), then one cosine-table lookup for all
    (m, n) together; yields (c, m, n, value) in ascending order, value =
    S(m, n; c) as a float.
    """
    import numpy as np

    from heckedist.kloosterman import _zn_units

    ms = np.arange(1, m_max + 1, dtype=np.int64)[:, None]
    ns = np.arange(1, n_max + 1, dtype=np.int64)[:, None]
    mn = [(m, n) for m in range(1, m_max + 1) for n in range(1, n_max + 1)]
    for c in range(1, c_max + 1):
        x, x_inv = (np.asarray(v, dtype=np.int64) for v in _zn_units(c))
        # (m*x mod c) + (n*x^(-1) mod c) < 2c indexes the table tiled twice
        cos_table = np.tile(np.cos(2.0 * np.pi * np.arange(c) / c), 2)
        idx = (ms * x % c)[:, None, :] + (ns * x_inv % c)[None, :, :]
        for (m, n), value in zip(mn, cos_table[idx].sum(axis=2).ravel().tolist()):
            yield (c, m, n, value)


# --- the residue unit engine on numpy int64 arrays -------------------------


def units_mod_numpy(N: int):
    """The units x of Z/N in increasing order and their inverses x^(phi(N)-1)
    mod N, as int64 arrays, by one square-and-multiply over every unit."""
    import numpy as np

    from heckedist.numberfield import _power, _rational_factorization

    if N * N > 2**63 - 1:
        raise OverflowError(f"products mod {N} overflow int64")
    keep = np.ones(N, dtype=bool)
    for p in _rational_factorization(N):
        keep[::p] = False
    x = np.flatnonzero(keep).astype(np.int64)
    y = _power(x, len(x) - 1, lambda p, q: p * q % N, np.full_like(x, 1 % N))
    if not np.all(x * y % N == 1 % N):
        raise AssertionError("inverse congruence x * x^(-1) = 1 failed")
    return x, y


def unit_coords_numpy(quo, quo_inv, mod):
    """Units of quo = L/L*modulus and their inverses in quo_inv = L^(-1)/L^(-1)*modulus,
    as two (phi, 2) int64 arrays; mod is O/modulus.

    When all three quotients are cyclic, the units of Z/N times e_1 and the
    inverses times g^(-1) f_1, g = e_1*f_1.  Otherwise a mask of the
    residues outside P*L for every prime P over the modulus, one inverse
    y0 of the first unit found by a scan, and x^(-1) = y0 * (x*y0)^(phi-1)
    by square-and-multiply over every unit at once in O/modulus.
    """
    import numpy as np

    from heckedist.kloosterman import _distinct_prime_divisors
    from heckedist.numberfield import QuotientModule, _mul_coords, _power

    field, L, Linv = quo.field, quo.L, quo_inv.L
    den = L.den * Linv.den

    def product(e, f):
        u, v = _mul_coords(field, e, f)
        if u % den or v % den:
            raise AssertionError("L * L^(-1) is not the ring of integers")
        return mod.reduce((u // den, v // den))

    def combine(elems, coeffs):
        return mod.reduce((coeffs[0] * elems[0][0] + coeffs[1] * elems[1][0],
                           coeffs[0] * elems[0][1] + coeffs[1] * elems[1][1]))

    if mod.shape[1] == quo.shape[1] == quo_inv.shape[1] == 1:
        N = mod.index
        g = product(L.int_rows()[0], Linv.int_rows()[0])[0]
        x, y = units_mod_numpy(N)
        if g != 1:
            y = y * pow(g, -1, N) % N
        zero = np.zeros_like(x)
        return np.stack((x, zero), axis=1), np.stack((y, zero), axis=1)
    if (abs(field.omega_norm) + abs(field.omega_trace) + 4) * quo.index**2 > 2**63 - 1:
        raise OverflowError("residue products overflow int64")
    one = mod.reduce((1, 0))
    a1, c1 = quo.shape
    i, j = np.divmod(np.arange(a1 * c1, dtype=np.int64), c1)
    keep = np.ones(len(i), dtype=bool)
    for P in _distinct_prime_divisors(field, mod.Lsub):
        keep &= ~QuotientModule(L, P * L).contains((i, j))
    x = (i[keep], j[keep])
    phi = len(x[0])
    prod = [[product(e, f) for e in L.int_rows()] for f in Linv.int_rows()]
    xf = [combine(p, x) for p in prod]
    b1, d1 = quo_inv.shape
    k, l = np.divmod(np.arange(b1 * d1, dtype=np.int64), d1)
    scan = combine([(u[:1], v[:1]) for u, v in xf], (k, l))
    hit = np.flatnonzero((scan[0] == one[0]) & (scan[1] == one[1]))
    y0 = (int(k[hit[0]]), int(l[hit[0]]))
    base = combine(xf, y0)
    s, t = _power(base, phi - 1, lambda p, q: mod.reduce(_mul_coords(field, p, q)),
                  (np.full_like(base[0], one[0]), np.zeros_like(base[1])))
    yw = quo_inv.reduce(Linv.element_coords(quo_inv.element(*y0) * field.omega()))
    y = quo_inv.reduce((s * y0[0] + t * yw[0], s * y0[1] + t * yw[1]))
    check = combine(xf, y)
    if not (np.all(check[0] == one[0]) and np.all(check[1] == one[1])):
        raise AssertionError("inverse congruence x * x^(-1) = 1 failed")
    return np.stack(x, axis=1), np.stack(y, axis=1)


def _ring(D: int) -> tuple[int, int]:
    """(t, n) with w^2 = t*w - n for the integral basis (1, w) of Q(sqrt D)."""
    return (1, (1 - D) // 4) if D % 4 == 1 else (0, -D)


def _qmul(D: int, p: tuple, q: tuple) -> tuple:
    t, n = _ring(D)
    return (p[0] * q[0] - n * p[1] * q[1], p[0] * q[1] + p[1] * q[0] + t * p[1] * q[1])


def _lattice(I, d: int) -> tuple[int, int, int]:
    """HNF rows (a, b, c) of d*I in (1, w)-coordinates; d must be a multiple of I.den."""
    a, b, c = (x * (d // I.den) for x in I.hnf)
    return a, b, c


def _lattice_reduce(hnf: tuple, X: int, Y: int) -> tuple[int, int]:
    a, b, c = hnf
    q = Y // c
    return ((X - q * b) % a, Y - q * c)


def residue_inverse(D: int, a: tuple, c: tuple) -> tuple[int, int]:
    """An integral z = (x, y) ~ x + y*w of Q(sqrt D) with a*z = 1 mod (c), for a unit a mod (c).

    Searches the residues 0 <= x, y < |N(c)|, which meet every class of
    O/(c) since N(c) lies in (c); a*z - 1 lies in (c) when both
    coordinates of (a*z - 1) * conj(c) are multiples of N(c).
    """
    t, _ = _ring(D)
    conj = (c[0] + t * c[1], -c[1])
    n = abs(_qmul(D, c, conj)[0])
    for x in range(n):
        for y in range(n):
            u, v = _qmul(D, a, (x, y))
            u, v = _qmul(D, (u - 1, v), conj)
            if u % n == 0 and v % n == 0:
                return x, y
    raise ValueError(f"{a} is not a unit modulo {c}")


def _trace_over(D: int, p: tuple, q: tuple) -> Fraction:
    """Tr(p/q) for p, q in (1, w)-coordinates with rational entries."""
    t, _ = _ring(D)
    conj = (q[0] + t * q[1], -q[1])
    num = _qmul(D, p, conj)
    norm = _qmul(D, q, conj)[0]
    return Fraction(2 * num[0] + t * num[1]) / norm


# --- field elements as Fraction pairs (x, y) ~ x + y*w ----------------------


def frac_mul(field, p: tuple, q: tuple) -> tuple:
    """(x1 + y1 w)(x2 + y2 w) with w^2 = t*w - n; over Q only x1*x2."""
    if field.degree == 1:
        return (p[0] * q[0], Fraction(0))
    return _qmul(field.D, p, q)


def frac_conj(field, p: tuple) -> tuple:
    """conj(x + y*w) = (x + t*y) - y*w; the identity over Q."""
    if field.degree == 1:
        return p
    t, _ = _ring(field.D)
    return (p[0] + t * p[1], -p[1])


def frac_norm(field, p: tuple) -> Fraction:
    """x over Q, x*conj(x) over Q(sqrt D)."""
    if field.degree == 1:
        return p[0]
    return frac_mul(field, p, frac_conj(field, p))[0]


def frac_trace(field, p: tuple) -> Fraction:
    """x over Q, x + conj(x) over Q(sqrt D)."""
    if field.degree == 1:
        return p[0]
    return p[0] + frac_conj(field, p)[0]


def frac_div(field, p: tuple, q: tuple) -> tuple:
    """p/q = p * conj(q) / N(q) over Q(sqrt D)."""
    if field.degree == 1:
        return (p[0] / q[0], Fraction(0))
    num, nrm = frac_mul(field, p, frac_conj(field, q)), frac_norm(field, q)
    return (num[0] / nrm, num[1] / nrm)


def frac_pow(field, p: tuple, k: int) -> tuple:
    """p**k by repeated multiplication; k < 0 through 1/p."""
    if k < 0:
        return frac_pow(field, frac_div(field, (Fraction(1), Fraction(0)), p), -k)
    out = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = frac_mul(field, out, p)
    return out


def frac_sqrtD(field, p: tuple) -> tuple:
    """(a, b) with x + y*w = a + b*sqrt(D); (x, 0) over Q."""
    x, y = p
    if field.degree == 1:
        return (x, Fraction(0))
    return (x + y / 2, y / 2) if field.D % 4 == 1 else (x, y)


def frac_sign(field, p: tuple, j: int) -> int:
    """Sign of the j-th embedding a +- b*sqrt(D), comparing a^2 with b^2*D."""
    a, b = frac_sqrtD(field, p)
    if j == 1:
        b = -b
    if a >= 0 and b >= 0 or a <= 0 and b <= 0:
        s = a + b
    else:
        s = a if a * a > b * b * field.D else b
    return (s > 0) - (s < 0)


def embedding_bounds(field, p: tuple, j: int) -> tuple:
    """Exact rationals lo <= x + y*w_j <= hi, with sqrt(D) bracketed by an
    integer square root (lo == hi over Q).  The bracket's bits grow with the
    size of x and y, so that it stays far narrower than the smaller embedding,
    which is at least |N(x + y*w)| over the larger one."""
    x, y = Fraction(p[0]), Fraction(p[1])
    if field.degree == 1:
        return x, x
    bits = 128 + 4 * sum(abs(v).bit_length()
                         for v in (x.numerator, x.denominator, y.numerator, y.denominator))
    s = Fraction(math.isqrt(field.D << 2 * bits), 1 << bits)
    sign = 1 if j == 0 else -1
    ends = []
    for r in (s, s + Fraction(1, 1 << bits)):
        w = (1 + sign * r) / 2 if field.D % 4 == 1 else sign * r
        ends.append(x + y * w)
    return min(ends), max(ends)


def kloosterman_brute(D: int, r, a_ideal, rp, c, c_ideal) -> tuple[complex, int]:
    """KS(r, a; r', a; c, c_frak) over Q(sqrt D) by raw enumeration, and its unit count.

    Only the Hermite bases of L = a*c_frak^(-1), a*(c), L^(-1), L^(-1)*(c)*c_frak
    and the modulus (c)*c_frak are taken from the package.  Cosets are raw
    integer coordinates reduced modulo those bases, a residue counts as a
    unit when a search over L^(-1) finds an inverse, and the exponent is
    summed in exact fractions.
    """
    from heckedist.numberfield import ideal_from_elements

    F = a_ideal.field
    cP = ideal_from_elements(F, [c])
    modulus = cP * c_ideal
    L = a_ideal * c_ideal.inverse()
    Lsub = a_ideal * cP
    Linv = a_ideal.inverse() * c_ideal
    Linv_sub = Linv * modulus
    N = int(modulus.norm())

    def cosets(M, Msub):
        d = M.den * Msub.den
        base, sub = _lattice(M, d), _lattice(Msub, d)
        reps = set()
        for i in range(N):
            for j in range(N):
                reps.add(_lattice_reduce(sub, i * base[0] + j * base[1], j * base[2]))
        assert len(reps) == N
        return sorted(reps), d

    xs, dx = cosets(L, Lsub)
    ys, dy = cosets(Linv, Linv_sub)
    m = _lattice(modulus, 1)
    total, units = 0j, 0
    for x in xs:
        y = None
        for cand in ys:
            u, v = _qmul(D, x, cand)
            u, v = u - dx * dy, v  # x*y - 1, scaled by dx*dy
            if u % (dx * dy) == 0 and v % (dx * dy) == 0 and \
                    _lattice_reduce(m, u // (dx * dy), v // (dx * dy)) == (0, 0):
                y = cand
                break
        if y is None:
            continue
        units += 1
        num = _qmul(D, (Fraction(r.x), Fraction(r.y)), (Fraction(x[0], dx), Fraction(x[1], dx)))
        num2 = _qmul(D, (Fraction(rp.x), Fraction(rp.y)), (Fraction(y[0], dy), Fraction(y[1], dy)))
        expo = _trace_over(D, (num[0] + num2[0], num[1] + num2[1]), (c.x, c.y))
        total += cmath.exp(2j * cmath.pi * float(expo - math.floor(expo)))
    return total, units


def divisor_count(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


# --- smallest unit > 1 by direct search ------------------------------------


def smallest_unit_gt_one(field):
    """Unit search ascending in the w-coordinate; the first hit with the
    smaller first embedding is fundamental."""
    Delta, t = field.disc, field.omega_trace
    y = 1
    while True:
        found = []
        for s4 in (4, -4):
            u2 = Delta * y * y + s4
            if u2 < 0:
                continue
            u = math.isqrt(u2)
            if u * u == u2 and (u - t * y) % 2 == 0:
                found.append(field.element((u - t * y) // 2, y))
        if found:
            return min(found, key=lambda e: e.embeddings()[0])
        y += 1


# --- fundamental unit by the continued fraction of (disc mod 2 + sqrt(disc))/2


def fundamental_unit_by_continued_fraction(field):
    """One period of the continued fraction gives the fundamental automorphism;
    the direction is fixed with float embeddings, so large units overflow."""
    from heckedist.errors import InvariantViolation
    from heckedist.numberfield import FieldElement

    Delta = field.disc
    sq = math.isqrt(Delta)
    P, Q = Delta % 2, 2
    states: list[tuple[int, int]] = []
    quots: list[int] = []
    seen: dict[tuple[int, int], int] = {}
    while (P, Q) not in seen:
        seen[(P, Q)] = len(states)
        states.append((P, Q))
        if Q <= 0:
            raise InvariantViolation("continued fraction reached a nonpositive denominator")
        a = (P + sq) // Q
        quots.append(a)
        P1 = a * Q - P
        Q1 = (Delta - P1 * P1) // Q
        P, Q = P1, Q1
    k0 = seen[(P, Q)]
    cycle = quots[k0:]
    P0, Q0 = states[k0]
    # beta = (P0 + sqrt(Delta))/Q0; one period gives the fundamental automorphism
    q_prev, q_prev2 = 0, 1  # q_{-1}, q_{-2}
    for a in cycle:
        q_prev, q_prev2 = a * q_prev + q_prev2, q_prev
    # unit = q_{m-1} * beta + q_{m-2}, with sqrt(disc) = 2w - t
    u = (P0 - field.omega_trace) * q_prev + Q0 * q_prev2
    eps = FieldElement(field, (u, 2 * q_prev), Q0)
    if not (eps.is_integral() and abs(eps.norm()) == 1):
        raise InvariantViolation("continued fraction did not yield a unit")
    if eps.sign_at(0) < 0:
        eps = -eps
    if eps.embeddings()[0] < 1:
        inv = eps.conjugate() * eps.norm()  # 1/eps up to sign
        eps = inv if inv.sign_at(0) > 0 else -inv
    if not eps.embeddings()[0] > 1:
        raise InvariantViolation("fundamental unit is not > 1 at the first place")
    return eps


# --- P-adic valuations by ideal products, primality by the norm ------------


def ideal_valuation_by_products(arg, P) -> int:
    """v_P of a nonzero element or fractional ideal at a prime ideal P: the
    largest j with P^j containing its integral part, less v_P of its
    denominator, with p found by factoring N(P)."""
    from heckedist.numberfield import (
        FieldElement,
        FractionalIdeal,
        _rational_factorization,
        _splitting_type,
        ideal_from_elements,
    )

    field = P.field
    if isinstance(arg, FieldElement):
        arg = ideal_from_elements(field, [arg])
    p = min(_rational_factorization(int(P.norm())))
    ram = 2 if _splitting_type(field, p) == "ramified" else 1
    den_val = ram * _rational_factorization(arg.den).get(p, 0)
    M = FractionalIdeal(field, 1, arg.hnf)
    j = 0
    Pj = P
    while Pj.contains_ideal(M):
        j += 1
        Pj = Pj * P
    return j - den_val


def is_prime_ideal_by_norm(I) -> bool:
    """A nonzero integral ideal is prime iff its norm is a prime, or it is
    (r) for an inert prime r; a Z-module is an ideal iff w times each basis
    element lies in it."""
    from heckedist.numberfield import _splitting_type, is_rational_prime

    if not any(I.hnf) or not I.is_integral():
        return False
    if I.field.degree == 2 and not all(I.contains(e * I.field.omega())
                                       for e in I.basis_elements()):
        return False
    nrm = int(I.norm())
    if is_rational_prime(nrm):
        return True
    r = math.isqrt(nrm)
    if r * r != nrm or not is_rational_prime(r):
        return False
    return _splitting_type(I.field, r) == "inert" and I == I.field.ideal(r)


# --- the inverse different from the trace pairing ---------------------------


def trace_dual_module(field):
    """{x : S(x*O) in Z}, from the inverse Gram matrix of the trace pairing on (1, w)."""
    from heckedist.numberfield import ideal_from_elements

    if field.degree == 1:
        return field.unit_ideal()
    one, w = field.one(), field.omega()
    g11, g12 = one.trace(), w.trace()
    g22 = (w * w).trace()
    det = g11 * g22 - g12 * g12
    d1 = one * (g22 / det) + w * (-g12 / det)
    d2 = one * (-g12 / det) + w * (g11 / det)
    return ideal_from_elements(field, [d1, d2])


# --- unit-power scans in exact field arithmetic ------------------------------


def unit_power_scan(g, window: int = 8):
    """First totally positive sigma * g * eps0^k, sigma = +-1, scanning
    k = 0, 1, -1, ..., +-window with eps0^k in Fraction arithmetic."""
    field = g.field
    if field.degree == 1:
        return g if g.x > 0 else -g
    eps = field.fundamental_unit
    ks = [0]
    for k in range(1, window + 1):
        ks.extend((k, -k))
    for k in ks:
        cand = g * eps**k
        if cand.is_totally_positive():
            return cand
        if (-cand).is_totally_positive():
            return -cand
    return None


def _abs_embedding_cmp(e) -> int:
    """Sign of |e_1| - |e_2|: e_1^2 - e_2^2 = 4ab*sqrt(D) for e = a + b*sqrt(D)."""
    a, b = frac_sqrtD(e.field, (e.x, e.y))
    return (a * b > 0) - (a * b < 0)


def canonical_associate_walk(e):
    """The associate of e with first embedding positive, |e_1| >= |e_2|, and
    strictly unbalanced after one division by eps0, by multiplying and dividing
    by eps0 in Fraction arithmetic."""
    field = e.field
    if e.is_zero():
        return e
    if field.degree == 1:
        return e if e.x > 0 else -e
    eps = field.fundamental_unit
    while _abs_embedding_cmp(e) < 0:
        e = e * eps
    while _abs_embedding_cmp(e / eps) >= 0:
        e = e / eps
    return e if e.sign_at(0) > 0 else -e


# --- principal generators by the Pell-type y-scan ------------------------------


def norm_form_rows(field, N: int, y_bound: int):
    """Integer rows (x, y) of the x + y*w with |norm| = N and 0 <= y <= y_bound,
    from u^2 - disc*y^2 = +-4N with u = 2x + t*y: ascending y, then positive
    norm first, then u > 0 first."""
    Delta, t = field.disc, field.omega_trace
    for y in range(0, y_bound + 1):
        for s4 in (4 * N, -4 * N):
            u2 = Delta * y * y + s4
            if u2 < 0:
                continue
            u = math.isqrt(u2)
            if u * u != u2:
                continue
            for uu in ((u, -u) if u else (0,)):
                if (uu - t * y) % 2 == 0:
                    yield ((uu - t * y) // 2, y)


def norm_y_bound(field, N: int) -> int:
    """|y| bound for x + y*w of norm +-N balanced across the two embeddings:
    2*sqrt(N*eps0)/sqrt(disc), padded by 3 against float rounding.  It grows
    like sqrt(eps0), so the scan is only usable where eps0 is small."""
    eps0 = field.fundamental_unit.embeddings()[0]
    return int(2.0 * math.sqrt(N * eps0) / math.sqrt(field.disc)) + 3


def generator_scan(M):
    """The first generator x + y*w of the integral ideal M in the order of
    norm_form_rows, or None if M is not principal."""
    field = M.field
    if field.degree == 1:
        return field.element(M.hnf[0])
    N = int(M.norm())
    for x, y in norm_form_rows(field, N, norm_y_bound(field, N)):
        if M.contains(field.element(x, y)):
            return field.element(x, y)
    return None


def elements_of_norm_scan(field, n: int) -> list:
    """Canonical associates (canonical_associate_walk) of the elements with
    |norm| = n, sorted by their coordinates."""
    if field.degree == 1:
        return [field.element(n)]
    found = {canonical_associate_walk(field.element(x, y))
             for x, y in norm_form_rows(field, n, norm_y_bound(field, n))}
    return sorted(found, key=lambda e: (e.x, e.y))


def narrow_square_witness_walk(P):
    """(b, eta) for the least narrow representative b, by (norm, hnf), with
    P*b^2 = (eta) for a totally positive eta, or None: each b in turn, with
    principality decided by find_generator and totally_positive_adjust."""
    from heckedist.numberfield import class_group, find_generator, totally_positive_adjust

    field = P.field
    for b in sorted(class_group(field, narrow=True).representatives,
                    key=lambda I: (I.norm(), I.hnf)):
        g = find_generator(P * b * b)
        eta = None if g is None else totally_positive_adjust(g)
        if eta is not None:
            return (b, eta)
    return None


def abelian_invariants_by_quotients(table: list[list[int]]) -> list[int]:
    """Invariant factors of a finite abelian group given by its table (identity 0),
    largest first: the order m of an element of maximal order, then the factors of
    the quotient by the cyclic subgroup it generates, with its cosets relabelled."""
    n = len(table)
    if n == 1:
        return []

    def order_of(g: int) -> int:
        k, x = 1, g
        while x != 0:
            x = table[x][g]
            k += 1
        return k

    elems = list(range(n))
    orders = {g: order_of(g) for g in elems}
    m = max(orders.values())
    g = next(e for e in elems if orders[e] == m)
    # subgroup generated by g, then recurse on the quotient
    sub = []
    x = g
    while True:
        sub.append(x)
        if x == 0:
            break
        x = table[x][g]
    subset = set(sub)
    cosets: list[frozenset] = []
    elem_to_coset: dict[int, int] = {}
    for e in elems:
        if e in elem_to_coset:
            continue
        coset = frozenset(table[e][s] for s in subset)
        idx = len(cosets)
        cosets.append(coset)
        for member in coset:
            elem_to_coset[member] = idx
    q = len(cosets)
    qtable = [[0] * q for _ in range(q)]
    reps_c = [min(c) for c in cosets]
    for i in range(q):
        for j in range(q):
            qtable[i][j] = elem_to_coset[table[reps_c[i]][reps_c[j]]]
    zero_idx = elem_to_coset[0]
    if zero_idx != 0:
        # relabel so identity coset is index 0
        perm = list(range(q))
        perm[0], perm[zero_idx] = perm[zero_idx], perm[0]
        inv = {v: i for i, v in enumerate(perm)}
        qtable = [[inv[qtable[perm[i]][perm[j]]] for j in range(q)] for i in range(q)]
    rest = abelian_invariants_by_quotients(qtable)
    return [m] + rest


# --- Euler product over prime ideals from a sieve and the Kronecker symbol ------


def kronecker_at_prime(disc: int, p: int) -> int:
    """The Kronecker symbol (disc / p) at a prime p: 0 ramified, 1 split,
    -1 inert; by disc mod 8 at p = 2, else by Euler's criterion."""
    if disc % p == 0:
        return 0
    if p == 2:
        return 1 if disc % 8 in (1, 7) else -1
    return 1 if pow(disc % p, (p - 1) // 2, p) == 1 else -1


def kronecker(disc: int, n: int) -> int:
    """The Kronecker symbol (disc / n) for n >= 1, the product of (disc / p)
    over the primes p dividing n with multiplicity."""
    out, p = 1, 2
    while n > 1 and out:
        if p * p > n:
            p = n  # n is prime
        while n % p == 0:
            n //= p
            out *= kronecker_at_prime(disc, p)
        p += 1
    return out


def prime_discriminants(disc: int) -> list[int]:
    """The prime discriminants d_1, ..., d_t with disc = d_1 * ... * d_t for a
    fundamental discriminant: p* = +-p = 1 mod 4 for each odd p | disc, and
    -4, 8 or -8 for what is left."""
    out, odd, p = [], abs(disc), 3
    while odd % 2 == 0:
        odd //= 2
    while odd > 1:
        if p * p > odd:
            p = odd
        if odd % p == 0:
            out.append(p if p % 4 == 1 else -p)
            odd //= p
        p += 2
    rest = disc // math.prod(out)
    assert rest in (1, -4, 8, -8) and math.prod(out) * rest == disc, (disc, out)
    return out + [rest] * (rest != 1)


def in_principal_genus(disc: int, p: int) -> bool:
    """Whether a prime ideal of norm p (split or ramified) is a square in the
    narrow class group: every genus character chi_i(P) = (d_i / p), or
    (disc/d_i / p) when p | d_i, is 1 (Gauss; Cox, Primes of the Form
    x^2 + ny^2, 3.B).  Inert primes (p) are principal with a totally positive
    generator, so always squares."""
    return all(kronecker(disc // d if d % p == 0 else d, p) == 1
               for d in prime_discriminants(disc))


@functools.lru_cache(maxsize=None)
def primes_upto(n: int) -> tuple[int, ...]:
    """The primes <= n from a plain list sieve."""
    sieve = [True] * (n + 1)
    out = []
    for p in range(2, n + 1):
        if sieve[p]:
            out.append(p)
            for m in range(p * p, n + 1, p):
                sieve[m] = False
    return tuple(out)


def euler_product_loop(params, field, X: int, level_norms=()):
    """euler_product_tail's EulerProductResult, built one prime at a time:
    a plain sieve, the Kronecker symbol of each prime and one multiply per
    factor, in prime order; the tail bounds by the same integral comparison."""
    from heckedist.bounds import EulerProductResult

    e = params.euler_exponent
    skip = set(level_norms)
    prod = rational = 1.0
    for p in primes_upto(X):
        if p in skip:
            continue
        factor = 1.0 / (1.0 - float(p) ** e)
        rational *= factor
        if field.degree == 1:
            prod = rational
            continue
        chi = kronecker_at_prime(field.disc, p)
        if chi == 1:
            prod *= factor ** 2
        elif chi == 0:
            prod *= factor
        elif p * p <= X:
            prod *= 1.0 / (1.0 - float(p * p) ** e)

    def tail(mult):
        top = X**e
        return math.expm1(mult * (X ** (e + 1.0) / (-e - 1.0) + top) / (1.0 - top))

    return EulerProductResult(prod, tail(field.degree), e, X, rational, tail(1))


# --- Gauss-Legendre reference integrator (independent of the package) ------


def gauss_integral(f, a: float, b: float, nodes: int = 200) -> float:
    import numpy as np

    x, w = np.polynomial.legendre.leggauss(nodes)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return float(half * np.sum(w * f(mid + half * x)))


# --- x-measure CDFs: adaptive quadrature in theta and Serre's series ---------


def _x_density(tag: str, param, x):
    """The densities on [-2, 2] as written in the paper, in x."""
    import numpy as np

    semi = np.sqrt(np.clip(1.0 - x * x / 4.0, 0.0, None)) / math.pi
    if tag == "sato_tate":
        return semi
    if tag == "padic_sato_tate":
        return (param + 1) * semi / (param + 2.0 + 1.0 / param - x * x)
    prev, cur = np.ones_like(x), x  # phi: X_ord(x)^2 semi, X by its recurrence
    for _ in range(param):
        prev, cur = cur, x * cur - prev
    return prev * prev * semi


def _adaptive_gl(f, a: float, b: float, tol: float) -> float:
    """15-point Gauss-Legendre, halving each panel until two halves agree."""
    import numpy as np

    nodes, weights = np.polynomial.legendre.leggauss(15)

    def gl(x0, x1):
        mid, half = 0.5 * (x0 + x1), 0.5 * (x1 - x0)
        return half * float(np.dot(weights, f(mid + half * nodes)))

    total, stack = 0.0, [(a, b, gl(a, b))]
    while stack:
        x0, x1, whole = stack.pop()
        m = 0.5 * (x0 + x1)
        left, right = gl(x0, m), gl(m, x1)
        if abs(left + right - whole) <= tol * (x1 - x0) / (b - a) or x1 - x0 < 1e-9:
            total += left + right
        else:
            stack += [(x0, m, left), (m, x1, right)]
    return total


def x_measure_cdf_quadrature(tag: str, param, xs) -> list[float]:
    """F(x) for sorted xs: the density integrated in theta = arccos(x/2).

    After x = 2 cos(theta) the integrand density(2 cos theta) * 2 sin(theta)
    is smooth, so each gap between consecutive points is integrated
    adaptively and the pieces are summed from x = -2.
    """
    import numpy as np

    def integrand(theta):
        return _x_density(tag, param, 2.0 * np.cos(theta)) * 2.0 * np.sin(theta)

    out, acc, theta_prev = [], 0.0, math.pi
    for x in xs:
        theta = math.acos(min(max(x / 2.0, -1.0), 1.0))
        acc += _adaptive_gl(integrand, theta, theta_prev, 1e-15) if theta < theta_prev else 0.0
        theta_prev = min(theta, theta_prev)
        out.append(acc)
    return out


def padic_cdf_serre(p: int, x: float) -> float:
    """F(x) for mu_p from Serre's expansion mu_p = sum_m p^(-m) X_2m mu_inf.

    With theta = arccos(x/2), term m >= 1 adds
    p^(-m) (sin((2m+2) theta)/(2m+2) - sin(2m theta)/(2m))/pi; the sum stops
    once p^(-m) < 1e-17.
    """
    theta = math.acos(min(max(x / 2.0, -1.0), 1.0))
    total = (math.pi - theta + math.sin(2 * theta) / 2) / math.pi
    m = 1
    while p ** (-m) >= 1e-17:
        total += p ** (-m) * (math.sin((2 * m + 2) * theta) / (2 * m + 2)
                              - math.sin(2 * m * theta) / (2 * m)) / math.pi
        m += 1
    return total


# --- spectral atoms, one at a time ------------------------------------------


def _spectral_atoms(spec, low: float, high: float):
    """(position, weight) atoms with low <= position < high, descending."""
    if spec.tag == "plancherel":
        b = 2 if spec.xi == 0 else 3
        while True:
            lam = b / 2.0 * (1.0 - b / 2.0)
            if lam < low:
                return
            if lam < high:
                yield (lam, float(b - 1))
            b += 2
    elif spec.tag == "v1":
        beta = 0.5 if spec.xi == 0 else 1.0
        while True:
            lam = 0.25 - beta * beta
            if lam < low:
                return
            if lam < high:
                yield (lam, beta)
            beta += 1.0
    else:
        raise AssertionError(spec.tag)


def _tilde_atoms(spec, low: float, high: float):
    shift = 0.5 if spec.xi == 0 else 0.0
    k0 = math.ceil(low - shift)
    k = k0
    while k + shift < high:
        beta = k + shift
        if beta != 0.0:
            if spec.tag == "tilde_pl":
                yield (beta, abs(beta))
            elif beta > 0:  # tilde_v1 lives on the positive nu-axis
                yield (beta, beta ** (-spec.A))
        k += 1


def atoms_loop(spec, low: float, high: float) -> list[tuple[float, float]]:
    """The (position, weight) atoms in [low, high), found by walking them one by one."""
    if spec.tag in ("plancherel", "v1"):
        return list(_spectral_atoms(spec, low, high))
    return list(_tilde_atoms(spec, low, high))


# --- the spectral sampler, one sample at a time -----------------------------


def sample_spectral_loop(spec, low: float, high: float, n: int, rng):
    """The per-sample loop that `measures.sample_spectral` vectorises.

    It walks the atoms itself, takes the masses and the continuous-part table
    from the library, normalises the table and draws one u at a time: a
    running sum over the atoms, then a scalar interpolation on the grid.
    """
    import numpy as np

    from heckedist import measures

    total = measures._interval_mass(spec, low, high)
    atoms = atoms_loop(spec, low, high)
    atom_w = sum(w for _, w in atoms)
    cont = total - atom_w
    # the continuous part starts at 0 for v1 with xi = 0 and at 1/4 otherwise
    lower = 0.0 if spec.tag == "v1" and spec.xi == 0 else 0.25
    grid = None
    if cont > 1e-12 * total and high > lower:
        gx, gm = measures._cont_table(spec, max(low, lower), high)
        grid = gx, gm / gm[-1]
    u = rng.random(n) * total
    out = np.empty(n)
    for i, ui in enumerate(u):
        acc = 0.0
        hit = None
        for pos, w in atoms:
            acc += w
            if ui < acc:
                hit = pos
                break
        if hit is not None:
            out[i] = hit
        else:
            v = min(max((ui - atom_w) / max(cont, 1e-300), 0.0), 1.0)
            gx, gcdf = grid
            out[i] = float(np.interp(v, gcdf, gx))
    return out


# --- the x-measure sampler's bracket search, in draw order ------------------


def inverse_angle_cdf_draw_order(spec, u):
    """`measures._inverse_angle_cdf` as it was before its bracket search ran
    over sorted keys: np.searchsorted takes the draws in the order drawn."""
    import numpy as np

    from heckedist.measures import (
        _BRACKET_CELLS,
        _NEWTON_MAX_STEPS,
        _NEWTON_TOL,
        _angle_cdf,
        _angle_density,
    )

    grid = np.linspace(0.0, math.pi, _BRACKET_CELLS + 1)
    f_grid = _angle_cdf(spec, grid)
    i = np.clip(np.searchsorted(f_grid, u, side="right") - 1, 0, _BRACKET_CELLS - 1)
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


# --- synthetic datasets, one DataPoint at a time -----------------------------


def synth_labels_by_string_ops(n: int):
    """The labels of `equidist.synthesize_dataset` built by numpy string
    operations: str(i), zero-filled to six digits, after the prefix."""
    import numpy as np

    return np.char.add("synth-", np.char.zfill(np.arange(n).astype(f"U{len(str(n - 1))}"), 6))


def sorted_empirical_lexsort(ds):
    """`equidist._sorted_empirical` with every point ordered by a lexsort on
    (lambda, label), tied or not."""
    import numpy as np

    lams = ds.lambdas()
    order = np.lexsort((ds.labels, lams))
    xs, ws = lams[order], ds.weights()[order]
    cum = np.cumsum(ws) / np.sum(ws)
    keep = np.append(xs[1:] != xs[:-1], True)
    return xs[keep], cum[keep]



def synthesize_points(ord: int, box, n: int, seed: int) -> tuple:
    """The DataPoints of `equidist.synthesize_dataset`, built one at a time.

    Same draws as the library (Phi(ord) values, then one Plancherel column
    per place of the box from the same generator), then a label, a float()
    per value and a DataPoint per point.
    """
    import numpy as np

    from heckedist import measures
    from heckedist.equidist import DataPoint

    lams = measures.sample(measures.MeasureSpec.phi(ord), n, seed)
    casimirs = None
    if box is not None:
        rng = np.random.default_rng([seed, 0xC0FFEE])
        casimirs = np.stack([measures.sample_spectral(measures.MeasureSpec.plancherel(pl.xi),
                                                      pl.low, pl.high, n, rng)
                             for pl in box.places], axis=1)
    pts = []
    for i in range(n):
        cas = tuple(float(v) for v in casimirs[i]) if casimirs is not None else None
        pts.append(DataPoint(f"synth-{i:06d}", float(lams[i]), 1.0, cas))
    return tuple(pts)


def point_lambdas(points):
    import numpy as np

    return np.array([pt.lam for pt in points])


def point_weights(points):
    import numpy as np

    return np.array([pt.weight for pt in points])


def point_plot_data(points, spec) -> list:
    """(x, empirical cdf, target cdf) rows: a sort on (lambda, label), ties
    collapsed onto their last cumulative weight, a float() per value."""
    import numpy as np

    from heckedist import measures

    lams = point_lambdas(points)
    order = np.lexsort((np.array([pt.label for pt in points]), lams))
    xs, ws = lams[order], point_weights(points)[order]
    cum = np.cumsum(ws) / np.sum(ws)
    keep = np.append(xs[1:] != xs[:-1], True)
    xs, emp = xs[keep], cum[keep]
    return [(float(x), float(e), float(t)) for x, e, t in zip(xs, emp, measures.cdf(spec, xs))]


def moment_rows_per_ell(ds, ord: int, ell_max: int) -> list:
    """moment_test's rows with X_ell evaluated afresh from X_0 for each ell by
    chebyshev_eval, and the leave-one-out denominators rebuilt each time."""
    import numpy as np

    from heckedist.equidist import MomentRow
    from heckedist.measures import chebyshev_eval, phi_moment

    lams, ws = ds.lambdas(), ds.weights()
    W = float(np.sum(ws))
    n = len(ds)
    out = []
    for ell in range(ell_max + 1):
        vals = chebyshev_eval(ell, lams)
        S = float(np.dot(ws, vals))
        M = S / W
        expected = phi_moment(ord, ell)
        se = 0.0
        if n > 1:
            denom = W - ws
            loo = (S - ws * vals) / np.where(denom > 0, denom, np.nan)
            loo = np.where(np.isfinite(loo), loo, M)
            se = math.sqrt(max((n - 1) / n * float(np.sum((loo - np.mean(loo)) ** 2)), 0.0))
        z = (M - expected) / se if se > 0 else (0.0 if M == expected else None)
        out.append(MomentRow(ell, M, expected, z))
    return out
