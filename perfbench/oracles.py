"""Independent reference computations the benchmark checks results against.

Nothing here imports heckedist: every oracle is plain integer or float
arithmetic written from the definitions (numpy only for the sample CDF), so
a change to the library cannot change its own reference.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def _phase_sum(numerators, den: int) -> complex:
    """Sum of e(k / den) over the integers k, accumulated with fsum."""
    re = math.fsum(math.cos(TWO_PI * (k % den) / den) for k in numerators)
    im = math.fsum(math.sin(TWO_PI * (k % den) / den) for k in numerators)
    return complex(re, im)


# ---------------------------------------------------------------------------
# Kloosterman sums over Q


def classical_sum(m: int, n: int, c: int) -> complex:
    """S(m, n; c) by a plain loop over the units mod c."""
    if c == 1:
        return 1.0 + 0.0j
    return _phase_sum(
        (m * x + n * pow(x, -1, c) for x in range(1, c) if math.gcd(x, c) == 1), c
    )


def legendre(x: int, p: int) -> int:
    """The Legendre symbol (x / p) for an odd prime p, by Euler's criterion."""
    r = pow(x % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def legendre_twisted_sum(m: int, n: int, p: int) -> complex:
    """sum over x mod p of (x/p) e((m x + n x^-1) / p); the twist is real."""
    re = math.fsum(
        legendre(x, p) * math.cos(TWO_PI * ((m * x + n * pow(x, -1, p)) % p) / p)
        for x in range(1, p)
    )
    im = math.fsum(
        legendre(x, p) * math.sin(TWO_PI * ((m * x + n * pow(x, -1, p)) % p) / p)
        for x in range(1, p)
    )
    return complex(re, im)


# ---------------------------------------------------------------------------
# Kloosterman sums over a real quadratic field, in integer coordinates


class QuadraticRing:
    """The ring of integers Z[w] of Q(sqrt(D)), elements as pairs (x, y) = x + y w.

    w = (1 + sqrt(D)) / 2 when D = 1 mod 4 and w = sqrt(D) otherwise, so
    w^2 = t w - n with t = Tr(w) and n = N(w).
    """

    def __init__(self, D: int):
        self.D = D
        if D % 4 == 1:
            self.t, self.n = 1, (1 - D) // 4
        else:
            self.t, self.n = 0, -D

    def mul(self, a, b):
        (x1, y1), (x2, y2) = a, b
        return (x1 * x2 - self.n * y1 * y2, x1 * y2 + x2 * y1 + self.t * y1 * y2)

    def conj(self, a):
        x, y = a
        return (x + self.t * y, -y)

    def trace(self, a) -> int:
        return 2 * a[0] + self.t * a[1]

    def norm(self, a) -> int:
        x, y = a
        return x * x + self.t * x * y + self.n * y * y


class ResidueRing:
    """O / (c) for c in Z[w], reduced by the Hermite normal form of (c).

    (c) is the lattice spanned by c and c*w; in coordinates it has the basis
    (A, 0), (B, C) with C the gcd of the second coordinates, so every residue
    is (i, j) with 0 <= i < A, 0 <= j < C.
    """

    def __init__(self, ring: QuadraticRing, c):
        self.ring = ring
        self.c = c
        rows = [c, ring.mul(c, (0, 1))]
        (x1, y1), (x2, y2) = rows
        g, s, u = _xgcd(y1, y2)
        self.C = g
        self.A = abs(x1 * y2 - x2 * y1) // g
        self.B = (s * x1 + u * x2) % self.A
        self.rows = rows

    def reduce(self, a):
        x, y = a
        q = y // self.C
        return ((x - q * self.B) % self.A, y - q * self.C)

    def residues(self):
        return [(i, j) for i in range(self.A) for j in range(self.C)]

    def is_unit(self, a) -> bool:
        """a O + (c) = O, i.e. the gcd of all 2x2 minors of {a, a w, c, c w} is 1."""
        vecs = [a, self.ring.mul(a, (0, 1))] + self.rows
        g = 0
        for i in range(4):
            for j in range(i + 1, 4):
                g = math.gcd(g, vecs[i][0] * vecs[j][1] - vecs[j][0] * vecs[i][1])
        return g == 1

    def power(self, a, k: int):
        out, base = self.reduce((1, 0)), self.reduce(a)
        while k:
            if k & 1:
                out = self.reduce(self.ring.mul(out, base))
            base = self.reduce(self.ring.mul(base, base))
            k >>= 1
        return out


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, u) with s a + u b = g = gcd(a, b) >= 0."""
    s0, s1, u0, u1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        u0, u1 = u1, u0 - q * u1
    if a < 0:
        a, s0, u0 = -a, -s0, -u0
    return a, s0, u0


def quadratic_sum(D: int, r, rp, c) -> complex:
    """KS(r, O; r', O; c, O) = sum over units x mod (c) of e(Tr((r x + r' x^-1) / c)).

    Inverses are x^(phi - 1) with phi the number of units; every inverse is
    checked.  Tr(z / c) = Tr(z conj(c)) / N(c), so each phase is an exact
    integer numerator over |N(c)|.
    """
    ring = QuadraticRing(D)
    res = ResidueRing(ring, c)
    units = [x for x in res.residues() if res.is_unit(x)]
    phi = len(units)
    N = ring.norm(c)
    sign, M = (1, N) if N > 0 else (-1, -N)
    cbar = ring.conj(c)
    nums = []
    for x in units:
        y = res.power(x, phi - 1)
        if res.reduce(ring.mul(x, y)) != res.reduce((1, 0)):
            raise ArithmeticError(f"oracle inverse failed for {x} mod {c}")
        rx, ry = ring.mul(r, x), ring.mul(rp, y)
        z = (rx[0] + ry[0], rx[1] + ry[1])
        nums.append(sign * ring.trace(ring.mul(z, cbar)))
    return _phase_sum(nums, M)


# ---------------------------------------------------------------------------
# Fields and measures


def kronecker_disc(disc: int, p: int) -> int:
    """(disc / p) for a fundamental discriminant: +1 split, -1 inert, 0 ramified."""
    if disc % p == 0:
        return 0
    if p == 2:
        return 1 if disc % 8 == 1 else -1
    return legendre(disc, p)


def ideal_count(disc: int, n: int) -> int:
    """Number of ideals of norm n in the quadratic order of discriminant disc."""
    count, p = 1, 2
    while n > 1:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            chi = kronecker_disc(disc, p)
            count *= e + 1 if chi == 1 else (1 if chi == 0 or e % 2 == 0 else 0)
        p += 1
    return count


def euler_product(D: int | None, exponent: float, X: int) -> tuple[float, float]:
    """(field product, rational product) of 1/(1 - N^e) over prime (ideal) norms <= X."""
    disc = None if D is None else (D if D % 4 == 1 else 4 * D)
    sieve = bytearray([1]) * (X + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(X) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, X + 1, p)))
    logs_field, logs_rat = [], []
    for p in range(2, X + 1):
        if not sieve[p]:
            continue
        local = -math.log1p(-float(p) ** exponent)
        logs_rat.append(local)
        if disc is None:
            continue
        chi = kronecker_disc(disc, p)
        if chi == 1:
            logs_field.append(2.0 * local)
        elif chi == 0:
            logs_field.append(local)
        elif p * p <= X:
            logs_field.append(-math.log1p(-float(p * p) ** exponent))
    rat = math.exp(math.fsum(logs_rat))
    return (rat if disc is None else math.exp(math.fsum(logs_field))), rat


def sato_tate_cdf(xs: np.ndarray) -> np.ndarray:
    """CDF of (1 / 2 pi) sqrt(4 - x^2) on [-2, 2], in closed form."""
    h = np.clip(np.asarray(xs, dtype=float), -2.0, 2.0) / 2.0
    return 0.5 + (np.arcsin(h) + h * np.sqrt(np.clip(1.0 - h * h, 0.0, None))) / math.pi


def ks_sato_tate(samples: np.ndarray) -> float:
    """max over distinct sample points of |empirical CDF - Sato-Tate CDF|.

    The empirical CDF is right-continuous and, as in the library, compared
    only at the sample points (not at their left limits).
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    emp = np.arange(1, len(xs) + 1) / len(xs)
    keep = np.append(xs[1:] != xs[:-1], True)
    return float(np.max(np.abs(emp[keep] - sato_tate_cdf(xs[keep]))))

