import cmath
import contextlib
import hashlib
import io
import itertools
import math
import os
import subprocess
import sys

import pytest

from heckedist.errors import (
    EnumerationTooLarge,
    InvalidParameter,
    InvariantViolation,
    ModulusZero,
    PreconditionViolation,
)
from heckedist.kloosterman import (
    TwistCharacter,
    classical_weil_sweep,
    classical_weil_table,
    ks_classical,
    ks_twisted,
    quadratic_weil_sweep,
    residue_unit_group,
    weil_check,
)
from heckedist.numberfield import (
    QuotientModule,
    different_ideal,
    elements_of_norm,
    factor_rational_prime,
    ideal_from_elements,
    is_rational_prime,
    make_field,
    prime_ideals_of_norm_upto,
)
from oracles import (
    classical_weil_table_direct,
    kloosterman_brute,
    kloosterman_direct,
    residue_inverse,
    unit_coords_numpy,
)

Q = make_field("rational")
OQ = Q.unit_ideal()
F5 = make_field(5)
O5 = F5.unit_ideal()


# --- residue unit groups -------------------------------------------------------


def test_unit_group_mod_5_over_Q():
    g = residue_unit_group(OQ, Q.element(5), OQ)
    pairs = sorted((int(x.x), int(y.x)) for x, y in g.elements())
    assert pairs == [(1, 1), (2, 3), (3, 2), (4, 4)]


def test_unit_group_mod_6_has_phi_6_elements():
    g = residue_unit_group(OQ, Q.element(6), OQ)
    assert len(g) == 2


def test_unit_group_inert_2_in_sqrt5():
    g = residue_unit_group(O5, F5.element(2), O5)
    assert len(g) == 3  # residue field with 4 elements


def test_unit_count_matches_ideal_totient():
    # phi(modulus) = N(modulus) * prod over P | modulus of (1 - 1/N(P))
    for c in (F5.element(3), F5.element(5, 1), F5.element(2) * F5.element(3)):
        g = residue_unit_group(O5, c, O5)
        modulus = ideal_from_elements(F5, [c])
        n = int(modulus.norm())
        phi = n
        for P in prime_ideals_of_norm_upto(F5, n):
            if P.contains_ideal(modulus):
                phi = phi * (int(P.norm()) - 1) // int(P.norm())
        assert len(g) == phi


def test_inverse_pairing_verified_exactly():
    g = residue_unit_group(O5, F5.element(3, 1), O5)
    modulus = ideal_from_elements(F5, [F5.element(3, 1)])
    for x, y in g.elements():
        assert modulus.contains(x * y - F5.one())


def test_unit_group_over_Q_is_the_units_of_Z_mod_N():
    # over Q, for any a and c_frak, the units are the ascending units of
    # Z/N(modulus) and each inverse is its partner's inverse in [0, N)
    for a in (1, 2, 3, 6):
        for k in (1, 2, 5):
            cf = Q.ideal(Q.one() / Q.element(k))  # c_frak^(-1) = (k)
            for c in range(k, 40, k):
                g = residue_unit_group(Q.ideal(a), Q.element(c), cf)
                N = c // k
                x, y = [u for u, _ in g.units], [v for v, _ in g.inverses]
                # gcd(0, 1) = 1: Z/1 has the one unit 0
                assert x == [u for u in range(N) if math.gcd(u, N) == 1]
                assert not any(j for _, j in g.units) and not any(l for _, l in g.inverses)
                assert all(0 <= v < N for v in y)
                assert all(u * v % N == 1 % N for u, v in zip(x, y)), (a, k, c)
                for u, v in g.elements():
                    assert g.modulus.contains(u * v - Q.one())


def _is_cyclic(g):
    """Whether O/modulus and both modules of the group have shape (N, 1)."""
    mod = QuotientModule(g.field.unit_ideal(), g.modulus)
    return mod.shape[1] == g.quotient.shape[1] == g.inverse_quotient.shape[1] == 1


def test_cyclic_unit_groups_over_quadratic_fields_are_the_units_of_Z_mod_N():
    # when O/modulus and both modules are cyclic, the units are i*e_1 for the
    # ascending units i of Z/N and the inverses j*f_1 have j in [0, N), as
    # over Q, for any a and c_frak
    seen = set()
    for D in (2, 5, 10, 13):
        F = make_field(D)
        O = F.unit_ideal()
        P2, P3 = (factor_rational_prime(F, p).primes[0] for p in (2, 3))
        for a in (O, P2, P3):
            for cf in (O, P2):
                for c in _admissible_moduli(F, cf, bound=30):
                    g = residue_unit_group(a, c, cf)
                    if not _is_cyclic(g):
                        continue
                    N = g.quotient.index
                    x, y = [u for u, _ in g.units], [v for v, _ in g.inverses]
                    assert x == [u for u in range(N) if math.gcd(u, N) == 1]
                    assert not any(j for _, j in g.units) and not any(l for _, l in g.inverses)
                    assert all(0 <= v < N for v in y)
                    for u, v in g.elements():
                        assert g.modulus.contains(u * v - F.one()), (D, c)
                    seen.add((a != O, cf != O, N == 1))
    # a != O, c_frak != O and the unit modulus each take the cyclic path
    assert {(True, False, False), (False, True, False), (False, False, True)} <= seen


def test_modulus_zero_and_cap():
    with pytest.raises(ModulusZero):
        residue_unit_group(OQ, Q.element(0), OQ)
    with pytest.raises(EnumerationTooLarge):
        residue_unit_group(OQ, Q.element(10**7), OQ)


# --- classical values -----------------------------------------------------------


def test_classical_examples():
    assert abs(ks_classical(1, 1, 3) - (-1.0)) < 1e-12  # e(2/3) + e(4/3)
    assert abs(ks_classical(1, 1, 2) - 1.0) < 1e-12  # single term e(1)
    assert abs(ks_classical(0, 0, 6) - 2.0) < 1e-12  # phi(6) terms of 1


def test_classical_specialization_against_direct_loop():
    # every modulus up to 300, all 1 <= m, n <= 5; the residue group is
    # built once per modulus and shared across the 25 sums
    for c in range(1, 301):
        g = residue_unit_group(OQ, Q.element(c), OQ)
        direct_units = [(int(x.x) % c if c > 1 else 0,
                         int(y.x) % c if c > 1 else 0) for x, y in g.elements()]
        for m in range(1, 6):
            for n in range(1, 6):
                via_group = ks_twisted(Q.element(m), OQ, Q.element(n),
                                       Q.element(c), OQ, group=g)
                assert abs(via_group - kloosterman_direct(m, n, c)) < 1e-9, (m, n, c)
        assert len(direct_units) == len(set(direct_units))


def test_realness_with_trivial_twist():
    for m, n, c in [(1, 2, 35), (3, 4, 50), (2, 2, 97)]:
        assert abs(ks_classical(m, n, c).imag) < 1e-9


def test_weil_table_matches_direct():
    # a non-square (m_max, n_max) makes a swapped m/n axis read wrong values
    for shape in ((40, 3, 3), (30, 2, 4)):
        got = {(c, m, n): v for c, m, n, v in classical_weil_table(*shape)}
        c_max, m_max, n_max = shape
        assert len(got) == c_max * m_max * n_max
        for (c, m, n), v in got.items():
            assert abs(v - kloosterman_direct(m, n, c).real) < 1e-9


@pytest.mark.parametrize("shape", [
    # m shares the prime of 2^7, 3^4 and 5^3 (and 7^2 at m = 7), and m or n
    # exceeds c; an empty range of c or m yields nothing
    (300, 5, 5), (200, 7, 3), (128, 8, 8), (0, 5, 5), (10, 0, 3),
])
def test_weil_table_matches_the_direct_table(shape):
    got = list(classical_weil_table(*shape))
    want = list(classical_weil_table_direct(*shape))
    assert [row[:3] for row in got] == [row[:3] for row in want]
    assert len(got) == math.prod(shape)
    for (c, m, n, v), (_, _, _, w) in zip(got, want):
        assert abs(v - w) < 1e-10, (c, m, n)


def test_twisted_multiplicativity_over_Q():
    # S(m, n; c1*c2) = S(m, n*c2b^2; c1) * S(m, n*c1b^2; c2) for coprime c1, c2
    # with c1*c1b = 1 mod c2 and c2*c2b = 1 mod c1, the identity the
    # classical table rests on; c1 < c2 and c1*c2 <= 60 leave c1 <= 7
    for c1 in range(2, 8):
        for c2 in range(c1 + 1, 60 // c1 + 1):
            if math.gcd(c1, c2) != 1:
                continue
            c1b, c2b = pow(c1, -1, c2), pow(c2, -1, c1)
            for m in range(1, 7):
                for n in range(1, 7):
                    lhs = kloosterman_direct(m, n, c1 * c2)
                    rhs = (kloosterman_direct(m, n * c2b**2, c1)
                           * kloosterman_direct(m, n * c1b**2, c2))
                    assert abs(lhs - rhs) < 1e-9, (m, n, c1, c2)


def test_weil_table_size_guard(monkeypatch):
    import heckedist.kloosterman as K

    # the accumulator has (c_max + 1) * m_max * n_max cells
    with pytest.raises(EnumerationTooLarge, match="exceeds cap"):
        list(classical_weil_table(10, 2**62, 1))
    monkeypatch.setattr(K, "TABLE_CAP", 66)
    assert len(list(classical_weil_table(10, 2, 3))) == 60
    with pytest.raises(EnumerationTooLarge, match="exceeds cap"):
        list(classical_weil_table(10, 2, 4))
    # past the cap, an index product m_max * c_max beyond int64 still raises
    monkeypatch.setattr(K, "TABLE_CAP", 2**200)
    with pytest.raises(EnumerationTooLarge, match="overflow int64"):
        list(classical_weil_table(10, 2**62, 1))


# sha256 of the repr of every row, one per line; (128, 8, 8) has m sharing
# the prime of 2^7, 3^4, 5^3 and 7^2
_TABLE_DIGESTS = {
    (300, 5, 5): "45e4b1029cbf208adcf3fdb5e6804afb506cac344a32ed01b7d0ec843cfcf230",
    (128, 8, 8): "67d4cfd44a2734000425ea82656f3da100fd4df7adc3f153d8b028a48f0ee4b3",
}


@pytest.mark.parametrize("shape", sorted(_TABLE_DIGESTS))
def test_weil_table_bytes_are_pinned(shape):
    rows = "\n".join(map(repr, classical_weil_table(*shape)))
    assert hashlib.sha256(rows.encode()).hexdigest() == _TABLE_DIGESTS[shape]


def test_weil_table_int64_guard_allocates_nothing():
    import heckedist

    # products of two residues mod q <= c_max must fit int64; the guard has to
    # fire before the (c_max + 1)-row accumulator exists, so the address space
    # is capped at 1 GiB and a late guard dies of MemoryError instead
    script = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
import heckedist.kloosterman as K
from heckedist.errors import EnumerationTooLarge
K.TABLE_CAP = 2**200
try:
    list(K.classical_weil_table(3_100_000_000, 1, 1))
except EnumerationTooLarge as exc:
    print(exc)
"""
    src = os.path.dirname(os.path.dirname(heckedist.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "overflow int64" in proc.stdout


def test_prime_power_units_match_zn_units():
    import heckedist.kloosterman as K

    # the table's generator powers and the residue groups' Z/N enumeration
    # check each other at every prime power q <= 4096
    seen = []
    for p, k, q, x, y in K._prime_power_units(4096):
        pairs = sorted(zip(x.tolist(), y.tolist()))
        assert q == p**k and [list(v) for v in zip(*pairs)] == list(K._zn_units(q)), (p, k)
        seen.append(q)
    assert seen == [q for p in range(2, 4097) if is_rational_prime(p)
                    for q in itertools.takewhile(lambda q: q <= 4096,
                                                 (p**k for k in itertools.count(1)))]


def _shift_by_submodule(coords, sub_hnf, k0):
    # add k*(a1, 0) + (k + k0)*(b1, c1), a multiple of the submodule, to row k
    a1, b1, c1 = sub_hnf
    return tuple((i + k * a1 + (k + k0) * b1, j + (k + k0) * c1)
                 for k, (i, j) in enumerate(coords))


def test_coset_shift_independence():
    # shifting the coordinates the sum reads by multiples of the submodule
    # leaves the sum fixed
    import dataclasses

    for field, c in [(Q, Q.element(7)), (F5, F5.element(3, 1))]:
        O = field.unit_ideal()
        g = residue_unit_group(O, c, O)
        g_shift = dataclasses.replace(
            g,
            units=_shift_by_submodule(g.units, g.quotient.sub_hnf, 0),
            inverses=_shift_by_submodule(g.inverses, g.inverse_quotient.sub_hnf, 1),
        )
        assert g_shift.units != g.units
        v1 = ks_twisted(field.one(), O, field.element(2), c, O, group=g)
        v2 = ks_twisted(field.one(), O, field.element(2), c, O, group=g_shift)
        assert abs(v1 - v2) < 1e-9


# --- preconditions ----------------------------------------------------------------


def test_precondition_membership_named():
    # r must lie in a^(-1) d^(-1): over Q(sqrt5) that is (1/sqrt5); 1/2 is not in it
    bad_r = F5.element(0.5)
    with pytest.raises(PreconditionViolation) as err:
        ks_twisted(bad_r, O5, F5.one(), F5.element(3), O5)
    assert "r not in" in str(err.value)


def test_weil_check_checks_the_twists_before_the_modulus():
    # a twist outside its ideal is a precondition fault even when the modulus
    # is zero or too large to enumerate, in weil_check as in ks_twisted
    half = F5.element(0.5)
    for r, rp in ((half, F5.one()), (F5.one(), half)):
        for c in (F5.zero(), F5.element(10**7)):
            for fn in (ks_twisted, weil_check):
                with pytest.raises(PreconditionViolation):
                    fn(r, O5, rp, c, O5)
    with pytest.raises(ModulusZero):
        weil_check(F5.one(), O5, F5.one(), F5.zero(), O5)
    with pytest.raises(EnumerationTooLarge):
        weil_check(F5.one(), O5, F5.one(), F5.element(10**7), O5)


def test_group_for_another_modulus_is_refused():
    # over Q, the units mod 7 are not those mod 5
    one, seven = Q.element(1), Q.element(7)
    with pytest.raises(PreconditionViolation, match="residue group"):
        ks_twisted(one, OQ, one, Q.element(5), OQ, group=residue_unit_group(OQ, seven, OQ))
    # over Q(sqrt5): a group built for a = (2), and one for c_frak = P2
    two = ideal_from_elements(F5, [F5.element(2)])
    P2 = factor_rational_prime(F5, 2).primes[0]
    c = F5.element(3, 1)
    for g in (residue_unit_group(two, c, O5), residue_unit_group(O5, c, P2)):
        for fn in (ks_twisted, weil_check):
            with pytest.raises(PreconditionViolation, match="residue group"):
                fn(F5.one(), O5, F5.one(), c, O5, group=g)


def test_group_serves_every_associate_modulus():
    for c, units in ((Q.element(7), [-1]), (F5.element(3, 1), [-1, F5.fundamental_unit])):
        field = c.field
        O = field.unit_ideal()
        g = residue_unit_group(O, c, O)
        r, rp = field.one(), field.element(2)
        for cc in [c] + [u * c for u in units]:
            assert ks_twisted(r, O, rp, cc, O, group=g) == ks_twisted(r, O, rp, cc, O)
            assert (weil_check(r, O, rp, cc, O, group=g).value
                    == weil_check(r, O, rp, cc, O).value)


def test_r_in_inverse_different_is_accepted():
    dinv = different_ideal(F5).inverse()
    r = dinv.basis_elements()[1]  # genuinely fractional
    v = ks_twisted(r, O5, F5.one(), F5.element(3), O5)
    assert abs(v.imag) < 1e-9


# --- twists ------------------------------------------------------------------------


def test_legendre_twist_matches_direct():
    p = 11
    chi = TwistCharacter.legendre(p)
    v = ks_twisted(Q.element(1), OQ, Q.element(3), Q.element(p), OQ, chi=chi)
    direct = 0j
    for x in range(1, p):
        ch = 1.0 if pow(x, (p - 1) // 2, p) == 1 else -1.0
        direct += ch * cmath.exp(2j * cmath.pi * ((x + 3 * pow(x, -1, p)) % p) / p)
    assert abs(v - direct) < 1e-12


def test_twist_character_validation():
    with pytest.raises(ValueError):
        TwistCharacter({(1,): 2.0})
    with pytest.raises(ValueError):
        TwistCharacter.legendre(8)


@pytest.mark.parametrize("value", [complex(math.nan), complex(1.0, math.nan), "one", None])
def test_twist_character_refuses_nan_and_non_numbers(value):
    # |nan| - 1 > tol is False, so only a check written as not (... <= tol)
    # refuses NaN; a NaN value let through makes every twisted sum nan+nanj
    with pytest.raises(InvalidParameter):
        TwistCharacter({(1,): 1.0, (2,): value})


def test_legendre_twist_needs_an_odd_prime():
    # a composite modulus would give a table with entries at non-units that is
    # no character (legendre(9) has values at 3 and 6)
    for p in (-3, 0, 1, 2, 9, 15, 21, 25):
        with pytest.raises(InvalidParameter):
            TwistCharacter.legendre(p)
    for p in (3, 5, 7, 11):
        chi = TwistCharacter.legendre(p)
        assert chi.verify_multiplicative(residue_unit_group(OQ, Q.element(p), OQ))


def test_legendre_twist_is_multiplicative():
    chi = TwistCharacter.legendre(13)
    g = residue_unit_group(OQ, Q.element(13), OQ)
    assert chi.verify_multiplicative(g)
    # a corrupted table is detected
    bad_table = dict(chi.table)
    bad_table[(2,)] = -bad_table[(2,)]
    bad = TwistCharacter(bad_table)
    assert not bad.verify_multiplicative(g)


def test_table_twist_requires_ring_module():
    chi = TwistCharacter.legendre(5)
    P = factor_rational_prime(Q, 7).primes[0]
    # r' = 7 lies in a d^(-1) = 7Z, so the twists pass and the table lookup refuses
    with pytest.raises(PreconditionViolation, match="explicit twist tables"):
        ks_twisted(Q.element(1), P, Q.element(7), Q.element(5), OQ, chi=chi)


def test_table_twist_missing_a_residue():
    chi = TwistCharacter({(1,): 1.0, (2,): -1.0, (3,): -1.0})
    with pytest.raises(PreconditionViolation, match=r"missing residue \(4,\)"):
        ks_twisted(Q.element(1), OQ, Q.element(1), Q.element(5), OQ, chi=chi)


# --- Weil bound ---------------------------------------------------------------------


def test_weil_example_s113():
    chk = weil_check(Q.element(1), OQ, Q.element(1), Q.element(3), OQ, eps=0.0)
    assert abs(chk.ks_abs - 1.0) < 1e-12
    assert abs(chk.rhs - math.sqrt(3)) < 1e-12
    assert abs(chk.ratio - 1 / math.sqrt(3)) < 1e-12


def test_weil_degenerate_gcd_restores_bound():
    chk = weil_check(Q.element(0), OQ, Q.element(0), Q.element(6), OQ, eps=0.0)
    assert abs(chk.ks_abs - 2.0) < 1e-12  # phi(6)
    # gcd reduces to the modulus itself, so rhs = 6^(1/2) * 6^(1/2) = 6
    assert abs(chk.rhs - 6.0) < 1e-12
    assert chk.ratio <= 1.0


def test_ratio_monotone_in_eps():
    prev = math.inf
    for eps in (0.0, 0.1, 0.2, 0.5):
        chk = weil_check(Q.element(1), OQ, Q.element(1), Q.element(5), OQ, eps=eps)
        assert chk.ratio <= prev + 1e-15
        prev = chk.ratio


def test_nontrivial_ideal_reduces_to_classical():
    # over Q with a = (m): module m*Z / m*c*Z has units m*u, inverses u^(-1)/m,
    # and KS(a/m, (m); b*m, c) collapses to the classical S(a, b; c)
    from fractions import Fraction

    for m in (2, 3, 5):
        A = Q.ideal(m)
        for a, b, c in [(1, 1, 7), (2, 3, 9), (1, 4, 12)]:
            r = Q.element(Fraction(a, m))
            rp = Q.element(b * m)
            got = ks_twisted(r, A, rp, Q.element(c), OQ)
            assert abs(got - kloosterman_direct(a, b, c)) < 1e-9, (m, a, b, c)


def test_quadratic_inert_modulus_against_raw_enumeration():
    # independent oracle: enumerate O/(c) for inert c = 3 in Q(sqrt5) by raw
    # coordinates, pick units by norm coprimality, invert by brute force
    import cmath

    c = 3
    units = []
    for x in range(c):
        for y in range(c):
            e = F5.element(x, y)
            if math.gcd(int(e.norm()) % c, c) == 1:
                units.append(e)
    assert len(units) == c * c - 1  # residue field F_9 minus zero
    total = 0j
    for e in units:
        inv = None
        for x in range(c):
            for y in range(c):
                cand = F5.element(x, y)
                prod = e * cand - F5.one()
                if prod.x % c == 0 and prod.y % c == 0:
                    inv = cand
                    break
            if inv is not None:
                break
        expo = float((e + inv).trace()) / c
        total += cmath.exp(2j * cmath.pi * expo)
    got = ks_twisted(F5.one(), O5, F5.one(), F5.element(c), O5)
    assert abs(got - total) < 1e-9


def _row(c):
    return int(c.x), int(c.y)


@pytest.mark.parametrize("D", [2, 3, 5, 10, 13])
def test_quadratic_sums_against_classical_identities(D):
    # (1) a primitive c (no rational integer > 1 divides it) has O/(c) = Z/N,
    #     N = |N(c)|, and Tr(r*x/c) = x*Tr(r*conj(c))/N(c) for x in Z, so
    #     KS_F(r, r'; c) = S(r*Tr(c), r'*Tr(c); N), also for N(c) < 0 since
    #     S(-m, -n; N) = S(m, n; N); a unit c gives 1
    # (2) Hasse-Davenport at an inert p not dividing r*r':
    #     KS_F(r, r'; p) = 2p - S(r, r'; p)^2
    F = make_field(D)
    O = F.unit_ideal()
    signs = set()
    for n in range(1, 120):
        for c in elements_of_norm(F, n):
            if math.gcd(*_row(c)) != 1:
                continue
            g = residue_unit_group(O, c, O)
            tr = int(c.trace())
            for r, rp in ((1, 1), (2, 3), (1, 0)):
                got = ks_twisted(F.element(r), O, F.element(rp), c, O, group=g)
                want = kloosterman_direct(r * tr, rp * tr, n)
                assert abs(got - want) < 1e-9, (D, c, r, rp)
            signs.add(c.norm() < 0)
    assert D != 3 or True in signs  # Q(sqrt3) has no unit of norm -1
    inert = [p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)
             if factor_rational_prime(F, p).tag == "inert"]
    assert inert
    for p in inert:
        g = residue_unit_group(O, F.element(p), O)
        for r, rp in ((1, 1), (2, 3), (1, 5), (3, 4)):
            if r * rp % p:
                got = ks_twisted(F.element(r), O, F.element(rp), F.element(p), O, group=g)
                assert abs(got - (2 * p - kloosterman_direct(r, rp, p) ** 2)) < 1e-9, (D, p, r, rp)


def test_quadratic_split_modulus_factors():
    # twisted multiplicativity across coprime moduli: with c1*c1b = 1 mod (c2)
    # and c2*c2b = 1 mod (c1),
    # KS(r, r'; c1*c2) = KS(r*c2b, r'*c2b; c1) * KS(r*c1b, r'*c1b; c2);
    # the factors mix cyclic and non-cyclic residue groups
    kinds = set()
    for D in (2, 5, 13):
        F = make_field(D)
        O = F.unit_ideal()
        moduli = [c for n in range(2, 76) for c in elements_of_norm(F, n)]
        groups = {c: residue_unit_group(O, c, O) for c in moduli}
        for i, c1 in enumerate(moduli):
            for c2 in moduli[i + 1:]:
                if abs((c1 * c2).norm()) > 150 or ideal_from_elements(F, [c1, c2]) != O:
                    continue
                c1b = F.element(*residue_inverse(D, _row(c1), _row(c2)))
                c2b = F.element(*residue_inverse(D, _row(c2), _row(c1)))
                for m, n in ((1, 1), (2, 3)):
                    r, rp = F.element(m), F.element(n)
                    got = ks_twisted(r, O, rp, c1 * c2, O)
                    want = (ks_twisted(r * c2b, O, rp * c2b, c1, O, group=groups[c1])
                            * ks_twisted(r * c1b, O, rp * c1b, c2, O, group=groups[c2]))
                    assert abs(got - want) < 1e-9, (D, c1, c2)
                kinds |= {_is_cyclic(groups[c1]), _is_cyclic(groups[c2])}
    assert kinds == {True, False}
    v6 = ks_twisted(F5.one(), O5, F5.one(), F5.element(6), O5)
    # S(1,1;6) over Q(sqrt5) with 6 = 2*3 both inert: the sum is real
    assert abs(v6.imag) < 1e-9


def test_weil_sweep_over_Q_is_the_classical_sweep():
    # one sweep serves Q and Q(sqrt(D)); over Q the rows are labelled by c
    for m, n in ((1, 1), (2, 3)):
        assert quadratic_weil_sweep(Q, 60, m, n) == classical_weil_sweep(60, m, n)


def test_quadratic_sweep_real_and_bounded():
    rows = quadratic_weil_sweep(F5, 30)
    assert rows, "sweep must produce rows"
    for row in rows:
        assert row.imag_abs < 1e-9
        assert row.ks_abs <= row.weil_rhs * 4.0  # generous constant, recorded not asserted


# --- the integer engine against a brute-force enumeration ----------------------------


def _admissible_moduli(field, c_ideal, bound=40):
    """Canonical c in c_frak^(-1) with 0 < |N(c)| <= bound."""
    d = c_ideal.inverse().den
    out = []
    for n in range(1, d * d * bound + 1):
        for beta in elements_of_norm(field, n):
            c = beta / d
            if c_ideal.inverse().contains(c):
                out.append(c)
    return out


def test_engine_matches_brute_force_enumeration():
    # Q(sqrt10) has h = 2, and the prime over 3 is not principal
    cases = [(5, 11), (2, 7), (10, 3)]
    for D, p in cases:
        F = make_field(D)
        O = F.unit_ideal()
        dinv = different_ideal(F).inverse()
        P2 = factor_rational_prime(F, 2).primes[0]
        Pa = factor_rational_prime(F, p).primes[0]
        for a in (O, Pa):
            for cf in (O, P2):
                r = (a.inverse() * dinv).basis_elements()[1]
                rp = (a * dinv * cf.inverse() ** 2).basis_elements()[1]
                moduli = _admissible_moduli(F, cf)
                assert moduli
                for c in moduli:
                    g = residue_unit_group(a, c, cf)
                    got = ks_twisted(r, a, rp, c, cf, group=g)
                    want, units = kloosterman_brute(D, r, a, rp, c, cf)
                    assert len(g) == units, (D, a, cf, c)
                    assert abs(got - want) < 1e-9, (D, a, cf, c, got, want)


def test_unit_coords_match_the_numpy_engine():
    # row for row against the int64 engine with one vectorised power per
    # group: over Q, and over Q(sqrt D) for a, c_frak in {O, P2, P3}, on
    # both the cyclic and the non-cyclic path
    cases = [(OQ, Q.element(c), OQ) for c in range(1, 60)]
    for D in (2, 5, 10, 13):
        F = make_field(D)
        O = F.unit_ideal()
        P2, P3 = (factor_rational_prime(F, p).primes[0] for p in (2, 3))
        for a in (O, P2, P3):
            for cf in (O, P2, P3):
                cases += [(a, c, cf) for c in _admissible_moduli(F, cf, bound=30)]
    paths = set()
    for a, c, cf in cases:
        g = residue_unit_group(a, c, cf)
        x, y = unit_coords_numpy(g.quotient, g.inverse_quotient,
                                 QuotientModule(g.field.unit_ideal(), g.modulus))
        assert g.units == tuple(map(tuple, x.tolist())), (a, c, cf)
        assert g.inverses == tuple(map(tuple, y.tolist())), (a, c, cf)
        paths.add(_is_cyclic(g))
    assert paths == {True, False}


# --- invariants hold under python -O -------------------------------------------------


_CORRUPT_ONE_INVERSE = """
import heckedist.kloosterman as K
from heckedist.errors import InvariantViolation
from heckedist.numberfield import make_field

real_batch_inverse, real_generator_powers = K._batch_inverse, K._generator_powers


def corrupt_batch_inverse(units, mul, inverse):
    y = real_batch_inverse(units, mul, inverse)
    y[0], y[1] = y[1], y[0]  # the first two units trade inverses
    return y


def corrupt_generator_powers(h, q, n):
    pw = real_generator_powers(h, q, n)
    pw[-1, 1] += 1  # h^1 of the last prime power in the block becomes h + 1
    return pw


def corrupt_mul_coords(field, p, q):
    return 0, 0  # e_1 * f_1 = 0 is no unit mod the modulus


F, Q = make_field(5), make_field("rational")
O = F.unit_ideal()
# c = 3 is inert in Q(sqrt5), so O/(3) is not cyclic and takes the general
# path; c = 3 + w has norm 11, and Q in a group is cyclic; the table reads
# each inverse h^(o-i) of a unit h^i of Z/q off its generator powers
runs = (
    ("_batch_inverse", corrupt_batch_inverse, lambda: K.residue_unit_group(O, F.element(3), O)),
    ("_batch_inverse", corrupt_batch_inverse, lambda: K.residue_unit_group(O, F.element(3, 1), O)),
    ("_batch_inverse", corrupt_batch_inverse,
     lambda: K.residue_unit_group(Q.ideal(2), Q.element(7), Q.unit_ideal())),
    ("_generator_powers", corrupt_generator_powers,
     lambda: list(K.classical_weil_table(7, 1, 1))),
    ("_mul_coords", corrupt_mul_coords, lambda: K.residue_unit_group(O, F.element(3, 1), O)),
)
for name, corrupt, run in runs:
    real = getattr(K, name)
    setattr(K, name, corrupt)
    try:
        run()
    except InvariantViolation as exc:
        print("raised", exc)
    setattr(K, name, real)
"""
_RAISED = (["raised inverse congruence x * x^(-1) = 1 failed"] * 4
           + ["raised e_1 * f_1 is not a unit modulo the modulus"])


def test_corrupted_inverse_raises(monkeypatch):
    import heckedist.kloosterman as K

    # restored after the script patches them
    for name in ("_batch_inverse", "_generator_powers", "_mul_coords"):
        monkeypatch.setattr(K, name, getattr(K, name))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_CORRUPT_ONE_INVERSE, {})
    assert out.getvalue().splitlines() == _RAISED


def test_corrupted_inverse_raises_under_optimize():
    import heckedist

    src = os.path.dirname(os.path.dirname(heckedist.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    # the leading "assert False" only passes when -O strips asserts
    proc = subprocess.run([sys.executable, "-O", "-c", "assert False\n" + _CORRUPT_ONE_INVERSE],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == _RAISED
