import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from heckedist import bounds, numberfield as nf, quadforms
from heckedist.errors import (
    DegreeUnsupported,
    EnumerationTooLarge,
    InvalidParameter,
    InvariantViolation,
    NotPrime,
    NotSquarefree,
    ZeroIdeal,
)
from heckedist.numberfield import (
    QuotientModule,
    _ideal_from_rows,
    canonical_associate,
    class_group,
    different_ideal,
    elements_of_norm,
    factor_rational_prime,
    find_generator,
    ideal_from_elements,
    ideal_valuation,
    is_prime_ideal,
    is_squarefree,
    make_field,
    narrow_square_witness,
    prime_ideals_of_norm_upto,
    principal_totally_positive_generator,
    totally_positive_adjust,
)
from oracles import (
    abelian_invariants_by_quotients,
    canonical_associate_walk,
    elements_of_norm_scan,
    embedding_bounds,
    frac_conj,
    frac_div,
    frac_mul,
    frac_norm,
    frac_pow,
    frac_sign,
    frac_trace,
    fundamental_unit_by_continued_fraction,
    generator_scan,
    ideal_valuation_by_products,
    in_principal_genus,
    is_prime_ideal_by_norm,
    kronecker,
    narrow_square_witness_walk,
    norm_form_rows,
    prime_discriminants,
    primes_upto,
    smallest_unit_gt_one,
    trace_dual_module,
    unit_power_scan,
)

Q = make_field("rational")
F2 = make_field(2)
F3 = make_field(3)
F5 = make_field(5)
F10 = make_field(10)


def _is_ideal_basis(F, a, b, c):
    """Whether Z*a + Z*(b + c*w), a, c != 0, is an ideal: c | a, c | b and
    (a/c) | N(b/c + w) (Cohen, GTM 138, 5.2)."""
    return a % c == 0 and b % c == 0 and F.element(b // c, 1).norm() % (a // c) == 0


# --- make_field -------------------------------------------------------------


def test_make_field_rational():
    assert Q.degree == 1 and Q.disc == 1


def test_make_field_5_trace_pairing_determinant():
    # Gram matrix of the trace form on (1, w) has determinant = discriminant
    one, w = F5.one(), F5.omega()
    g = [[one.trace(), w.trace()], [w.trace(), (w * w).trace()]]
    assert g == [[2, 1], [1, 3]]
    assert g[0][0] * g[1][1] - g[0][1] * g[1][0] == 5 == F5.disc


def test_make_field_3_unit_by_continued_fraction():
    assert F3.disc == 12
    assert F3.fundamental_unit == F3.element(2, 1)  # 2 + sqrt(3)
    assert F3.unit_norm == 1


def test_make_field_rejects_bad_radicands():
    with pytest.raises(NotSquarefree):
        make_field(12)
    with pytest.raises(DegreeUnsupported):
        make_field(-3)
    with pytest.raises(DegreeUnsupported):
        make_field("cubic")
    # an element of Q has no w-coordinate, however it is built
    for build in (lambda: Q.element(1, 1), lambda: nf.FieldElement(Q, (1, 1)),
                  lambda: nf.FieldElement(Q, (0, 2), 3)):
        with pytest.raises(DegreeUnsupported):
            build()


def test_fundamental_unit_minimality_all_D_up_to_100():
    for D in range(2, 101):
        if not is_squarefree(D):
            continue
        F = make_field(D)
        assert F.fundamental_unit == smallest_unit_gt_one(F), D
        assert abs(F.fundamental_unit.norm()) == 1
        assert F.fundamental_unit.embeddings()[0] > 1


def test_fundamental_unit_matches_the_continued_fraction_below_3000():
    for D in range(2, 3000):
        if is_squarefree(D):
            F = make_field(D)
            assert F.fundamental_unit == fundamental_unit_by_continued_fraction(F), D


@pytest.mark.parametrize("D", [67846, 1234577])
def test_fundamental_unit_past_float_range(D):
    F = make_field(D)
    eps = F.fundamental_unit
    assert eps.is_integral() and abs(eps.norm()) == 1 == abs(F.unit_norm)
    # eps0 > 1 at the first place, by exact signs
    assert eps.sign_at(0) > 0 and (eps - 1).sign_at(0) > 0
    # the float embeddings of the continued-fraction oracle overflow here
    with pytest.raises(OverflowError):
        fundamental_unit_by_continued_fraction(F)


# --- element maps -----------------------------------------------------------


def test_elem_maps_examples():
    def maps(e):
        return (e.trace(), e.norm(), e.is_totally_positive())

    assert maps(F5.one()) == (2, 1, True)
    golden = F5.omega()  # (1 + sqrt5)/2
    assert maps(golden) == (1, -1, False)
    assert golden.embeddings() == pytest.approx(((1 + 5**0.5) / 2, (1 - 5**0.5) / 2))
    e = F3.element(2, 1)  # 2 + sqrt(3)
    assert maps(e) == (4, 1, True)


def test_element_arithmetic_exact():
    a = F5.element(Fraction(1, 2), Fraction(-3, 7))
    b = F5.element(Fraction(2, 3), Fraction(5, 2))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * (F5.one() / a) == F5.one()
    assert a.conjugate().conjugate() == a
    assert (a * b).norm() == a.norm() * b.norm()
    assert (a + b).trace() == a.trace() + b.trace()


def _embeddings_within(F, p, got, rel) -> bool:
    """Each float embedding lies within `rel` (relative) of its exact bracket."""
    for j, g in enumerate(got):
        lo, hi = embedding_bounds(F, p, j)
        if not (abs(Fraction(g) - lo) <= rel * abs(lo) and abs(Fraction(g) - hi) <= rel * abs(hi)):
            return False
    return len(got) == F.degree


def test_unit_power_embeddings_keep_their_precision():
    # eps0^k has embeddings eps0^k and N(eps0)^k eps0^(-k): for |k| >= 40 the
    # small one cancels to 0.0 in x + y*w, although the norm is 1
    for F in (F5, F2, F3, make_field(13)):
        for k in range(-60, 61):
            e = F.fundamental_unit**k
            assert _embeddings_within(F, (e.x, e.y), e.embeddings(), 2**-48), (F.D, k)


_REF_FIELDS = [Q, F2, F3, F5, make_field(13)]
_rational = st.fractions(min_value=-40, max_value=40, max_denominator=12)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_REF_FIELDS), st.data())
def test_element_arithmetic_matches_fraction_reference(F, data):
    w_coord = _rational if F.degree == 2 else st.just(Fraction(0))
    p, q = ((data.draw(_rational), data.draw(w_coord)) for _ in range(2))
    a, b = F.element(*p), F.element(*q)
    k = data.draw(st.integers(-3, 4))

    def coords(e):
        return (e.x, e.y)

    assert coords(a + b) == (p[0] + q[0], p[1] + q[1])
    assert coords(a - b) == (p[0] - q[0], p[1] - q[1])
    assert coords(a * b) == frac_mul(F, p, q)
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        assert coords(a / b) == frac_div(F, p, q)
    if k >= 0 or not a.is_zero():
        assert coords(a**k) == frac_pow(F, p, k)
    assert coords(a.conjugate()) == frac_conj(F, p)
    assert a.norm() == frac_norm(F, p) and a.trace() == frac_trace(F, p)
    assert [a.sign_at(j) for j in (0, 1)] == [frac_sign(F, p, j) for j in (0, 1)]
    assert a.is_totally_positive() == all(frac_sign(F, p, j) > 0 for j in range(F.degree))
    assert _embeddings_within(F, p, a.embeddings(), 2**-48)
    # stored as an integer row over a positive denominator, in lowest terms
    for e in (a, b, a + b, a * b, a.conjugate(), -a):
        (u, v), den = e.row, e.den
        assert den > 0 and math.gcd(u, v, den) == 1
    # equal values, reached two ways, are equal and hash alike
    c = (a * b) / b if not b.is_zero() else a + b - b
    assert c == a and hash(c) == hash(a)
    if p[1] == 0:
        assert a == p[0] and hash(a) == hash(p[0])
    assert F.element(2) == 2 and hash(F.element(2)) == hash(2)


# --- ideals -----------------------------------------------------------------


def test_ideal_product_over_Q():
    assert Q.ideal(2) * Q.ideal(3) == Q.ideal(6)
    assert (Q.ideal(2) * Q.ideal(3)).norm() == 6


def test_split_prime_above_3_in_Q_sqrt10():
    fac = factor_rational_prime(F10, 3)
    assert fac.tag == "split"
    # the prime (3, 1 + sqrt(10))
    P = F10.ideal(F10.element(3), F10.element(1, 1))
    assert P in fac.primes
    assert P.norm() == 3
    assert P * P.conjugate() == F10.ideal(3)
    assert P.contains(F10.element(1, 1))
    assert not P.contains(F10.one())


def test_ideal_arith_dispatch():
    assert Q.ideal(6).norm() == 6
    assert Q.ideal(2) * Q.ideal(3) == Q.ideal(6)
    assert Q.ideal(4) + Q.ideal(6) == Q.ideal(2)
    assert Q.ideal(2).inverse() == ideal_from_elements(Q, [Q.element(Fraction(1, 2))])
    assert Q.ideal(2).contains(Q.element(4)) is True
    assert Q.ideal(2).contains(Q.element(3)) is False


def test_zero_ideal_errors():
    # no fractional ideal is zero: each way of building one refuses it
    builds = [lambda: ideal_from_elements(F5, []), lambda: F5.ideal(0), lambda: Q.ideal(0, 0),
              lambda: F5.ideal(2) * F5.zero(), lambda: nf.FractionalIdeal(F5, 1, (0, 0, 0)),
              lambda: nf.FractionalIdeal(Q, 3, (0,)),
              # rank-1 modules: Z*w and Z*3 + Z*1, of norm 0
              lambda: nf.FractionalIdeal(F5, 1, (0, 0, 1)),
              lambda: nf.FractionalIdeal(F5, 1, (3, 1, 0))]
    for build in builds:
        with pytest.raises(ZeroIdeal):
            build()


@pytest.mark.parametrize("field", [F5, F10, F3])
def test_norm_multiplicativity_random_pairs(field):
    rng = random.Random(20240 + field.D)
    pool = prime_ideals_of_norm_upto(field, 60)
    for _ in range(200):
        a = rng.choice(pool) * rng.choice(pool)
        b = rng.choice(pool) * rng.choice(pool)
        assert (a * b).norm() == a.norm() * b.norm()
    for P in pool:
        assert P * P.inverse() == field.unit_ideal()


def test_inverse_of_fractional_ideal():
    A = F10.ideal(F10.element(Fraction(3, 7)), F10.element(0, Fraction(1, 2)))
    assert A * A.inverse() == F10.unit_ideal()
    assert A.inverse().norm() == 1 / A.norm()
    # A**k against repeated products of A or of its inverse
    for F in (Q, F5, F10):
        y = Fraction(1, 2) if F.degree == 2 else 0
        for I in (F.ideal(F.element(Fraction(3, 7), y)), F.ideal(6),
                  factor_rational_prime(F, 3).primes[0]):
            for k in range(-3, 6):
                want = F.unit_ideal()
                for _ in range(abs(k)):
                    want = want * (I if k > 0 else I.inverse())
                assert I**k == want, (F, I, k)


# --- valuations -------------------------------------------------------------


def test_valuation_examples():
    assert ideal_valuation(Q.ideal(9), Q.ideal(3)) == 2
    P = factor_rational_prime(F10, 3).primes[0]
    assert ideal_valuation(F10.ideal(3), P) == 1
    assert ideal_valuation(P ** (-2), P) == -2


def test_valuation_additive_on_elements():
    P = factor_rational_prime(F5, 11).primes[0]
    x = F5.element(11) * F5.element(2, 3)
    y = F5.element(1, 1)
    assert ideal_valuation(x * y, P) == ideal_valuation(x, P) + ideal_valuation(y, P)


def test_valuation_requires_prime():
    with pytest.raises(NotPrime):
        ideal_valuation(Q.ideal(9), Q.ideal(6))


def test_valuation_matches_ideal_products():
    # Q and every squarefree D < 150, each prime P above p <= 13: elements with
    # denominators, and P^k * conj(P)^m * (other factor) with k, m in [-3, 4]
    rng = random.Random(24)
    for D in ["rational"] + [D for D in range(2, 150) if is_squarefree(D)]:
        F = make_field(D)
        w = F.degree - 1  # 0 over Q, where elements have no w-coordinate
        for p in (2, 3, 5, 7, 11, 13):
            q = 17 if p != 2 else 3
            others = (F.unit_ideal(), F.ideal(p), factor_rational_prime(F, q).primes[0],
                      F.ideal(F.element(2, w)), F.ideal(F.element(3) / 2))
            for P in factor_rational_prime(F, p).primes:
                cases = []
                for _ in range(12):
                    u, v = rng.randint(-40, 40), w * rng.randint(-40, 40)
                    if (u, v) == (0, 0):
                        continue
                    scale = p ** rng.randint(0, 3) * rng.choice((1, 2, 3, 6))
                    den = p ** rng.randint(0, 3) * rng.choice((1, 5, 7))
                    cases.append(F.element(u, v) * scale / den)
                for k in range(-3, 5):
                    cases.append(P**k * P.conjugate() ** rng.randint(-3, 4) * rng.choice(others))
                for arg in cases:
                    assert ideal_valuation(arg, P) == ideal_valuation_by_products(arg, P), \
                        (D, P, arg)
    # Z-modules of prime norm that are not ideals cannot be built
    for hnf in ((1, 0, 5), (5, 0, 1)):
        with pytest.raises(InvariantViolation):
            nf.FractionalIdeal(F5, 1, hnf)


def test_is_prime_ideal_matches_the_norm_definition():
    # every (a, b, c) with a <= 36, b < a and c | a or c <= 6, over two
    # denominators: (p) = P*conj(P) at a split p, P^2 at split and ramified p,
    # inert (p) and non-integral ideals; the modules that are not ideals are
    # refused
    fields = [make_field(D) for D in (2, 3, 5, 10, 13, 21, 79)]
    for F in fields:
        for a in range(1, 37):
            cs = sorted({c for c in range(1, a + 1) if a % c == 0} | set(range(1, 7)))
            for b in range(a):
                for c in cs:
                    for den in (1, 2):
                        if not _is_ideal_basis(F, a, b, c):
                            with pytest.raises(InvariantViolation):
                                nf.FractionalIdeal(F, den, (a, b, c))
                            continue
                        I = nf.FractionalIdeal(F, den, (a, b, c))
                        assert is_prime_ideal(I) == is_prime_ideal_by_norm(I), (F, I)
    for F in fields[:3]:
        for p in (2, 3, 5, 7, 11):
            fac = factor_rational_prime(F, p)
            for I in (F.ideal(p), fac.primes[0] ** 2, fac.primes[0] ** -1):
                assert is_prime_ideal(I) == is_prime_ideal_by_norm(I), (F, I)
            assert is_prime_ideal(F.ideal(p)) == (fac.tag == "inert")
    for a in range(0, 400):
        for den in (1, 2, 3):
            if a == 0:
                with pytest.raises(ZeroIdeal):
                    nf.FractionalIdeal(Q, den, (a,))
                continue
            I = nf.FractionalIdeal(Q, den, (a,))
            assert is_prime_ideal(I) == is_prime_ideal_by_norm(I), I


def test_inert_prime_near_10_to_the_12_is_prime_without_stalling():
    # p = 10^12 + 63 is inert in Q(sqrt5); a test on the norm p^2 would
    # trial-divide about p times before it reached the factor p
    src = os.path.dirname(os.path.dirname(nf.__file__))
    script = ("import heckedist.numberfield as nf\n"
              "F = nf.make_field(5)\n"
              "p = 10**12 + 63\n"
              "assert nf.factor_rational_prime(F, p).tag == 'inert'\n"
              "print(nf.is_prime_ideal(F.ideal(p)))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"


def test_factorization_reconstructs_all_p_up_to_100():
    for field in (F5, F10, F3, F2):
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                  59, 61, 67, 71, 73, 79, 83, 89, 97):
            fac = factor_rational_prime(field, p)
            prod = field.unit_ideal()
            for P, f in zip(fac.primes, fac.residue_degrees):
                assert is_prime_ideal(P)
                assert P.norm() == p**f
                mult = 2 if fac.tag == "ramified" else 1
                prod = prod * P**mult
            assert prod == field.ideal(p)
            # valuations consistent with the tag
            for P in fac.primes:
                expected = 2 if fac.tag == "ramified" else 1
                assert ideal_valuation(field.ideal(p), P) == expected


def test_splitting_examples_sqrt5():
    assert factor_rational_prime(F5, 11).tag == "split"  # 4^2 = 5 mod 11
    assert factor_rational_prime(F5, 2).tag == "inert"  # 5 = 5 mod 8
    assert factor_rational_prime(F5, 5).tag == "ramified"


def test_splitting_by_residue_class_matches_the_kronecker_symbol():
    primes = primes_upto(10**4)
    arr = np.array(primes, dtype=np.int64)
    tag = {1: "split", 0: "ramified", -1: "inert"}

    def tags(F):
        return [bounds._SPLITTING_TAGS[k] for k in bounds._splitting_codes(F, arr).tolist()]

    for D in range(2, 200):
        if is_squarefree(D):
            F = make_field(D)
            assert tags(F) == [tag[kronecker(F.disc, p)] for p in primes], D
    assert tags(Q) == ["inert"] * len(primes)


def _primes_by_trial_division(n):
    return [m for m in range(2, n + 1) if all(m % d for d in range(2, math.isqrt(m) + 1))]


def test_rational_primes_upto_matches_trial_division():
    for n in range(-1, 301):
        assert nf.rational_primes_upto(n) == _primes_by_trial_division(n), n
    primes = nf.rational_primes_upto(99_991)
    assert primes == _primes_by_trial_division(99_991)
    assert primes[-1] == 99_991 and all(type(p) is int for p in primes)


def test_is_rational_prime_matches_the_sieve():
    primes = [n for n in range(-2, 200_000) if nf.is_rational_prime(n)]
    assert primes == list(primes_upto(200_000))


def test_is_rational_prime_refuses_pseudoprimes_and_stops_at_its_bound():
    carmichael = [561, 1105, 1729, 2465, 2821, 6601]
    # strong pseudoprimes to every prime base up to 7, 23 and 37
    strong = [3215031751, 3825123056546413051, 318665857834031151167461]
    assert not any(nf.is_rational_prime(n) for n in carmichael + strong)
    assert nf.is_rational_prime(2**61 - 1) and nf.is_rational_prime(2**79 - 67)
    assert not nf.is_rational_prime(100000007**2)
    assert not nf.is_rational_prime(2**90)  # a factor among the bases decides it past the bound
    with pytest.raises(EnumerationTooLarge):
        nf.is_rational_prime(2**89 - 1)


def test_sqrt_mod_prime_matches_a_square_scan():
    for p in primes_upto(2000)[1:]:
        squares = {x * x % p for x in range(p)}
        for n in range(p):
            r = nf._sqrt_mod_prime(n, p)
            assert (r is not None and r * r % p == n) if n in squares else r is None, (n, p)
    for p in (998244353, 2**61 - 1):
        for x in (1, 3, 12345, p - 2):
            r = nf._sqrt_mod_prime(x * x, p)
            assert r in (x, p - x)
        nonresidue = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)
        assert nf._sqrt_mod_prime(nonresidue, p) is None


# --- different --------------------------------------------------------------


def test_different_examples():
    assert different_ideal(Q) == Q.unit_ideal()
    d5 = different_ideal(F5)
    assert d5 == ideal_from_elements(F5, [F5.sqrt_D()])
    assert d5.norm() == 5
    d2 = different_ideal(F2)
    assert d2.norm() == 8
    assert d2 == ideal_from_elements(F2, [F2.element(0, 2)])  # (2 sqrt 2)


def test_different_is_memoised_per_field_and_is_2w_minus_t():
    assert different_ideal(Q) is different_ideal(Q)
    for D in range(2, 120):
        if not is_squarefree(D):
            continue
        F = make_field(D)
        d = different_ideal(F)
        assert different_ideal(F) is d, D
        # 2w - t is sqrt(D) when w = (1 + sqrt(D))/2, and 2 sqrt(D) when w = sqrt(D)
        root = F.sqrt_D() * (1 if D % 4 == 1 else 2)
        assert d == ideal_from_elements(F, [root]), D
        assert d.norm() == F.disc, D


@pytest.mark.parametrize("field", [Q, F2, F3, F5, F10])
def test_trace_duality_defining_property(field):
    dinv = different_ideal(field).inverse()
    # the dual module computed from the trace pairing agrees exactly
    assert trace_dual_module(field) == dinv
    # S(x * O) in Z for module generators x of the inverse different
    for x in dinv.basis_elements():
        for g in field.unit_ideal().basis_elements():
            assert (x * g).trace().denominator == 1
    assert different_ideal(field).norm() == field.disc


# --- class groups -----------------------------------------------------------


def test_class_number_formula_below_1000():
    # Dirichlet's class number formula with L(1, chi_d) in closed form,
    # h * log(eps) = -1/2 * sum_{0 < a < d} chi_d(a) * log(sin(pi*a/d)), checks
    # h and the regulator together and shares no code with form reduction;
    # chi_d comes from the Kronecker symbol of the oracles.  D < 1000 takes
    # about 1.6 s on 2 CPUs
    for D in range(2, 1000):
        if not is_squarefree(D):
            continue
        F = make_field(D)
        cg, d = class_group(F), F.disc
        chi = np.array([kronecker(d, a) for a in range(1, d)])
        rhs = -0.5 * float(chi @ np.log(np.sin(np.pi * np.arange(1, d) / d)))
        lhs = cg.order * math.log(F.fundamental_unit.embeddings()[0])
        assert abs(lhs - rhs) <= 1e-12 * rhs, D
        assert cg.narrow_order == cg.order * (1 if F.unit_norm == -1 else 2), D


def test_class_group_examples():
    c5 = class_group(F5)
    assert (c5.order, c5.narrow_order) == (1, 1)
    c3 = class_group(F3)
    assert (c3.order, c3.narrow_order) == (1, 2)
    c10 = class_group(F10)
    assert (c10.order, c10.narrow_order) == (2, 2)
    assert c10.cyclic_factors == (2,)
    n3 = class_group(F3, narrow=True)
    assert n3.cyclic_factors == (2,)
    assert len(n3.representatives) == 2


def test_class_group_rational_trivial():
    c = class_group(Q)
    assert (c.order, c.narrow_order, c.cyclic_factors) == (1, 1, ())


def test_representative_orders():
    # every representative's class has the stated order
    desc = class_group(F10)
    for rep in desc.representatives:
        k = 1
        acc = rep
        while generator_scan(acc) is None:
            acc = acc * rep
            k += 1
        assert desc.order % k == 0


def _class_key(M, narrow):
    """The narrow key of M, or its wide key: N(sqrt(D)) < 0, so the wide class
    of M is the union of the narrow classes of M and sqrt(D)*M."""
    key = nf._rho_walk(M)
    return key if narrow else min(key, nf._rho_walk(M * M.field.sqrt_D()))


@pytest.mark.parametrize("D", [3, 10, 15, 30, 79, 82])
@pytest.mark.parametrize("narrow", [False, True])
def test_class_index_agrees_with_generator_search(D, narrow):
    # two primes share a class index exactly when A * conj(B) has a generator
    # (a totally positive one in the narrow variant), found by the Pell search
    F = make_field(D)
    reps = class_group(F, narrow=narrow).representatives
    assert reps[0] == F.unit_ideal()
    primes = prime_ideals_of_norm_upto(F, 60)
    index = [reps.index(nf._key_ideal(F, _class_key(P, narrow))) for P in primes]
    for i, A in enumerate(primes):
        for j, B in enumerate(primes[: i + 1]):
            g = generator_scan(A * B.conjugate())
            same = g is not None and (not narrow or totally_positive_adjust(g) is not None)
            assert (index[i] == index[j]) == same, (D, narrow, A, B)


# --- principal generators and witnesses --------------------------------------


def test_ptg_examples():
    assert principal_totally_positive_generator(Q.ideal(3)) == Q.element(3)
    assert principal_totally_positive_generator(F5.ideal(2)) == F5.element(2)
    P = factor_rational_prime(F10, 3).primes[0]
    assert principal_totally_positive_generator(P) is None


def test_norm_equation_insoluble_for_3_in_sqrt10():
    # brute force: x^2 - 10 y^2 = +-3 has no small solutions
    for x in range(0, 60):
        for y in range(0, 20):
            assert abs(x * x - 10 * y * y) != 3


def test_ptg_on_fractional_ideal():
    A = F5.ideal(F5.element(Fraction(2, 3)))
    g = principal_totally_positive_generator(A)
    assert g is not None and g.is_totally_positive()
    assert ideal_from_elements(F5, [g]) == A


def test_narrow_square_witness_examples():
    b, eta = narrow_square_witness(Q.ideal(3))
    assert b == Q.unit_ideal() and eta == Q.element(3)

    P2 = factor_rational_prime(F5, 2).primes[0]
    b, eta = narrow_square_witness(P2)
    assert b == F5.unit_ideal() and eta == F5.element(2)

    P3 = factor_rational_prime(F10, 3).primes[0]
    assert narrow_square_witness(P3) is None


def test_narrow_square_witness_exactness():
    for field, p in [(F5, 11), (F3, 13), (F10, 2)]:
        for P in factor_rational_prime(field, p).primes:
            w = narrow_square_witness(P)
            if w is None:
                continue
            b, eta = w
            assert eta.is_totally_positive()
            assert P * b * b == ideal_from_elements(field, [eta])
    # against the genus characters, which use neither rho nor the class keys:
    # every prime above p <= 50, for every squarefree D < 150
    count = 0
    for D in range(2, 150):
        if not is_squarefree(D):
            continue
        F = make_field(D)
        for p in nf.rational_primes_upto(50):
            fac = factor_rational_prime(F, p)
            for P in fac.primes:
                square = fac.tag == "inert" or in_principal_genus(F.disc, p)
                assert (narrow_square_witness(P) is not None) == square, (D, p, P)
                count += 1
    assert count == 1941


def test_narrow_square_witness_against_the_representative_walk():
    # the square-class lookup picks the same b as trying each narrow
    # representative in (norm, hnf) order; Cl+ is Z/6 at D = 79 and
    # Z/4 x Z/4 at D = 3026, where [b]^2 = [conj(P)] has several roots
    for D in (79, 229, 3026):
        F = make_field(D)
        for p in nf.rational_primes_upto(60):
            for P in factor_rational_prime(F, p).primes:
                assert narrow_square_witness(P) == narrow_square_witness_walk(P), (D, P)
    assert class_group(make_field(3026), narrow=True).cyclic_factors == (4, 4)


# one line per squarefree D < 1000: (D, h, h+, both factor tuples, the narrow
# representatives' HNFs in order, the sorted wide HNFs); pinned while each
# variant was built on its own with a full multiplication table
_CLASS_GROUP_DIGEST = "7e563347c05e92b1fce5b44108bc5c538433f1b2d0e03f0f56986fd1063d0be2"


def test_class_groups_are_pinned():
    lines = []
    for D in range(2, 1000):
        if is_squarefree(D):
            F = make_field(D)
            wide, narrow = class_group(F), class_group(F, narrow=True)
            lines.append(json.dumps([
                D, wide.order, wide.narrow_order, list(wide.cyclic_factors),
                list(narrow.cyclic_factors), [list(I.hnf) for I in narrow.representatives],
                sorted(list(I.hnf) for I in wide.representatives)]))
    assert len(lines) == 607
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == _CLASS_GROUP_DIGEST


# --- census cross-check -------------------------------------------------------


def test_h_and_h_plus_agree_with_form_census_small():
    for D in (2, 3, 5, 6, 7, 10, 15, 34, 79, 82, 331, 379):
        F = make_field(D)
        cg = class_group(F)
        hp, h = quadforms.class_numbers_by_form_census(F.disc)
        assert (cg.order, cg.narrow_order) == (h, hp), D
        assert (cg.order == cg.narrow_order) == (F.unit_norm == -1), D


def test_narrow_two_rank_matches_genus_theory():
    # with three prime discriminants dividing the field discriminant the
    # narrow class group has 2-rank exactly 2, so its invariant factors at
    # narrow order 4 must be (2, 2), never (4,)
    for D in (30, 42, 66, 70, 78):
        F = make_field(D)
        desc = class_group(F, narrow=True)
        assert desc.narrow_order == 4, D
        assert desc.cyclic_factors == (2, 2), (D, desc.cyclic_factors)
    # contrast: a cyclic case of the same order
    assert class_group(make_field(82)).cyclic_factors == (4,)
    # in general Cl+ has t - 1 even invariant factors, t the number of prime
    # discriminants of disc (an oracle that uses neither rho nor the keys)
    for D in range(2, 400):
        if is_squarefree(D):
            F = make_field(D)
            even = sum(1 for f in class_group(F, narrow=True).cyclic_factors if f % 2 == 0)
            assert even == len(prime_discriminants(F.disc)) - 1, D


def test_cyclic_factor_structure_consistent():
    # the cyclic decomposition multiplies out to the order and forms a
    # divisibility chain, in both the wide and narrow variants
    for D in (10, 15, 34, 79, 82, 65, 51):
        F = make_field(D)
        for narrow in (False, True):
            desc = class_group(F, narrow=narrow)
            order = desc.narrow_order if narrow else desc.order
            prod = 1
            for f in desc.cyclic_factors:
                prod *= f
            assert prod == order, (D, narrow)
            for big, small in zip(desc.cyclic_factors, desc.cyclic_factors[1:]):
                assert big % small == 0, (D, narrow, desc.cyclic_factors)
            assert len(desc.representatives) == order


def _product_table(orders, seed):
    """Table of Z/n1 x ... x Z/nk, elements shuffled with the identity kept at 0."""
    elems = list(itertools.product(*(range(n) for n in orders)))
    rest = elems[1:]
    random.Random(seed).shuffle(rest)
    elems = elems[:1] + rest
    index = {e: k for k, e in enumerate(elems)}
    return [[index[tuple((x + y) % n for x, y, n in zip(a, b, orders))] for b in elems]
            for a in elems]


def _table_order(table, g):
    """The order of g in the group of the table, identity at 0."""
    k, x = 1, g
    while x != 0:
        x = table[x][g]
        k += 1
    return k


@pytest.mark.parametrize("orders, factors", [
    ((4, 2), [4, 2]), ((2, 2, 2), [2, 2, 2]), ((12,), [12]), ((3, 9), [9, 3]),
    ((4, 6), [12, 2]), ((1,), []),
])
def test_abelian_invariants_by_p_power_counts(orders, factors):
    table = _product_table(orders, seed=sum(orders))
    assert nf._abelian_invariants([_table_order(table, g) for g in range(len(table))]) == factors
    assert abelian_invariants_by_quotients(table) == factors


def test_principal_form_keys_the_ring_of_integers():
    # the principal form is the only reduced form with a = 1 on O's cycle
    for D in range(2, 400):
        if is_squarefree(D):
            F = make_field(D)
            for narrow in (False, True):
                assert _class_key(F.unit_ideal(), narrow) == quadforms.principal_form(F.disc)


# --- quotients / canonical associates ----------------------------------------


def test_quotient_module_counts():
    P = factor_rational_prime(F5, 2).primes[0]  # inert, norm 4
    Qm = QuotientModule(F5.unit_ideal(), P)
    assert Qm.index == 4 and Qm.shape == (2, 2)
    canon = [(i, j) for i in range(2) for j in range(2)]
    # the canonical pairs name distinct cosets: no difference of two lies in P
    for x in canon:
        for y in canon:
            assert bool(Qm.contains((x[0] - y[0], x[1] - y[1]))) == (x == y)
    # reduce fixes canonical coordinates and ignores shifts by Lsub
    a, b, c = Qm.sub_hnf
    for i, j in canon:
        assert Qm.reduce((i, j)) == (i, j)
        for k, m in [(1, 0), (0, 1), (-2, 3)]:
            assert Qm.reduce((i + k * a + m * b, j + m * c)) == (i, j)
    # coordinates name elements of L, and contains agrees with the ideal Lsub
    for i in range(-3, 4):
        for j in range(-3, 4):
            assert bool(Qm.contains((i, j))) == P.contains(Qm.element(i, j))
    # int64 arrays give the same answers as Python ints
    i, j = np.divmod(np.arange(-20, 20, dtype=np.int64), 5)
    ri, rj = Qm.reduce((i, j))
    assert [(int(u), int(v)) for u, v in zip(ri, rj)] == [Qm.reduce(co) for co in
                                                          zip(i.tolist(), j.tolist())]
    assert Qm.contains((i, j)).tolist() == [bool(Qm.contains(co)) for co in
                                            zip(i.tolist(), j.tolist())]
    # over Q the second coordinate is inert
    Q3 = QuotientModule(Q.unit_ideal(), Q.ideal(3))
    assert (Q3.sub_hnf, Q3.shape, Q3.index) == ((3, 0, 1), (3, 1), 3)
    assert Q3.reduce((7, 0)) == (1, 0) and Q3.element(2, 0) == Q.element(2)


def test_elements_of_norm_canonical():
    els = elements_of_norm(F5, 4)
    assert F5.element(2) in els
    for e in els:
        assert abs(e.norm()) == 4
        assert canonical_associate(e) == e
    # associates collapse to one representative
    eps = F5.fundamental_unit
    for e in els:
        assert canonical_associate(e * eps**3) == e
        assert canonical_associate(-e * eps ** (-2)) == e


# --- integer ideal products against element-wise generators ---------------------

_coord = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))


@st.composite
def _ideal_pairs(draw):
    F = draw(st.sampled_from([Q, F2, F3, F5, F10, make_field(13)]))

    def ideal():
        gens = draw(st.lists(st.tuples(_coord, _coord), min_size=1, max_size=2))
        elems = [F.element(x, y if F.degree == 2 else 0) for x, y in gens]
        elems = [e for e in elems if not e.is_zero()] or [F.element(draw(st.integers(1, 9)))]
        return ideal_from_elements(F, elems)

    return F, ideal(), ideal()


_hnf_coord = st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(_hnf_coord, _hnf_coord), min_size=1, max_size=5))
def test_hnf_rows_deg2_spans_the_lattice_of_its_rows(rows):
    # characterised without elimination: c is the gcd of the v's, a*c the gcd
    # of the 2x2 minors, and every row lies in Z(a, 0) + Z(b, c)
    a, b, c = nf._hnf_rows_deg2(rows)
    assert c == math.gcd(*(v for _, v in rows))
    minors = (u1 * v2 - u2 * v1 for (u1, v1), (u2, v2) in itertools.combinations(rows, 2))
    assert a * c == math.gcd(*minors)
    for u, v in rows:
        k, rest = divmod(v, c) if c else (0, v)
        assert rest == 0, (u, v)
        rest = u - k * b
        assert (rest % a if a else rest) == 0, (u, v)
    if a:
        assert 0 <= b < a


@settings(max_examples=80, deadline=None)
@given(_ideal_pairs())
def test_integer_ideal_ops_match_elementwise_generators(pair):
    F, I, J = pair
    prods = [e1 * e2 for e1 in I.basis_elements() for e2 in J.basis_elements()]
    assert I * J == ideal_from_elements(F, prods)
    assert I + J == ideal_from_elements(F, list(I.basis_elements()) + list(J.basis_elements()))
    assert I.conjugate() == ideal_from_elements(F, [e.conjugate() for e in I.basis_elements()])
    assert I * I.inverse() == F.unit_ideal()
    K = I * J + J
    for A, B in ((I, K), (K, I), (J, K)):
        assert A.contains_ideal(B) == all(A.contains(e) for e in B.basis_elements())


def test_non_ideal_module_raises():
    # Z*3 + Z*2w is not closed under multiplication by w
    with pytest.raises(InvariantViolation):
        _ideal_from_rows(F5, 1, [(3, 0), (0, 2)])


_signed_coord = st.integers(-60, 60).filter(bool)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([F2, F3, F5, F10, make_field(13)]), _signed_coord, st.integers(-200, 200),
       _signed_coord, st.integers(1, 30))
# b past a, and negative signs: the ideal Z*5 + Z*(2 + w) of norm 5 (and
# Z*5 + Z*(2 - w), which is no ideal)
@example(F5, 5, 7, 1, 1)
@example(F5, -5, 2, 1, 1)
@example(F5, 5, -2, -1, 2)
@example(F5, 5, 2, -1, 1)
def test_constructor_is_the_ideal_of_its_basis_or_refuses(F, a, b, c, den):
    # any signs and any b: (Z*a + Z*(b + c*w))/den is built as the ideal its
    # two basis elements generate exactly when it is an ideal; otherwise it is
    # refused
    if _is_ideal_basis(F, a, b, c):
        I = nf.FractionalIdeal(F, den, (a, b, c))
        J = ideal_from_elements(F, [F.element(Fraction(a, den)), F.element(b, c) / den])
        assert I == J and hash(I) == hash(J)
        assert (I.den, I.hnf) == (J.den, J.hnf)
    else:
        with pytest.raises(InvariantViolation):
            nf.FractionalIdeal(F, den, (a, b, c))


# --- closed-form unit adjustment and integer associates against Fraction scans ------

# N(eps0) = -1 for D = 2, 5, 13 and +1 for D = 3, 6, 7
_UNIT_FIELDS = [make_field(D) for D in (2, 5, 13, 3, 6, 7)]


@st.composite
def _unit_multiples(draw):
    """g * eps0^k with g = 0, integral or not, of either sign, and |k| <= 3."""
    F = draw(st.sampled_from(_UNIT_FIELDS))
    g = F.element(draw(_coord), draw(_coord))
    return g * F.fundamental_unit ** draw(st.integers(-3, 3))


def test_unit_fields_cover_both_unit_norms():
    assert [F.unit_norm for F in _UNIT_FIELDS] == [-1, -1, -1, 1, 1, 1]


@settings(max_examples=300, deadline=None)
@given(_unit_multiples())
def test_totally_positive_adjust_matches_unit_power_scan(g):
    assert totally_positive_adjust(g) == unit_power_scan(g, 8)


def test_totally_positive_adjust_edge_cases():
    for F in _UNIT_FIELDS:
        assert totally_positive_adjust(F.zero()) is None
        assert unit_power_scan(F.zero(), 8) is None
        eps = F.fundamental_unit
        for g in (F.one(), F.omega(), F.sqrt_D(), F.element(Fraction(1, 3), Fraction(-2, 5))):
            for k in range(-3, 4):
                h = g * eps**k
                assert totally_positive_adjust(h) == unit_power_scan(h, 8)
                assert totally_positive_adjust(-h) == unit_power_scan(-h, 8)


@settings(max_examples=300, deadline=None)
@given(_unit_multiples())
def test_canonical_associate_matches_fraction_walk(g):
    assert canonical_associate(g) == canonical_associate_walk(g)


def test_elements_of_norm_match_fraction_walk():
    for D in (2, 3, 5, 6, 7, 13, 10, 21):
        F = make_field(D)
        for n in range(1, 40):
            got = elements_of_norm(F, n)
            cands = {canonical_associate_walk(F.element(x, y))
                     for x, y in norm_form_rows(F, n, 40)}
            assert set(got) == cands, (D, n)
            assert got == sorted(got, key=lambda e: (e.x, e.y))


def _integral_ideals_of_norm(F, n):
    """Every integral ideal of norm n: the HNF modules Z*a + Z*(b + c*w) with
    a*c = n and 0 <= b < a that are ideals."""
    for c in range(1, n + 1):
        if n % c == 0:
            for b in range(n // c):
                if _is_ideal_basis(F, n // c, b, c):
                    yield nf.FractionalIdeal(F, 1, (n // c, b, c))


def test_generators_and_elements_of_norm_match_the_y_scan():
    # the y-scan is independent of the rho-walk that find_generator and
    # elements_of_norm share with the class keys; D < 150 covers both unit
    # norms and class numbers up to 4
    fields = [make_field(D) for D in range(2, 150) if is_squarefree(D)]
    assert {F.unit_norm for F in fields} == {-1, 1}
    assert max(class_group(F).order for F in fields) > 1
    for F in fields:
        for n in range(1, 41):
            for M in _integral_ideals_of_norm(F, n):
                assert find_generator(M) == generator_scan(M), (F.D, M)
            assert elements_of_norm(F, n) == elements_of_norm_scan(F, n), (F.D, n)


def test_find_generator_needs_an_integral_ideal():
    with pytest.raises(InvalidParameter):
        find_generator(F5.ideal(F5.element(Fraction(1, 2))))
    assert find_generator(F10.ideal(F10.element(9, 2))) == F10.element(9, 2)


def test_prime_splitting_type_still_checks_primality():
    with pytest.raises(NotPrime):
        factor_rational_prime(F5, 9)
    with pytest.raises(NotPrime):
        factor_rational_prime(F5, 1)
    assert factor_rational_prime(F5, 11).tag == "split"


# each patch breaks one identity the class-group and splitting code relies on
_BREAK_NUMBERFIELD_INVARIANTS = """
import heckedist.numberfield as nf
from heckedist.errors import InvariantViolation

# cold memos, so each splitting and witness below is built under its patch
for memo in (nf._factor_prime, nf._witness, nf._square_classes, nf._class_structure):
    memo.cache_clear()
F = nf.make_field(10)
P = nf.factor_rational_prime(F, 3).primes[0]  # not principal
P7 = nf.factor_rational_prime(F, 7).primes[0]  # inert, so narrow principal
P41 = F.ideal(F.element(9, 2))  # 9 + 2w has norm 41, and 41 splits
cases = [
    # a step that stays on the reduced forms of disc 40 but never returns to P's form
    ("rho", lambda f, Delta: (-1, 6, 1), lambda: nf._rho_walk(P)),
    ("_sqrt_mod_prime", lambda n, p: None, lambda: nf.factor_rational_prime(F, 13)),
    ("principal_totally_positive_generator", lambda I: -I.field.one(),
     lambda: nf.narrow_square_witness(P7)),
    ("principal_totally_positive_generator", lambda I: None,
     lambda: nf.narrow_square_witness(P7)),
    # the walk hands back 9 - 2w: of norm 41, but a generator of the conjugate prime
    ("_rho_walk", lambda M, generator=False: (9, -2), lambda: nf.find_generator(P41)),
    # a Hermite form with c = 2 not dividing a = 3 is no ideal, and the product refuses it
    ("_hnf_rows_deg2", lambda rows: (3, 0, 2), lambda: P * P7),
]
for name, fake, call in cases:
    real = getattr(nf, name)
    setattr(nf, name, fake)
    try:
        call()
    except InvariantViolation as exc:
        print("raised", name)
    finally:
        setattr(nf, name, real)
"""

_BROKEN_INVARIANTS_RAISED = [
    "raised rho", "raised _sqrt_mod_prime", "raised principal_totally_positive_generator",
    "raised principal_totally_positive_generator", "raised _rho_walk", "raised _hnf_rows_deg2"]


def test_broken_invariants_raise():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_BREAK_NUMBERFIELD_INVARIANTS, {})
    assert out.getvalue().split("\n")[:6] == _BROKEN_INVARIANTS_RAISED


def test_broken_invariants_raise_under_optimize():
    src = os.path.dirname(os.path.dirname(nf.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    # the leading "assert False" only passes when -O strips asserts
    script = "assert False\n" + _BREAK_NUMBERFIELD_INVARIANTS
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:6] == _BROKEN_INVARIANTS_RAISED
