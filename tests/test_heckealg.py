import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import heckedist
from heckedist import numberfield as nf
from heckedist.errors import (
    DivisibilityViolation,
    EnumerationTooLarge,
    HeckedistError,
    InvalidParameter,
    InvariantViolation,
    NotNarrowSquare,
    NotPrime,
    RamanujanViolation,
    ZeroArgument,
)
from heckedist.heckealg import (
    coset_reps,
    delta_tilde,
    descent_data,
    hecke_power_eigenvalue,
    verify_coefficient_relation,
)
from heckedist.measures import chebyshev_eval
from heckedist.numberfield import (
    factor_rational_prime,
    find_generator,
    ideal_from_elements,
    is_squarefree,
    make_field,
    narrow_square_witness,
    rational_primes_upto,
)
from heckedist.quadforms import principal_form

Q = make_field("rational")
F3 = make_field(3)
F5 = make_field(5)
F10 = make_field(10)


# --- eigenvalue transport ------------------------------------------------------


def test_power_eigenvalue_examples():
    assert hecke_power_eigenvalue(2.0, 3) == 4.0  # X_l(2) = l + 1
    assert hecke_power_eigenvalue(0.0, 2) == -1.0
    assert hecke_power_eigenvalue(-2.0, 2) == 3.0


def test_power_eigenvalue_recursion():
    rng = random.Random(99)
    for _ in range(1000):
        lam = rng.uniform(-2, 2)
        vals = [hecke_power_eigenvalue(lam, ell) for ell in range(22)]
        for ell in range(1, 21):
            assert abs(vals[ell + 1] - (lam * vals[ell] - vals[ell - 1])) < 1e-9


def test_power_eigenvalue_soft_bound():
    hecke_power_eigenvalue(2.0000005, 2)  # inside the tolerance
    with pytest.raises(RamanujanViolation):
        hecke_power_eigenvalue(2.1, 2)


# --- coset representatives -------------------------------------------------------


def test_coset_counts_examples():
    P2 = factor_rational_prime(Q, 2).primes[0]
    assert len(coset_reps(P2, 2)) == 7  # 4 + 2 + 1
    P3 = factor_rational_prime(Q, 3).primes[0]
    assert len(coset_reps(P3, 2)) == 13  # 9 + 3 + 1
    assert len(coset_reps(P3, 0)) == 1


@pytest.mark.parametrize(
    "field,p,norm",
    [(Q, 2, 2), (Q, 3, 3), (Q, 5, 5), (F5, 3, 9)],
)
def test_coset_counts_closed_form(field, p, norm):
    P = factor_rational_prime(field, p).primes[0]
    assert int(P.norm()) == norm
    for ell in range(0, 5):
        reps = coset_reps(P, ell)
        assert len(reps) == (norm ** (ell + 1) - 1) // (norm - 1)
        # pairwise inequivalent: (s, beta_index) keys are distinct
        keys = {(r.s, r.beta_index) for r in reps}
        assert len(keys) == len(reps)
        for r in reps:
            assert r.upper_valuation == ell - r.s
            assert 0 <= r.beta_index < norm ** (ell - r.s)


def test_coset_cap(monkeypatch):
    P3 = factor_rational_prime(Q, 3).primes[0]
    monkeypatch.setattr(heckedist.heckealg, "COSET_CAP", 1000)
    with pytest.raises(EnumerationTooLarge):
        coset_reps(P3, 10)


def test_coset_requires_prime():
    with pytest.raises(NotPrime):
        coset_reps(Q.ideal(6), 1)
    # Z-modules of norm 5 that are not ideals cannot be built: N(1 + w) = 1
    # and N(w) = -1 are prime to 5, and c = 5 does not divide a = 1
    for hnf in ((5, 1, 1), (1, 0, 5), (5, 0, 1)):
        with pytest.raises(InvariantViolation):
            nf.FractionalIdeal(F5, 1, hnf)
    # ideals that are not prime: a product of two primes, a prime square, O
    # and a non-integral ideal
    P11 = factor_rational_prime(F5, 11).primes[0]
    dd = descent_data(P11, 1)
    for M in (F5.ideal(6), P11 * P11, F5.unit_ideal(), P11.inverse()):
        for call in (lambda: coset_reps(M, 1), lambda: narrow_square_witness(M),
                     lambda: descent_data(M, 1), lambda: nf.ideal_valuation(F5.element(10), M),
                     lambda: dataclasses.replace(dd, prime=M).verify()):
            with pytest.raises(NotPrime):
                call()


# --- descent data -----------------------------------------------------------------


def test_descent_canonical_over_Q():
    P3 = factor_rational_prime(Q, 3).primes[0]
    dd = descent_data(P3, 2)
    assert dd.b_ideal == Q.unit_ideal()
    assert dd.eta == Q.element(3)
    assert [a for a in dd.a_elems] == [Q.element(1), Q.element(3), Q.element(9)]
    assert all(b == Q.zero() for b in dd.b_shifts)
    # s = 1 midpoint: a_1^2 / eta^2 = 1 is a totally positive unit
    u = dd.a_elems[1] * dd.a_elems[1] / dd.eta**2
    assert u == Q.one()


def test_descent_inert_2_in_sqrt5():
    P2 = factor_rational_prime(F5, 2).primes[0]
    dd = descent_data(P2, 2)
    assert dd.b_ideal == F5.unit_ideal()
    assert dd.eta == F5.element(2)
    assert list(dd.a_elems) == [F5.one(), F5.element(2), F5.element(4)]


def test_descent_blocked_by_class_group():
    P3 = factor_rational_prime(F10, 3).primes[0]
    with pytest.raises(NotNarrowSquare):
        descent_data(P3, 1)


def test_descent_invariants_verified_odd_power():
    P7 = factor_rational_prime(F5, 7).primes[0]
    dd = descent_data(P7, 3)
    assert dd.verify()
    assert len(dd.a_elems) == 4


# each replacement breaks one invariant of valid descent data for P^2; the
# first one also puts non-elements in a_elems, which verify must not reach
_CORRUPT_DESCENT_DATA = """
import dataclasses
from heckedist.errors import InvariantViolation
from heckedist.heckealg import descent_data
from heckedist.numberfield import factor_rational_prime, make_field

for D, p in ((5, 11), (10, 31)):
    F = make_field(D)
    dd = descent_data(factor_rational_prime(F, p).primes[0], 2)
    a0, a1, a2 = dd.a_elems
    for change in (
        dict(eta=-dd.eta, a_elems=(1, 1, 1)),
        dict(b_ideal=dd.b_ideal * F.element(2)),
        dict(a_elems=(a0, a1, a2 / p)),
        dict(a_elems=(a0 * p, a1, a2)),
        dict(b_shifts=(F.zero(), F.element(1) / 2, F.zero())),
        dict(a_elems=(a0, a1 * 3, a2)),  # a_1^2 / eta^2 = 9
    ):
        try:
            dataclasses.replace(dd, **change).verify()
        except InvariantViolation as exc:
            print("raised", exc)
"""

_DESCENT_VIOLATIONS = 2 * [
    "raised eta is not totally positive", "raised P * b^2 != (eta)",
    "raised a_2 not in P^s b^ell", "raised a_0 has wrong valuation",
    "raised b~_1 not integral", "raised midpoint element is not a totally positive unit"]


def test_corrupted_descent_data_raises():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_CORRUPT_DESCENT_DATA, {})
    assert out.getvalue().splitlines() == _DESCENT_VIOLATIONS


def test_corrupted_descent_data_raises_under_optimize():
    src = os.path.dirname(os.path.dirname(heckedist.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    # the leading "assert False" only passes when -O strips asserts
    proc = subprocess.run([sys.executable, "-O", "-c", "assert False\n" + _CORRUPT_DESCENT_DATA],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == _DESCENT_VIOLATIONS


def test_descent_with_nonprincipal_witness_ideal():
    # class number 3: the witness ideal b is forced non-principal, and the
    # non-midpoint ideals P^s b^2 are non-principal, exercising the
    # exact-valuation element construction
    F79 = make_field(79)
    P5 = factor_rational_prime(F79, 5).primes[0]
    dd = descent_data(P5, 2)
    assert find_generator(dd.b_ideal) is None
    # the s = 0 and s = 2 ideals are non-principal; only the midpoint
    # P * b^2 = (eta) is principal by construction
    assert find_generator(dd.b_ideal**2) is None
    assert find_generator(P5**2 * dd.b_ideal**2) is None
    assert find_generator(P5 * dd.b_ideal**2) is not None
    assert dd.verify()
    # and a prime in a non-square narrow class is blocked
    P3 = factor_rational_prime(F79, 3).primes[0]
    with pytest.raises(NotNarrowSquare):
        descent_data(P3, 1)


def test_descent_builds_each_witness_once(monkeypatch):
    # descent_data and narrow_square_witness read one witness memo
    P = factor_rational_prime(make_field(79), 5).primes[0]
    nf._witness.cache_clear()
    builds = []
    real = nf.principal_totally_positive_generator
    monkeypatch.setattr(nf, "principal_totally_positive_generator",
                        lambda I: builds.append(I) or real(I))
    for ell in (1, 2, 3):
        assert descent_data(P, ell).ell == ell
    assert narrow_square_witness(P) == nf._witness(P)
    assert len(builds) == 1


# b, eta and the a_s (or the error code) of descent_data at every prime above
# p <= 30, ell <= 3, over Q and every squarefree D < 150, one canonical JSON
# line each; pinned while valuations were found by multiplying P^j out
_DESCENT_DIGEST = "46bbe3b493d9f85c76029e11a7b5446cf904fded9957a8741b455fb0975fa502"


def test_descent_data_digest_is_pinned():
    lines = []
    for D in ["rational"] + [D for D in range(2, 150) if is_squarefree(D)]:
        F = make_field(D)
        for p in rational_primes_upto(30):
            for P in factor_rational_prime(F, p).primes:
                for ell in range(4):
                    try:
                        dd = descent_data(P, ell)
                        rec = [dd.b_ideal.to_json(), dd.eta.to_json(),
                               [a.to_json() for a in dd.a_elems]]
                    except HeckedistError as exc:
                        rec = exc.code
                    lines.append(json.dumps([D, p, list(P.hnf), ell, rec],
                                            sort_keys=True, separators=(",", ":")))
    assert len(lines) == 5144
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == _DESCENT_DIGEST


# --- delta tilde -------------------------------------------------------------------


def test_delta_tilde_examples():
    assert delta_tilde(Q.one(), Q.one()) == 1
    assert delta_tilde(Q.one(), Q.element(2)) == 0
    eps2 = F5.omega() ** 2
    assert delta_tilde(F5.one(), eps2) == 1


def test_delta_tilde_properties():
    # delta(r, u^2 r) = 1 for any unit u; symmetric in its arguments
    u = F3.fundamental_unit
    r = F3.element(5, 2)
    assert delta_tilde(r, r * u * u) == 1
    assert delta_tilde(r * u * u, r) == 1
    rp = F3.element(1, 1)
    assert delta_tilde(r, rp) == delta_tilde(rp, r)
    with pytest.raises(ZeroArgument):
        delta_tilde(Q.zero(), Q.one())


# --- coefficient relation -------------------------------------------------------------


def test_relation_hand_example():
    # lambda = 0, p = 3, l = 2, r = 9:
    # LHS = X_2(0)^2 = 1, RHS = X_4(0) + X_2(0) + X_0(0) = 1 - 1 + 1 = 1
    assert chebyshev_eval(2, Fraction(0)) == -1
    assert chebyshev_eval(4, Fraction(0)) == 1
    assert verify_coefficient_relation(0, 3, 2, 9) is True


def test_relation_lambda_two_arithmetic_series():
    for p in (2, 5, 13):
        for ell in range(0, 5):
            assert verify_coefficient_relation(2, p, ell, p**ell) is True


def test_relation_ell_zero_trivial():
    assert verify_coefficient_relation(Fraction(3, 2), 7, 0, 1) is True


def test_relation_errors():
    with pytest.raises(DivisibilityViolation):
        verify_coefficient_relation(0, 3, 2, 3)
    with pytest.raises(NotPrime):
        verify_coefficient_relation(0, 4, 1, 4)
    with pytest.raises(ZeroArgument):
        verify_coefficient_relation(0, 3, 1, 0)


def test_relation_with_distinct_other_lambda():
    assert verify_coefficient_relation(
        Fraction(1, 3), 5, 2, 25 * 6, lam_other=Fraction(-1, 2)
    ) is True


@pytest.mark.parametrize("D", [331, 379])
def test_witness_descent_and_generators_over_fields_with_large_units(D):
    # eps0 is about 5.6e15 for D = 331 and 2.6e16 for D = 379, too large
    # for the y-scan, so the generators are checked against their own
    # definition: they generate the ideal and are least in the order
    # (y, N(g) < 0, Tr(g) < 0) among the associates with y >= 0
    F = make_field(D)
    assoc = [s * F.fundamental_unit**k for s in (1, -1) for k in range(-3, 4)]
    for p in rational_primes_upto(100):
        for P in factor_rational_prime(F, p).primes:
            w = narrow_square_witness(P)
            for ell in (1, 2):
                if w is None:
                    with pytest.raises(NotNarrowSquare):
                        descent_data(P, ell)
                else:
                    assert descent_data(P, ell).verify()
            for M in (P,) if w is None else (P, P * w[0] * w[0]):
                g = find_generator(M)
                if g is None:
                    # neither M nor sqrt(D)*M is in the narrow class of O
                    assert principal_form(F.disc) not in (
                        nf._rho_walk(M), nf._rho_walk(M * F.sqrt_D()))
                    continue
                assert ideal_from_elements(F, [g]) == M
                least = min((u * g for u in assoc if (u * g).y >= 0),
                            key=lambda h: (h.y, h.norm() < 0, h.trace() < 0))
                assert g == least, (D, M)


_P11 = factor_rational_prime(F5, 11).primes[0]


@pytest.mark.parametrize("call", [
    lambda: coset_reps(_P11, -1),
    lambda: descent_data(_P11, -1),
    lambda: verify_coefficient_relation(1, 2, -1, 2),
], ids=["coset_reps", "descent_data", "verify_coefficient_relation"])
def test_a_negative_hecke_power_is_refused(call):
    with pytest.raises(InvalidParameter, match="ell must be >= 0"):
        call()
