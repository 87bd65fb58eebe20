import math

import pytest

from heckedist import bounds
from heckedist.bounds import (
    SIEVE_CAP,
    BoundParams,
    PlaceParams,
    bessel_envelope,
    eisenstein_envelope,
    empirical_kloosterman_tail,
    euler_product_tail,
    kloosterman_term_bound,
)
from heckedist.errors import DivergentExponent, EnumerationTooLarge, ModulusZero
from heckedist.numberfield import is_squarefree, make_field
from oracles import euler_product_loop

Q = make_field("rational")
F5 = make_field(5)


def _params(**kw):
    base = dict(tau=0.3, eps=0.01, gamma=0.35, U=1.0, A1=3.0,
                places=(PlaceParams("Q+", 10.0),))
    base.update(kw)
    return BoundParams(**base)


# --- parameter relations -----------------------------------------------------


def test_derived_relations():
    p = _params()
    assert abs(p.rho1 - (1.5 - 0.35 - 0.3)) < 1e-15
    assert 0.5 < p.rho1 < 1.0
    assert abs(p.rho - (p.rho1 + (1 - p.rho1) * p.eps)) < 1e-15
    assert abs(p.A - (p.A1 + (1 - p.A1) * p.eps)) < 1e-15
    assert abs(p.t0 - 0.3**2 * 1.01 / 2) < 1e-15
    assert abs(p.euler_exponent - (-1.084)) < 1e-12
    assert p.converges


def test_parameter_validation():
    with pytest.raises(ValueError):
        _params(tau=0.6)
    with pytest.raises(ValueError):
        _params(gamma=0.2)  # must exceed tau
    with pytest.raises(ValueError):
        _params(U=0.5)
    with pytest.raises(ValueError):
        _params(eps=-0.1)
    with pytest.raises(ValueError):
        PlaceParams("X+")


# --- envelope -----------------------------------------------------------------


def test_envelope_limits():
    p = _params()
    tiny_c = bessel_envelope(p, [1.0], [1.0], [1e-9], 1.0)
    assert tiny_c == 10.0  # min saturates at b = q
    huge = bessel_envelope(p, [1.0], [1.0], [1e12], 1.0)
    assert huge < 1e-5  # decaying branch wins and goes to zero


def test_envelope_E_place_unit_value():
    p = _params(places=(PlaceParams("E", phi_norm=1.0),))
    # choose c so that the argument 4 pi sqrt|r r'| / (|c| sqrt|gamma|) = 1
    c = 4 * math.pi
    assert abs(bessel_envelope(p, [1.0], [1.0], [c], 1.0) - 1.0) < 1e-12


def test_envelope_monotone_in_modulus():
    p = _params()
    vals = [bessel_envelope(p, [1.0], [2.0], [c], 1.0) for c in (0.5, 1, 5, 50, 500)]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_envelope_multiplicative_over_places():
    two = _params(places=(PlaceParams("Q+", 10.0), PlaceParams("Q-", 4.0)))
    one_a = _params(places=(PlaceParams("Q+", 10.0),))
    one_b = _params(places=(PlaceParams("Q-", 4.0),))
    v2 = bessel_envelope(two, [1.0, 2.0], [1.0, 0.5], [3.0, 4.0], 1.0)
    va = bessel_envelope(one_a, [1.0], [1.0], [3.0], 1.0)
    vb = bessel_envelope(one_b, [2.0], [0.5], [4.0], 1.0)
    assert abs(v2 - va * vb) < 1e-12


def test_envelope_zero_modulus():
    p = _params()
    with pytest.raises(ModulusZero):
        bessel_envelope(p, [1.0], [1.0], [0.0], 1.0)
    with pytest.raises(ModulusZero):
        bessel_envelope(p, [1.0], [1.0], [1.0], 0.0)


# --- euler products -------------------------------------------------------------


def test_euler_product_divergent_params():
    p = _params(tau=0.26, eps=0.5)
    assert not p.converges
    with pytest.raises(DivergentExponent):
        euler_product_tail(p, Q, 100)


def test_euler_product_monotone_in_cutoff():
    p = _params()
    r1 = euler_product_tail(p, F5, 500)
    r2 = euler_product_tail(p, F5, 2000)
    assert r2.truncated >= r1.truncated  # all factors exceed 1
    assert r2.tail_bound < r1.tail_bound


def test_euler_product_rational_vs_quadratic():
    p = _params()
    r = euler_product_tail(p, F5, 3000)
    # split primes double their factor, inert primes weaken it, so the
    # quadratic product sits between 1 and the square of the rational one
    assert 1.0 <= r.truncated <= r.rational_truncated**2 + 1e-9
    # hand-check the factors up to norm 11: 2 and 3 inert (norms 4, 9),
    # 5 ramified, 7 inert excluded (norm 49), 11 split (two factors)
    e = p.euler_exponent
    lead = (1 / (1 - 4.0**e)) * (1 / (1 - 9.0**e)) * (1 / (1 - 5.0**e)) * (
        1 / (1 - 11.0**e)
    ) ** 2
    partial = euler_product_tail(p, F5, 11).truncated
    assert abs(partial - lead) < 1e-12


def test_euler_product_skips_level():
    p = _params()
    full = euler_product_tail(p, Q, 100)
    skipped = euler_product_tail(p, Q, 100, level_norms=(2,))
    assert abs(full.truncated / skipped.truncated - 1.0 / (1.0 - 2.0**p.euler_exponent)) < 1e-12


_EULER_FIELDS = [Q] + [make_field(D) for D in range(2, 200) if is_squarefree(D)]


def test_euler_product_matches_sieved_oracle():
    # the prime-at-a-time loop, == to the last bit on every field and cutoff
    p = _params()
    for F in _EULER_FIELDS:
        for X in (2, 3, 11, 49, 2000, 50000):  # 49: an inert 7 has norm X
            for skip in ((), (2, 7, 11)):
                r = euler_product_tail(p, F, X, level_norms=skip)
                assert r == euler_product_loop(p, F, X, skip), (F.disc, X, skip)


def test_euler_product_sieve_cap(monkeypatch):
    def no_sieve(bound):
        raise AssertionError(f"sieved up to {bound}")

    monkeypatch.setattr(bounds, "rational_primes_upto", no_sieve)
    with pytest.raises(EnumerationTooLarge):
        euler_product_tail(_params(), F5, SIEVE_CAP + 1)
    # the cap itself is allowed: it reaches the sieve, here a stand-in
    monkeypatch.setattr(bounds, "rational_primes_upto", lambda bound: [2, 3])
    assert euler_product_tail(_params(), Q, SIEVE_CAP).cutoff == SIEVE_CAP


# --- assembled bound ------------------------------------------------------------


def test_bound_trivial_case_is_one():
    p = _params(places=(PlaceParams("E", phi_norm=1.0),))
    assert kloosterman_term_bound(p) == 1.0


def test_bound_doubling_U():
    p1 = _params(U=1.0)
    p2 = _params(U=2.0)
    ratio = kloosterman_term_bound(p2) / kloosterman_term_bound(p1)
    assert abs(ratio - math.exp(p1.t0 * 1.0)) < 1e-12


def test_bound_hand_formula():
    p = _params(tau=0.3, eps=0.01, gamma=0.31, U=1.0,
                places=(PlaceParams("Q+", 10.0),))
    rho1 = 1.5 - 0.31 - 0.3
    rho = rho1 + (1 - rho1) * 0.01
    hand = math.exp((0.3**2) * 1.01 / 2 * 1.0) * 10.0**rho
    assert abs(kloosterman_term_bound(p) - hand) < 1e-12


def test_bound_monotone_decreasing_in_A1():
    places = (PlaceParams("Q-", 7.0),)
    b1 = kloosterman_term_bound(_params(A1=2.0, places=places))
    b2 = kloosterman_term_bound(_params(A1=4.0, places=places))
    assert b2 < b1


def test_eisenstein_envelope_absorbed():
    # the spectral-continuum envelope is dominated by the Kloosterman bound
    # over a grid of Q+ weights (the fitted constant is of modest size)
    for q in (2.0, 5.0, 20.0, 100.0):
        p = _params(places=(PlaceParams("Q+", q),))
        assert eisenstein_envelope(p) <= kloosterman_term_bound(p)
    p_minus = _params(places=(PlaceParams("Q-", 3.0),))
    assert eisenstein_envelope(p_minus) == 0.0


def test_empirical_tail_converges_and_is_finite():
    from heckedist.kloosterman import classical_weil_table

    table = {}
    for c, m, n, v in classical_weil_table(120, 1, 1):
        table[c] = abs(v)
    p = _params()
    half = empirical_kloosterman_tail(p, {c: v for c, v in table.items() if c <= 60})
    full = empirical_kloosterman_tail(p, table)
    assert full >= half
    assert (full - half) / full < 0.25  # the tail has mostly converged by c = 60
