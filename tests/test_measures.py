import math
import sys
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest

from heckedist import measures
from heckedist.cli import run_command
from heckedist.errors import (
    EnumerationTooLarge,
    InvalidParameter,
    InvariantViolation,
    NoDensity,
    ParityMismatch,
    UnboundedRegion,
)
from heckedist.measures import (
    MeasureSpec,
    PlaceBox,
    SpectralBox,
    adaptive_quad,
    cdf,
    chebyshev_eval,
    density,
    mass,
    orthonormality_matrix,
    phi_moment,
    sample,
    sample_spectral,
    tilde_singleton,
)
import oracles
from oracles import gauss_integral

ST = MeasureSpec.sato_tate()


# --- Chebyshev ---------------------------------------------------------------


def test_chebyshev_small_values():
    assert chebyshev_eval(2, 2.0) == 3.0  # X_l(2) = l + 1
    assert chebyshev_eval(3, 0.0) == 0.0
    assert chebyshev_eval(4, 0.0) == 1.0  # by hand: X_2(0) = -1, X_3(0) = 0
    assert chebyshev_eval(2, Fraction(1, 2)) == Fraction(-3, 4)


def test_chebyshev_sine_identity():
    for ell in range(0, 15):
        for theta in np.linspace(0.1, math.pi - 0.1, 23):
            lhs = chebyshev_eval(ell, 2 * math.cos(theta))
            rhs = math.sin((ell + 1) * theta) / math.sin(theta)
            assert abs(lhs - rhs) < 1e-10


def test_chebyshev_names_have_one_definition():
    from heckedist import chebyshev, datasource, equidist, heckealg

    assert measures._chebyshev is equidist._chebyshev is chebyshev._chebyshev
    assert measures.chebyshev_eval is heckealg.chebyshev_eval is chebyshev.chebyshev_eval
    assert equidist.RAMANUJAN_SLACK is heckealg.RAMANUJAN_SLACK \
        is datasource.RAMANUJAN_SLACK is chebyshev.RAMANUJAN_SLACK


# --- densities ---------------------------------------------------------------


def test_sato_tate_density_at_zero():
    assert abs(density(ST, 0.0) - 1 / math.pi) < 1e-15
    assert density(ST, 2.5) == 0.0


def test_phi0_equals_sato_tate_on_grid():
    xs = np.linspace(-2, 2, 1001)
    assert np.max(np.abs(density(MeasureSpec.phi(0), xs) - density(ST, xs))) < 1e-12


def test_padic_density_tends_to_sato_tate():
    spec = MeasureSpec.padic(10**6)
    for x in (-1.5, 0.0, 0.3, 1.9):
        assert abs(density(spec, x) - density(ST, x)) < 1e-4


def test_phi_density_closed_form():
    spec = MeasureSpec.phi(2)
    assert abs(density(spec, 0.0) - 1 / math.pi) < 1e-15  # X_2(0)^2 = 1
    xs = np.linspace(-2, 2, 401)
    direct = sum(chebyshev_eval(2 * lp, xs) for lp in range(3)) * density(ST, xs)
    assert np.max(np.abs(density(spec, xs) - direct)) < 1e-10


def test_densities_nonnegative():
    xs = np.linspace(-2.2, 2.2, 1001)
    for spec in (ST, MeasureSpec.padic(3), MeasureSpec.phi(3)):
        assert np.all(density(spec, xs) >= 0.0)


def test_density_far_outside_warns_nothing():
    # the formulas square x; at 1e200 that overflows unless only the points
    # inside [-2, 2] are evaluated
    for spec in (ST, MeasureSpec.padic(3), MeasureSpec.phi(2)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (1e200, -1e200, 1e300, -1e300):
                assert density(spec, x) == 0.0, (spec, x)
            got = density(spec, np.array([1e300, 0.5, -1e200, 2.0]))
        assert np.array_equal(got, [0.0, density(spec, 0.5), 0.0, density(spec, 2.0)]), spec


def test_no_density_for_atomic_specs():
    with pytest.raises(NoDensity):
        density(MeasureSpec.plancherel(0), 1.0)
    with pytest.raises(NoDensity):
        density(MeasureSpec.tilde_pl(1), 1.0)


# --- mass ---------------------------------------------------------------------


def test_mass_examples():
    assert abs(mass(ST, (-2, 2)) - 1.0) < 1e-12
    assert abs(mass(ST, (0, 2)) - 0.5) < 1e-12


@pytest.mark.parametrize("spec", [ST, MeasureSpec.padic(3), MeasureSpec.phi(2)],
                         ids=lambda s: s.tag)
def test_masses_next_to_two_equal_their_mirror_images(spec):
    # the x-densities are even; cdf(2) - cdf(2 - 1e-12) would cancel to 0.0
    for width in (1e-12, 4e-16, 1e-3):
        m = mass(spec, (2 - width, 2))
        assert m > 0.0 and m == mass(spec, (-2, -2 + width)), (spec.tag, width)
    assert mass(spec, (0.5, 1.5)) == mass(spec, (-1.5, -0.5))


def test_total_mass_of_padic_family():
    for p in (2, 3, 5, 101):
        assert abs(mass(MeasureSpec.padic(p), (-2, 2)) - 1.0) < 1e-8


def test_mass_against_reference_quadrature():
    # independent reference: plain Gauss-Legendre directly in x
    for spec in (ST, MeasureSpec.padic(7), MeasureSpec.phi(2)):
        ref = gauss_integral(lambda x: density(spec, x), -0.7, 1.3, nodes=400)
        assert abs(mass(spec, (-0.7, 1.3)) - ref) < 1e-9


def test_plancherel_zero_mass_in_exceptional_window():
    for xi in (0, 1):
        assert mass(MeasureSpec.plancherel(xi), (0.01, 0.24)) == 0.0


def test_plancherel_atoms():
    pl0 = MeasureSpec.plancherel(0)
    # atoms at b/2(1-b/2): b=2 -> 0 with weight 1, b=4 -> -2 with weight 3
    assert abs(mass(pl0, (-0.5, 0.1)) - 1.0) < 1e-12
    assert abs(mass(pl0, (-2.5, -1.5)) - 3.0) < 1e-12
    pl1 = MeasureSpec.plancherel(1)
    # b=3 -> -3/4 weight 2
    assert abs(mass(pl1, (-1.0, -0.5)) - 2.0) < 1e-12


def test_half_open_atom_convention_and_additivity():
    pl0 = MeasureSpec.plancherel(0)
    left = mass(pl0, (-1.0, 0.0))
    right = mass(pl0, (0.0, 1.0))
    total = mass(pl0, (-1.0, 1.0))
    assert abs(left + right - total) < 1e-10
    # the atom at 0 sits in [0, 1), not in [-1, 0)
    assert abs(left) < 1e-12
    assert abs(right - (1.0 + mass(pl0, (0.25, 1.0)))) < 1e-10
    v10 = MeasureSpec.v1(0)
    a, b, c = -2.3, 0.7, 1.9
    assert abs(mass(v10, (a, b)) + mass(v10, (b, c)) - mass(v10, (a, c))) < 1e-10
    # the atom nu = -1/2 lies below the float just above -1/2
    tpl0, x = MeasureSpec.tilde_pl(0), float(np.nextafter(-0.5, 1.0))
    assert mass(tpl0, (x, 0.5)) == 0.0
    assert mass(tpl0, (-0.5, x)) + mass(tpl0, (x, 1.0)) == mass(tpl0, (-0.5, 1.0)) == 1.0


def test_v1_atom_at_zero_has_mass_half():
    v10 = MeasureSpec.v1(0)
    eps = 1e-9
    assert abs(mass(v10, (-eps, eps)) - 0.5) < 1e-4


def test_v1_literal_middle_flag_is_constant_offset():
    lit = MeasureSpec.v1(0, literal_middle=True)
    # the verbatim middle term integrates |lambda - 1/4|^(-1/2) over [0, 5/4]
    # regardless of the region: (1/2)(2*sqrt(1) + 2*sqrt(1/4)) = 3/2
    assert abs(mass(lit, (2.0, 2.1)) - (0.5 * 0.1 + 1.5)) < 1e-12


def test_literal_middle_spec_is_not_sampled():
    # the constant middle term is no measure, so there is nothing to sample
    rng = np.random.default_rng(0)
    for low, high in [(-0.5, 0.1), (0.0, 3.0)]:
        with pytest.raises(InvalidParameter):
            sample_spectral(MeasureSpec.v1(1, literal_middle=True), low, high, 5, rng)


@pytest.mark.parametrize("make, arg", [
    (MeasureSpec.padic, math.nan), (MeasureSpec.padic, math.inf), (MeasureSpec.padic, 2.5),
    (MeasureSpec.padic, 3.0), (MeasureSpec.padic, 1), (MeasureSpec.padic, None),
    (MeasureSpec.phi, 1.5), (MeasureSpec.phi, math.nan), (MeasureSpec.phi, -1),
])
def test_measure_spec_needs_integral_parameters(make, arg):
    with pytest.raises(InvalidParameter):
        make(arg)


def test_unbounded_region_rejected():
    with pytest.raises(UnboundedRegion):
        mass(MeasureSpec.plancherel(0), (0.0, math.inf))


def test_spectral_box_product():
    box = SpectralBox((PlaceBox(-0.5, 3.0, "Q+", 0), PlaceBox(-0.5, 3.0, "Q+", 0)))
    one = mass(MeasureSpec.plancherel(0), (-0.5, 3.0))
    assert abs(mass(MeasureSpec.plancherel(0), box) - one * one) < 1e-10


def test_tilde_masses():
    assert abs(mass(MeasureSpec.tilde_pl(0), (0, 3)) - (0.5 + 1.5 + 2.5)) < 1e-12
    assert abs(mass(MeasureSpec.tilde_pl(1), (-2.5, 2.5)) - (2 + 1 + 1 + 2)) < 1e-12
    a = 2.5
    expect = 1.0 + 2.0 ** (-a) + 3.0 ** (-a)
    assert abs(mass(MeasureSpec.tilde_v1(1, A=a), (0, 4)) - expect) < 1e-12
    for spec in (MeasureSpec.tilde_pl(0), MeasureSpec.tilde_v1(1)):
        empty = mass(spec, (3.6, 3.9))
        assert empty == 0.0 and isinstance(empty, float)


_ATOM_SPECS = [MeasureSpec.plancherel(0), MeasureSpec.plancherel(1), MeasureSpec.v1(0),
               MeasureSpec.v1(1), MeasureSpec.tilde_pl(0), MeasureSpec.tilde_pl(1)] + [
    MeasureSpec.tilde_v1(xi, A) for xi in (0, 1) for A in (2.5, 3.0, 2.01)]


def _atom_endpoints(spec):
    """Atom positions and their float neighbours on both sides."""
    if spec.tag in ("plancherel", "v1"):
        s = 0.5 if spec.xi == 0 else 1.0
        pts = [0.25 - (s + k) ** 2 for k in range(8)]
    else:
        s = 0.5 if spec.xi == 0 else 0.0
        pts = [s + k for k in range(-5, 6)]
    return [q for p in pts for q in (np.nextafter(p, -np.inf), p, np.nextafter(p, np.inf))]


def test_atom_table_and_masses_equal_the_per_atom_walk():
    rng = np.random.default_rng(17)
    for spec in _ATOM_SPECS:
        ends = [float(x) for x in _atom_endpoints(spec)]
        pairs = [(lo, hi) for lo in ends for hi in ends if lo < hi]
        pairs += [tuple(sorted(rng.uniform(-70.0, 70.0, 2))) for _ in range(300)]
        for lo, hi in pairs:
            if spec.tag == "tilde_pl" and spec.xi == 0 and lo == np.nextafter(-0.5, 1.0):
                continue  # the walk rounds low - 1/2 up to -1 here; see the additivity test
            ref = oracles.atoms_loop(spec, lo, hi)
            pos, weight = measures._atoms(spec, lo, hi)
            keep = weight != 0.0  # tilde_pl with xi = 1 lists nu = 0 with weight 0
            assert pos[~keep].tolist() in ([], [0.0]), (spec, lo, hi)
            assert pos[keep].tolist() == [p for p, _ in ref], (spec, lo, hi)
            assert weight[keep].tolist() == [w for _, w in ref], (spec, lo, hi)
            ref_mass = sum((w for _, w in ref), 0.0)
            assert measures._atom_mass(spec, lo, hi) == ref_mass, (spec, lo, hi)
            if spec.tag in ("tilde_pl", "tilde_v1"):
                assert mass(spec, (lo, hi)) == ref_mass, (spec, lo, hi)


def test_sampler_never_draws_the_weightless_atom():
    spec = MeasureSpec.tilde_pl(1)
    pos, weight = measures._atoms(spec, -2.5, 2.5)
    assert pos.tolist() == [-2.0, -1.0, 0.0, 1.0, 2.0]
    assert weight.tolist() == [2.0, 1.0, 0.0, 1.0, 2.0]
    xs = sample_spectral(spec, -2.5, 2.5, 20_000, np.random.default_rng(4))
    assert set(xs.tolist()) == {-2.0, -1.0, 1.0, 2.0}


def test_wide_intervals_sum_atoms_in_closed_form():
    # 2e7 atoms, summed in closed form; sampling would have to list 2e9
    assert mass(MeasureSpec.tilde_pl(0), (-1e7, 1e7)) == 1e14
    with pytest.raises(EnumerationTooLarge):
        sample_spectral(MeasureSpec.tilde_pl(0), -1e9, 1e9, 10, np.random.default_rng(0))


def test_atom_sums_beyond_float_range_are_inf():
    # the exact atom sum overflows a float and rounds to inf, as the continuous part does
    for spec in (MeasureSpec.tilde_pl(0), MeasureSpec.tilde_pl(1), MeasureSpec.plancherel(0)):
        assert mass(spec, (-1e308, 1e308)) == math.inf, spec
    # strict JSON cannot spell inf, so the CLI refuses the interval instead of printing Infinity
    code, out = run_command(["measure", "tilde-pl", "--xi", "0", "--interval=-1e308,1e308"])
    assert code == 1 and b'"code":"InvalidParameter"' in out and b"Infinity" not in out, out


# --- singletons ----------------------------------------------------------------


def test_tilde_singleton_values():
    assert tilde_singleton([0], [4]) == Fraction(3, 2)
    assert tilde_singleton([0, 0], [4, 6]) == Fraction(15, 4)
    v = tilde_singleton([0, 0], [4, 6], measure="v1", A=2.5)
    assert abs(v - (1.5 * 2.5) ** 0 * (1.5**-2.5) * (2.5**-2.5)) < 1e-15


def test_tilde_singleton_parity_errors():
    with pytest.raises(ParityMismatch):
        tilde_singleton([0], [3])
    with pytest.raises(ParityMismatch):
        tilde_singleton([1], [4])


# --- orthonormality and moments --------------------------------------------------


def test_orthonormality_up_to_20():
    G = orthonormality_matrix(20)
    assert np.max(np.abs(G - np.eye(21))) < 1e-10


def test_orthonormality_past_510():
    # degrees past 510 need more than 512 midpoints, or cos(1024 t) aliases
    for max_degree in (511, 600):
        G = orthonormality_matrix(max_degree)
        assert np.max(np.abs(G - np.eye(max_degree + 1))) < 1e-12, max_degree


def test_orthonormality_negative_degree():
    with pytest.raises(InvalidParameter):
        orthonormality_matrix(-1)


def test_even_sum_is_square_identity():
    xs = np.linspace(-2, 2, 1000)
    for n in range(0, 11):
        s = sum(chebyshev_eval(2 * lp, xs) for lp in range(n + 1))
        assert np.max(np.abs(s - chebyshev_eval(n, xs) ** 2)) < 1e-9


def test_phi_moment_case_split():
    for ordv in range(0, 21):
        for ell in range(0, 45):
            expected = 1.0 if (ell % 2 == 0 and ell <= 2 * ordv) else 0.0
            assert phi_moment(ordv, ell) == expected, (ordv, ell)
    with pytest.raises(InvalidParameter):
        phi_moment(2, -1)
    with pytest.raises(InvalidParameter):
        phi_moment(-1, 2)


# --- sampling --------------------------------------------------------------------


def test_sample_support_and_determinism():
    xs = sample(ST, 2000, 7)
    assert np.all(xs >= -2.0) and np.all(xs <= 2.0)
    assert np.array_equal(xs, sample(ST, 2000, 7))
    assert not np.array_equal(xs, sample(ST, 2000, 8))


def test_sample_inverts_the_cdf_for_each_seed():
    for spec in (ST, MeasureSpec.padic(2), MeasureSpec.padic(97), MeasureSpec.phi(3),
                 MeasureSpec.phi(7), MeasureSpec.phi(20)):
        for seed in (0, 1, 2):
            xs = sample(spec, 20_000, seed)
            u = np.random.default_rng(seed).random(20_000)
            assert np.max(np.abs(cdf(spec, xs) - u)) <= 1e-13, (spec, seed)
            assert np.array_equal(xs, sample(spec, 20_000, seed))


def test_inverse_cdf_converges_next_to_density_zeros():
    # u at or next to F at a zero of the density is a triple root of F - u,
    # where Newton converges only linearly
    for spec in (ST, MeasureSpec.padic(2), MeasureSpec.phi(7), MeasureSpec.phi(20)):
        n = spec.ord + 1 if spec.ord is not None else 1
        zeros = measures._angle_cdf(spec, np.arange(n + 1) * math.pi / n)
        u = np.clip(np.concatenate([zeros + d for d in (0.0, 1e-15, 1e-12, 1e-9, -1e-12, -1e-9)]),
                    0.0, 1.0 - 2.0 ** -53)
        t = measures._inverse_angle_cdf(spec, u)
        assert np.max(np.abs(measures._angle_cdf(spec, t) - u)) <= 1e-15, spec


SAMPLER_SPECS = ([ST] + [MeasureSpec.phi(o) for o in range(6)]
                 + [MeasureSpec.padic(p) for p in (2, 3, 5, 7, 11)])


@pytest.mark.parametrize("n", [1, 2, 100_000])
def test_sampler_equals_the_draw_order_search(n):
    # the brackets are searched for in ascending u; every bit must match the
    # search in draw order
    for spec in SAMPLER_SPECS:
        for seed in (0, 3, 17):
            u = np.random.default_rng(seed).random(n)
            t = oracles.inverse_angle_cdf_draw_order(spec, u)
            assert np.array_equal(measures._inverse_angle_cdf(spec, u), t), (spec, seed)
            assert np.array_equal(sample(spec, n, seed), -2.0 * np.cos(t)), (spec, seed)


def test_sampler_equals_the_draw_order_search_on_tied_and_edge_draws():
    for spec in SAMPLER_SPECS:
        zeros = measures._angle_cdf(spec, np.linspace(0.0, math.pi, 7))
        u = np.clip(np.concatenate([zeros + d for d in (0.0, 1e-15, -1e-12, 0.0, 1e-9)]),
                    0.0, 1.0 - 2.0 ** -53)
        assert np.array_equal(measures._inverse_angle_cdf(spec, u),
                              oracles.inverse_angle_cdf_draw_order(spec, u)), spec


SLICE_SIZES = [1, measures._SLICE - 1, measures._SLICE, measures._SLICE + 1, 100_000]


def _per_cpu_count(monkeypatch, draw):
    """draw() with the whole range as one slice, then under 1, 2, 3 and 5 CPUs,
    with the threads switched every microsecond."""
    with monkeypatch.context() as m:
        m.setattr(measures, "_SLICE", 10**9)
        whole = draw()
    out = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 2, 3, 5):
            monkeypatch.setattr(measures, "_CPUS", cpus)
            out.append(draw())
    finally:
        sys.setswitchinterval(interval)
    return whole, out


@pytest.mark.parametrize("n", SLICE_SIZES)
def test_samplers_give_the_same_bytes_for_every_cpu_count(monkeypatch, n):
    draws = [lambda spec=spec: sample(spec, n, 4)
             for spec in (ST, MeasureSpec.padic(5), MeasureSpec.phi(0), MeasureSpec.phi(3))]
    draws += [lambda spec=spec, lo=lo, hi=hi: sample_spectral(spec, lo, hi, n,
                                                               np.random.default_rng(6))
              for spec, lo, hi in ((MeasureSpec.plancherel(0), -3.0, 4.0),  # atoms
                                   (MeasureSpec.plancherel(1), 0.3, 6.0))]  # no atoms
    for draw in draws:
        whole, per_cpus = _per_cpu_count(monkeypatch, draw)
        for got in per_cpus:
            assert got.dtype == whole.dtype and got.tobytes() == whole.tobytes()


def test_over_slices_deals_each_slice_once(monkeypatch):
    monkeypatch.setattr(measures, "_SLICE", 3)
    monkeypatch.setattr(measures, "_CPUS", 2)
    seen = []
    measures._over_slices(lambda lo, hi: seen.append((lo, hi, threading.get_ident())), 10)
    assert sorted((lo, hi) for lo, hi, _ in seen) == [(0, 3), (3, 6), (6, 9), (9, 10)]
    assert len({ident for *_, ident in seen}) == 2
    calls = []
    measures._over_slices(lambda lo, hi: calls.append((lo, hi)), 0)
    assert calls == []


def test_over_slices_raises_a_worker_error_in_the_caller(monkeypatch):
    monkeypatch.setattr(measures, "_SLICE", 4)
    monkeypatch.setattr(measures, "_CPUS", 3)
    before = threading.active_count()

    def work(lo, hi):
        if lo == 4:  # the second slice, which the first worker thread takes
            raise ZeroDivisionError("slice 4")

    with pytest.raises(ZeroDivisionError, match="slice 4"):
        measures._over_slices(work, 20)
    assert threading.active_count() == before


def test_sample_ks_self_consistency():
    xs = np.sort(sample(ST, 100_000, 123))
    emp = np.arange(1, len(xs) + 1) / len(xs)
    assert np.max(np.abs(cdf(ST, xs) - emp)) < 0.01


def test_cdf_against_closed_form():
    # F(x) = 1/2 + x sqrt(4 - x^2)/(4 pi) + arcsin(x/2)/pi for the semicircle
    xs = np.linspace(-2, 2, 401)
    closed = 0.5 + xs * np.sqrt(4 - xs * xs) / (4 * math.pi) + np.arcsin(xs / 2) / math.pi
    assert np.max(np.abs(cdf(ST, xs) - closed)) < 1e-9


def test_plancherel_continuous_part_against_reference():
    # mass of [1/4, b] equals int_0^sqrt(b - 1/4) 2u tanh(pi u) du
    for b in (0.7, 1.5, 4.0):
        u2 = math.sqrt(b - 0.25)
        ref = gauss_integral(lambda u: 2 * u * np.tanh(math.pi * u), 0.0, u2, nodes=300)
        got = mass(MeasureSpec.plancherel(0), (0.25, b))
        assert abs(got - ref) < 1e-9
        # coth variant: reference with the smooth extension at 0
        refc = gauss_integral(
            lambda u: np.where(u > 1e-12, 2 * u / np.tanh(math.pi * np.maximum(u, 1e-12)),
                               2 / math.pi),
            0.0, u2, nodes=300,
        )
        gotc = mass(MeasureSpec.plancherel(1), (0.25, b))
        assert abs(gotc - refc) < 1e-8


def _primes_upto(n):
    return [p for p in range(2, n + 1) if all(p % q for q in range(2, math.isqrt(p) + 1))]


X_SPECS = ([(ST, "sato_tate", None)]
           + [(MeasureSpec.padic(p), "padic_sato_tate", p) for p in _primes_upto(97)]
           + [(MeasureSpec.phi(o), "phi", o) for o in range(21)])


def test_x_measure_cdfs_against_quadrature_oracle():
    xs = np.sort(np.concatenate([[-2.0, 2.0], np.linspace(-1.99, 1.99, 9),
                                 np.random.default_rng(11).uniform(-2, 2, 40)]))
    for spec, tag, param in X_SPECS:
        ref = np.array(oracles.x_measure_cdf_quadrature(tag, param, xs))
        assert np.max(np.abs(cdf(spec, xs) - ref)) <= 1e-10, spec
        # mass is a difference of CDFs after clipping to [-2, 2]
        assert abs(mass(spec, (-5.0, xs[20])) - ref[20]) <= 1e-10
        assert abs(mass(spec, (xs[20], 5.0)) - (1.0 - ref[20])) <= 1e-10


def test_padic_cdf_against_serre_series():
    xs = np.linspace(-2.0, 2.0, 81)
    for p in _primes_upto(97):
        ref = np.array([oracles.padic_cdf_serre(p, x) for x in xs])
        assert np.max(np.abs(cdf(MeasureSpec.padic(p), xs) - ref)) <= 1e-13, p


def test_cdf_endpoints_and_monotone():
    xs = np.linspace(-2, 2, 257)
    vals = cdf(ST, xs)
    assert abs(vals[0]) < 1e-12 and abs(vals[-1] - 1) < 1e-12
    assert np.all(np.diff(vals) >= 0)
    for spec, _, _ in X_SPECS:
        assert cdf(spec, -2.0) == 0.0 and cdf(spec, 2.0) == 1.0, spec


def test_spectral_sampler_matches_masses():
    rng = np.random.default_rng(5)
    spec = MeasureSpec.plancherel(0)
    lo, hi = -3.0, 4.0
    xs = sample_spectral(spec, lo, hi, 40_000, rng)
    total = mass(spec, (lo, hi))
    # atom at -2 has weight 3
    assert abs(np.mean(np.isclose(xs, -2.0)) - 3.0 / total) < 0.02
    # continuous part fraction
    cont = mass(spec, (0.25, hi))
    assert abs(np.mean(xs > 0.25) - cont / total) < 0.02


def test_v1_xi0_sampler_covers_the_continuous_part_below_a_quarter():
    # for xi = 0 the continuous part of v1 starts at 0, not at 1/4
    spec = MeasureSpec.v1(0)
    n = 200_000
    xs = sample_spectral(spec, -1.0, 3.0, n, np.random.default_rng(13))
    p = mass(spec, (1e-12, 0.25)) / mass(spec, (-1.0, 3.0))
    got = np.mean((xs > 0.0) & (xs < 0.25))
    assert abs(got - p) < 4 * math.sqrt(p * (1 - p) / n), (got, p)
    low = sample_spectral(spec, -1.0, 0.2, 1000, np.random.default_rng(13))
    assert np.all((low >= 0.0) & (low <= 0.2))
    assert np.any(low > 0.0)


def test_spectral_sampler_equals_the_per_sample_loop():
    cases = [
        (MeasureSpec.plancherel(0), -3.0, 4.0),
        (MeasureSpec.plancherel(1), -7.0, 2.5),
        (MeasureSpec.plancherel(0), 0.3, 6.0),  # no atoms
        (MeasureSpec.v1(1), -6.0, 3.0),
        (MeasureSpec.tilde_pl(0), -3.0, 4.0),
        (MeasureSpec.tilde_v1(1, A=3.0), -2.0, 5.0),
    ]
    for spec, lo, hi in cases:
        got = sample_spectral(spec, lo, hi, 5_000, np.random.default_rng(9))
        ref = oracles.sample_spectral_loop(spec, lo, hi, 5_000, np.random.default_rng(9))
        assert np.array_equal(got, ref), spec


@pytest.mark.parametrize("n", [1, 2, 100_000])
def test_spectral_sampler_equals_the_per_sample_loop_at_every_size(n):
    cases = [
        (MeasureSpec.plancherel(0), -3.0, 4.0),  # atoms and a continuous part
        (MeasureSpec.plancherel(1), 0.3, 6.0),  # no atoms
        (MeasureSpec.v1(0), -6.0, 3.0),
        (MeasureSpec.v1(1), 0.3, 5.0),
    ]
    for spec, lo, hi in cases:
        for seed in (1, 8):
            got = sample_spectral(spec, lo, hi, n, np.random.default_rng(seed))
            ref = oracles.sample_spectral_loop(spec, lo, hi, n, np.random.default_rng(seed))
            assert np.array_equal(got, ref), (spec, seed)


def test_adaptive_quad_known_integral():
    assert abs(adaptive_quad(lambda t: np.sin(t), 0.0, math.pi) - 2.0) < 1e-12


def test_adaptive_quad_raises_at_the_subdivision_cap(monkeypatch):
    monkeypatch.setattr(measures, "QUAD_MAX_SUBDIV", 4)
    with pytest.raises(InvariantViolation, match="estimated error"):
        adaptive_quad(lambda t: np.sqrt(np.abs(t)), -1.0, 1.0)
    assert abs(adaptive_quad(lambda t: t * t, 0.0, 1.0) - 1.0 / 3.0) < 1e-12
