import copy
import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from heckedist.equidist import (
    _sorted_empirical,
    _synth_labels,
    DataPoint,
    Dataset,
    equidist_report,
    ks_distance,
    moment_test,
    plot_data,
    synthesize_dataset,
)
from heckedist import measures
from heckedist.errors import EmptyDataset, InvalidParameter, TotalWeightZero, ZeroMassRegion
from heckedist.measures import MeasureSpec, PlaceBox, SpectralBox
from heckedist.numberfield import make_field

import oracles

ST = MeasureSpec.sato_tate()
PHI0 = MeasureSpec.phi(0)
Q = make_field("rational")


def _ds(points, target=PHI0):
    return Dataset.from_points(points, target)


def test_dataset_validation():
    with pytest.raises(ValueError):
        _ds([DataPoint("x", 2.5)])
    with pytest.raises(ValueError):
        _ds([DataPoint("x", 0.0, -1.0)])
    with pytest.raises(TotalWeightZero):
        _ds([DataPoint("x", 0.0, 0.0)])
    # the message names the first offending point, whichever check it fails
    with pytest.raises(InvalidParameter, match="at b$"):
        _ds([DataPoint("a", 0.0), DataPoint("b", 0.0, -1.0), DataPoint("c", 3.0)])
    with pytest.raises(InvalidParameter):
        _ds([DataPoint("a", 0.0, 1.0, (1.0,)), DataPoint("b", 0.0)])


@pytest.mark.parametrize("bad", [
    DataPoint("bad", math.nan),
    DataPoint("bad", math.inf),
    DataPoint("bad", 0.1, math.nan),
    DataPoint("bad", 0.1, math.inf),
    DataPoint("bad", 0.1, -math.inf),
])
def test_dataset_rejects_non_finite_values(bad):
    with pytest.raises(InvalidParameter, match="at bad$"):
        _ds([DataPoint("ok", 0.5), bad])


def test_dataset_columns_are_read_only():
    box = SpectralBox((PlaceBox(-4.0, 6.0, "Q+", 0),))
    ds = synthesize_dataset(make_field(5), "2", 0, box, 20, 1)
    for col in (ds.lambdas(), ds.weights(), ds.labels, ds.casimir):
        assert not col.flags.writeable
        with pytest.raises(ValueError):
            col[0] = col[1]
    with pytest.raises(AttributeError):
        ds.labels = ds.labels.copy()


@pytest.mark.parametrize("seed", [3, 11, 29])
@pytest.mark.parametrize("boxed", [False, True])
def test_columns_match_the_per_point_construction(seed, boxed):
    F = make_field(5)
    box = SpectralBox((PlaceBox(-4.0, 6.0, "Q+", 0), PlaceBox(-0.5, 3.0, "Q+", 0))) \
        if boxed else None
    ds = synthesize_dataset(F, "2", 1, box, 3000, seed)
    pts = oracles.synthesize_points(1, box, 3000, seed)
    assert ds.points == pts
    assert np.array_equal(ds.lambdas(), oracles.point_lambdas(pts))
    assert np.array_equal(ds.weights(), oracles.point_weights(pts))
    assert plot_data(ds).tolist() == [list(row) for row in oracles.point_plot_data(pts, ds.target)]

    def report_bytes(d):
        rep = equidist_report(d, (-1.0, 0.5), 1, field=F, box=box)
        return json.dumps(rep, sort_keys=True).encode()

    assert report_bytes(ds) == report_bytes(Dataset.from_points(pts, ds.target))


def test_plot_data_is_a_read_only_array_of_the_point_rows():
    pts = oracles.synthesize_points(2, None, 2000, 4)
    rows = plot_data(Dataset.from_points(pts, PHI0))
    assert rows.dtype == np.float64 and rows.shape == (2000, 3)
    assert not rows.flags.writeable
    assert rows.tolist() == [list(row) for row in oracles.point_plot_data(pts, PHI0)]


def test_dataset_copies_the_arrays_it_is_given():
    lams, weights, cas = np.zeros(3), np.ones(3), np.zeros((3, 1))
    labels = np.array(["a", "b", "c"])
    ds = Dataset(lams, weights, labels, PHI0, cas)
    for given, kept in ((lams, ds.lambdas()), (weights, ds.weights()), (labels, ds.labels),
                        (cas, ds.casimir)):
        assert given.flags.writeable and not np.shares_memory(given, kept)


def test_dataset_pickles_and_copies():
    box = SpectralBox((PlaceBox(-4.0, 6.0, "Q+", 0),))
    for ds in (synthesize_dataset(make_field(5), "2", 1, box, 50, 3),
               _ds([DataPoint("one", 0.5, 2.0)])):
        for twin in (pickle.loads(pickle.dumps(ds)), copy.copy(ds), copy.deepcopy(ds)):
            assert (twin.target, twin.meta) == (ds.target, ds.meta)
            for given, kept in ((ds.lambdas(), twin.lambdas()), (ds.weights(), twin.weights()),
                                (ds.labels, twin.labels), (ds.casimir, twin.casimir)):
                if given is None:
                    assert kept is None
                    continue
                assert np.array_equal(given, kept) and given.dtype == kept.dtype
                assert not kept.flags.writeable and not np.shares_memory(given, kept)


def _traced(f, *args):
    """(result, bytes it keeps, peak bytes) of one call under tracemalloc."""
    tracemalloc.start()
    try:
        out = f(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, kept, peak


def test_synthetic_dataset_and_plot_rows_memory(monkeypatch):
    # numpy reports its buffers to tracemalloc, so these figures repeat exactly
    # on one thread; each further sampler thread adds up to one slice's work
    # arrays, about 0.6 MB, as its slices overlap the others'.  The small
    # calls first fill the samplers' and CDFs' caches
    monkeypatch.setattr(measures, "_CPUS", 1)
    F = make_field(5)
    box = SpectralBox((PlaceBox(-4.0, 6.0, "Q+", 0), PlaceBox(-0.5, 3.0, "Q+", 0)))
    plot_data(synthesize_dataset(F, "2", 1, box, 1000, 7))
    # 4.41 MB: 2.4 MB of drawn columns (the lambdas and two Casimir columns),
    # all the dataset keeps, and the samplers' work arrays; 10.5 MB when the
    # dataset stored its labels (4.8 MB) and unit weights and stacked the
    # Casimir columns, 18.5 MB when it copied the columns it was handed
    ds, kept, peak = _traced(synthesize_dataset, F, "2", 1, box, 100_000, 7)
    assert kept < 2_450_000 and peak < 4_500_000
    # 2.4 MB: the (n, 3) float64 rows; 14.3 MB as a list of float tuples
    _, kept, _ = _traced(plot_data, ds)
    assert kept <= 3_000_000


def test_report_memory():
    # 5.10 MB: the three Chebyshev rows in flight, one jackknife buffer reused
    # for every ell, and the sort in the KS distance; 5.70 MB with a new
    # jackknife array for each ufunc
    ds = synthesize_dataset(Q, "2", 1, None, 100_000, 7)
    equidist_report(synthesize_dataset(Q, "2", 1, None, 1000, 7), (-1.0, 0.5), 1)
    _, _, peak = _traced(equidist_report, ds, (-1.0, 0.5), 1)
    assert peak < 5_400_000


@pytest.mark.parametrize("n", [1, 1_000, 100_000])
def test_synthetic_labels_and_weights_are_derived_on_read(n):
    box = SpectralBox((PlaceBox(-4.0, 6.0, "Q+", 0),))
    ds = synthesize_dataset(make_field(5), "2", 0, box, n, 3)
    labels, weights = ds.labels, ds.weights()
    ref = oracles.synth_labels_by_string_ops(n)
    assert labels.dtype == ref.dtype and np.array_equal(labels, ref)
    assert weights.dtype == np.float64 and weights.shape == (n,) and np.all(weights == 1.0)
    for col in (labels, weights):
        assert not col.flags.writeable
        with pytest.raises(ValueError):
            col[0] = col[-1]
    assert ds.labels is not labels  # built again on each read, never kept
    for twin in (pickle.loads(pickle.dumps(ds)), copy.deepcopy(ds)):
        assert np.array_equal(twin.labels, ref) and np.array_equal(twin.weights(), weights)
        assert twin.points == ds.points


def test_synthetic_labels_past_six_digits():
    ds = synthesize_dataset(Q, "2", 0, None, 1_000_002, 5)
    assert ds.labels.tolist() == [f"synth-{i:06d}" for i in range(1_000_002)]


def test_synthetic_labels_equal_the_string_built_ones():
    for n in (1, 2, 10, 100_000, 999_999, 1_000_000, 1_000_002):
        got, ref = _synth_labels(n), oracles.synth_labels_by_string_ops(n)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), n
    ds = synthesize_dataset(Q, "2", 0, None, 1_000, 2)
    assert ds.labels.dtype == oracles.synth_labels_by_string_ops(1_000).dtype


@pytest.mark.parametrize("n", [1, measures._SLICE - 1, measures._SLICE, measures._SLICE + 1,
                               100_000])
def test_synthetic_labels_are_the_same_for_every_cpu_count(monkeypatch, n):
    with monkeypatch.context() as m:
        m.setattr(measures, "_SLICE", 10**9)
        whole = _synth_labels(n)
    for cpus in (1, 2, 3, 5):
        monkeypatch.setattr(measures, "_CPUS", cpus)
        got = _synth_labels(n)
        assert got.dtype == whole.dtype and got.tobytes() == whole.tobytes(), cpus


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [1, 2, 100_000])
def test_sorted_empirical_equals_the_lexsort(n):
    for ord, seed in ((0, 1), (2, 5), (5, 9)):
        ds = synthesize_dataset(Q, "2", ord, None, n, seed)
        for got, ref in zip(_sorted_empirical(ds), oracles.sorted_empirical_lexsort(ds)):
            assert _same_bits(got, ref), (ord, seed)


def test_sorted_empirical_orders_ties_by_label():
    # tied lambdas (0.0 and -0.0 among them) with unequal weights and labels
    # out of index order: the label order fixes the order the weights are summed in
    rng = np.random.default_rng(4)
    n = 20_000
    lams = np.round(rng.uniform(-2.0, 2.0, n), 1)
    lams[rng.random(n) < 0.05] = -0.0
    weights = rng.random(n) * 10.0 ** rng.integers(-8, 8, n)
    labels = [f"p{k:05d}" for k in rng.permutation(n)]
    ds = Dataset(lams, weights, labels, PHI0)
    for got, ref in zip(_sorted_empirical(ds), oracles.sorted_empirical_lexsort(ds)):
        assert _same_bits(got, ref)


def test_ks_point_mass_at_zero():
    ds = _ds([DataPoint("a", 0.0)])
    assert abs(ks_distance(ds, ST) - 0.5) < 1e-9


def test_sorted_empirical_matches_a_sort_on_lambda_then_label():
    rng = np.random.default_rng(6)
    lams = rng.choice([-1.5, -0.25, 0.0, 0.75, 2.0], size=300)
    labels = rng.choice(["b", "a", "c", "aa"], size=300)
    weights = rng.uniform(0.0, 3.0, size=300)
    ds = _ds([DataPoint(str(lb), float(x), float(w)) for lb, x, w in zip(labels, lams, weights)])
    pts = sorted(ds.points, key=lambda p: (p.lam, p.label))
    xs = np.array([p.lam for p in pts])
    ws = np.array([p.weight for p in pts])
    cum = np.cumsum(ws) / np.sum(ws)
    keep = np.append(xs[1:] != xs[:-1], True)
    got_xs, got_cum = _sorted_empirical(ds)
    assert np.array_equal(got_xs, xs[keep]) and np.array_equal(got_cum, cum[keep])


def test_ks_sampler_self_test():
    from heckedist.measures import sample

    xs = sample(PHI0, 100_000, 11)
    ds = _ds([DataPoint(f"s{i}", float(x)) for i, x in enumerate(xs)])
    assert ks_distance(ds, PHI0) < 0.01


def test_ks_invariant_under_weight_halving():
    rng = np.random.default_rng(4)
    xs = rng.uniform(-2, 2, 500)
    ds1 = _ds([DataPoint(f"p{i}", float(x), 1.0) for i, x in enumerate(xs)])
    doubled = [DataPoint(f"p{i}a", float(x), 0.5) for i, x in enumerate(xs)] + [
        DataPoint(f"p{i}b", float(x), 0.5) for i, x in enumerate(xs)
    ]
    ds2 = _ds(doubled)
    assert abs(ks_distance(ds1, ST) - ks_distance(ds2, ST)) < 1e-12


def test_ks_requires_nonempty():
    with pytest.raises(EmptyDataset):
        ks_distance(_ds([]), ST)


# --- moments -----------------------------------------------------------------


def test_moment_all_lambda_two():
    ds = _ds([DataPoint(f"p{i}", 2.0) for i in range(5)])
    rows = moment_test(ds, 0, 6)
    for row in rows:
        assert row.value == row.ell + 1  # X_l(2) = l + 1
    with pytest.raises(InvalidParameter):  # Phi(ord) needs ord >= 0, as in phi_moment
        moment_test(ds, -1, 6)


def test_moment_zero_is_one_exactly():
    rng = np.random.default_rng(5)
    ds = _ds([DataPoint(f"p{i}", float(x), float(w)) for i, (x, w) in
              enumerate(zip(rng.uniform(-2, 2, 100), rng.uniform(0.1, 3, 100)))])
    rows = moment_test(ds, 0, 0)
    assert rows[0].value == 1.0 and rows[0].z == 0.0


def test_moment_z_detects_wrong_law():
    # power check: uniform data has second Chebyshev moment 1/3, so the
    # z-score against the semicircle moments must blow up at large n
    rng = np.random.default_rng(12)
    ds = _ds([DataPoint(f"u{i}", float(x)) for i, x in
              enumerate(rng.uniform(-2, 2, 50_000))])
    rows = moment_test(ds, 0, 2)
    assert abs(rows[2].value - 1.0 / 3.0) < 0.02
    assert abs(rows[2].z) > 10.0


def test_moment_z_scores_synthetic():
    ds = synthesize_dataset(Q, "2", 0, None, 100_000, 17)
    rows = moment_test(ds, 0, 10)
    assert abs(rows[1].value) < 0.02
    for row in rows:
        assert abs(row.z) <= 3.0, (row.ell, row.z)
    ds2 = synthesize_dataset(Q, "2", 2, None, 100_000, 18)
    rows2 = moment_test(ds2, 2, 6)
    assert abs(rows2[4].value - 1.0) < 0.03  # expected moment 1 at ell = 4
    assert all(abs(r.z) <= 3.0 for r in rows2)


def test_moment_rows_match_chebyshev_eval_per_ell():
    # the carried recurrence is chebyshev_eval's, so every row is == to the last bit
    rng = np.random.default_rng(9)
    weighted = _ds([DataPoint(f"p{i}", float(x), float(w)) for i, (x, w) in
                    enumerate(zip(rng.uniform(-2, 2, 500), rng.uniform(0.0, 3, 500)))])
    # all the weight on one point, so its leave-one-out denominator is 0
    one_heavy = _ds([DataPoint("a", 0.5, 1.0), DataPoint("b", -1.0, 0.0)])
    single = _ds([DataPoint("a", 1.5)])
    cases = [(synthesize_dataset(Q, "2", 0, None, 20_000, 3), 0, 40),
             (synthesize_dataset(Q, "2", 2, None, 20_000, 4), 2, 10),
             (weighted, 1, 12), (one_heavy, 0, 5), (single, 0, 3)]
    for ds, ord, ell_max in cases:
        assert moment_test(ds, ord, ell_max) == oracles.moment_rows_per_ell(ds, ord, ell_max)


# --- synthesis ---------------------------------------------------------------


def test_synthesize_support_and_determinism():
    ds = synthesize_dataset(Q, "2", 0, None, 10_000, 42)
    assert len(ds) == 10_000
    assert np.all(np.abs(ds.lambdas()) <= 2.0)
    ds2 = synthesize_dataset(Q, "2", 0, None, 10_000, 42)
    assert ds.points == ds2.points


def test_synthesize_with_spectral_box():
    box = SpectralBox((PlaceBox(-4.0, 6.0, "Q+", 0),))
    ds = synthesize_dataset(make_field(5), "2", 0, box, 2000, 7)
    cas = np.array([pt.casimir[0] for pt in ds.points])
    assert np.all(cas >= -4.0) and np.all(cas <= 6.0)
    # no casimir values inside the gap (0, 1/4) up to the atom at 0
    inside = (cas > 1e-9) & (cas < 0.25)
    assert not inside.any()


def test_synthesize_zero_mass_box():
    box = SpectralBox((PlaceBox(0.01, 0.2, "Q+", 0),))
    with pytest.raises(ZeroMassRegion):
        synthesize_dataset(make_field(5), "2", 0, box, 10, 1)


def test_dense_image_gap():
    ds = synthesize_dataset(Q, "2", 0, None, 100_000, 23)
    xs = np.sort(ds.lambdas())
    xs = xs[(xs >= -1.9) & (xs <= 1.9)]
    assert np.max(np.diff(xs)) < 0.05


# --- reports ------------------------------------------------------------------


def test_report_synthetic_interval():
    ds = synthesize_dataset(Q, "2", 0, None, 100_000, 101)
    rep = equidist_report(ds, (-1.0, 1.0), 0)
    assert 0.95 <= rep["ratio"] <= 1.05
    assert rep["pass"] is True


def test_report_full_interval_predicts_one():
    ds = synthesize_dataset(Q, "2", 0, None, 1000, 3)
    rep = equidist_report(ds, (-2.0, 2.0), 0)
    assert rep["predicted"] == 1.0
    assert rep["observed"] == 1.0


def test_uniform_control_fails():
    rng = np.random.default_rng(8)
    xs = rng.uniform(-2, 2, 100_000)
    ds = _ds([DataPoint(f"u{i}", float(x)) for i, x in enumerate(xs)])
    rep = equidist_report(ds, (-1.0, 1.0), 0)
    assert rep["ks"] >= 0.05
    assert rep["pass"] is False


def test_report_deterministic_bytes():
    ds = synthesize_dataset(Q, "2", 0, None, 5000, 7)
    r1 = equidist_report(ds, (-1.0, 1.0), 0)
    ds2 = synthesize_dataset(Q, "2", 0, None, 5000, 7)
    r2 = equidist_report(ds2, (-1.0, 1.0), 0)
    b1 = json.dumps(r1, sort_keys=True).encode()
    b2 = json.dumps(r2, sort_keys=True).encode()
    assert b1 == b2


def test_report_with_main_term_constant():
    box = SpectralBox((PlaceBox(-0.5, 3.0, "Q+", 0), PlaceBox(-0.5, 3.0, "Q+", 0)))
    ds = synthesize_dataset(make_field(5), "2", 0, box, 500, 9)
    rep = equidist_report(ds, (-1.0, 1.0), 0, field=make_field(5), box=box)
    d, disc, h = 2, 5, 1
    assert abs(rep["main_term_constant"] - (2**d) * math.sqrt(disc) / (math.pi**d * h)) < 1e-12
    assert rep["predicted_weighted_count"] > 0


def test_plot_data_shape():
    ds = synthesize_dataset(Q, "2", 0, None, 50, 2)
    rows = plot_data(ds)
    assert len(rows) == 50
    xs = [r[0] for r in rows]
    assert xs == sorted(xs)
    for _, e, t in rows:
        assert 0.0 <= e <= 1.0 and 0.0 <= t <= 1.0


_ONE_PLACE = SpectralBox((PlaceBox(-0.5, 3.0, "Q+", 0),))


@pytest.mark.parametrize("call, error", [
    (lambda: Dataset([0.1, 0.2], [1.0], ["a", "b"], PHI0), InvalidParameter),
    (lambda: Dataset([0.1], [1.0], ["a"], PHI0, casimir=[1.0]), InvalidParameter),
    (lambda: Dataset([0.1], [1.0], ["a"], PHI0, casimir=[[1.0], [2.0]]), InvalidParameter),
    (lambda: Dataset([], [], [], PHI0), EmptyDataset),
    (lambda: Dataset.from_points([], PHI0), EmptyDataset),
    (lambda: synthesize_dataset(Q, "2", 0, None, 0, 1), InvalidParameter),
    # Omega_t lies in R^d: a box over Q(sqrt 5) needs two places, one over Q one
    (lambda: equidist_report(synthesize_dataset(Q, "2", 0, None, 50, 1), (-1.0, 1.0), 0,
                             field=make_field(5), box=_ONE_PLACE), InvalidParameter),
    (lambda: equidist_report(synthesize_dataset(Q, "2", 0, None, 50, 1), (-1.0, 1.0), 0,
                             field=Q, box=SpectralBox(_ONE_PLACE.places * 2)),
     InvalidParameter),
], ids=["column-lengths", "casimir-not-2d", "casimir-rows", "empty", "empty-points",
        "synthesize-n-0", "box-too-small", "box-too-large"])
def test_degenerate_datasets_and_boxes_are_refused(call, error):
    with pytest.raises(error):
        call()
