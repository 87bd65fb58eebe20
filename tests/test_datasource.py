import hashlib
import math
import os
import time

import pytest

from heckedist import datasource
from heckedist.datasource import (
    DataClient,
    EigenvalueRecord,
    Query,
    normalize,
    parse_record_json,
    to_dataset,
)
from heckedist.errors import (
    CacheMiss,
    EmptyDataset,
    EnumerationTooLarge,
    InvalidParameter,
    MissingEigenvalue,
    NetworkError,
    RamanujanViolation,
    SchemaError,
    TotalWeightZero,
)
from heckedist.numberfield import make_field
from oracles import ec11_ap, level_one_eigenform


# --- fixture corpus ---------------------------------------------------------


def test_fixture_weight_12_is_delta():
    recs = DataClient().fetch_records(
        Query(level_min=1, level_max=1, weight_min=12, weight_max=12), mode="fixture"
    )
    assert [r.label for r in recs] == ["1.12.a.a"]
    rec = recs[0]
    a2, norm = rec.eigenvalues["2"]
    assert a2 == -24 and norm == 2
    lam2 = normalize(rec, "2")
    assert abs(lam2 - (-24 / 2**5.5)) < 1e-9


def test_fixture_matches_qexpansion_oracle():
    # every bundled classical level-one record agrees with a fresh
    # brute-force q-expansion at every stored prime
    recs = DataClient().fetch_records(
        Query(level_min=1, level_max=1, weight_min=12, weight_max=26), mode="fixture"
    )
    assert len(recs) == 6
    for rec in recs:
        series = level_one_eigenform(rec.weight, 97)
        for key, (a_p, norm) in rec.eigenvalues.items():
            assert a_p == series[int(key)], (rec.label, key)
            assert norm == int(key)


def test_fixture_level_11_matches_point_count():
    recs = DataClient().fetch_records(
        Query(level_min=11, level_max=11, weight_min=2, weight_max=2), mode="fixture"
    )
    assert [r.label for r in recs] == ["11.2.a.a"]
    rec = recs[0]
    for p in (2, 3, 5, 7, 13, 97):
        assert rec.eigenvalues[str(p)][0] == ec11_ap(p)
    assert abs(normalize(rec, "5") - 1 / math.sqrt(5)) < 1e-12
    assert "11" not in rec.eigenvalues  # bad prime excluded


def test_whole_corpus_passes_ramanujan():
    recs = DataClient().fetch_records(
        Query(degree=1, level_min=1, level_max=100, weight_min=2, weight_max=26),
        mode="fixture",
    )
    assert recs
    for rec in recs:
        for key in rec.eigenvalues:
            lam = normalize(rec, key)
            assert abs(lam) <= 2.0 + 1e-6


def test_hilbert_fixture_embeddings():
    recs = DataClient().fetch_records(
        Query(degree=2, level_min=31, level_max=31, weight_min=2, weight_max=2),
        mode="fixture",
    )
    assert len(recs) == 2  # one record per real embedding
    assert all(r.synthetic for r in recs)
    F5 = make_field(5)
    w1, w2 = F5.omega_embeddings()
    # prime 2.1 carries coefficients (-1, 1): embeddings -1 + w_j
    for rec, w in zip(sorted(recs, key=lambda r: r.embedding_index), (w1, w2)):
        a, norm = rec.eigenvalues["2.1"]
        assert abs(a - (-1 + w)) < 1e-12 and norm == 4
        assert abs(normalize(rec, "2.1")) <= 2.0


# --- normalization ----------------------------------------------------------


def test_normalize_zero_and_missing():
    rec = EigenvalueRecord("t", 1, None, 12, 1, {"2": (0.0, 2)})
    assert normalize(rec, "2") == 0.0
    with pytest.raises(MissingEigenvalue):
        normalize(rec, "3")


def test_normalize_ramanujan_violation():
    rec = EigenvalueRecord("t", 1, None, 2, 1, {"2": (100.0, 2)})
    with pytest.raises(RamanujanViolation):
        normalize(rec, "2")


# --- schema ------------------------------------------------------------------


def test_schema_error_names_field():
    with pytest.raises(SchemaError) as err:
        parse_record_json({"label": "x", "degree": 1, "field": "rational", "weight": 2})
    assert "level_norm" in str(err.value)
    with pytest.raises(SchemaError) as err:
        parse_record_json(
            {"label": "x", "degree": 1, "field": "rational", "weight": 2,
             "level_norm": 1, "ap": {"2": [1, 2, 3]}}
        )
    assert "bad eigenvalue" in str(err.value)


def test_wrongly_typed_record_is_a_schema_error():
    good = {"label": "x", "degree": 1, "field": "rational", "weight": 2, "level_norm": 11,
            "ap": {"2": -2}}
    assert parse_record_json(good)[0].eigenvalues == {"2": (-2, 2)}
    for bad in ([good], dict(good, degree="one"), dict(good, ap=[1, 2]),
                dict(good, ap={"2": {"coeffs": ["a", 1], "norm": 2}}),
                dict(good, ap={"0": 1}), dict(good, ap={"2": {"ap": 1, "norm": -4}})):
        with pytest.raises(SchemaError):
            parse_record_json(bad)


# --- datasets ------------------------------------------------------------------


def _toy_records():
    return [
        EigenvalueRecord(f"r{i}", 1, None, 12, 1, {"2": (float(i), 2)})
        for i in range(3)
    ]


def test_to_dataset_unit_weights():
    ds = to_dataset(_toy_records(), "2")
    assert len(ds) == 3
    assert ds.weights().sum() == 3.0
    assert [p.label for p in ds.points] == ["r0", "r1", "r2"]


def test_to_dataset_empty_then_ks_raises():
    # an empty dataset is refused where it is built, before any statistic
    with pytest.raises(EmptyDataset, match="dataset is empty"):
        to_dataset([], "2")


def test_to_dataset_zero_provided_weights():
    recs = [
        EigenvalueRecord("a", 1, None, 12, 1, {"2": (1.0, 2)}, weight_factor=0.0),
        EigenvalueRecord("b", 1, None, 12, 1, {"2": (2.0, 2)}, weight_factor=0.0),
    ]
    with pytest.raises(TotalWeightZero):
        to_dataset(recs, "2", weights="provided")


# --- cache and network ----------------------------------------------------------


def _fake_rows():
    return {
        "data": [
            {"label": "7.4.a.a", "weight": 4, "level": 7, "traces": {"2": -1, "3": -2}},
            {"label": "7.4.a.b", "weight": 4, "level": 7, "traces": {"2": 1, "3": 0}},
        ]
    }


def test_network_fetch_caches_and_warm_cache_hits(tmp_path, monkeypatch):
    monkeypatch.delenv("HECKEDIST_OFFLINE", raising=False)
    calls = []

    def transport(url, params):
        calls.append((url, params))
        return _fake_rows()

    client = DataClient(cache_dir=str(tmp_path), base_url="http://example.invalid/api",
                        transport=transport)
    q = Query(level_min=7, level_max=7, weight_min=4, weight_max=4)
    recs = client.fetch_records(q, mode="network")
    assert [r.label for r in recs] == ["7.4.a.a", "7.4.a.b"]
    assert client.request_count == 1
    assert calls[0][0] == "http://example.invalid/api/mf_newforms/"
    assert os.path.exists(os.path.join(str(tmp_path), q.key() + ".jsonl"))

    # warm cache: zero further network calls
    recs2 = client.fetch_records(q, mode="network")
    assert client.request_count == 1
    assert [r.label for r in recs2] == [r.label for r in recs]
    # structural cache round-trip
    assert [r.eigenvalues for r in recs2] == [r.eigenvalues for r in recs]

    # cache_only works warm, and fails cold
    recs3 = client.fetch_records(q, mode="cache_only")
    assert [r.label for r in recs3] == [r.label for r in recs]
    cold = DataClient(cache_dir=str(tmp_path / "empty"), transport=transport)
    with pytest.raises(CacheMiss):
        cold.fetch_records(q, mode="cache_only")


def test_cache_names_and_bytes_are_pinned(tmp_path, monkeypatch):
    # a change to these bytes orphans every existing user cache
    assert Query().key() == (
        "66c99bbbedc3ca497c660da36568924395350868721721836dd913fb8b0cbf17")
    assert Query(degree=2, level_min=1, level_max=11, weight_min=2,
                 weight_max=26).key() == (
        "fbfbbd7c38b50b1518d25f6324feb8a66bdc955a917b7658c3d6f2ed8575a0dc")
    monkeypatch.delenv("HECKEDIST_OFFLINE", raising=False)
    client = DataClient(cache_dir=str(tmp_path), transport=lambda u, p: _fake_rows())
    q = Query(level_min=7, level_max=7, weight_min=4, weight_max=4)
    client.fetch_records(q, mode="network")
    data = (tmp_path / (q.key() + ".jsonl")).read_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "121100d0a15d328fb54a7481e768593d632b935a2fff9fac1fbb1a571594a13d")


def test_network_pagination_follows_next_links(tmp_path, monkeypatch):
    monkeypatch.delenv("HECKEDIST_OFFLINE", raising=False)
    pages = {
        "first": {
            "data": [{"label": "7.4.a.a", "weight": 4, "level": 7, "traces": {"2": -1}}],
            "next": "http://example.invalid/page2",
        },
        "http://example.invalid/page2": {
            "data": [{"label": "7.4.a.b", "weight": 4, "level": 7, "traces": {"2": 1}}],
        },
    }

    def transport(url, params):
        return pages["first"] if url not in pages else pages[url]

    client = DataClient(cache_dir=str(tmp_path), transport=transport)
    recs = client.fetch_records(Query(level_min=7, level_max=7, weight_min=4,
                                      weight_max=4), mode="network")
    assert [r.label for r in recs] == ["7.4.a.a", "7.4.a.b"]
    assert client.request_count == 2


def test_network_refuses_a_query_past_the_page_cap(tmp_path, monkeypatch):
    monkeypatch.delenv("HECKEDIST_OFFLINE", raising=False)

    def transport(url, params):  # every page links to one more
        k = int(url.rsplit("/", 1)[1]) if url.startswith("http://example.invalid/page/") else 0
        return {"data": [{"label": f"7.4.a.{k}", "weight": 4, "level": 7, "traces": {"2": 1}}],
                "next": f"http://example.invalid/page/{k + 1}"}

    client = DataClient(cache_dir=str(tmp_path), transport=transport)
    q = Query(level_min=7, level_max=7, weight_min=4, weight_max=4)
    with pytest.raises(EnumerationTooLarge):
        client.fetch_records(q, mode="network")
    assert client.request_count == datasource.MAX_PAGES
    # nothing was cached, so the cache cannot serve the truncated rows later
    with pytest.raises(CacheMiss):
        client.fetch_records(q, mode="cache_only")


def test_offline_env_blocks_network(tmp_path):
    client = DataClient(cache_dir=str(tmp_path), transport=lambda u, p: _fake_rows())
    with pytest.raises(NetworkError):
        client.fetch_records(Query(level_min=3, level_max=3), mode="network")


def test_network_schema_error(tmp_path, monkeypatch):
    monkeypatch.delenv("HECKEDIST_OFFLINE", raising=False)
    client = DataClient(cache_dir=str(tmp_path), transport=lambda u, p: {"nope": []})
    with pytest.raises(SchemaError):
        client.fetch_records(Query(level_min=3, level_max=3), mode="network")


def test_non_finite_eigenvalue_is_a_schema_error_and_is_not_cached(tmp_path, monkeypatch):
    good = {"label": "x", "degree": 1, "field": "rational", "weight": 2, "level_norm": 11,
            "ap": {"2": -2}}
    for bad in (dict(good, ap={"2": math.nan}), dict(good, ap={"2": -math.inf}),
                dict(good, ap={"2": {"ap": math.inf, "norm": 2}}),
                # finite coordinates whose embedding overflows
                dict(good, hecke_field=5, ap={"2": {"coeffs": [1e308, 1e308], "norm": 2}})):
        with pytest.raises(SchemaError, match="not finite"):
            parse_record_json(bad)
    # the same value from the network fails before the cache write
    monkeypatch.delenv("HECKEDIST_OFFLINE", raising=False)
    row = {"label": "7.4.a.a", "weight": 4, "level": 7, "traces": {"2": math.nan}}
    client = DataClient(cache_dir=str(tmp_path), transport=lambda u, p: {"data": [row]})
    q = Query(level_min=7, level_max=7, weight_min=4, weight_max=4)
    with pytest.raises(SchemaError):
        client.fetch_records(q, mode="network")
    with pytest.raises(CacheMiss):
        client.fetch_records(q, mode="cache_only")


def test_canonical_json_refuses_non_finite_floats():
    assert datasource.canonical_json({"b": 1.5, "a": [0.0]}) == '{"a":[0.0],"b":1.5}'
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            datasource.canonical_json({"mass": bad})


def test_http_retries_then_gives_up(monkeypatch):
    import requests

    attempts = []

    def failing_get(url, params=None, timeout=None):
        attempts.append(url)
        raise requests.ConnectionError("refused")

    monkeypatch.setattr(requests, "get", failing_get)
    monkeypatch.setattr(time, "sleep", lambda s: None)
    client = DataClient()
    with pytest.raises(NetworkError):
        client._http_get("http://example.invalid/api", {})
    assert len(attempts) == 3


def _read_non_utf8_fixture(tmp_path):
    (tmp_path / "bad.jsonl").write_bytes(b'{"label": "\xff"}\n')
    DataClient(fixture_dir=str(tmp_path)).fetch_records(Query())


def _fetch_network_row(row):
    def fetch(tmp_path):
        client = DataClient(cache_dir=str(tmp_path), transport=lambda u, p: {"data": [row]})
        client.fetch_records(Query(level_min=7, level_max=7, weight_min=4, weight_max=4),
                             mode="network")
    return fetch


@pytest.mark.parametrize("call, error, match", [
    (lambda tmp_path: parse_record_json({"label": "x", "degree": 2, "field": 5, "weight": 2,
                                         "level_norm": 1, "ap": {"2": 1}}),
     SchemaError, "no norm for prime 2"),
    (_read_non_utf8_fixture, SchemaError, "not UTF-8"),
    (lambda tmp_path: DataClient(cache_dir=str(tmp_path)).fetch_records(Query(), mode="ftp"),
     InvalidParameter, "unknown mode"),
    (_fetch_network_row({"weight": 4, "level": 7, "traces": {"2": 1}}),
     SchemaError, "missing 'label'"),
    (_fetch_network_row({"label": "7.4.a.a", "weight": 4, "level": 7}),
     SchemaError, "missing 'traces'"),
    (lambda tmp_path: DataClient(fixture_dir=str(tmp_path / "absent")).fetch_records(Query()),
     InvalidParameter, "cannot list fixture directory"),
], ids=["prime-key-without-norm", "non-utf8-file", "unknown-mode", "row-without-label",
        "row-without-ap", "unreadable-fixture-directory"])
def test_bad_input_is_refused_with_its_error(tmp_path, monkeypatch, call, error, match):
    monkeypatch.delenv("HECKEDIST_OFFLINE", raising=False)
    with pytest.raises(error, match=match):
        call(tmp_path)
