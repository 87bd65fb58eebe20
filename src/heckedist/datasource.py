"""Ingestion of Hecke eigenvalue data: bundled fixtures, a local cache, and
an optional REST client for the LMFDB-style API.

Raw eigenvalues are normalized to lambda_p = a_p / N(p)^((k-1)/2), which the
Deligne bound keeps inside [-2, 2]; any value escaping the bound signals
corrupted data or a wrong normalization and is rejected.  The REST schema
and request policy are the module constants below, one edit away when the
upstream schema drifts; only the endpoint address is a DataClient argument.
The test suite runs entirely from recorded fixtures with networking disabled.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .chebyshev import RAMANUJAN_SLACK
from .errors import (
    CacheMiss,
    EnumerationTooLarge,
    InvalidParameter,
    MissingEigenvalue,
    NetworkError,
    RamanujanViolation,
    SchemaError,
)

CACHE_ENV_VAR = "HECKEDIST_CACHE_DIR"
OFFLINE_ENV_VAR = "HECKEDIST_OFFLINE"
FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")

# REST schema of the newforms endpoint
API_BASE_URL = "https://www.lmfdb.org/api"
NEWFORMS_PATH = "/mf_newforms/"
RESPONSE_LIST_KEY = "data"
NEXT_PAGE_KEY = "next"  # absolute URL of the next page, if any
FIELD_MAP = {"label": "label", "weight": "weight", "level_norm": "level", "ap": "traces"}
# request policy
RATE_LIMIT_S = 1.0
MAX_RETRIES = 3
TIMEOUT_S = 30.0
RETRY_BASE_DELAY_S = 1.0  # doubled after every failed attempt
MAX_PAGES = 50  # a query that needs more raises EnumerationTooLarge


@dataclass(frozen=True)
class EigenvalueRecord:
    """One automorphic object: label, weight data, prime -> eigenvalue map.

    `eigenvalues` maps a prime key ("2" over Q; "2.1" etc. for a quadratic
    base field) to (raw a_p, prime norm).  For forms with a quadratic Hecke
    eigenvalue field there is one record per real embedding.
    """

    label: str
    degree: int
    field_disc: Optional[int]  # None = rational base field
    weight: int
    level_norm: int
    eigenvalues: dict[str, tuple[float | int, int]]  # key -> (raw a_p, prime norm)
    embedding_index: int = 0
    hecke_field: Optional[int] = None
    synthetic: bool = False
    weight_factor: float = 1.0

def normalize(record: EigenvalueRecord, prime_key: str) -> float:
    """lambda_p = a_p / N(p)^((k-1)/2), Deligne-checked."""
    key = str(prime_key)
    if key not in record.eigenvalues:
        raise MissingEigenvalue(f"{record.label} has no eigenvalue at {key}")
    a_p, norm = record.eigenvalues[key]
    lam = a_p / norm ** ((record.weight - 1) / 2.0)
    if abs(lam) > 2.0 + RAMANUJAN_SLACK:
        raise RamanujanViolation(
            f"{record.label}: lambda = {lam} at {key} violates the bound"
        )
    return lam


# ---------------------------------------------------------------------------
# Parsing


def _require(obj: dict, key: str, label: str = "?"):
    if key not in obj:
        raise SchemaError(f"record {label}: missing field {key!r}")
    return obj[key]


def parse_record_json(obj: dict) -> list[EigenvalueRecord]:
    """Parse one JSON object into records (one per Hecke-field embedding).

    A value of the wrong type or shape is a SchemaError naming the record.
    """
    if not isinstance(obj, dict):
        raise SchemaError(f"record is a JSON {type(obj).__name__}, not an object")
    label = _require(obj, "label")
    try:
        return _parse_record(obj, label)
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise SchemaError(f"record {label}: {exc}") from None


def _parse_record(obj: dict, label) -> list[EigenvalueRecord]:
    degree = int(_require(obj, "degree", label))
    field_spec = _require(obj, "field", label)
    field_disc = None if field_spec == "rational" else int(field_spec)
    weight = int(_require(obj, "weight", label))
    level = int(_require(obj, "level_norm", label))
    ap = _require(obj, "ap", label)
    hecke = obj.get("hecke_field")
    synthetic = bool(obj.get("synthetic", False))

    def prime_norm(key: str, entry) -> int:
        if isinstance(entry, dict) and "norm" in entry:
            norm = int(entry["norm"])
        elif degree == 1:
            norm = int(key)
        else:
            raise SchemaError(f"record {label}: no norm for prime {key}")
        if norm < 2:  # normalize divides by a power of the norm
            raise SchemaError(f"record {label}: prime norm {norm} at {key} is below 2")
        return norm

    embeddings: list[tuple[float, float]] = [(1.0, 0.0)]
    if hecke is not None:
        D = int(hecke)
        r = math.sqrt(D)
        w1 = (1 + r) / 2 if D % 4 == 1 else r
        w2 = (1 - r) / 2 if D % 4 == 1 else -r
        embeddings = [(1.0, w1), (1.0, w2)]

    out = []
    for idx, (one, wemb) in enumerate(embeddings):
        eigs = {}
        for key, entry in ap.items():
            norm = prime_norm(key, entry)
            if isinstance(entry, dict):
                raw = entry.get("ap", entry.get("coeffs"))
            else:
                raw = entry
            if isinstance(raw, int):
                value = raw  # keep exact; integers can exceed float precision
            elif isinstance(raw, float):
                value = raw
            elif isinstance(raw, (list, tuple)) and len(raw) == 2:
                value = float(raw[0]) * one + float(raw[1]) * wemb
            else:
                raise SchemaError(f"record {label}: bad eigenvalue at {key}")
            if isinstance(value, float) and not math.isfinite(value):
                raise SchemaError(f"record {label}: eigenvalue {value} at {key} is not finite")
            eigs[str(key)] = (value, norm)
        out.append(
            EigenvalueRecord(
                label=label if len(embeddings) == 1 else f"{label}.e{idx}",
                degree=degree,
                field_disc=field_disc,
                weight=weight,
                level_norm=level,
                eigenvalues=eigs,
                embedding_index=idx,
                hecke_field=hecke,
                synthetic=synthetic,
                weight_factor=float(obj.get("weight_factor", 1.0)),
            )
        )
    return out


def canonical_json(obj) -> str:
    """Sorted keys, no whitespace: the bytes of cache files, cache keys and CLI output.

    Strict JSON: a NaN or infinite float raises ValueError.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _read_jsonl(path: str) -> list[dict]:
    """The JSON objects on the non-blank lines of a file; SchemaError naming the
    file and line for anything else."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise SchemaError(f"{path}: not UTF-8 text") from None
    except OSError as exc:
        raise InvalidParameter(f"cannot read {path}: {exc.strerror}") from None
    rows = []
    for n, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:
            raise SchemaError(f"{path}, line {n}: not JSON ({exc})") from None
        if not isinstance(obj, dict):
            raise SchemaError(f"{path}, line {n}: a JSON {type(obj).__name__}, not an object")
        rows.append(obj)
    return rows


# ---------------------------------------------------------------------------
# Queries and cache


@dataclass(frozen=True)
class Query:
    degree: int = 1
    level_min: int = 1
    level_max: int = 1
    weight_min: int = 2
    weight_max: int = 12

    def canonical(self) -> str:
        return canonical_json({
            "degree": self.degree,
            "level": [self.level_min, self.level_max],
            "weight": [self.weight_min, self.weight_max],
        })

    def key(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()

    def matches(self, obj: dict) -> bool:
        try:
            return (
                int(obj.get("degree", -1)) == self.degree
                and self.level_min <= int(obj.get("level_norm", -1)) <= self.level_max
                and self.weight_min <= int(obj.get("weight", -1)) <= self.weight_max
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"record {obj.get('label', '?')}: {exc}") from None


class DataClient:
    """Fetcher with content-addressed JSON-lines cache and rate limiting."""

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        base_url: str = API_BASE_URL,
        fixture_dir: Optional[str] = None,
        transport: Optional[Callable[[str, dict], dict]] = None,
    ):
        self.cache_dir = cache_dir or os.environ.get(CACHE_ENV_VAR) or os.path.join(
            os.path.expanduser("~"), ".cache", "heckedist"
        )
        self.base_url = base_url
        self.fixture_dir = fixture_dir or FIXTURE_DIR
        self.transport = transport or self._http_get
        self.request_count = 0
        self._last_request = 0.0

    # --- cache -------------------------------------------------------------

    def _cache_path(self, query: Query) -> str:
        return os.path.join(self.cache_dir, query.key() + ".jsonl")

    def cache_lookup(self, query: Query) -> Optional[list[dict]]:
        path = self._cache_path(query)
        if not os.path.exists(path):
            return None
        return _read_jsonl(path)

    def cache_store(self, query: Query, rows: list[dict]):
        os.makedirs(self.cache_dir, exist_ok=True)
        path = self._cache_path(query)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(canonical_json(row) + "\n")
        os.replace(tmp, path)

    # --- transports ----------------------------------------------------------

    def _http_get(self, url: str, params: dict) -> dict:
        import requests

        wait = RATE_LIMIT_S - (time.monotonic() - self._last_request)
        if wait > 0:
            time.sleep(wait)
        delay = RETRY_BASE_DELAY_S
        last_exc: Optional[Exception] = None
        for _ in range(MAX_RETRIES):
            try:
                self._last_request = time.monotonic()
                resp = requests.get(url, params=params, timeout=TIMEOUT_S)
                if resp.status_code >= 500:
                    raise NetworkError(f"server error {resp.status_code}")
                resp.raise_for_status()
                return resp.json()
            except Exception as exc:  # server errors, connection errors, bad JSON
                last_exc = exc
            time.sleep(delay)
            delay *= 2
        raise NetworkError(f"giving up on {url}: {last_exc}")

    def _network_rows(self, query: Query) -> list[dict]:
        if os.environ.get(OFFLINE_ENV_VAR):
            raise NetworkError("networking disabled by environment")
        params = {
            FIELD_MAP["level_norm"]: f"{query.level_min}..{query.level_max}",
            FIELD_MAP["weight"]: f"{query.weight_min}..{query.weight_max}",
            "_format": "json",
        }
        rows_raw: list[dict] = []
        url = self.base_url + NEWFORMS_PATH
        for page in range(MAX_PAGES):
            self.request_count += 1
            payload = self.transport(url, params)
            chunk = payload.get(RESPONSE_LIST_KEY)
            if chunk is None:
                raise SchemaError(f"response is missing {RESPONSE_LIST_KEY!r}")
            rows_raw.extend(chunk)
            nxt = payload.get(NEXT_PAGE_KEY)
            if not nxt or not isinstance(nxt, str):
                break
            url, params = nxt, {}
        else:  # each page had a next link: refuse, rather than cache part as the whole
            raise EnumerationTooLarge(f"{query.canonical()} spans more than {MAX_PAGES} pages")
        rows = []
        for raw in rows_raw:
            row = {
                "label": raw.get(FIELD_MAP["label"]),
                "degree": query.degree,
                "field": "rational" if query.degree == 1 else raw.get("field", "rational"),
                "weight": raw.get(FIELD_MAP["weight"]),
                "level_norm": raw.get(FIELD_MAP["level_norm"]),
                "ap": raw.get(FIELD_MAP["ap"]),
            }
            if row["label"] is None:
                raise SchemaError(f"row is missing {FIELD_MAP['label']!r}")
            if row["ap"] is None:
                raise SchemaError(f"row {row['label']} is missing {FIELD_MAP['ap']!r}")
            rows.append(row)
        return rows

    def _fixture_rows(self, query: Query) -> list[dict]:
        try:
            names = sorted(os.listdir(self.fixture_dir))
        except OSError as exc:
            raise InvalidParameter(f"cannot list fixture directory {self.fixture_dir!r}: "
                                   f"{exc.strerror}") from None
        rows = []
        for name in names:
            if not name.endswith(".jsonl"):
                continue
            path = os.path.join(self.fixture_dir, name)
            for obj in _read_jsonl(path):
                try:
                    if query.matches(obj):
                        rows.append(obj)
                except SchemaError as exc:
                    raise SchemaError(f"{path}: {exc}") from None
        return rows

    # --- main entry ----------------------------------------------------------

    def fetch_records(self, query: Query, mode: str = "fixture") -> list[EigenvalueRecord]:
        """Fetch, parse and cache; idempotent, sorted by label.  Network rows are
        cached only once they all parse, so the cache never holds a bad row."""
        if mode not in ("network", "cache_only", "fixture"):
            raise InvalidParameter(f"unknown mode {mode!r}")
        fetched = False
        if mode == "fixture":
            rows = self._fixture_rows(query)
        else:
            rows = self.cache_lookup(query)
            if rows is None:
                if mode == "cache_only":
                    raise CacheMiss(f"no cache entry for {query.canonical()}")
                rows, fetched = self._network_rows(query), True
        records: list[EigenvalueRecord] = []
        for obj in rows:
            records.extend(parse_record_json(obj))
        if fetched:
            self.cache_store(query, rows)
        records.sort(key=lambda r: r.label)
        return records


# ---------------------------------------------------------------------------
# Dataset assembly


def to_dataset(
    records: Iterable[EigenvalueRecord],
    prime_key: str,
    ord: int = 0,
    weights: str = "unit",
) -> Dataset:
    """Dataset of normalized eigenvalues at one prime, ordered by label."""
    from .equidist import DataPoint, Dataset
    from .measures import MeasureSpec

    pts = []
    for rec in sorted(records, key=lambda r: r.label):
        lam = normalize(rec, prime_key)
        w = 1.0 if weights == "unit" else rec.weight_factor
        pts.append(DataPoint(rec.label, lam, w))
    meta = (("prime", str(prime_key)), ("ord", ord), ("weights", weights))
    return Dataset.from_points(pts, MeasureSpec.phi(ord), meta)
