"""Spans around the public functions of every heckedist module.

`Tracer.install()` wraps each public (non-underscore) function defined in a
heckedist module, in every heckedist namespace that binds it, so a call made
through `from .numberfield import f` is caught too.  Methods are not wrapped:
operator time on field elements and ideals lands in the calling function's
self time.  The benchmark adds spans of its own around call sites with
`Tracer.span`.  Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager, nullcontext

LAYERS = ("numberfield", "quadforms", "kloosterman", "heckealg", "bounds",
          "measures", "equidist", "datasource", "cli")

# metric -> span name; the value is the summed duration of the outermost spans
TIMED = {
    "numberfield.make_field_s": "numberfield.make_field",
    "numberfield.class_group_s": "numberfield.class_group",
    "numberfield.factor_rational_prime_s": "numberfield.factor_rational_prime",
    "numberfield.elements_of_norm_s": "numberfield.elements_of_norm",
    "quadforms.census_s": "quadforms.class_numbers_by_form_census",
    "kloosterman.residue_unit_group_s": "kloosterman.residue_unit_group",
    "kloosterman.ks_twisted_s": "kloosterman.ks_twisted",
    "kloosterman.weil_check_s": "kloosterman.weil_check",
    "kloosterman.classical_weil_table_s": "kloosterman.classical_weil_table",
    "heckealg.descent_data_s": "heckealg.descent_data",
    "bounds.euler_product_tail_s": "bounds.euler_product_tail",
    "measures.sample_s": "measures.sample",
    "measures.sample_spectral_s": "measures.sample_spectral",
    "measures.mass_s": "measures.mass",
    "equidist.synthesize_dataset_s": "equidist.synthesize_dataset",
    "equidist.equidist_report_s": "equidist.equidist_report",
    "equidist.plot_data_s": "equidist.plot_data",
    "datasource.fetch_fixture_s": "datasource.fetch_fixture",
    "datasource.fetch_network_s": "datasource.fetch_network",
    "datasource.fetch_cache_s": "datasource.fetch_cache",
    "cli.run_command_s": "cli.run_command",
}
# metric -> span name; the value is the number of spans
COUNTED = {
    "numberfield.class_group_calls": "numberfield.class_group",
    "numberfield.ideal_from_elements_calls": "numberfield.ideal_from_elements",
}
SWEEPS = {"kloosterman.classical_weil_sweep", "kloosterman.quadratic_weil_sweep"}

# span name -> counters read from the call's result
PROBES = {
    "kloosterman.residue_unit_group": lambda r: {"scanned": r.quotient.index, "kept": len(r.units)},
    "kloosterman.classical_weil_sweep": lambda r: {"rows": len(r)},
    "kloosterman.quadratic_weil_sweep": lambda r: {"rows": len(r)},
    "numberfield.rational_primes_upto": lambda r: {"primes": len(r)},
}
# calls that build the per-spec CDF table on first use of a spec
TABLE_USERS = {"measures.cdf", "measures.sample"}


class Span:
    __slots__ = ("id", "parent", "name", "nested", "start", "end", "error", "counts")

    def __init__(self, id_, parent, name, nested):
        self.id, self.parent, self.name = id_, parent, name
        self.nested = nested  # inside another span of the same name
        self.start = self.end = 0.0
        self.error = None
        self.counts = None

    def to_json(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "nested": self.nested, "start": self.start, "end": self.end, "error": self.error,
                "counts": self.counts}


class Tracer:
    """Records spans; `domain_errors` are documented outcomes, not failures."""

    def __init__(self, domain_errors: tuple = ()):
        self.domain_errors = domain_errors
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.paused = False
        self.active: dict[str, int] = {}
        self.specs_seen: set = set()

    # --- recording -----------------------------------------------------------

    def _open(self, name: str) -> Span:
        depth = self.active.get(name, 0)
        span = Span(len(self.spans), self.stack[-1] if self.stack else None, name, depth > 0)
        self.active[name] = depth + 1
        self.spans.append(span)
        self.stack.append(span.id)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span, exc: BaseException | None):
        span.end = time.perf_counter()
        self.stack.pop()
        self.active[span.name] -= 1
        if exc is not None:
            kind = "domain" if isinstance(exc, self.domain_errors) else "error"
            span.error = f"{kind}:{type(exc).__name__}"

    @contextmanager
    def span(self, name: str):
        """A span around a call site in the benchmark's own code."""
        if self.paused:
            yield None
            return
        span = self._open(name)
        try:
            yield span
        except BaseException as exc:
            self._close(span, exc)
            raise
        self._close(span, None)

    @contextmanager
    def pause(self):
        """Record nothing inside, e.g. while results are checked."""
        was, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = was

    def wrap(self, name: str, fn):
        probe = PROBES.get(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                # the span covers the whole iteration, consumer included
                with self.span(name):
                    yield from fn(*args, **kwargs)
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            counts = None
            if name in TABLE_USERS and args:
                counts = {"cold": int(args[0] not in self.specs_seen)}
                self.specs_seen.add(args[0])
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(span, exc)
                raise
            self._close(span, None)
            span.counts = probe(result) if probe is not None else counts
            return result
        return traced

    def install(self) -> int:
        """Wrap every public function of the loaded heckedist modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "heckedist" or n.startswith("heckedist."))]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                plain = getattr(obj, "__wrapped__", obj)  # e.g. an lru_cache wrapper
                if (attr.startswith("_") or not inspect.isfunction(plain)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        return len(wrappers)

    # --- summaries ------------------------------------------------------------

    def _has_ancestor(self, span: Span, names: set) -> bool:
        p = span.parent
        while p is not None:
            if self.spans[p].name in names:
                return True
            p = self.spans[p].parent
        return False

    def layer_metrics(self) -> dict:
        """Every per-layer metric of one pass (zero where a layer is idle)."""
        spans = self.spans
        child = [0.0] * len(spans)
        by_name: dict[str, list[Span]] = {}
        by_layer: dict[str, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
            by_name.setdefault(s.name, []).append(s)
            by_layer.setdefault(s.name.split(".", 1)[0], []).append(s)
        out = {}
        for layer in LAYERS:
            mine = by_layer.get(layer, [])
            out[f"{layer}.calls"] = len(mine)
            out[f"{layer}.failed"] = sum(1 for s in mine if (s.error or "").startswith("error:"))
            out[f"{layer}.self_s"] = sum(s.end - s.start - child[s.id] for s in mine)
        for metric, name in TIMED.items():
            out[metric] = sum(s.end - s.start for s in by_name.get(name, []) if not s.nested)
        for metric, name in COUNTED.items():
            out[metric] = len(by_name.get(name, []))

        def total(name, key, pick=lambda s: True):
            return sum((s.counts or {}).get(key, 0) for s in by_name.get(name, []) if pick(s))

        cdf = by_name.get("measures.cdf", [])
        out["measures.cdf_cold_s"] = sum(s.end - s.start for s in cdf if s.counts["cold"])
        out["measures.cdf_warm_s"] = sum(s.end - s.start for s in cdf if not s.counts["cold"])
        scanned = total("kloosterman.residue_unit_group", "scanned")
        kept = total("kloosterman.residue_unit_group", "kept")
        out["kloosterman.residues_scanned"] = scanned
        out["kloosterman.units_kept"] = kept
        out["kloosterman.unit_yield"] = kept / scanned if scanned else 0.0
        rows = sum(total(name, "rows") for name in SWEEPS)
        in_sweeps = sum(1 for s in by_name.get("kloosterman.ks_twisted", [])
                        if self._has_ancestor(s, SWEEPS))
        out["kloosterman.ks_calls_per_row"] = in_sweeps / rows if rows else 0.0
        descents = by_name.get("heckealg.descent_data", [])
        out["heckealg.descent_built"] = sum(1 for s in descents if s.error is None)
        out["heckealg.descent_blocked"] = sum(
            1 for s in descents if s.error == "domain:NotNarrowSquare")
        visited = total("numberfield.rational_primes_upto", "primes",
                        lambda s: self._has_ancestor(s, {"bounds.euler_product_tail"}))
        euler_s = out["bounds.euler_product_tail_s"]
        out["bounds.euler_primes_visited"] = visited
        out["bounds.euler_primes_per_s"] = visited / euler_s if euler_s else 0.0
        fetches = [f"datasource.fetch_{mode}" for mode in ("fixture", "network", "cache")]
        out["datasource.records_parsed"] = sum(total(name, "records") for name in fetches)
        out["datasource.request_count"] = sum(total(name, "requests") for name in fetches)
        out["trace.spans"] = len(spans)
        return out

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.to_json(), separators=(",", ":")) + "\n")


class NoTracer:
    """Stands in for a Tracer in untraced passes."""

    def span(self, name: str):
        return nullcontext(None)

    def pause(self):
        return nullcontext()
