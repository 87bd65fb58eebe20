"""One timed pass of each workload, and the checks on its results.

`run` makes every library call of a pass back to back through a Ledger,
which times each call on a calibrate.Clock, and returns the results.
`check` then compares the results with the oracles (the worker pauses
tracing meanwhile).  The library is always called through its module
attributes, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import tempfile
import time
from collections import Counter

import numpy as np

from heckedist import (bounds, cli, datasource, equidist, heckealg, kloosterman, measures,
                       numberfield, quadforms)
from heckedist.errors import NotNarrowSquare

import calibrate
import cli_contract
import inputs
import oracles

CLOSE = 1e-8  # float results against oracles; rounding differs at ~1e-14
# the leg whose verified rate is items_per_s.  On ks-rational it is the
# per-modulus sums (sweep and Legendre twists), not the numpy table: one
# 0.7-s vectorised call tracks the reference loop poorly, and its rate
# spread 0.18 across seeds.
MAIN_LEG = {"ks-quadratic": "ks_sums", "ks-rational": "ks_sums",
            "field-census": "fields", "stats-cli": "points"}


class Ledger:
    """Operations attempted, the ones that failed, and why.

    An operation is a named piece of the workload's seeded work (a sweep, a
    twisted sum, a field, a CLI command); its calls share the name.  It
    fails when a call raises something it should not, or when a check on
    its result fails.  A failed oracle comparison is also a mismatch: the
    pass produced a wrong answer, not just an error.  Counting operations,
    not calls, makes `attempted` and `failed` depend on the workload alone,
    not on how many passes a run fits in.
    """

    def __init__(self, clock: calibrate.Clock):
        self.clock = clock
        self.ops: set = set()
        self.failed: set = set()
        self.mismatches = 0
        self.reasons: list[str] = []
        self.last_s = 0.0  # raw seconds of the latest call

    def call(self, op: str, fn, *args, expect: tuple = (), **kwargs):
        """fn(*args, **kwargs), timed on the clock; None if it failed."""
        self.ops.add(op)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except expect as exc:
            return exc
        except Exception as exc:  # every other exception is a failed call
            self.fail(op, f"raised {type(exc).__name__}: {exc}")
            return None
        finally:
            self.last_s = time.perf_counter() - t0
            self.clock.add(self.last_s)

    def elapsed(self) -> float:
        """Raw seconds spent in calls so far."""
        return self.clock.raw

    def fail(self, op: str, why: str):
        self.ops.add(op)
        if op not in self.failed:
            self.failed.add(op)
            if len(self.reasons) < 20:
                self.reasons.append(f"{op}: {why}")

    def check(self, op: str, ok: bool, why: str):
        if not ok:
            self.mismatches += 1
            self.fail(op, why)


def _close(a, b, tol=CLOSE) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# ks-quadratic


def _twisted_sum(F, t: dict):
    """KS(r, a; r', a; c, O) with a = (alpha) and r' = alpha * k, as the sweep does it."""
    O = F.unit_ideal()
    alpha = F.element(*t["alpha"])
    a = numberfield.ideal_from_elements(F, [alpha])
    c, r, rp = F.element(*t["c"]), F.element(t["r"]), alpha * t["k"]
    group = kloosterman.residue_unit_group(a, c, O)
    chk = kloosterman.weil_check(r, a, rp, c, O, group=group)
    return chk.ks_abs, kloosterman.ks_twisted(r, a, rp, c, O, group=group)


def run_ks_quadratic(inp: dict, led: Ledger, tr) -> tuple[dict, dict]:
    t0 = led.elapsed()
    fields = {D: led.call(f"make_field:{D}", numberfield.make_field, D) for D, _ in inp["sweeps"]}
    rows = {D: led.call(f"sweep:{D}", kloosterman.quadratic_weil_sweep, fields[D], N,
                        inp["r"], inp["rp"])
            for D, N in inp["sweeps"]}
    twisted = [led.call(f"twisted:{i}", _twisted_sum, fields[t["D"]], t)
               for i, t in enumerate(inp["twisted"])]
    items = ([((f"sweep:{D}",), len(r or ())) for D, r in rows.items()]
             + [((f"twisted:{i}",), 1) for i in range(len(twisted))])
    return {"rows": rows, "twisted": twisted}, {"ks_sums": (items, led.elapsed() - t0)}


def check_ks_quadratic(inp: dict, res: dict, led: Ledger):
    r, rp = (inp["r"], 0), (inp["rp"], 0)
    for D, N in inp["sweeps"]:
        op, rows = f"sweep:{D}", res["rows"][D]
        if rows is None:
            continue
        disc = D if D % 4 == 1 else 4 * D
        # class number 1: one canonical modulus per ideal of norm n
        want = {n: oracles.ideal_count(disc, n) for n in range(1, N + 1)}
        got = Counter(int(round(row.c_norm)) for row in rows)
        led.check(op, got == Counter({n: k for n, k in want.items() if k}),
                  "moduli per norm differ from the ideal count")
        for row in rows:
            x, y = row.c_label[:-1].split("+")
            ref = oracles.quadratic_sum(D, r, rp, (int(x), int(y)))
            led.check(op, row.imag_abs < 1e-9, f"imag {row.imag_abs} at c={row.c_label}")
            led.check(op, _close(row.ks_abs, abs(ref)),
                      f"|KS| {row.ks_abs} != {abs(ref)} at c={row.c_label}")
    ring = {}
    for i, (t, got) in enumerate(zip(inp["twisted"], res["twisted"])):
        if got is None:
            continue
        ks_abs, ks = got
        R = ring.setdefault(t["D"], oracles.QuadraticRing(t["D"]))
        r_alpha = R.mul((t["r"], 0), tuple(t["alpha"]))
        ref = oracles.quadratic_sum(t["D"], r_alpha, (t["k"], 0), tuple(t["c"]))
        led.check(f"twisted:{i}",
                  _close(ks, ref) and abs(ks.imag) < 1e-9 and _close(ks_abs, abs(ks)),
                  f"KS {ks} != {ref}")


# ---------------------------------------------------------------------------
# ks-rational


def run_ks_rational(inp: dict, led: Ledger, tr) -> tuple[dict, dict]:
    t0 = led.elapsed()
    table = led.call("table", lambda: list(kloosterman.classical_weil_table(*inp["table"])))
    t1 = led.elapsed()
    sw = inp["sweep"]
    sweep = led.call("sweep", kloosterman.classical_weil_sweep, sw["c_max"], sw["m"], sw["n"])
    twisted = [led.call(f"legendre:{p}", lambda p=p, m=m, n=n: kloosterman.ks_classical(
                        m, n, p, kloosterman.TwistCharacter.legendre(p)))
               for p, m, n in inp["legendre"]]
    sums = ([(("sweep",), len(sweep or ()))]
            + [((f"legendre:{p}",), 1) for p, _, _ in inp["legendre"]])
    legs = {"ks_table_sums": ([(("table",), len(table or ()))], t1 - t0),
            "ks_sums": (sums, led.elapsed() - t1)}
    return {"table": table, "sweep": sweep, "twisted": twisted}, legs


def check_ks_rational(inp: dict, res: dict, led: Ledger):
    c_max, m_max, n_max = inp["table"]
    if res["table"] is not None:
        values = {(c, m, n): v for c, m, n, v in res["table"]}
        led.check("table", len(values) == c_max * m_max * n_max, "table is incomplete")
        for c, m, n in inp["table_sample"]:
            ref = oracles.classical_sum(m, n, c).real
            led.check("table", _close(values.get((c, m, n), math.nan), ref),
                      f"S({m},{n};{c}) != {ref}")
    sw = inp["sweep"]
    if res["sweep"] is not None:
        moduli = [row.c_label for row in res["sweep"]]
        led.check("sweep", moduli == [str(c) for c in range(1, sw["c_max"] + 1)],
                  "sweep moduli differ")
        for row in res["sweep"]:
            c = int(row.c_label)
            ref = oracles.classical_sum(sw["m"], sw["n"], c)
            rhs = math.sqrt(math.gcd(sw["m"], sw["n"], c)) * math.sqrt(c)
            led.check("sweep", _close(row.ks_abs, abs(ref)) and row.imag_abs < 1e-9
                      and _close(row.weil_rhs, rhs, 1e-12), f"row c={c} differs")
    for (p, m, n), got in zip(inp["legendre"], res["twisted"]):
        if got is not None:
            ref = oracles.legendre_twisted_sum(m, n, p)
            led.check(f"legendre:{p}", _close(got, ref), f"twisted S({m},{n};{p}) {got} != {ref}")


# ---------------------------------------------------------------------------
# field-census


def run_field_census(inp: dict, led: Ledger, tr) -> tuple[dict, dict]:
    t0 = led.elapsed()
    e = inp["euler"]
    params = bounds.BoundParams(tau=e["tau"], eps=e["eps"], gamma=e["gamma"])
    out = []
    for D in inp["Ds"]:
        op = f"field:{D}"
        F = led.call(op, numberfield.make_field, D)
        row = {
            "D": D, "F": F,
            "cg": led.call(op, numberfield.class_group, F),
            "cg_narrow": led.call(op, numberfield.class_group, F, narrow=True),
            "census": led.call(op, quadforms.class_numbers_by_form_census,
                               getattr(F, "disc", None)),
            "primes": [],
        }
        for p in inp["descent_primes"]:
            fac = led.call(op, numberfield.factor_rational_prime, F, p)
            descents = [[led.call(f"{op}:descent", heckealg.descent_data, P, ell,
                                  expect=(NotNarrowSquare,))
                         for ell in inp["ells"]] for P in (fac.primes if fac else ())]
            row["primes"].append((p, fac, descents))
        row["euler"] = led.call(op, bounds.euler_product_tail, params, F, e["X"])
        out.append(row)
    items = [((f"field:{D}", f"field:{D}:descent"), 1) for D in inp["Ds"]]
    return {"fields": out, "params": params}, {"fields": (items, led.elapsed() - t0)}


def check_field_census(inp: dict, res: dict, led: Ledger):
    e = inp["euler"]
    for row in res["fields"]:
        D, F, op = row["D"], row["F"], f"field:{row['D']}"
        if F is None:
            continue
        disc = D if D % 4 == 1 else 4 * D
        if row["cg"] and row["cg_narrow"] and row["census"]:
            h, hp = row["cg"].order, row["cg_narrow"].narrow_order
            led.check(op, (h, hp) == (row["census"][1], row["census"][0]),
                      f"(h, h+) = {(h, hp)} but the form census gives {row['census'][::-1]}")
            led.check(op, (h == hp) == (F.unit_norm == -1), "h == h+ disagrees with the unit norm")
        for p, fac, descents in row["primes"]:
            if fac is None:
                continue
            chi = oracles.kronecker_disc(disc, p)
            want = {1: ("split", 2), 0: ("ramified", 1), -1: ("inert", 1)}[chi]
            led.check(op, (fac.tag, len(fac.primes)) == want, f"splitting of {p} is {fac.tag}")
            for P, per_ell in zip(fac.primes, descents):
                for dd in per_ell:
                    if isinstance(dd, NotNarrowSquare):
                        led.check(f"{op}:descent", numberfield.narrow_square_witness(P) is None,
                                  "NotNarrowSquare raised although a witness exists")
                    elif dd is not None:
                        try:
                            ok = dd.verify()
                        except AssertionError as exc:
                            ok = False
                            led.fail(f"{op}:descent", f"verify: {exc}")
                        led.check(f"{op}:descent", ok, "descent data does not verify")
        if row["euler"] is not None:
            ref, ref_rat = oracles.euler_product(D, res["params"].euler_exponent, e["X"])
            eu = row["euler"]
            led.check(op, _close(eu.truncated, ref, 1e-9)
                      and _close(eu.rational_truncated, ref_rat, 1e-9)
                      and 0.0 < eu.tail_bound < math.inf, f"Euler product {eu.truncated} != {ref}")


# ---------------------------------------------------------------------------
# stats-cli


def fixture_rows(level_max: int) -> list[dict]:
    """Degree-1 fixture rows with level <= level_max, in the REST schema."""
    rows = []
    for name in sorted(os.listdir(datasource.FIXTURE_DIR)):
        if name.endswith(".jsonl"):
            with open(os.path.join(datasource.FIXTURE_DIR, name), encoding="utf-8") as fh:
                for line in fh:
                    obj = json.loads(line) if line.strip() else None
                    if obj and obj["degree"] == 1 and obj["level_norm"] <= level_max:
                        rows.append({"label": obj["label"], "weight": obj["weight"],
                                     "level": obj["level_norm"], "traces": obj["ap"]})
    return sorted(rows, key=lambda r: r["label"])


class PagedTransport:
    """In-process stand-in for the REST endpoint: serves rows in pages."""

    def __init__(self, rows: list[dict], page_size: int):
        self.pages = [rows[i:i + page_size] for i in range(0, len(rows), page_size)]

    def __call__(self, url: str, params: dict) -> dict:
        k = int(url.rsplit("/", 1)[1]) if url.startswith("bench://page/") else 0
        payload = {"data": self.pages[k]}
        if k + 1 < len(self.pages):
            payload["next"] = f"bench://page/{k + 1}"
        return payload


def _refuse(url: str, params: dict) -> dict:
    raise AssertionError("cache_only mode reached the transport")


def _fetch(tr, led: Ledger, mode: str, client, query) -> tuple:
    """(records, requests made) of one DataClient.fetch_records call."""
    def fetch():
        # the span covers the library call only; the ledger's clock work stays outside
        with tr.span(f"datasource.fetch_{'cache' if mode == 'cache_only' else mode}") as span:
            recs = client.fetch_records(query, mode)
            if span is not None:
                span.counts = {"records": len(recs), "requests": client.request_count}
        return recs

    return led.call(f"fetch:{mode}", fetch), client.request_count


def run_stats_cli(inp: dict, led: Ledger, tr, tmp_dir: str,
                  rows: list[dict]) -> tuple[dict, dict]:
    t0 = led.elapsed()
    n, pl, bx = inp["n"], inp["plain"], inp["boxed"]
    out = {}
    # leg 1: synthetic datasets, reports, plot data, CDFs and masses
    F = led.call("make_field", numberfield.make_field, bx["D"])
    box = measures.SpectralBox(tuple(measures.PlaceBox(lo, hi, "Q+", 0) for lo, hi in bx["box"]))
    ds = out["plain"] = led.call("synth:plain", equidist.synthesize_dataset, F, "2", pl["ord"],
                                 None, n, pl["seed"])
    out["plain_report"] = led.call("report:plain", equidist.equidist_report, ds,
                                   tuple(pl["interval"]), pl["ord"])
    out["plot"] = led.call("plot", equidist.plot_data, ds)
    ds = out["boxed"] = led.call("synth:boxed", equidist.synthesize_dataset, F, "2", bx["ord"],
                                 box, n, bx["seed"])
    out["boxed_report"] = led.call("report:boxed", equidist.equidist_report, ds,
                                   tuple(bx["interval"]), bx["ord"], field=F, box=box)
    rng = np.random.default_rng(inp["cdf_seed"])
    out["specs"] = []
    for tag, arg in inp["fresh_specs"]:
        spec = measures.MeasureSpec.padic(arg) if tag == "padic" else measures.MeasureSpec.phi(arg)
        grids = [np.sort(np.concatenate([[-2.0, 2.0], rng.uniform(-2, 2, inp["cdf_points"])]))
                 for _ in range(2)]
        cold = led.call(f"cdf:{tag}", measures.cdf, spec, grids[0])
        warm = led.call(f"cdf:{tag}", measures.cdf, spec, grids[1])
        masses = [led.call(f"mass:{tag}", measures.mass, spec, tuple(iv))
                  for iv in inp["mass_intervals"]]
        out["specs"].append((tag, spec, grids, cold, warm, masses))
    out["v1_atom"] = led.call("mass:v1_atom", measures.mass, measures.MeasureSpec.v1(0),
                              (-0.1, 0.1))
    out["box_mass"] = led.call("mass:box_mass", measures.mass,
                               measures.MeasureSpec.plancherel(0), box)
    items = [(("synth:plain", "report:plain", "plot"), n), (("synth:boxed", "report:boxed"), n)]
    legs = {"points": (items, led.elapsed() - t0)}
    # leg 2: ingestion from fixtures, from the (in-process) endpoint, from the cache
    src = inp["datasource"]
    query = datasource.Query(degree=1, level_min=1, level_max=src["level_max"],
                             weight_min=2, weight_max=26)
    transport = PagedTransport(rows, src["page_size"])
    fetched = {mode: _fetch(tr, led, mode, datasource.DataClient(cache_dir=tmp_dir, transport=t),
                            query)
               for mode, t in (("fixture", None), ("network", transport), ("cache_only", _refuse))}
    out["fetched"] = {mode: recs for mode, (recs, _) in fetched.items()}
    out["requests"] = {mode: requests for mode, (_, requests) in fetched.items()}
    out["pages"] = len(transport.pages)
    recs = out["fetched"]["fixture"]
    out["ingested"] = led.call("to_dataset", datasource.to_dataset, recs, "2") if recs else None
    out["cli"] = run_cli(inp, led)
    return out, legs


def run_cli(inp: dict, led: Ledger) -> list:
    """Each command once through cli.run_command: (code, stdout, seconds)."""
    runs = []
    for i, argv in enumerate(inp["cli"]):
        got = led.call(inputs.cli_op(i, argv), cli.run_command, list(argv))
        runs.append((*(got or (None, None)), led.last_s))
    return runs


def check_cli(inp: dict, runs: list, led: Ledger):
    for i, (argv, (code, out, _)) in enumerate(zip(inp["cli"], runs)):
        if code is not None:
            why = cli_contract.violation(argv, code, out)
            if why:
                led.fail(inputs.cli_op(i, argv), why)


def check_stats_cli(inp: dict, res: dict, led: Ledger):
    n, pl, bx = inp["n"], inp["plain"], inp["boxed"]
    for key, ordv in (("plain", pl["ord"]), ("boxed", bx["ord"])):
        ds, rep, spec = res[key], res[f"{key}_report"], inp[key]
        if ds is None or rep is None:
            continue
        lams = ds.lambdas()
        lo, hi = spec["interval"]
        upper = lams <= hi if hi >= 2.0 else lams < hi
        observed = float(np.count_nonzero((lams >= lo) & upper)) / n
        expected = [1.0 if (ell % 2 == 0 and ell <= 2 * ordv) else 0.0 for ell in range(11)]
        led.check(f"synth:{key}", len(ds) == n, "dataset size")
        led.check(f"report:{key}", rep["ks"] < 0.02 and _close(rep["observed"], observed, 1e-12)
                  and [m["expected"] for m in rep["moments"]] == expected
                  and rep["pass"] == (rep["ks"] < rep["ks_threshold"] and rep["max_abs_z"] <= 3.0),
                  f"report disagrees: ks={rep['ks']} observed={rep['observed']} vs {observed}")
    if res["plain"] is not None and res["plain_report"] is not None:
        rep = res["plain_report"]
        ks = oracles.ks_sato_tate(res["plain"].lambdas())
        st = oracles.sato_tate_cdf(np.array(pl["interval"]))
        led.check("report:plain",
                  abs(rep["ks"] - ks) < 1e-6 and _close(rep["predicted"], st[1] - st[0], 1e-7),
                  f"KS {rep['ks']} vs closed form {ks}")
    if res["boxed"] is not None:
        cas = np.array([p.casimir for p in res["boxed"].points])
        ok = all(np.all((cas[:, j] >= lo) & (cas[:, j] <= hi))
                 for j, (lo, hi) in enumerate(bx["box"]))
        led.check("synth:boxed", ok, "Casimir values outside the spectral box")
    if res["plot"] is not None:
        arr = np.array(res["plot"])
        led.check("plot", len(arr) == n and np.all(np.diff(arr[:, 0]) >= 0)
                  and np.all(np.diff(arr[:, 1]) >= 0)
                  and float(np.max(np.abs(arr[:, 2] - oracles.sato_tate_cdf(arr[:, 0])))) < 1e-6,
                  "plot rows disagree with the closed-form CDF")
    for tag, spec, grids, cold, warm, masses in res["specs"]:
        op = f"cdf:{tag}"
        for grid, vals in ((grids[0], cold), (grids[1], warm)):
            if vals is not None:
                led.check(op, abs(vals[0]) < 1e-12 and abs(vals[-1] - 1.0) < 1e-12
                          and np.all(np.diff(vals) >= -1e-12),
                          "CDF is not a monotone map onto [0, 1]")
        for (a, b), m in zip(inp["mass_intervals"], masses):
            if m is not None:
                by_cdf = measures.cdf(spec, b) - measures.cdf(spec, a)
                led.check(f"mass:{tag}", _close(by_cdf, m, 1e-6),
                          f"mass [{a}, {b}) = {m} disagrees with the CDF")
    for key in ("v1_atom", "box_mass"):
        if res[key] is not None:
            led.check(f"mass:{key}", 0.0 < res[key] < math.inf, f"{key} = {res[key]}")
    fetched = res["fetched"]
    if all(v is not None for v in fetched.values()):
        views = {mode: [(r.label, sorted((k, datasource.normalize(r, k)) for k in r.eigenvalues))
                        for r in recs]
                 for mode, recs in fetched.items()}
        lams = [lam for _, pairs in views["fixture"] for _, lam in pairs]
        delta = dict(dict(views["fixture"]).get("1.12.a.a", []))
        led.check("fetch:network", views["network"] == views["fixture"]
                  and res["requests"] == {"fixture": 0, "network": res["pages"], "cache_only": 0},
                  f"network records differ from fixtures, or requests {res['requests']}")
        led.check("fetch:cache_only", views["cache_only"] == views["fixture"],
                  "cached records differ")
        led.check("fetch:fixture", len(lams) > 0 and max(abs(x) for x in lams) <= 2.0 + 1e-6
                  and _close(delta.get("2", math.nan), -24 / 2**5.5, 1e-12),
                  "normalized eigenvalues out of range or wrong")
    if res["ingested"] is not None:
        led.check("to_dataset", len(res["ingested"]) == len(fetched["fixture"]), "dataset size")
    check_cli(inp, res["cli"], led)


# ---------------------------------------------------------------------------


def run(workload: str, inp: dict, led: Ledger, tr, tmp_dir: str, rows: list[dict]):
    """The timed part of a pass: (results, raw seconds, legs).

    The pass's wall time is the ledger clock's total before the CLI leg of
    the non-CLI workloads.  A leg
    is (items, seconds), where items lists (ops, count): `count` results
    that are verified when none of `ops` failed (see `verified`).
    """
    if workload == "ks-quadratic":
        res, legs = run_ks_quadratic(inp, led, tr)
    elif workload == "ks-rational":
        res, legs = run_ks_rational(inp, led, tr)
    elif workload == "field-census":
        res, legs = run_field_census(inp, led, tr)
    else:
        res, legs = run_stats_cli(inp, led, tr, tmp_dir, rows)
    wall = led.clock.raw
    if workload != "stats-cli":
        res["cli"] = run_cli(inp, led)  # the workload's CLI commands, outside wall_s
    return res, wall, legs


def check(workload: str, inp: dict, res: dict, led: Ledger):
    {"ks-quadratic": check_ks_quadratic, "ks-rational": check_ks_rational,
     "field-census": check_field_census, "stats-cli": check_stats_cli}[workload](inp, res, led)
    if workload != "stats-cli":
        check_cli(inp, res["cli"], led)


def verified(legs: dict, led: Ledger) -> dict:
    """leg -> (results that passed every check, raw seconds); call after `check`."""
    return {leg: (sum(k for ops, k in items if led.failed.isdisjoint(ops)), seconds)
            for leg, (items, seconds) in legs.items()}


def extra(workload: str, res: dict) -> dict:
    """Figures for the run record that are neither metrics nor checks."""
    if workload != "stats-cli":
        return {}
    # the acceptance-09 bound |z| <= 3 holds for most seeds, not all: with
    # ten moments a correct sampler misses it for about 3% of seeds
    return {"max_abs_z": [res[k]["max_abs_z"] for k in ("plain_report", "boxed_report")
                          if res[k] is not None]}


def temp_dir(root: str) -> str:
    os.makedirs(root, exist_ok=True)
    return tempfile.mkdtemp(prefix="pass-", dir=root)


def remove(path: str):
    shutil.rmtree(path, ignore_errors=True)
