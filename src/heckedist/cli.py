"""Command-line interface: every subsystem behind one binary.

Output is canonical JSON (sorted keys, stable float repr) carrying the
package version, the seed in effect and a hash of the effective
configuration, so identical invocations produce identical bytes.  CSV and
plot-data output are projections of the same report.  Exit codes: 0 on
success, 1 on a domain error (stable machine-readable code), 2 on usage
errors.

Each command imports the library modules it calls when it runs, so `field`,
`ideal`, `hecke` (every action), `kloosterman classical|twisted|sweep` and
`fetch` (with or without `--prime`) start without numpy.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from . import __version__
from .errors import EnumerationTooLarge, HeckedistError, InvalidParameter, UnsupportedFormat
from . import datasource
from .datasource import canonical_json

if TYPE_CHECKING:
    from . import bounds as bounds_mod
    from . import measures
    from . import numberfield as nf

CONFIG_ENV_DEFAULTS = {
    "cache_dir": "",
    "offline": "0",
    "fixture_dir": "",
    "unit_window": "8",
}


# ---------------------------------------------------------------------------
# Small parsers


def parse_element(field: nf.Field, text: str) -> nf.FieldElement:
    """Element syntax: "x" or "x,y" with rational coordinates over (1, w)."""
    parts = text.split(",")
    try:
        x = Fraction(parts[0])
        y = Fraction(parts[1]) if len(parts) > 1 else Fraction(0)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParameter(f"bad element {text!r}: {exc}") from None
    return field.element(x, y)


def parse_number(text: str, kind=Fraction):
    """int, float or Fraction from text; bad text is a domain error."""
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidParameter(f"bad {kind.__name__} {text!r}") from None


def parse_interval(text: str) -> tuple[float, float]:
    try:
        lo, hi = text.split(",")
        return float(lo), float(hi)
    except ValueError:
        raise InvalidParameter(f"interval must be \"lo,hi\", got {text!r}") from None


def parse_field(dspec: str) -> nf.Field:
    from . import numberfield as nf

    if dspec in ("rational", "q", "Q", "1"):
        return nf.make_field("rational")
    try:
        D = int(dspec)
    except ValueError:
        raise InvalidParameter(f"field must be an integer radicand or \"rational\", "
                               f"got {dspec!r}") from None
    return nf.make_field(D)


def load_config(path: str | None) -> dict:
    cfg = dict(CONFIG_ENV_DEFAULTS)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidParameter(f"cannot read config file {path!r}: {exc}") from None
        for line in lines:
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            k, v = line.split("=", 1)
            cfg[k.strip()] = v.strip()
    if os.environ.get(datasource.CACHE_ENV_VAR):
        cfg["cache_dir"] = os.environ[datasource.CACHE_ENV_VAR]
    if os.environ.get(datasource.OFFLINE_ENV_VAR):
        cfg["offline"] = "1"
    return cfg


# ---------------------------------------------------------------------------
# Emission


def emit_report(report: dict, fmt: str) -> bytes:
    """Render a report deterministically in json, csv or plot-data form."""
    if fmt == "json":
        return (canonical_json(report) + "\n").encode()
    if fmt == "csv":
        rows = report.get("rows")
        if rows is None:
            raise UnsupportedFormat("csv output needs tabular rows")
        buf = io.StringIO()
        header = list(rows[0].keys()) if rows else []
        buf.write(",".join(header) + "\n")
        for row in rows:
            buf.write(",".join(repr(row[h]) if isinstance(row[h], float) else str(row[h])
                               for h in header) + "\n")
        return buf.getvalue().encode()
    if fmt == "plot-data":
        if "samples" in report:
            # raw projection: newline-delimited floats
            return ("\n".join(repr(float(x)) for x in report["samples"]) + "\n").encode()
        rows = report.get("plot_data")
        if rows is None:
            raise UnsupportedFormat("plot-data output needs (x, empirical, target) rows")
        buf = io.StringIO()
        buf.write("x,empirical_cdf,target_cdf\n")
        for x, e, t in rows:
            buf.write(f"{x!r},{e!r},{t!r}\n")
        return buf.getvalue().encode()
    raise UnsupportedFormat(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns a JSON-able report)


def cmd_field(args) -> dict:
    from . import numberfield as nf

    f = parse_field(args.D)
    out = {"degree": f.degree, "discriminant": f.disc}
    if f.degree == 2:
        cg = nf.class_group(f)
        cg_n = nf.class_group(f, narrow=True)
        out.update(
            {
                "radicand": f.D,
                "fundamental_unit": f.fundamental_unit.to_json(),
                "fundamental_unit_norm": f.unit_norm,
                "h": cg.order,
                "h_plus": cg.narrow_order,
                "cyclic_factors": list(cg.cyclic_factors),
                "narrow_cyclic_factors": list(cg_n.cyclic_factors),
                "different": nf.different_ideal(f).to_json(),
            }
        )
    else:
        out.update({"h": 1, "h_plus": 1})
    return out


def cmd_ideal(args) -> dict:
    from . import numberfield as nf

    f = parse_field(args.D)
    if args.op == "factor":
        fac = nf.factor_rational_prime(f, args.p)
        return {
            "p": args.p,
            "type": fac.tag,
            "primes": [P.to_json() for P in fac.primes],
            "residue_degrees": list(fac.residue_degrees),
        }
    lhs = nf.ideal_from_elements(f, [parse_element(f, g) for g in args.gens.split(";")])
    if args.op == "norm":
        return {"norm": str(lhs.norm()), "ideal": lhs.to_json()}
    if args.op == "inverse":
        return {"inverse": lhs.inverse().to_json()}
    if args.op == "membership":
        e = parse_element(f, args.elem)
        return {"member": lhs.contains(e)}
    rhs = nf.ideal_from_elements(f, [parse_element(f, g) for g in args.rhs.split(";")])
    if args.op == "product":
        return {"product": (lhs * rhs).to_json()}
    return {"sum": (lhs + rhs).to_json()}


def cmd_kloosterman(args) -> dict:
    from . import kloosterman
    from . import numberfield as nf

    if args.mode == "sweep":
        f = parse_field(args.D)
        rows = kloosterman.quadratic_weil_sweep(f, args.bound, args.m, args.n, eps=args.eps)
        return {
            "rows": [
                {
                    "c": r.c_label,
                    "c_norm": r.c_norm,
                    "ks_abs": r.ks_abs,
                    "weil_rhs": r.weil_rhs,
                    "ratio": r.ratio,
                }
                for r in rows
            ],
            "max_ratio": max((r.ratio for r in rows), default=0.0),
        }
    if args.mode == "classical":
        f = nf.make_field("rational")
        c, r, rp = (f.element(v) for v in (args.c, args.m, args.n))
    else:
        f = parse_field(args.D)
        c, r, rp = (parse_element(f, text) for text in (args.c_elem, args.r, args.rp))
    O = f.unit_ideal()
    chk = kloosterman.weil_check(r, O, rp, c, O, eps=args.eps)
    out = {
        "value_re": chk.value.real,
        "value_im": chk.value.imag,
        "weil_rhs": chk.rhs,
        "ratio": chk.ratio,
    }
    if args.mode == "twisted":
        out["modulus_norm"] = chk.modulus_norm
    return out


def _measure_spec(args) -> measures.MeasureSpec:
    from . import measures

    tag = args.tag
    if tag in ("sato-tate", "sato_tate", "st"):
        return measures.MeasureSpec.sato_tate()
    if tag in ("padic", "padic_sato_tate"):
        return measures.MeasureSpec.padic(args.p)
    if tag == "phi":
        return measures.MeasureSpec.phi(args.ord)
    if tag in ("plancherel", "pl"):
        return measures.MeasureSpec.plancherel(args.xi)
    if tag == "v1":
        return measures.MeasureSpec.v1(args.xi, literal_middle=args.literal_middle)
    if tag in ("tilde-pl", "tilde_pl"):
        return measures.MeasureSpec.tilde_pl(args.xi)
    if tag in ("tilde-v1", "tilde_v1"):
        return measures.MeasureSpec.tilde_v1(args.xi, A=args.A)
    raise UnsupportedFormat(f"unknown measure tag {tag!r}")


def cmd_measure(args) -> dict:
    from . import measures

    spec = _measure_spec(args)
    out = {"tag": spec.tag}
    if args.interval:
        lo, hi = parse_interval(args.interval)
        out["interval"] = [lo, hi]
        out["mass"] = measures.mass(spec, (lo, hi))
    if args.density_at is not None:
        out["density_at"] = measures.density(spec, args.density_at)
    if args.moment is not None and spec.tag == "phi":
        out["moment"] = {"ell": args.moment, "value": measures.phi_moment(spec.ord, args.moment)}
    return out


def cmd_sample(args) -> dict:
    from . import measures

    spec = _measure_spec(args)
    xs = measures.sample(spec, args.n, args.seed)
    return {"samples": xs.tolist(), "n": args.n}


def cmd_hecke(args) -> dict:
    from . import heckealg
    from . import numberfield as nf

    if args.action == "power":
        lam = parse_number(args.lam)
        val = heckealg.hecke_power_eigenvalue(lam, args.ell)
        return {"lambda": str(lam), "ell": args.ell, "value": float(val)}
    f = parse_field(args.D)
    fac = nf.factor_rational_prime(f, args.p)
    if not 0 <= args.prime_index < len(fac.primes):
        raise InvalidParameter(f"prime index must be in [0, {len(fac.primes)}) for the "
                               f"primes above {args.p}, got {args.prime_index}")
    P = fac.primes[args.prime_index]
    if args.action == "cosets":
        reps = heckealg.coset_reps(P, args.ell)
        return {
            "prime_norm": float(P.norm()),
            "ell": args.ell,
            "count": len(reps),
            "rows": [
                {
                    "s": r.s,
                    "upper_valuation": r.upper_valuation,
                    "lower_valuation": r.lower_valuation,
                    "beta_index": r.beta_index,
                }
                for r in reps
            ],
        }
    if args.action == "descent":
        dd = heckealg.descent_data(P, args.ell)
        return {
            "prime": P.to_json(),
            "ell": args.ell,
            "b_ideal": dd.b_ideal.to_json(),
            "eta": dd.eta.to_json(),
            "a_elems": [a.to_json() for a in dd.a_elems],
            "b_shifts": [b.to_json() for b in dd.b_shifts],
        }
    if args.action == "delta":
        r = parse_element(f, args.r)
        rp = parse_element(f, args.rp)
        return {"delta_tilde": heckealg.delta_tilde(r, rp)}
    ok = heckealg.verify_coefficient_relation(
        parse_number(args.lam), args.p, args.ell, parse_number(args.r, int)
    )
    return {"holds": bool(ok)}


def _bound_params(args) -> bounds_mod.BoundParams:
    from . import bounds as bounds_mod

    places = []
    for part in args.places.split(","):
        bits = part.split(":")
        cls = bits[0]
        q = parse_number(bits[1], float) if len(bits) > 1 else 1.0
        pn = parse_number(bits[2], float) if len(bits) > 2 else 1.0
        places.append(bounds_mod.PlaceParams(cls, q, pn))
    return bounds_mod.BoundParams(
        tau=args.tau, eps=args.eps, gamma=args.gamma, U=args.U, A1=args.A1,
        places=tuple(places),
    )


def cmd_bound(args) -> dict:
    from . import bounds as bounds_mod

    params = _bound_params(args)
    out = {
        "tau": params.tau,
        "eps": params.eps,
        "rho1": params.rho1,
        "rho": params.rho,
        "A": params.A,
        "t0": params.t0,
        "euler_exponent": params.euler_exponent,
        "converges": params.converges,
    }
    if args.what == "kloosterman":
        out["kloosterman_term_bound"] = bounds_mod.kloosterman_term_bound(params)
        out["eisenstein_envelope"] = bounds_mod.eisenstein_envelope(params)
    elif args.what == "euler":
        res = bounds_mod.euler_product_tail(params, parse_field(args.D), args.X)
        out["truncated_product"] = res.truncated
        out["tail_bound"] = res.tail_bound
        out["rational_truncated"] = res.rational_truncated
        out["cutoff"] = res.cutoff
    else:
        f = parse_field(args.D)
        r = parse_element(f, args.r)
        rp = parse_element(f, args.rp)
        c = parse_element(f, args.c_elem)
        out["envelope"] = bounds_mod.bessel_envelope(
            params, r.embeddings(), rp.embeddings(), c.embeddings(), args.gamma_scalar
        )
    return out


def _records(args) -> tuple[list, datasource.DataClient]:
    """The query flags' records and the client that fetched them; offline
    (`fetch --offline` or the `offline` config key) turns network into cache_only."""
    q = datasource.Query(
        degree=args.degree,
        level_min=args.level_min,
        level_max=args.level_max,
        weight_min=args.weight_min,
        weight_max=args.weight_max,
    )
    mode = args.mode
    if mode == "network" and (getattr(args, "offline", False) or args.cfg.get("offline") == "1"):
        mode = "cache_only"
    client = datasource.DataClient(
        cache_dir=args.cfg.get("cache_dir") or None,
        fixture_dir=getattr(args, "fixture_dir", "") or args.cfg.get("fixture_dir") or None,
    )
    return client.fetch_records(q, mode=mode), client


def cmd_fetch(args) -> dict:
    records, client = _records(args)
    rows = []
    for rec in records:
        row = {
            "label": rec.label,
            "weight": rec.weight,
            "level_norm": rec.level_norm,
            "num_primes": len(rec.eigenvalues),
        }
        if args.prime:
            row["lambda"] = datasource.normalize(rec, args.prime)
        rows.append(row)
    return {"rows": rows, "count": len(records), "requests": client.request_count}


def cmd_test_dist(args) -> dict:
    from . import equidist
    from . import numberfield as nf

    # before any dataset is built or fetched
    lo, hi = equidist._check_interval(parse_interval(args.interval))
    if args.synthetic:
        ds = equidist.synthesize_dataset(nf.make_field("rational"), args.prime, args.ord, None,
                                         args.n, args.seed)
    else:
        ds = datasource.to_dataset(_records(args)[0], args.prime, ord=args.ord)
    report = equidist.equidist_report(
        ds, (lo, hi), args.ord, ell_max=args.ell_max,
        ks_threshold=args.ks_threshold,
    )
    report["plot_data"] = equidist.plot_data(ds).tolist() if args.plot else []
    return report


# ---------------------------------------------------------------------------
# Parser


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="heckedist",
        description=(
            "Hecke eigenvalue statistics over Q and real quadratic fields: "
            "exact ideal arithmetic, twisted Kloosterman sums, semicircle-family "
            "measures, and equidistribution tests."
        ),
    )
    ap.add_argument("--config", help="key=value configuration file")
    ap.add_argument("--format", default="json", choices=["json", "csv", "plot-data"])
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, handler, help, parents=()):
        p = sub.add_parser(name, help=help, parents=list(parents))
        p.set_defaults(handler=handler)
        return p

    # flag groups shared by two commands each
    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("tag")
    spec.add_argument("--p", type=int, default=2)
    spec.add_argument("--ord", type=int, default=0)
    spec.add_argument("--xi", type=int, default=0)
    spec.add_argument("--A", type=float, default=2.5)
    spec.add_argument("--literal-middle", action="store_true", dest="literal_middle")

    query = argparse.ArgumentParser(add_help=False)
    query.add_argument("--mode", default="fixture", choices=["fixture", "cache_only", "network"])
    query.add_argument("--degree", type=int, default=1)
    query.add_argument("--level-min", dest="level_min", type=int, default=1)
    query.add_argument("--level-max", dest="level_max", type=int, default=1)
    query.add_argument("--weight-min", dest="weight_min", type=int, default=2)
    query.add_argument("--weight-max", dest="weight_max", type=int, default=26)

    p = command("field", cmd_field, "field invariants: discriminant, unit, class data")
    p.add_argument("--D", required=True, help='radicand or "rational"')

    p = command("ideal", cmd_ideal,
                "ideal arithmetic: product/inverse/norm/sum/membership/factor")
    p.add_argument("--D", required=True)
    p.add_argument("--op", required=True,
                   choices=["product", "inverse", "norm", "sum", "membership", "factor"])
    p.add_argument("--gens", default="1", help='generators "x,y;x,y"')
    p.add_argument("--rhs", default="1")
    p.add_argument("--elem", default="0")
    p.add_argument("--p", type=int, default=2, help="rational prime for --op factor")

    p = command("kloosterman", cmd_kloosterman,
                "exponential sums over unit residues and Weil ratios")
    p.add_argument("mode", choices=["classical", "twisted", "sweep"])
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--c", type=int, default=1)
    p.add_argument("--D", default="rational")
    p.add_argument("--r", default="1")
    p.add_argument("--rp", default="1")
    p.add_argument("--c-elem", dest="c_elem", default="1")
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--c-max", "--norm-max", dest="bound", type=int, default=100,
                   help="sweep moduli up to this norm (two spellings of one bound)")

    p = command("measure", cmd_measure, "density / interval mass of a measure", [spec])
    p.add_argument("--interval", default="")
    p.add_argument("--density-at", dest="density_at", type=float)
    p.add_argument("--moment", type=int)

    p = command("sample", cmd_sample, "seeded inverse-CDF samples from an x-measure", [spec])
    p.add_argument("-n", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)

    p = command("hecke", cmd_hecke, "eigenvalue transport, cosets, descent data")
    p.add_argument("action", choices=["power", "cosets", "descent", "delta", "relation"])
    p.add_argument("--lambda", dest="lam", default="0")
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--D", "--field", dest="D", default="rational")
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--prime-index", dest="prime_index", type=int, default=0)
    p.add_argument("--r", default="1")
    p.add_argument("--rp", default="1")

    p = command("bound", cmd_bound, "tail-estimate evaluation with all intermediate factors")
    p.add_argument("what", choices=["kloosterman", "euler", "envelope"])
    p.add_argument("--tau", type=float, default=0.3)
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--gamma", type=float, default=0.35)
    p.add_argument("--U", type=float, default=1.0)
    p.add_argument("--A1", type=float, default=3.0)
    p.add_argument("--places", default="Q+:10:1", help='class:q:phi_norm, comma separated')
    p.add_argument("--D", default="rational")
    p.add_argument("--X", type=int, default=10000)
    p.add_argument("--r", default="1")
    p.add_argument("--rp", default="1")
    p.add_argument("--c-elem", dest="c_elem", default="1")
    p.add_argument("--gamma-scalar", dest="gamma_scalar", type=float, default=1.0)

    p = command("fetch", cmd_fetch, "eigenvalue ingestion (fixture/cache/network)", [query])
    p.add_argument("--offline", action="store_true",
                   help="never touch the network (network mode degrades to cache)")
    p.add_argument("--fixture-dir", dest="fixture_dir", default="")
    p.add_argument("--prime", default="")

    p = command("test-dist", cmd_test_dist, "equidistribution report for a dataset", [query])
    p.add_argument("--synthetic", action="store_true")
    p.add_argument("--prime", default="2")
    p.add_argument("--ord", type=int, default=0)
    p.add_argument("-n", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--interval", default="-2,2")
    p.add_argument("--ell-max", dest="ell_max", type=int, default=10)
    p.add_argument("--ks-threshold", dest="ks_threshold", type=float, default=0.02)
    p.add_argument("--plot", action="store_true")

    return ap


_PAIR_FLAGS = {"--interval"}


def _merge_pair_flags(argv: list[str]) -> list[str]:
    """Join "--interval -2,2" into "--interval=-2,2" so argparse accepts it."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _PAIR_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-") \
                and "," in argv[i + 1]:
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def _error(exc: HeckedistError) -> tuple[int, bytes]:
    return (1, (canonical_json({"error": {"code": exc.code, "message": str(exc)}}) + "\n").encode())


def run_command(argv: list[str]) -> tuple[int, bytes]:
    """Execute argv; returns (exit code, output bytes)."""
    ap = build_parser()
    try:
        args = ap.parse_args(_merge_pair_flags(argv))
    except SystemExit as exc:
        return (int(exc.code) if exc.code else 0, b"")
    try:
        cfg = args.cfg = load_config(args.config)
        report = args.handler(args)
    except HeckedistError as exc:
        return _error(exc)
    except OverflowError as exc:
        # a parameter so large that a float result overflows
        return _error(InvalidParameter(f"parameter out of float range: {exc}"))
    except MemoryError as exc:
        # an input so large that its arrays or lists do not fit in memory
        return _error(EnumerationTooLarge(f"out of memory: {str(exc) or 'MemoryError'}"))
    report.setdefault("meta", {})
    report["meta"].update(
        {
            "version": __version__,
            "seed": getattr(args, "seed", 0),
            "config_hash": hashlib.sha256(canonical_json(cfg).encode()).hexdigest(),
        }
    )
    try:
        out = emit_report(report, args.format)
    except HeckedistError as exc:
        return _error(exc)
    except ValueError as exc:
        # a float result that overflowed to inf (or NaN): strict JSON has no spelling for it
        return _error(InvalidParameter(f"parameter out of float range: {exc}"))
    return (0, out)


def main(argv: list[str] | None = None) -> int:
    code, out = run_command(sys.argv[1:] if argv is None else argv)
    sys.stdout.buffer.write(out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
