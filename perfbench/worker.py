"""One pass of one workload, in a fresh process, so every cache starts cold.

run.py starts it as
    python3 perfbench/worker.py --workload W --seed N --trace 0|1 --t0 T
        --tmp-dir DIR [--spans-out FILE]
where T is the parent's time.monotonic() just before the start.  The worker
imports heckedist, numpy and scipy, builds the inputs, runs the timed pass
on a calibrate.Clock, checks the results and prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--tmp-dir", required=True)
    ap.add_argument("--spans-out", default="")
    args = ap.parse_args()

    # set-up: imports and seeded inputs
    import numpy
    import scipy

    from heckedist.errors import HeckedistError

    import calibrate
    import inputs
    import spans
    import workloads

    inp = inputs.make(args.workload, args.seed)
    rows = workloads.fixture_rows(inp["datasource"]["level_max"]) if "datasource" in inp else []
    if args.trace:
        tracer = spans.Tracer(domain_errors=(HeckedistError,))
        tracer.install()
    else:
        tracer = spans.NoTracer()
    tmp_dir = workloads.temp_dir(args.tmp_dir)
    setup_s = time.monotonic() - args.t0
    clock = calibrate.Clock()
    led = workloads.Ledger(clock)
    try:
        res, wall, legs = workloads.run(args.workload, inp, led, tracer, tmp_dir,
                                                    rows)
        clock.settle()
        # before the checks, whose own arrays would count otherwise
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        with tracer.pause():
            workloads.check(args.workload, inp, res, led)
    finally:
        workloads.remove(tmp_dir)

    legs = workloads.verified(legs, led)
    main = workloads.MAIN_LEG[args.workload]
    out = {
        "setup_s": setup_s,
        "wall_s": wall,
        "scale": calibrate.scale(clock.refs),
        "refs": clock.refs,
        "legs": legs,
        "items_per_s": legs[main][0] / legs[main][1],
        "ops": sorted(led.ops),
        "failed": sorted(led.failed),
        "mismatches": led.mismatches,
        "reasons": led.reasons,
        "peak_rss_mb": peak_rss_mb,
        "cli": [{"argv": argv, "code": code, "out": None if out is None else out.decode("latin-1"),
                 "seconds": sec}
                for argv, (code, out, sec) in zip(inp["cli"], res["cli"])],
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "extra": workloads.extra(args.workload, res),
    }
    if args.trace:
        out["layers"] = tracer.layer_metrics()
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(out, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
