"""heckedist benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root (the package is imported from ./src).  The
run is a closed loop with one client: it starts one worker process per
pass (perfbench/worker.py), so imports and every cache start cold, then
runs the pass's CLI commands as fresh `python -m heckedist.cli`
subprocesses, and repeats while another pass fits in S seconds.  The last
line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, medians over passes.
wall_s, items_per_s and the traced times are in reference seconds
(calibrate.py): each pass's times are scaled by how long a fixed reference
loop took, on average over the readings its worker took all through the
pass, which removes most of the drift of a shared machine's speed.
setup_s and cli_p50_s are in start-up reference seconds: each worker and
each timed CLI command starts right after a bare interpreter start that
imports numpy and scipy.interpolate, and its start-up or latency is
scaled by 0.7 s / (that start's seconds).  cli.startup_s is in raw
seconds.  Raw figures stay in the run record.
  wall_s       timed library work of one pass (set-up and checks excluded)
  setup_s      worker start to first timed call: interpreter, imports of
               heckedist/numpy/scipy, seeded inputs (start-up reference
               seconds)
  peak_rss_mb  peak RSS of the worker process
  items_per_s  results of the workload's main leg that passed every check,
               per second of that leg: Q(sqrtD) sums (ks-quadratic), sweep
               and Legendre-twisted sums (ks-rational), fields
               (field-census), dataset points (stats-cli)
  cli_p50_s    median latency of the workload's timed CLI commands as
               subprocesses (start-up reference seconds)
With --trace 1 every other pass is traced and the metrics are the
per-layer ones (see spans.py), medians over the traced passes, plus the
tracing overhead.  `attempted`/`failed` count the run's operations (a
sweep, a twisted sum, a field, a dataset, a CLI command in process or as a
subprocess), each once however many passes repeat it, so they depend on
the workload and not on the machine's speed; an operation fails when a
call raises, breaks the CLI contract or fails an oracle in any pass.
`failed / attempted` is the failure fraction.  A run record with
the machine, versions and per-pass samples goes to the line before the
result and to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cli_contract
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                               "VECLIB_MAXIMUM_THREADS")}
PASS_TIMEOUT = 150
CLI_TIMEOUT = 60
# A start-up of the interpreter that imports what the worker's set-up and
# the CLI's start-up are mostly made of.  Each worker and each timed CLI
# command runs right after one of these, and its set-up time or latency is
# scaled by STARTUP_REF_S / (that start-up's seconds).
STARTUP_REF = ["-c", "import numpy, scipy.interpolate"]
STARTUP_REF_S = 0.7
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "items_per_s": "1/s",
         "cli_p50_s": "s"}


def child_env(out_dir: Path) -> dict:
    env = dict(os.environ)
    # the network leg uses an in-process transport; no command reaches a network
    env.pop("HECKEDIST_OFFLINE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["HECKEDIST_CACHE_DIR"] = str(out_dir / "cli-cache")
    env.update(THREAD_ENV)
    return env


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git (None if absent)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "heckedist").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def run_worker(args, env: dict, out_dir: Path, traced: bool, spans_out: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)),
           "--tmp-dir", str(out_dir / "tmp"), "--spans-out", spans_out]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT, capture_output=True,
                          timeout=PASS_TIMEOUT)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr.decode()[-3000:]}")
    return json.loads(lines[-1])


def run_python(args: list[str], env: dict) -> tuple[int, bytes, float]:
    """A fresh interpreter with these arguments: (exit code, stdout, seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT, capture_output=True,
                          timeout=CLI_TIMEOUT)
    return proc.returncode, proc.stdout, time.perf_counter() - t0


def run_cli(argv: list[str], env: dict) -> tuple[int, bytes, float]:
    return run_python(["-m", "heckedist.cli", *argv], env)


class Tally:
    """The run's operations, each counted once however many passes repeat it.

    An operation fails when any of its calls or checks fails in any pass.
    """

    def __init__(self):
        self.ops: set = set()
        self.failed: set = set()
        self.mismatches = 0
        self.reasons: list[str] = []

    def add(self, op: str, ok: bool, why: str = "", mismatch: bool = False):
        self.ops.add(op)
        if not ok:
            self.mismatches += int(mismatch)
            self.failed.add(op)
            self.reason(f"{op}: {why}")

    def reason(self, text: str):
        if len(self.reasons) < 20 and text not in self.reasons:
            self.reasons.append(text)

    def merge(self, p: dict):
        """A worker pass's operations."""
        self.ops.update(p["ops"])
        self.failed.update(p["failed"])
        self.mismatches += p["mismatches"]
        for text in p["reasons"]:
            self.reason(text)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "heckedist" / "__init__.py").is_file():
        print(f"error: no heckedist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_out"
    (out_dir / "spans").mkdir(parents=True, exist_ok=True)
    env = child_env(out_dir)
    inp = inputs.make(args.workload, args.seed)
    tally = Tally()
    passes, traced_passes, latencies, startup = [], [], [], []
    first_out: dict = {}
    spans_out = str(out_dir / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
    start = time.monotonic()
    k, once_s, raw_latencies = 0, 0.0, []
    while True:
        traced = bool(args.trace) and k % 2 == 1
        ref = run_python(STARTUP_REF, env)[2]
        p = run_worker(args, env, out_dir, traced, spans_out if traced else "")
        p["setup_ref_s"] = ref
        (traced_passes if traced else passes).append(p)
        tally.merge(p)
        for i, c in enumerate(p["cli"]):  # seeded reruns must repeat byte for byte
            if c["out"] is not None and first_out.setdefault(i, c["out"]) != c["out"]:
                tally.add(inputs.cli_op(i, c["argv"]), False, "output changed between passes",
                          True)
        for i, timed in inputs.subprocess_commands(inp, k):
            argv, mine = inp["cli"][i], p["cli"][i]
            if timed:
                ref = run_python(STARTUP_REF, env)[2]
            code, out, sec = run_cli(argv, env)
            if timed:
                latencies.append(sec * STARTUP_REF_S / ref)
                raw_latencies.append(sec)
            else:
                once_s += sec
            op = inputs.cli_op(i, argv, "cli-subprocess")
            why = cli_contract.violation(argv, code, out)
            tally.add(op, why is None, str(why))
            if mine["code"] is not None and why is None:
                same = (code, out.decode("latin-1")) == (mine["code"], mine["out"])
                tally.add(op, same, "differs from run_command", True)
                if timed and not traced:
                    startup.append(sec - mine["seconds"])
        k += 1
        elapsed = time.monotonic() - start
        # the first pass's untimed subprocess runs do not recur
        if elapsed + (elapsed - once_s) / k > args.seconds and (passes and (traced_passes or not args.trace)):
            break

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes), "traced_passes": len(traced_passes),
        "cli_runs": len(latencies), "nproc": os.cpu_count(), "versions": passes[0]["versions"],
        "thread_env": THREAD_ENV, "git_sha": git_sha(), "src_sha256": source_digest(),
        "failed_frac": len(tally.failed) / max(len(tally.ops), 1), "failures": tally.reasons,
        "samples": {
            "wall_s": [p["wall_s"] * p["scale"] for p in passes],
            "setup_s": [p["setup_s"] * STARTUP_REF_S / p["setup_ref_s"] for p in passes],
            "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
            "cli_s": latencies,
        },
        "raw_samples": {
            "wall_s": [p["wall_s"] for p in passes],
            "reference_s": [p["refs"] for p in passes],
            "cli_s": raw_latencies,
            "setup_s": [p["setup_s"] for p in passes],
            "startup_ref_s": [p["setup_ref_s"] for p in passes],
        },
        "legs_per_s": {
            f"{leg}_per_s": median([p["legs"][leg][0] / p["legs"][leg][1] / p["scale"]
                                    for p in passes])
            for leg in passes[0]["legs"]
        },
        "extra": passes[0]["extra"],
    }
    if args.trace:
        layers = {name: median([rescale(name, p["layers"][name], p["scale"])
                                for p in traced_passes])
                  for name in traced_passes[0]["layers"]}
        layers["cli.startup_s"] = median(startup)
        layers["trace.overhead_s"] = (
            median([p["wall_s"] * p["scale"] for p in traced_passes])
            - median(record["samples"]["wall_s"]))
        metrics = {name: {"value": v, "unit": layer_unit(name)}
                   for name, v in sorted(layers.items())}
        record["spans_file"] = os.path.relpath(spans_out, ROOT)
    else:
        values = {
            "wall_s": median(record["samples"]["wall_s"]),
            "setup_s": median(record["samples"]["setup_s"]),
            "peak_rss_mb": median(record["samples"]["peak_rss_mb"]),
            "items_per_s": median([p["items_per_s"] / p["scale"] for p in passes]),
            "cli_p50_s": median(latencies),
        }
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
    record["metrics"] = metrics
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    print("run record: " + json.dumps(record, separators=(",", ":")))
    print(json.dumps({"correct": tally.mismatches == 0, "attempted": len(tally.ops),
                      "failed": len(tally.failed), "metrics": metrics}))
    return 0


def rescale(name: str, value: float, f: float) -> float:
    """A per-layer figure in reference seconds (counts are left alone)."""
    unit = layer_unit(name)
    return value * f if unit == "s" else value / f if unit == "1/s" else value


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("unit_yield") or name.endswith("calls_per_row"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
