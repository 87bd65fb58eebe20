"""Seeded inputs for each workload, as plain data.

The seed picks every input; the library sees only what is generated here.
Sizes are fixed per workload so that the work in a pass varies little from
seed to seed.  Nothing here imports heckedist, so the parent process can
build the same CLI command lists the worker runs in process.
"""

from __future__ import annotations

import random

WORKLOADS = ("ks-quadratic", "ks-rational", "field-census", "stats-cli")

# ks-quadratic: one sweep per integral-basis case (D = 1 and D = 2 mod 4)
QUAD_SWEEPS = ((5, 60), (2, 60))
QUAD_TWISTED_PER_FIELD = 6
# ks-rational
TABLE_C_MAX, TABLE_M_MAX, TABLE_N_MAX = 1200, 5, 5
TABLE_ORACLE_SAMPLE = 40
CLASSICAL_SWEEP_C_MAX = 80
LEGENDRE_COUNT, LEGENDRE_RANGE = 8, (150, 350)
# field-census: a seeded set of FIELD_COUNT fields out of the first FIELD_POOL
# squarefree D > 1 (a small pool keeps the per-pass work steady across seeds)
FIELD_POOL, FIELD_COUNT = 14, 13
DESCENT_PRIME_BOUND, DESCENT_ELLS = 7, (1, 2)
EULER_X = 50_000
# stats-cli
SYNTH_N = 100_000
README_SUBPROCESS = 2  # README commands run once per run as untimed subprocesses
CDF_GRID = 2001


def _primes(lo: int, hi: int) -> list[int]:
    return [p for p in range(max(lo, 2), hi) if all(p % d for d in range(2, int(p**0.5) + 1))]


def _squarefree(n: int) -> bool:
    return n > 1 and all(n % (d * d) for d in range(2, int(n**0.5) + 1))


def _norm(D: int, x: int, y: int) -> int:
    t, n = (1, (1 - D) // 4) if D % 4 == 1 else (0, -D)
    return x * x + t * x * y + n * y * y


def _element(rng: random.Random, D: int, lo: int, hi: int, bound: int = 6):
    """Random x + y w with lo <= |N| <= hi."""
    while True:
        x, y = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if lo <= abs(_norm(D, x, y)) <= hi:
            return (x, y)


def ks_quadratic(seed: int) -> dict:
    rng = random.Random(f"ks-quadratic/{seed}")
    r_val, rp_val = rng.randint(1, 4), rng.randint(1, 4)
    twisted = []
    for D, _ in QUAD_SWEEPS:
        for _ in range(QUAD_TWISTED_PER_FIELD):
            # a = (alpha) is a non-trivial ideal; r' = alpha * k lies in a d^-1
            twisted.append({
                "D": D,
                "alpha": _element(rng, D, 2, 11, 3),
                "c": _element(rng, D, 2, 40),
                "r": rng.randint(1, 4),
                "k": rng.randint(1, 4),
            })
    cli = [["kloosterman", "sweep", "--D", "5", "--norm-max", "20", "--m", str(r_val),
            "--n", str(rp_val)]]
    for D in (2, 5):
        x, y = _element(rng, D, 30, 40)
        cli.append(["kloosterman", "twisted", "--D", str(D), f"--c-elem={x},{y}",
                    "--r", str(rng.randint(1, 4)), "--rp", str(rng.randint(1, 4))])
    return {"sweeps": [list(s) for s in QUAD_SWEEPS], "r": r_val, "rp": rp_val,
            "twisted": twisted, "cli": cli}


def ks_rational(seed: int) -> dict:
    rng = random.Random(f"ks-rational/{seed}")
    sample = [(rng.randint(1, TABLE_C_MAX), rng.randint(1, TABLE_M_MAX),
               rng.randint(1, TABLE_N_MAX)) for _ in range(TABLE_ORACLE_SAMPLE)]
    legendre = [(p, rng.randint(1, 9), rng.randint(1, 9))
                for p in sorted(rng.sample(_primes(*LEGENDRE_RANGE), LEGENDRE_COUNT))]
    cli = [["kloosterman", "classical", "--m", str(rng.randint(1, 9)),
            "--n", str(rng.randint(1, 9)), "--c", str(rng.randint(300, 400))] for _ in range(2)]
    cli.append(["--format", "csv", "kloosterman", "sweep", "--D", "rational", "--c-max", "40",
                "--m", str(rng.randint(1, 5))])
    return {"table": [TABLE_C_MAX, TABLE_M_MAX, TABLE_N_MAX], "table_sample": sample,
            "sweep": {"c_max": CLASSICAL_SWEEP_C_MAX, "m": rng.randint(1, 6),
                      "n": rng.randint(1, 6)},
            "legendre": legendre, "cli": cli}


def field_census(seed: int) -> dict:
    rng = random.Random(f"field-census/{seed}")
    pool = [D for D in range(2, 200) if _squarefree(D)][:FIELD_POOL]
    Ds = sorted(rng.sample(pool, FIELD_COUNT))
    tau = round(rng.uniform(0.28, 0.45), 4)
    gamma = round((tau + 0.5) / 2, 4)
    # fields outside the pool, so the in-process runs start cold as well
    cli = [
        ["field", "--D", "26"],
        ["ideal", "--D", "29", "--op", "factor", "--p", str(rng.choice([3, 5, 7, 11, 13]))],
        ["bound", "euler", "--tau", str(tau), "--eps", "0.01", "--gamma", str(gamma), "--D", "23",
         "--X", "10000"],
    ]
    return {"Ds": Ds, "descent_primes": _primes(2, DESCENT_PRIME_BOUND + 1),
            "ells": list(DESCENT_ELLS),
            "euler": {"tau": tau, "eps": 0.01, "gamma": gamma, "X": EULER_X},
            "cli": cli}


def stats_cli(seed: int) -> dict:
    rng = random.Random(f"stats-cli/{seed}")
    lo = round(rng.uniform(-1.5, 0.0), 3)
    box = [[round(rng.uniform(0.3, 1.0), 3), round(rng.uniform(2.0, 6.0), 3)] for _ in range(2)]
    s = [rng.randint(0, 10**6) for _ in range(4)]
    cli_seed = rng.randint(0, 999)
    # timed as subprocesses every pass; all commands also run in process
    timed = [
        ["measure", "phi", "--ord", str(rng.randint(0, 4)), "--interval", "-2,2"],
        ["sample", "sato-tate", "-n", "100", "--seed", str(cli_seed)],
        ["test-dist", "--synthetic", "--seed", str(cli_seed), "-n", "20000", "--interval", "-1,1"],
    ]
    readme = [
        ["field", "--D", str(rng.choice([10, 15, 21, 26]))],
        ["ideal", "--D", "10", "--op", "factor", "--p", str(rng.choice([3, 7, 11, 13]))],
        ["kloosterman", "classical", "--m", "1", "--n", "1", "--c", str(rng.randint(2, 60))],
        ["kloosterman", "sweep", "--D", "5", "--norm-max", "20"],
        ["--format", "csv", "kloosterman", "sweep", "--D", "rational", "--c-max", "30"],
        ["measure", "v1", "--xi", "0", "--interval", "-0.1,0.1"],
        ["--format", "plot-data", "sample", "sato-tate", "-n", "100", "--seed", str(cli_seed)],
        ["hecke", "power", "--lambda", "3/2", "--ell", str(rng.randint(1, 6))],
        ["hecke", "descent", "--field", "5", "--p", "2", "--ell", "2"],
        ["hecke", "relation", "--lambda", "3/2", "--p", "7", "--ell", "2", "--r", "294"],
        ["bound", "kloosterman", "--tau", "0.3", "--eps", "0.01", "--gamma", "0.35",
         "--places", "Q+:10:1"],
        ["bound", "euler", "--tau", "0.3", "--eps", "0.01", "--gamma", "0.35", "--D", "5",
         "--X", "10000"],
        ["fetch", "--mode", "fixture", "--level-min", "1", "--level-max", "1",
         "--weight-min", "12", "--weight-max", "12", "--prime", "2"],
        ["--format", "plot-data", "test-dist", "--synthetic", "--seed", str(cli_seed),
         "-n", "5000", "--interval", "-1,1", "--plot"],
    ]
    rng.shuffle(readme)
    # inputs outside the parameter domains: the contract asks for exit 1
    # with a JSON error code, never a traceback
    domain = [
        ["measure", "phi", "--ord", "-1"],
        ["sample", "sato-tate", "-n", "0"],
        ["bound", "euler", "--tau", "0.6", "--eps", "0.01", "--gamma", "0.35", "--D", "5"],
        ["test-dist", "--synthetic", "--interval", "1"],
    ]
    cli = timed + readme + domain
    return {
        "n": SYNTH_N,
        "plain": {"ord": 0, "seed": s[0], "interval": [lo, round(lo + rng.uniform(0.5, 2.0), 3)]},
        "boxed": {"ord": rng.randint(1, 3), "seed": s[1], "box": box, "D": rng.choice([2, 5, 13]),
                  "interval": [-1.0, 1.0]},
        "fresh_specs": [["padic", rng.choice([3, 5, 7, 11])], ["phi", rng.randint(4, 7)]],
        "cdf_seed": s[2],
        "cdf_points": CDF_GRID,
        "mass_intervals": [sorted(round(rng.uniform(-2, 2), 3) for _ in range(2))
                           for _ in range(3)],
        "datasource": {"page_size": rng.randint(1, 3), "level_max": 11},
        "cli": cli,
        "cli_timed": len(timed),
        # untimed subprocess runs: a seeded few README commands, every domain input
        "cli_once": (list(range(len(timed), len(timed) + README_SUBPROCESS))
                     + list(range(len(cli) - len(domain), len(cli)))),
    }


GENERATORS = {"ks-quadratic": ks_quadratic, "ks-rational": ks_rational,
            "field-census": field_census, "stats-cli": stats_cli}


def make(workload: str, seed: int) -> dict:
    return GENERATORS[workload](seed)


def cli_op(i: int, argv: list[str], where: str = "cli") -> str:
    """The operation name of the i-th CLI command (argv alone may repeat)."""
    return f"{where}[{i}] " + " ".join(argv)


def subprocess_commands(inputs: dict, pass_index: int) -> list[tuple[int, bool]]:
    """(index into inputs["cli"], timed) of the commands a pass also runs as subprocesses.

    The first `cli_timed` commands run every pass and are the ones timed
    for cli_p50_s.  The `cli_once` commands (stats-cli) run in the first
    pass only, checked against the contract but not timed, so a command of
    unusual cost does not move the median and every run checks the same
    commands however many passes it fits in.
    """
    k = inputs.get("cli_timed", len(inputs["cli"]))
    out = [(i, True) for i in range(k)]
    if pass_index == 0:
        out += [(i, False) for i in inputs.get("cli_once", ())]
    return out
