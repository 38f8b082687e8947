"""Deterministic input generator for the dpcore benchmark.

Everything the benchmark hands to dpcore (CSV files, schema sidecars, plan
texts and configs) comes from here, and only from the seed.  dpcore's own
randomness stays keyed from OS entropy: it has no seed constructor.
"""

from __future__ import annotations

import json
import os
import random

#: The benchmark tables' declared schema: (name, kind, domain).
SCHEMA = (
    ("age", "int", (0, 99)),
    ("region", "cat", ("north", "south", "east", "west")),
    ("tier", "int", (0, 3)),
    ("income", "real", (0.0, 200.0)),
    ("score", "int", (0, 100)),
)

#: Share of cells written outside their declared domain, so that dpcore's
#: schema correction runs on every load.
OUT_OF_DOMAIN = 0.005

#: Rows of the dataset each workload queries, and of the one no command names.
ANALYST_ROWS = 20_000
CLI_ROWS = 10_000
CLI_IDLE_ROWS = 50_000
#: Charges written to the cli_oneshot ledger before timing starts.
LEDGER_PREFILL = 20_000

#: Padding schedule: xi seconds per row of the padding bucket plus overhead.
XI = 1e-6
OVERHEAD = 0.05
BUDGET = 1000.0
#: pure-eps scope large enough for the pre-filled ledger and every query.
CLI_BUDGET = 1.0e6
STARTUP_FRACTION = 0.001

#: `dpcore audit` arguments (fixed, not seed dependent).  40 repetitions
#: keep a correct mechanism's mean p-value above dpcore's 0.3 threshold in
#: all but about 2e-5 of commands.
AUDIT_REPS = 40
AUDIT_EPS, AUDIT_N_SEARCH, AUDIT_N_TEST = 1.0, 2000, 4000
AUDIT_ARGS = ("--eps-grid", str(AUDIT_EPS), "--n-search", str(AUDIT_N_SEARCH),
              "--n-test", str(AUDIT_N_TEST), "--reps", str(AUDIT_REPS))
#: Sampler goodness-of-fit battery: draws per batch, batches per round.
GOF_DRAWS = 1 << 18
GOF_BATCHES = 4
GOF_WRONG_FACTOR = 1.05


def schema_text() -> str:
    lines = []
    for name, kind, dom in SCHEMA:
        lines.append(f"{name} {kind} " + " ".join(str(v) for v in dom))
    return "\n".join(lines) + "\n"


def _cell(rng: random.Random, kind: str, dom):
    bad = rng.random() < OUT_OF_DOMAIN
    if kind == "cat":
        return "unknown" if bad else rng.choice(dom)
    lo, hi = dom
    if kind == "int":
        if bad:
            return rng.choice((lo - rng.randint(1, 5), hi + rng.randint(1, 50)))
        return rng.randint(lo, hi)
    if bad:
        return rng.choice((lo - rng.uniform(0.1, 10.0), hi + rng.uniform(0.1, 100.0)))
    return round(rng.uniform(lo, hi), 3)


def make_rows(rng: random.Random, n: int) -> list[tuple]:
    return [tuple(_cell(rng, kind, dom) for _, kind, dom in SCHEMA) for _ in range(n)]


def write_dataset(directory: str, name: str, rows) -> tuple[str, str]:
    """Write `rows` as <name>.csv plus its <name>.schema sidecar."""
    csv_path = os.path.join(directory, f"{name}.csv")
    schema_path = os.path.join(directory, f"{name}.schema")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(name for name, _, _ in SCHEMA) + "\n")
        for r in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in r) + "\n")
    with open(schema_path, "w", encoding="utf-8") as fh:
        fh.write(schema_text())
    return csv_path, schema_path


def plan_mix(rng: random.Random) -> list[dict]:
    """The eight plans of one round, in order, with their mechanism.

    Each of `laplace` and `noisy_histogram` gets one plan with a hundred or
    more cells, so that a run releases enough noise values per mechanism to
    check the noise scale.

    A plan is a dict the oracle evaluates on its own: `where` conjuncts,
    an optional `clamp`, `distinct`, `sample` or `group` step, and `agg`.
    Constants are drawn from the seed; shapes are fixed.
    """
    age_a = rng.randint(20, 60)
    region = rng.choice(SCHEMA[1][2])
    score = rng.randint(20, 80)
    clamp_hi = float(rng.choice((50, 100, 150)))
    age_b = rng.randint(30, 70)
    plans = [
        dict(name="count", mechanism="laplace_int", agg="count"),
        dict(name="where_count", mechanism="laplace", agg="count",
             where=[("age", ">=", age_a), ("region", "==", region)]),
        dict(name="where_groupby_count", mechanism="noisy_histogram", agg="count",
             where=[("score", ">", score)], group=["age"]),
        dict(name="clamp_sum", mechanism="laplace", agg="sum:income",
             clamp=("income", 0.0, clamp_hi)),
        dict(name="distinct_count", mechanism="laplace_int", agg="count",
             distinct=["region", "tier"]),
        dict(name="sample_count", mechanism="laplace", agg="count", sample=0.5),
        dict(name="groupby2_count", mechanism="laplace", agg="count",
             group=["region", "age"]),
        dict(name="where_sum", mechanism="laplace", agg="sum:income",
             where=[("age", "<", age_b)]),
    ]
    for p in plans:
        p.setdefault("eps", 1.0)
        p["text"] = plan_text(p)
    return plans


def plan_text(p: dict) -> str:
    lines = []
    if p.get("where"):
        lines.append("select_where " + " and ".join(
            f"{c} {op} {v}" for c, op, v in p["where"]))
    if p.get("clamp"):
        col, lo, hi = p["clamp"]
        lines.append(f"map_column {col} clamp {lo} {hi}")
    if p.get("distinct"):
        lines.append("distinct " + " ".join(p["distinct"]))
    if p.get("sample") is not None:
        lines.append(f"bernoulli_sample {p['sample']}")
    if p.get("group"):
        lines.append("group_by " + " ".join(p["group"]))
    agg = p["agg"]
    lines.append("count" if agg == "count" else "sum " + agg.split(":", 1)[1])
    return "\n".join(lines) + "\n"


def write_config(path: str, state_dir: str, ledger: str, budget: float) -> None:
    cfg = {
        "budgets": [{"id": "main", "kind": "pure-eps", "budget": budget}],
        "xi": XI,
        "overhead": OVERHEAD,
        "startup_fraction": STARTUP_FRACTION,
        "sharing": "per-group",
        "ledger": ledger,
        "state_dir": state_dir,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=1)


def prefill_amounts(rng: random.Random, n: int) -> list[float]:
    """Charge amounts written to the cli_oneshot ledger before timing."""
    return [round(rng.uniform(1e-4, 1e-2), 6) for _ in range(n)]


def make_inputs(workload: str, seed: int, directory: str) -> dict:
    """Write one workload's inputs under `directory` and describe them."""
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(directory, exist_ok=True)
    out = {"dir": directory, "plans": plan_mix(rng)}
    for p in out["plans"]:
        p["path"] = os.path.join(directory, f"plan_{p['name']}.txt")
        with open(p["path"], "w", encoding="utf-8") as fh:
            fh.write(p["text"])
    n_rows = CLI_ROWS if workload == "cli_oneshot" else ANALYST_ROWS
    out["rows"] = make_rows(rng, n_rows)
    out["csv"], out["schema"] = write_dataset(directory, "main", out["rows"])
    out["gof_scale"] = round(rng.uniform(0.5, 5.0), 3)
    if workload == "cli_oneshot":
        idle = make_rows(rng, CLI_IDLE_ROWS)
        out["idle_csv"], out["idle_schema"] = write_dataset(directory, "idle", idle)
        out["prefill"] = prefill_amounts(rng, LEDGER_PREFILL)
    return out
