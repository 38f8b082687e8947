"""The benchmark's own tests: its checkers must reject broken outputs.

    python -m pytest perfbench -q

They need neither dpcore nor a running service: every release, ledger and
timing below is synthesized from the generator's rows.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

import gen
import oracle
import run as bench

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return gen.make_inputs("analyst_serve", 7, str(tmp_path_factory.mktemp("in")))


def _releases(inputs, noise_factor=1.0, seed=0, only=None):
    """(plan, values, labels) per plan, noised like dpcore's mechanisms;
    noise_factor applies to every mechanism, or to `only` that one."""
    rng = np.random.default_rng(seed)
    exacts = bench.exact_answers(inputs)
    out = []
    for plan in inputs["plans"]:
        ex = exacts[plan["name"]]
        scale = ex["sensitivity"] / plan["eps"]
        if ex["values"] is None:  # bernoulli_sample: draw the sample too
            base = [float(rng.binomial(ex["rows_before_sample"], plan["sample"]))]
        else:
            base = ex["values"]
        factor = noise_factor if only in (None, plan["mechanism"]) else 1.0
        values = [x + factor * rng.laplace(0.0, scale) for x in base]
        if plan["mechanism"] == "laplace_int":
            values = [float(np.rint(v)) for v in values]
        out.append((plan, values, list(ex["labels"])))
    return exacts, out


def _check(inputs, releases, exacts):
    problems, zs = [], {}
    for plan, values, labels in releases:
        oracle.check_release(plan, exacts[plan["name"]], values, labels, problems, zs)
    oracle.check_scale(zs, problems)
    return problems


def test_correct_releases_pass(inputs):
    for seed in range(5):
        exacts, rel = _releases(inputs, seed=seed)
        assert _check(inputs, rel, exacts) == []


@pytest.mark.parametrize("only", ["laplace", "noisy_histogram"])
@pytest.mark.parametrize("factor", [0.0, 2.0])
def test_removed_or_doubled_noise_is_rejected(inputs, factor, only):
    exacts, rel = _releases(inputs, noise_factor=factor, only=only)
    problems = _check(inputs, rel, exacts)
    assert any(p.startswith(f"{only}: noise scale") for p in problems), problems


def test_value_outside_tail_bound_is_rejected(inputs):
    exacts, rel = _releases(inputs)
    plan, values, labels = rel[0]
    rel[0] = (plan, [values[0] + 100.0], labels)
    assert any("from exact" in p for p in _check(inputs, rel, exacts))


def test_wrong_histogram_labels_are_rejected(inputs):
    exacts, rel = _releases(inputs)
    i = next(i for i, r in enumerate(rel) if r[0].get("group"))
    plan, values, labels = rel[i]
    rel[i] = (plan, values[:-1], labels[:-1])
    assert any("labels" in p for p in _check(inputs, rel, exacts))


def test_non_integer_laplace_int_is_rejected(inputs):
    exacts, rel = _releases(inputs)
    i = next(i for i, r in enumerate(rel) if r[0]["mechanism"] == "laplace_int")
    plan, values, labels = rel[i]
    rel[i] = (plan, [values[0] + 0.25], labels)
    assert any("non-integer" in p for p in _check(inputs, rel, exacts))


def _served(inputs, tmp_path, extra_charge=False, early=False):
    """A synthetic analyst_serve run: two clients, one round each, with the
    ledger a correct service would have written."""
    exacts, rel = _releases(inputs)
    n_hats = [20003.5, 19998.0]
    ledger = tmp_path / "ledger.txt"
    amounts = [0.9, 0.9] + [plan["eps"] for plan, _, _ in rel] * 2
    if extra_charge:
        amounts.append(1.0)
    spent, lines, remaining = 0.0, [], []
    for seq, a in enumerate(amounts, 1):
        spent += a
        remaining.append(gen.BUDGET - spent)
        lines.append(f"seq={seq} scope=main kind=pure-eps amount={a!r} "
                     f"mechanism=laplace time=1.0")
    ledger.write_text("\n".join(lines) + "\n")
    first, _ = oracle.schedule(n_hats[0], gen.XI, gen.OVERHEAD)
    records = []
    for k, (plan, values, labels) in enumerate(rel * 2):
        latency = first * (0.5 if early and k == 3 else 1.01)
        resp = {"status": "ok", "values": values, "labels": labels,
                "remaining_budget": remaining[2 + k]}
        records.append((k // len(rel), plan, latency, resp))
    run = bench.Run(str(tmp_path))
    budget = {"spent": sum(amounts[:2 + len(records)]),
              "remaining": gen.BUDGET - sum(amounts[:2 + len(records)])}
    bench.check_queries(run, records, exacts, n_hats, str(ledger), budget)
    return run.problems


def test_served_run_passes(inputs, tmp_path):
    assert _served(inputs, tmp_path) == []


def test_extra_ledger_charge_is_rejected(inputs, tmp_path):
    problems = _served(inputs, tmp_path, extra_charge=True)
    assert any("ledger has" in p for p in problems)
    assert any("spent" in p for p in problems)


def test_response_before_schedule_is_rejected(inputs, tmp_path):
    assert any("before its schedule" in p for p in _served(inputs, tmp_path, early=True))


def test_ledger_check_reads_incrementally(tmp_path):
    path = tmp_path / "ledger.txt"
    path.write_text("seq=1 scope=main kind=pure-eps amount=0.1 mechanism=laplace time=1\n")
    lc = oracle.LedgerCheck(str(path), "main", 10.0)
    assert lc.advance() == 1
    with open(path, "a") as fh:
        fh.write("seq=2 scope=main kind=pure-eps amount=0.2 mechanism=laplace time=1\n"
                 "seq=3 scope=main kind=pure-eps amount=0.3 mech")  # torn tail
    assert lc.advance() == 1
    problems = []
    lc.check(0.1 + 0.2, 10.0 - (0.1 + 0.2), problems, "budget")
    assert problems == []
    lc.check(0.1 + 0.2 + 0.3, 10.0 - 0.6, problems, "budget")
    assert len(problems) == 2


def _gof_batch(scale, drawn_scale, seed=0):
    x = np.random.default_rng(seed).laplace(0.0, drawn_scale, gen.GOF_DRAWS)
    ok = oracle.anderson_darling(x, scale)
    bad = oracle.anderson_darling(x, scale * gen.GOF_WRONG_FACTOR)
    return {"mine_ok": ok, "mine_bad": bad, "ad_ok": ok, "ad_bad": bad,
            "pass_bad": bad <= oracle.AD_CRITICAL_99}


def test_gof_checks(tmp_path):
    run = bench.Run(str(tmp_path))
    bench.check_gof(run, _gof_batch(2.0, 2.0))
    assert run.problems == []
    bench.check_gof(run, _gof_batch(2.0, 2.0 * gen.GOF_WRONG_FACTOR))
    assert any("right scale" in p for p in run.problems)


def test_generator_is_deterministic(tmp_path):
    a = gen.make_inputs("cli_oneshot", 3, str(tmp_path / "a"))
    b = gen.make_inputs("cli_oneshot", 3, str(tmp_path / "b"))
    c = gen.make_inputs("cli_oneshot", 4, str(tmp_path / "c"))
    for key in ("csv", "idle_csv"):
        assert open(a[key]).read() == open(b[key]).read() != open(c[key]).read()
    assert a["prefill"] == b["prefill"] != c["prefill"]
    assert [p["text"] for p in a["plans"]] == [p["text"] for p in b["plans"]]


def test_schedule_bucket():
    assert oracle.padding_bucket(20000.0) == 32768.0
    assert oracle.schedule(20000.0, 1e-6, 0.05) == (32768e-6 + 0.05, 65536e-6 + 0.05)


def test_metric_tables_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
