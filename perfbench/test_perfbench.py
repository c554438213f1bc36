"""Fast tests of the benchmark itself: metric emission, oracles, tracing.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import inspect
import json
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import relochain as rc  # noqa: E402

import oracles  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SIGMA = np.array([[0.72, 0.08], [0.18, 0.58]])
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# ---------------------------------------------------------------- metrics


def test_benchmark_json_lists_exactly_the_emitted_metrics():
    doc = _bench_json()
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_names()
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]] + [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"]) <= 0.25


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted_with_unit_and_sample_count(trace):
    proc = _run_bench("--workload", "survival", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    doc = _bench_json()
    expected = doc["per_layer"] if trace == "1" else doc["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"] and isinstance(entry["value"], float)
        assert re.search(rf"^survival {re.escape(m['name'])} = \S+ {re.escape(m['unit'])} \(n=\d+\)$",
                         proc.stdout, re.M)
    if trace == "0":
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run_bench("--workload", "fig1", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


# ---------------------------------------------------------------- oracles


def test_dense_window_oracle_reproduces_frozen_radius():
    assert abs(oracles.window_radius(SIGMA, [0.5, 0.5]) - oracles.R_BOLD_HALF_HALF) <= 1e-12
    # A point mass at depth 0 is the plain chain.
    r, _ = oracles.closed_form_2x2(SIGMA)
    assert abs(oracles.window_radius(SIGMA, [1.0]) - r) <= 1e-12
    assert abs(oracles.perron_dense(SIGMA)[0] - r) <= 1e-12


def test_fig1_oracle_rejects_perturbed_results():
    _, rho1 = oracles.closed_form_2x2(SIGMA)
    theta = np.array([[0.7, 0.3], [0.75, 0.25]])
    good = oracles.check_fig1({0.1: theta, 0.001: theta}, {0.1: 0.6, 0.001: rho1 + 0.01}, rho1)
    assert all(c.ok for c in good)
    off_simplex = oracles.check_fig1({0.001: theta * 1.01}, {0.001: rho1}, rho1)
    assert not off_simplex[0].ok
    biased = oracles.check_fig1({0.001: theta}, {0.1: rho1, 0.001: rho1 + 0.03}, rho1)
    assert not biased[-1].ok


def _fig2_rows():
    r, _ = oracles.closed_form_2x2(SIGMA)
    j_star = oracles.j_star_2x2(SIGMA)
    rows = [
        {"eps": eps, "log_r_lo": math.log(r), "log_r_hi": math.log(0.8), "log_Jstar": math.log(j_star)}
        for eps in (0.5, 0.01, 0.001)
    ]
    return rows, j_star


@pytest.mark.parametrize("key,delta,which", [
    ("log_r_lo", 0.02, "fig2.bracket.eps0.01"),  # lo above hi
    ("log_r_lo", -1e-8, "fig2.bracket.eps0.01"),  # lo below the benchmark radius
    ("log_r_hi", 1e-8, "fig2.bracket.eps0.01"),  # hi above the largest row sum
    ("log_Jstar", 1e-5, "fig2.jstar"),
])
def test_fig2_oracle_rejects_perturbed_results(key, delta, which):
    rows, j_star = _fig2_rows()
    assert all(c.ok for c in oracles.check_fig2(rows, SIGMA, j_star))
    rows[1][key] += delta
    failed = {c.name for c in oracles.check_fig2(rows, SIGMA, j_star) if not c.ok}
    assert which in failed


def test_fig2_oracle_rejects_low_bracket_at_small_eps():
    rows, j_star = _fig2_rows()
    assert j_star > oracles.closed_form_2x2(SIGMA)[0]
    checks = oracles.check_fig2(rows, SIGMA, j_star * math.exp(0.03))
    assert not next(c for c in checks if c.name == "fig2.lo_small_eps").ok


def test_scan_oracle_rejects_perturbed_results():
    masses = [0.2, 0.3, 0.5]
    r, h, _ = oracles.perron_dense(SIGMA)
    j_floor = max(oracles.j_value(SIGMA, np.ones(2)), oracles.j_value(SIGMA, h))
    row = {"r": r, "J_star": j_floor, "r_bold": oracles.window_radius(SIGMA, masses)}
    assert oracles.check_scan_cases([row], [(SIGMA, masses)])[0].ok
    for key, delta in (("r_bold", 1e-8), ("r", -1e-8), ("J_star", -1e-6)):
        bad = dict(row, **{key: row[key] + delta})
        assert not oracles.check_scan_cases([bad], [(SIGMA, masses)])[0].ok
    assert not oracles.check_scan_cases([row, row], [(SIGMA, masses)])[0].ok


def test_rate_table_oracle_rejects_perturbed_results():
    i_values = np.array([np.inf, 0.5, 0.3, 0.5, np.inf])
    i_lifted = np.array([0.6, 0.4, -math.log(oracles.R_BOLD_HALF_HALF), 0.45, 0.7])
    flags = np.zeros(5, dtype=bool)
    assert all(c.ok for c in oracles.check_rate_table(i_values, i_lifted, flags))
    above = i_lifted.copy()
    above[1] = 0.5 + 1e-7
    assert not oracles.check_rate_table(i_values, above, flags)[0].ok
    flagged = flags.copy()
    flagged[3] = True
    assert not oracles.check_rate_table(i_values, i_lifted, flagged)[0].ok
    assert not oracles.check_rate_table(i_values, i_lifted + 2e-4, flags)[1].ok


def _depth_model_survival(masses, n, history=(0, 0)):
    """Survival by recursion on the model's definition: draw the depth T, move from X(j - T)."""
    if n == 0:
        return 1.0
    total = 0.0
    for depth, mass in enumerate(masses):
        ref = history[min(depth, len(history) - 1)]
        for t in range(2):
            total += mass * SIGMA[ref, t] * _depth_model_survival(masses, n - 1, (t,) + history)
    return total


def test_survival_oracle_rejects_perturbed_results():
    exact = oracles.window_survival(SIGMA, [0.5, 0.5], 0, 6)
    assert abs(exact - _depth_model_survival([0.5, 0.5], 6)) <= 1e-15
    assert oracles.check_within("x", exact + 3.9e-4, 1e-4, exact, exact).ok
    assert not oracles.check_within("x", exact + 4.1e-4, 1e-4, exact, exact).ok
    assert oracles.check_within("x", 0.5, 0.01, 0.46, 0.6).ok
    assert not oracles.check_within("x", 0.5, 0.01, 0.55, 0.6).ok


def test_quality_limits_admit_the_parent_and_reject_worse():
    width = math.log(0.8) - math.log(oracles.closed_form_2x2(SIGMA)[0])
    limit = workloads.Fig2.quality_limits["lifted.bracket_radius.log_width_max"]
    assert width <= limit < width + 1e-9
    rel_se = workloads.Survival.quality_limits["simulate.fk_survival_estimate.rel_se"]
    assert 0.000686 < rel_se < 1.3 * 0.000686


# ---------------------------------------------------------------- tracing


def _reachable_functions():
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "relochain" or name.startswith("relochain.")):
            continue
        for value in vars(mod).values():
            items = value.values() if isinstance(value, dict) else [value]
            found.extend(
                v for v in items
                if inspect.isfunction(v) and (v.__module__ or "").startswith("relochain")
            )
    return found


def test_tracer_rebinds_every_binding_and_restores_them():
    before = {id(f) for f in _reachable_functions()}
    t = tracing.Tracer()
    t.install()
    try:
        traced_modules = {f"relochain.{m}" for m in tracing.TRACED_MODULES}
        for fn in _reachable_functions():
            if fn.__module__ in traced_modules and not fn.__name__.startswith("_"):
                assert getattr(fn, "__wrapped_by_tracer__", False), fn.__qualname__
        assert getattr(rc.LiftedChain.apply, "__wrapped_by_tracer__", False)
        assert getattr(rc.experiments._EXPERIMENTS["fig2"], "__wrapped_by_tracer__", False)
    finally:
        t.uninstall()
    assert {id(f) for f in _reachable_functions()} == before
    assert not hasattr(rc.LiftedChain.apply, "__wrapped_by_tracer__")


def _small(name, outdir):
    over = {"steps": 3000, "seed": 5} if name == "fig1.cfg" else {"dmax": 8, "seed": 5}
    return workloads.load_shipped_config(ROOT, name, outdir=str(outdir), **over)


def _outputs(outdir):
    return {p: (outdir / p).read_bytes() for p in sorted(os.listdir(outdir)) if p.endswith((".csv", ".svg"))}


@pytest.mark.parametrize("config", ["fig1.cfg", "fig2.cfg"])
def test_tracing_leaves_output_bytes_unchanged_and_self_times_add_up(config, tmp_path):
    rc.run_config(_small(config, tmp_path / "plain"))
    t = tracing.Tracer()
    t.install()
    try:
        with t.span(tracing.ROOT_SPAN):
            rc.run_config(_small(config, tmp_path / "traced"))
    finally:
        t.uninstall()
    plain, traced = _outputs(tmp_path / "plain"), _outputs(tmp_path / "traced")
    assert plain and plain == traced
    stats = tracing.unit_stats(t)
    total = sum(f["self_s"] for f in stats["functions"].values()) + stats["unwrapped_s"]
    assert abs(total - stats["root_s"]) <= 1e-9 * max(1.0, stats["root_s"])
    assert stats["functions"]["experiments.run_config"]["calls"] == 1
    assert stats["functions"]["experiments.write_csv"]["calls"] >= 1
    assert stats["counters"]["experiments.write_csv.bytes"] > 0


def test_exceptions_are_counted_once_in_the_innermost_module():
    t = tracing.Tracer()
    t.install()
    try:
        with pytest.raises(rc.RelochainError):
            rc.perron_triple(np.array([[0.5, 0.0], [0.0, 0.5]]))
    finally:
        t.uninstall()
    assert t.errors["matrices"] == 1
    assert sum(t.errors.values()) == 1
