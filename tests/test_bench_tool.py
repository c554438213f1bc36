import importlib.util
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("bench_tool", os.path.join(REPO_ROOT, "tools", "bench.py"))
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

# A steady parent: quartiles 0.99 and 1.01, a relative spread of 0.02.
STEADY = [1.0, 0.99, 1.01, 1.0, 0.98, 1.02, 1.0, 0.99, 1.01, 1.0]


@pytest.mark.parametrize(
    "parent, change, lower_wins, bound, want",
    [
        # Nine of ten pairs won by 10%, far beyond the parent's spread.
        (STEADY, [0.9] * 9 + [1.5], True, 0.24, "gain"),
        # The same for a metric where higher is better.
        (STEADY, [1.1] * 9 + [0.5], False, 0.01, "gain"),
        # Eight of ten pairs won: not a gain, and within the bound.
        (STEADY, [0.9] * 8 + [1.5, 1.5], True, 0.24, "no worse"),
        # Every pair won, but by less than the parent's quartile spread.
        (STEADY, [x - 0.005 for x in STEADY], True, 0.24, "no worse"),
        # A median 30% above the parent's, against a bound of 24%.
        (STEADY, [1.3] * 10, True, 0.24, "worse"),
        # A median 20% above: worse, but within the bound.
        (STEADY, [1.2] * 10, True, 0.24, "no worse"),
        # A bimodal parent, whose quartile spread is half its median, cannot
        # resolve a bound of 0.25: a change median 14.5% above it is unresolved,
        ([0.15, 0.25] * 5, [0.229] * 10, True, 0.25, "unresolved"),
        # and so is one 50% above it,
        ([0.15, 0.25] * 5, [0.3] * 10, True, 0.25, "unresolved"),
        # unless every change run beats every parent run.
        ([0.15, 0.25] * 5, [0.14] * 10, True, 0.25, "no worse"),
        ([1.0, 2.0] * 5, [2.5] * 10, False, 0.1, "no worse"),
    ],
)
def test_verdicts_of_synthetic_pairs(parent, change, lower_wins, bound, want):
    assert bench.verdict(parent, change, lower_wins, bound) == want


def test_compare_reports_each_metrics_verdict():
    runs = [
        {"parent": {"metrics": {"wall_ref_s": {"value": p}}}, "change": {"metrics": {"wall_ref_s": {"value": c}}}}
        for p, c in zip(STEADY, [1.3] * 10)
    ]
    out = bench.compare(runs, [{"name": "wall_ref_s", "unit": "s", "better": "lower", "bound": 0.24}])
    assert out["wall_ref_s"]["verdict"] == "worse" and out["wall_ref_s"]["wins"] == 0
