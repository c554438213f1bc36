"""The SVG writers' bytes on small fixed inputs, pinned by sha256.

A rerun of one commit gives the same bytes whatever the writers do; these
digests pin the writers themselves, so a refactor of the shared polyline,
legend and file code must leave every chart unchanged.
"""

import hashlib

import numpy as np
import pytest

from relochain import svg

LINE_CHARTS = {
    # Four series over five x values, as fig2 draws them.
    "four-series": (
        [-3.0, -2.25, -1.5, -0.75, 0.0],
        [(f"s{k}", [0.1 * k - 0.01 * i * i for i in range(5)]) for k in range(4)],
        "6b71d411442ca045cf68e6f1c15e55b7ce991f2f1f8163186f6174d17e157cfa",
    ),
    # Seven series cycle the six colours; flat data takes the unit pad.
    "flat-seven": (
        [0.0, 1.0],
        [(f"c{k}", [2.0, 2.0]) for k in range(7)],
        "f5af00c009cf33ed33cb5d504b52953b6b84fa8d2dab64b4f2905556c2aa6407",
    ),
}
HISTOGRAMS = {
    "two-sets": (
        [("eps=0.1", np.linspace(0.2, 0.9, 50)), ("eps=0.01", np.linspace(0.6, 0.8, 30) ** 2)],
        "9f1fb224cb9cf283f1051b7b0f45244c45be9e0eca11b80f0de9119c61f6b5ef",
    ),
    "one-point": (
        [("point", [0.5])],
        "fe9521cc049e11ace4f8dcd6e429d9c601feb140143c1e91e44fc7c50f6c5231",
    ),
}


def sha256_hex(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(LINE_CHARTS))
def test_line_chart_bytes(case, tmp_path):
    xs, series, digest = LINE_CHARTS[case]
    path = tmp_path / "chart.svg"
    svg.line_chart(path, xs, series, title="chart", xlabel="x", ylabel="y")
    assert sha256_hex(path) == digest


@pytest.mark.parametrize("case", sorted(HISTOGRAMS))
def test_histogram_panel_bytes(case, tmp_path):
    datasets, digest = HISTOGRAMS[case]
    path = tmp_path / "panel.svg"
    svg.histogram_panel(path, datasets, title="occupation", xlabel="theta_1")
    assert sha256_hex(path) == digest
