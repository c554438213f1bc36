import argparse
import glob
import inspect
import json
import math
import os

import numpy as np
import pytest

import relochain as rc
from relochain import experiments
from relochain.cli import build_parser, main
from relochain.config import (
    EXPERIMENT_KEYS,
    FIG1_EPSILONS,
    FIG2_EPSILONS,
    config_from_values,
    load_config,
    parse_config_text,
)
from relochain.errors import ConfigParseError, UnknownExperimentError
from relochain.experiments import CSV_CHUNK, write_weighted_csv
from relochain.lifted import D_MAX
from relochain.matrices import _cw_bounds

from conftest import R_CLOSED, cycle_matrix_200


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_perron_command(capsys):
    code, out, _ = run_cli(capsys, "perron")
    assert code == 0
    data = json.loads(out)
    assert data["r"] == pytest.approx(R_CLOSED, rel=1e-12)
    assert len(data["h"]) == 2 and len(data["rho"]) == 2


def test_perron_command_with_file(tmp_path, capsys):
    path = tmp_path / "sigma.txt"
    path.write_text(rc.write_matrix_text(np.array([[0.4, 0.2], [0.1, 0.6]])))
    code, out, _ = run_cli(capsys, "perron", "--sigma", str(path))
    assert code == 0
    assert json.loads(out)["r"] > 0


def test_lifted_radius_command(capsys):
    code, out, _ = run_cli(capsys, "lifted-radius", "--tau", "geometric 0.25", "--dmax", "10")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"lo", "hi", "d_used", "tail_mass"}
    assert data["lo"] <= data["hi"]


def test_lifted_radius_past_the_cap_prints_the_envelope(capsys):
    code, out, _ = run_cli(capsys, "lifted-radius", "--tau", "dirac 5", "--dmax", "2")
    assert code == 0
    data = json.loads(out)
    # The largest row sum, widened outward so that it bounds the exact one.
    assert data["lo"] <= R_CLOSED <= data["hi"] == _cw_bounds(rc.benchmark_matrix().row_sums(), 2)[1]
    assert (data["d_used"], data["tail_mass"]) == (2, 1.0)


@pytest.mark.parametrize("tau, d_used, tail_mass", [("geometric 0.5", 0, 0.5), ("explicit 0.2 0.3 0.5", 2, 0.0)])
def test_lifted_radius_takes_an_infinite_dtail_and_rejects_nan(tau, d_used, tail_mass, capsys):
    # Every tail is at most 1, so an infinite bound truncates a geometric law
    # at depth 0, where its bracket is the envelope; a bounded law that fits
    # uncut is solved exactly whatever the bound.
    code, out, _ = run_cli(capsys, "lifted-radius", "--tau", tau, "--dtail", "inf")
    assert code == 0
    data = json.loads(out)
    assert (data["d_used"], data["tail_mass"]) == (d_used, tail_mass)
    assert R_CLOSED <= data["hi"] <= _cw_bounds(rc.benchmark_matrix().row_sums(), 2)[1]
    code, out, err = run_cli(capsys, "lifted-radius", "--tau", tau, "--dtail", "nan")
    assert (code, out) == (2, "")
    assert "delta_tail must be positive, got nan" in err


def test_simulate_survival_csv(tmp_path, capsys):
    out_path = tmp_path / "surv.csv"
    code, _, _ = run_cli(
        capsys, "simulate-survival", "--tau", "dirac 0", "--n", "5",
        "--replicas", "2000", "--seed", "3", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "n,p_hat,se"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 1.0


def test_simulate_survival_start_state_above_127(tmp_path, capsys):
    sigma_path = tmp_path / "sigma.txt"
    raw = cycle_matrix_200()
    sigma_path.write_text(rc.write_matrix_text(raw))
    out_path = tmp_path / "surv.csv"
    code, _, _ = run_cli(
        capsys, "simulate-survival", "--tau", "dirac 0", "--n", "3", "--replicas", "20000",
        "--init-state", "150", "--sigma", str(sigma_path), "--out", str(out_path),
    )
    assert code == 0
    n, p_hat, se = (float(x) for x in out_path.read_text().splitlines()[-1].split(","))
    exact = np.linalg.matrix_power(raw, 3).sum(axis=1)[150]
    assert n == 3 and abs(p_hat - exact) <= 4 * se


def test_weighted_run_csv(tmp_path, capsys):
    out_path = tmp_path / "wr.csv"
    code, _, _ = run_cli(
        capsys, "weighted-run", "--tau", "geometric 0.2", "--a", "h",
        "--steps", "5000", "--burnin", "100", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "j,theta_1,theta_2,c2_running"
    theta = [float(x) for x in lines[1].split(",")[1:3]]
    assert sum(theta) == pytest.approx(1.0, abs=1e-9)


def test_bound_c3_command(capsys):
    code, out, _ = run_cli(capsys, "bound-c3")
    assert code == 0
    data = json.loads(out)
    assert data["J_star"] >= data["J_at_one"] - 1e-9
    assert data["J_star"] >= data["J_at_h"] - 1e-9


def test_bound_c3_has_no_restarts_flag(capsys):
    # optimize_j always searches from three starts; the old knob is a usage error.
    code, _, _ = run_cli(capsys, "bound-c3", "--restarts", "4")
    assert code == 2


def test_rate_function_command(tmp_path, capsys):
    out_path = tmp_path / "rate.csv"
    code, _, _ = run_cli(
        capsys, "rate-function", "--tau", "dirac 0", "--grid", "5", "--out", str(out_path)
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "nu_1,nu_2,I,I_bold"
    assert len(lines) == 6



def test_rate_function_command_prints_infinite_vertex(tmp_path, capsys):
    sigma = tmp_path / "sigma.txt"
    sigma.write_text(rc.write_matrix_text(np.array([[0.0, 0.9], [0.4, 0.3]])))
    code, out, _ = run_cli(capsys, "rate-function", "--sigma", str(sigma), "--tau", "dirac 0", "--grid", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "nu_1,nu_2,I,I_bold"
    assert lines[-1] == "1,0,inf,inf"
    assert lines[1].split(",")[2] == lines[1].split(",")[3] == f"{-math.log(0.3):.12g}"

def test_rate_function_command_three_states(tmp_path, capsys):
    sigma = tmp_path / "sigma.txt"
    sigma.write_text(rc.write_matrix_text(np.array([[0.5, 0.2, 0.1], [0.1, 0.6, 0.2], [0.3, 0.1, 0.4]])))
    code, out, _ = run_cli(
        capsys, "rate-function", "--sigma", str(sigma), "--tau", "explicit 0.5 0.5", "--grid", "5"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "nu_1,nu_2,nu_3,I,I_bold"
    assert len(lines) == 16


def test_rate_function_command_unattained_supremum_exits_1(tmp_path, capsys):
    # Past nu_1 = 1/2 the zero diagonal puts nu outside the effective domain:
    # a numerical failure, not a usage error.
    sigma = tmp_path / "sigma.txt"
    sigma.write_text(rc.write_matrix_text(np.array([[0.0, 0.9], [0.4, 0.3]])))
    code, _, err = run_cli(capsys, "rate-function", "--sigma", str(sigma), "--tau", "dirac 0", "--grid", "11")
    assert code == 1
    assert "not attained" in err


def test_float_format_is_12_significant_digits(tmp_path, capsys):
    out_path = tmp_path / "surv.csv"
    run_cli(
        capsys, "simulate-survival", "--tau", "dirac 0", "--n", "3",
        "--replicas", "3000", "--seed", "5", "--out", str(out_path),
    )
    for line in out_path.read_text().splitlines()[1:]:
        for cell in line.split(",")[1:]:
            assert cell == f"{float(cell):.12g}"


def test_config_parser_roundtrip():
    text = """
# comment
[experiment]
experiment = fig1
[simulation]
steps = 1000   # inline comment
seed = 7
emit_svg = true
outdir = somewhere
"""
    values = parse_config_text(text)
    config = config_from_values(values)
    assert config.experiment == "fig1"
    assert config.steps == 1000 and config.seed == 7 and config.emit_svg
    assert config.epsilons == (0.3, 0.1, 0.03, 0.01, 0.003, 0.001)


def test_config_parser_errors():
    with pytest.raises(ConfigParseError) as err:
        parse_config_text("experiment = fig1\nbogus_key = 3\n")
    assert err.value.line == 2
    with pytest.raises(ConfigParseError):
        parse_config_text("experiment fig1\n")
    with pytest.raises(ConfigParseError):
        parse_config_text("[unclosed\n")
    with pytest.raises(ConfigParseError):
        parse_config_text("steps = 1\nsteps = 2\n")
    with pytest.raises(UnknownExperimentError):
        config_from_values({"experiment": "fig3"})
    with pytest.raises(ValueError):
        config_from_values({"experiment": "fig1", "epsilons": "0.1 0.3"})


REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED_CONFIGS = sorted(glob.glob(os.path.join(REPO_ROOT, "configs", "*.cfg")))


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=os.path.basename)
def test_shipped_config_loads(path):
    # A key dropped from an experiment's key set must leave the shipped files too.
    config = load_config(path)
    assert config.experiment in EXPERIMENT_KEYS
    if config.sigma_path:
        rc.load_matrix(os.path.join(REPO_ROOT, config.sigma_path))


def test_every_experiment_ships_a_config():
    assert {load_config(p).experiment for p in SHIPPED_CONFIGS} == set(EXPERIMENT_KEYS)


def test_run_config_malformed_exit_code(tmp_path, capsys):
    # threads, tau and replicas were once accepted and then ignored.
    for line in ("whatever = 3", "threads = 1", "tau = dirac 0", "replicas = 1000"):
        text = f"experiment = fig1\n{line}\n"
        with pytest.raises(ConfigParseError):
            parse_config_text(text)
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        code, _, err = run_cli(capsys, "run", "--config", str(bad))
        assert code == 2
        assert "config error" in err


@pytest.mark.parametrize(
    "experiment,key,value",
    [("fig1", "dmax", "3"), ("fig2", "steps", "5000"), ("conjecture-scan", "sigma", "x.txt"),
     ("conjecture-scan", "emit_svg", "true"), ("fig2", "restarts", "8"), ("conjecture-scan", "restarts", "6"),
     ("fig1", "stream", "1"), ("fig2", "stream", "1"), ("conjecture-scan", "stream", "1")],
)
def test_config_key_not_read_by_experiment(experiment, key, value, tmp_path, capsys):
    text = f"experiment = {experiment}\nseed = 3\n{key} = {value}\n"
    with pytest.raises(ConfigParseError) as err:
        parse_config_text(text)
    assert err.value.line == 3
    with pytest.raises(ConfigParseError) as err:
        config_from_values({"experiment": experiment, key: value})
    assert err.value.line is None
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    code, _, err_text = run_cli(capsys, "run", "--config", str(bad))
    assert code == 2
    assert "config error" in err_text


@pytest.mark.parametrize("argv", [["fig1", "--dmax", "3"], ["fig2", "--steps", "5000"]])
def test_experiment_rejects_flag_it_does_not_read(argv, tmp_path, capsys):
    code, _, _ = run_cli(capsys, *argv, "--outdir", str(tmp_path / "out"))
    assert code == 2
    assert not (tmp_path / "out").exists()


def test_experiment_flags_are_keys_their_experiment_reads():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, keys in EXPERIMENT_KEYS.items():
        dests = {a.dest for a in sub.choices[name]._actions} - {"help", "config"}
        assert dests <= set(keys), name


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"experiment = fig1\nepsilons = 0.3 0.1\nsteps = 12000\nseed = 9\noutdir = {tmp_path / 'file'}\n"
    )
    outdir = tmp_path / "flags"
    code, _, _ = run_cli(
        capsys, "fig1", "--config", str(cfg), "--steps", "6000", "--seed", "5", "--outdir", str(outdir)
    )
    assert code == 0
    assert not (tmp_path / "file").exists()
    config = json.loads((outdir / "manifest.json").read_text())["config"]
    assert (config["steps"], config["seed"], config["epsilons"]) == (6000, 5, [0.3, 0.1])
    # The same run spelled out in a file gives the same bytes.
    same = tmp_path / "same.cfg"
    same.write_text(f"experiment = fig1\nepsilons = 0.3 0.1\nsteps = 6000\nseed = 5\noutdir = {tmp_path / 'same'}\n")
    assert run_cli(capsys, "run", "--config", str(same))[0] == 0
    for name in ("fig1_eps0.3.csv", "fig1_eps0.1.csv", "fig1_summary.csv"):
        assert (outdir / name).read_bytes() == (tmp_path / "same" / name).read_bytes()


def test_fig1_outputs_and_manifest(tmp_path, capsys):
    outdir = tmp_path / "f1"
    code, _, _ = run_cli(
        capsys, "fig1", "--steps", "20000", "--seed", "11", "--outdir", str(outdir)
    )
    assert code == 0
    csvs = sorted(p for p in os.listdir(outdir) if p.endswith(".csv"))
    assert len(csvs) == 7
    summary = (outdir / "fig1_summary.csv").read_text().splitlines()
    assert summary[0] == "eps,mean_theta_1,std_theta_1,rho_1"
    assert len(summary) == 7
    rho_col = {line.split(",")[3] for line in summary[1:]}
    assert len(rho_col) == 1
    assert float(rho_col.pop()) == pytest.approx(0.723111, abs=1e-5)
    assert rc.verify_manifest(outdir)
    # One stage times the laws' joint run, one per eps each law's outputs.
    stages = json.loads((outdir / "manifest.json").read_text())["stage_seconds"]
    assert set(stages) == {"weighted chains", *(f"eps {line.split(',')[0]}" for line in summary[1:])}


def test_fig1_law_k_is_the_lone_run_on_stream_k(tmp_path, capsys):
    # The laws run side by side, and each CSV is the weighted run of its law alone.
    outdir = tmp_path / "f1"
    code, _, _ = run_cli(capsys, "fig1", "--steps", "3000", "--seed", "13", "--outdir", str(outdir))
    assert code == 0
    for k, eps in enumerate(FIG1_EPSILONS):
        alone = tmp_path / f"alone{k}.csv"
        stats = rc.run_weighted_chains(
            rc.benchmark_matrix(), [rc.RelocationLaw.geometric(eps)], np.ones(2), 3000, rng=rc.RngSpec(13, k)
        )[0]
        write_weighted_csv(alone, stats)
        assert (outdir / f"fig1_eps{eps:g}.csv").read_bytes() == alone.read_bytes()


def test_fig1_rerun_byte_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for outdir in (out1, out2):
        code, _, _ = run_cli(
            capsys, "fig1", "--steps", "15000", "--seed", "42", "--outdir", str(outdir)
        )
        assert code == 0
    for name in os.listdir(out1):
        if name.endswith(".csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_fig2_rows_and_bounds(tmp_path, capsys):
    outdir = tmp_path / "f2"
    code, _, _ = run_cli(capsys, "fig2", "--dmax", "10", "--outdir", str(outdir))
    assert code == 0
    lines = (outdir / "fig2.csv").read_text().splitlines()
    assert lines[0] == "eps,log_r_lo,log_r_hi,log_r_benchmark,log_Jstar"
    assert len(lines) == 13
    log_r = math.log(R_CLOSED)
    for line in lines[1:]:
        _, lo, hi, bench, jstar = (float(x) for x in line.split(","))
        assert lo >= log_r - 1e-9
        assert lo <= hi
        assert bench == pytest.approx(log_r, abs=1e-12)
        assert hi <= jstar + 0.02
    assert rc.verify_manifest(outdir)
    # The search imports no scipy, so no stage times an import.
    stages = json.loads((outdir / "manifest.json").read_text())["stage_seconds"]
    assert set(stages) == {"optimize_j", *(f"eps {line.split(',')[0]}" for line in lines[1:])}


def test_conjecture_scan(tmp_path, capsys):
    outdir = tmp_path / "cj"
    code, out, _ = run_cli(
        capsys, "conjecture-scan", "--count", "3", "--seed", "2", "--outdir", str(outdir)
    )
    assert code == 0
    assert "violation" in out
    lines = (outdir / "conjecture.csv").read_text().splitlines()
    assert lines[0] == "case_id,r,J_star,r_bold,violated"
    assert len(lines) == 4
    for line in lines[1:]:
        _, r, j_star, r_bold, violated = line.split(",")
        assert float(r) <= float(r_bold) + 1e-12
        assert violated in ("0", "1")
    stages = json.loads((outdir / "manifest.json").read_text())["stage_seconds"]
    assert set(stages) == {"scan"}


def test_fig2_and_scan_read_the_benchmark_radius_from_optimize_j(tmp_path, monkeypatch):
    # J(1) = r bit for bit, so neither experiment solves the benchmark triple a second time.
    def refuse(matrix):
        raise AssertionError("second Perron solve of the benchmark")

    monkeypatch.setattr(experiments, "perron_triple", refuse)
    rc.run_config(rc.ExperimentConfig("fig2", epsilons=(0.5, 0.1), dmax=6, outdir=str(tmp_path / "f2")))
    log_r = f"{math.log(rc.perron_triple(rc.benchmark_matrix()).r):.12g}"
    rows = (tmp_path / "f2" / "fig2.csv").read_text().splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == [log_r, log_r]
    rc.run_config(rc.ExperimentConfig("conjecture-scan", count=2, outdir=str(tmp_path / "cj")))
    assert len((tmp_path / "cj" / "conjecture.csv").read_text().splitlines()) == 3


def test_conjecture_scan_redraws_only_reducible_or_periodic_matrices(tmp_path, monkeypatch):
    # The redraw loop once caught every exception, so a fault inside validation would loop forever.
    validate = experiments.validate_substochastic
    for error, redrawn in ((rc.ReducibleError, True), (rc.PeriodicError, True), (TypeError, False)):
        raised = []

        def flaky(raw):
            if not raised:
                raised.append(error)
                raise error("injected")
            return validate(raw)

        monkeypatch.setattr(experiments, "validate_substochastic", flaky)
        config = config_from_values({"experiment": "conjecture-scan", "count": "1", "outdir": str(tmp_path)})
        if redrawn:
            rc.run_config(config)
        else:
            with pytest.raises(TypeError, match="injected"):
                rc.run_config(config)
        assert raised == [error]


def test_conjecture_scan_empty(tmp_path, capsys):
    outdir = tmp_path / "cj0"
    code, _, _ = run_cli(capsys, "conjecture-scan", "--count", "0", "--outdir", str(outdir))
    assert code == 0
    lines = (outdir / "conjecture.csv").read_text().splitlines()
    assert lines == ["case_id,r,J_star,r_bold,violated"]


def test_run_config_file_and_digest_stability(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    outdir = tmp_path / "out"
    cfg.write_text(
        "\n".join(
            [
                "[experiment]",
                "experiment = fig1",
                "[simulation]",
                "epsilons = 0.3 0.1",
                "steps = 12000",
                "seed = 9",
                f"outdir = {outdir}",
            ]
        )
        + "\n"
    )
    code, _, _ = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 0
    manifest1 = json.loads((outdir / "manifest.json").read_text())
    assert manifest1["config"]["steps"] == 12000
    code, _, _ = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 0
    manifest2 = json.loads((outdir / "manifest.json").read_text())
    assert manifest1["outputs"] == manifest2["outputs"]
    assert rc.verify_manifest(outdir)


def test_svg_emission(tmp_path, capsys):
    outdir = tmp_path / "svg"
    code, _, _ = run_cli(
        capsys, "fig1", "--steps", "8000", "--outdir", str(outdir), "--emit-svg"
    )
    assert code == 0
    svg_text = (outdir / "fig1_histograms.svg").read_text()
    assert svg_text.startswith("<svg") and "polyline" in svg_text


def test_fig2_svg_is_written_and_listed_in_the_manifest(tmp_path, capsys):
    outdir = tmp_path / "f2"
    code, _, _ = run_cli(capsys, "fig2", "--dmax", "3", "--emit-svg", "--outdir", str(outdir))
    assert code == 0
    assert (outdir / "fig2_rates.svg").read_text().startswith("<svg")
    listed = [o["path"] for o in json.loads((outdir / "manifest.json").read_text())["outputs"]]
    assert listed == ["fig2.csv", "fig2_rates.svg"]
    assert rc.verify_manifest(outdir)
    svg = outdir / "fig2_rates.svg"
    svg.write_text(svg.read_text() + "\n")
    assert not rc.verify_manifest(outdir)
    svg.unlink()
    assert not rc.verify_manifest(outdir)


def test_weighted_run_takes_explicit_weights(capsys):
    # Burn-in 0 for dirac 0, so 2,000 steps give 5 samples of 20 chains, the first at j = 101.
    code, out, _ = run_cli(capsys, "weighted-run", "--tau", "dirac 0", "--a", "0.5,1", "--steps", "2000")
    rows = out.splitlines()
    assert code == 0 and len(rows) == 101 and rows[1].split(",")[0] == "101"
    code, _, err = run_cli(capsys, "weighted-run", "--tau", "dirac 0", "--a", "0.5,-1", "--steps", "2000")
    assert code == 2 and "positive and finite" in err


def test_experiment_subcommand_refuses_another_experiments_config(capsys):
    code, out, err = run_cli(capsys, "fig2", "--config", os.path.join(REPO_ROOT, "configs", "conjecture.cfg"))
    assert code == 2 and out == "" and "config names 'conjecture-scan', expected 'fig2'" in err


def test_emit_svg_reads_the_config_booleans():
    for text, value in (("on", True), ("off", False), ("No", False), ("1", True)):
        assert config_from_values({"experiment": "fig2", "emit_svg": text}).emit_svg is value


def test_usage_error_exit_code(capsys):
    assert main(["lifted-radius"]) == 2  # --tau missing
    code, _, _ = run_cli(capsys, "perron", "--sigma", "/nonexistent/file.txt")
    assert code == 2
    # A NaN mass used to slip past validation and print p_hat = 1 at every n.
    argv = ["simulate-survival", "--tau", "explicit nan 1", "--n", "3", "--replicas", "1000"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "finite" in err


def test_negative_step_count_exit_code(capsys):
    # --n -1 once exited 0 after printing only the header.
    code, out, err = run_cli(capsys, "simulate-survival", "--tau", "dirac 0", "--n", "-1", "--replicas", "100")
    assert code == 2 and out == "" and "n_max >= 0" in err


@pytest.mark.parametrize(
    "argv",
    [["simulate-survival", "--tau", "dirac 0"], ["weighted-run", "--tau", "dirac 0"], ["fig1"], ["fig2"],
     ["conjecture-scan"]],
    ids=lambda argv: argv[0],
)
def test_no_stream_flag(argv, capsys):
    # The seed alone names the PCG64 stream.
    build_parser().parse_args(argv)
    code, out, _ = run_cli(capsys, *argv, "--stream", "1")
    assert code == 2 and out == ""


def test_numerical_failure_exit_code(capsys):
    # Both force an exact lift beyond the state cap; 2**100000001 windows
    # would have more digits than an int may print.
    for spec in ("dirac 25", "dirac 100000000"):
        code, _, err = run_cli(capsys, "rate-function", "--tau", spec, "--grid", "3")
        assert code == 1
        assert "numerical failure" in err
        assert f"d = {spec.split()[1]}" in err


@pytest.mark.parametrize(
    "values",
    [
        {"experiment": "fig1", "epsilons": "0.3", "steps": "2000"},
        {"experiment": "fig2", "epsilons": "0.3", "dmax": "3"},
        {"experiment": "conjecture-scan", "count": "1"},
    ],
)
def test_manifest_records_the_keys_its_experiment_reads(tmp_path, values):
    outdir = tmp_path / values["experiment"]
    rc.run_config(config_from_values({**values, "outdir": str(outdir)}))
    config = json.loads((outdir / "manifest.json").read_text())["config"]
    assert set(config) == {"experiment", *EXPERIMENT_KEYS[values["experiment"]]}
    assert config["outdir"] == str(outdir)
    if "sigma" in config:
        assert config["sigma"] is None


def test_dmax_defaults_agree():
    # One depth cap for the library, the lifted-radius flag and the fig2 config key.
    library = inspect.signature(rc.bracket_radius).parameters["d_max"].default
    flag = build_parser().parse_args(["lifted-radius", "--tau", "dirac 0"]).dmax
    key = config_from_values({"experiment": "fig2"}).dmax
    assert library == flag == key == D_MAX == 16


def test_negative_dmax_exit_code(tmp_path, capsys):
    # lifted-radius --dmax -1 once exited 1 with "state cap too small".
    code, out, err = run_cli(capsys, "lifted-radius", "--dmax", "-1", "--tau", "geometric 0.5")
    assert code == 2 and out == "" and "d_max must be nonnegative" in err
    outdir = tmp_path / "fig2"
    code, _, err = run_cli(capsys, "fig2", "--dmax", "-1", "--outdir", str(outdir))
    assert code == 2 and "dmax must be nonnegative" in err
    assert not outdir.exists()


@pytest.mark.parametrize(
    "flag, value, message", [("--count", "-3", "count must be nonnegative"), ("--m", "0", "m must be at least 1")]
)
def test_conjecture_scan_rejects_negative_count_and_empty_state_space(flag, value, message, tmp_path, capsys):
    # --count -3 once exited 0 with a header-only CSV and a manifest; both
    # are now rejected when the config is built, before the outdir is made.
    outdir = tmp_path / "neg"
    code, out, err = run_cli(capsys, "conjecture-scan", flag, value, "--outdir", str(outdir))
    assert code == 2 and out == "" and message in err
    assert not outdir.exists()


def per_cell_csv(header, rows):
    """Reference writer: each cell on its own, strings as given, numbers as f"{x:.12g}"."""
    lines = [",".join(header)]
    lines += [",".join(c if isinstance(c, str) else f"{float(c):.12g}" for c in row) for row in rows]
    return "".join(line + "\n" for line in lines)


# Row counts on either side of one and of four chunks.
@pytest.mark.parametrize("n_rows", [0, 1, *(k * CSV_CHUNK + j for k in (1, 4) for j in (-1, 0, 1)), 600])
def test_write_csv_matches_per_cell_formatting(n_rows, tmp_path, capsys):
    specials = [math.nan, math.inf, -math.inf, -0.0, 1e-05, 1e16, 0.1 + 0.2, 2.5e-300, 123456789012345.0]
    rng = np.random.default_rng(n_rows)
    rows = []
    for i in range(n_rows):
        x = specials[i % len(specials)]
        rows.append([str(i), x, np.float64(rng.normal() * 10.0 ** rng.integers(-20, 20)), i, f"s{i}"])
    header = ["j", "x", "y", "k", "label"]
    expected = per_cell_csv(header, rows)
    path = tmp_path / "t.csv"
    experiments.write_csv(str(path), header, iter(rows))
    assert path.read_text() == expected
    experiments.write_csv(None, header, rows)
    assert capsys.readouterr().out == expected


def test_write_weighted_csv_matches_per_cell_formatting(tmp_path):
    stats = rc.run_weighted_chains(
        rc.benchmark_matrix(), [rc.RelocationLaw.geometric(0.1)], np.ones(2), steps=30_000, rng=rc.RngSpec(3)
    )[0]
    assert len(stats.sample_steps) > 2 * CSV_CHUNK
    path = tmp_path / "w.csv"
    experiments.write_weighted_csv(str(path), stats)
    rows = zip(stats.sample_steps, stats.theta_samples, stats.c2_running)
    expected = per_cell_csv(["j", "theta_1", "theta_2", "c2_running"], ([str(j), *t, c] for j, t, c in rows))
    assert path.read_text() == expected


def test_write_csv_rejects_a_column_mixing_strings_and_numbers(tmp_path):
    with pytest.raises(TypeError):
        experiments.write_csv(str(tmp_path / "a.csv"), ["x"], [[1.0], ["a"]])
    with pytest.raises(TypeError, match="mixes"):
        experiments.write_csv(str(tmp_path / "b.csv"), ["x"], [["a"], [1.0]])


BAD_VALUES = [
    ("fig1", "thin", "0", "thin >= 1"),
    ("fig1", "burnin", "-5", "burnin >= 0"),
    ("fig1", "steps", "10", "steps - burnin >= 20"),
    ("fig1", "seed", "-1", "seed must be nonnegative"),
    ("fig2", "dtail", "-1", "dtail must be positive and finite"),
    ("fig2", "dtail", "nan", "dtail must be positive and finite"),
    ("fig1", "epsilons", "nan", "epsilon values must lie in (0, 1)"),
    ("fig1", "epsilons", "", "epsilons must name at least one value"),
    ("fig2", "emit_svg", "maybe", "expected a boolean, got 'maybe'"),
    ("fig1", "", "5", "line 2, column 1: empty key"),
]


@pytest.mark.parametrize(
    "experiment, key, value, message", BAD_VALUES, ids=[f"{e}-{k}={v}" for e, k, v, _ in BAD_VALUES]
)
def test_bad_config_value_exits_2_before_any_output(experiment, key, value, message, tmp_path, capsys, monkeypatch):
    # Each once failed only inside the run, after the outdir was made; a
    # fig2 dtail of -1 first spent a second in optimize_j, and an empty
    # epsilons list exited 0 with a header-only CSV.
    def no_solve(*args, **kwargs):
        raise AssertionError("optimize_j ran")

    monkeypatch.setattr(experiments, "optimize_j", no_solve)
    outdir = tmp_path / "out"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"experiment = {experiment}\n{key} = {value}\noutdir = {outdir}\n")
    code, out, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 2 and out == "" and message in err
    assert not outdir.exists()


def test_fig1_config_accepts_exactly_the_step_budgets_the_sampler_runs():
    # The config applies the weighted run's own burn-in rule to each law.
    sigma, ones = rc.benchmark_matrix(), np.ones(2)
    for steps in range(30, 50):
        for burnin in (None, 0, 15):
            runs = True
            for eps in (0.3, 0.05):
                try:
                    rc.run_weighted_chains(sigma, [rc.RelocationLaw.geometric(eps)], ones, steps, burnin=burnin)
                except ValueError:
                    runs = False
            try:
                rc.ExperimentConfig("fig1", epsilons=(0.3, 0.05), steps=steps, burnin=burnin)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == runs, (steps, burnin)


def test_config_fills_its_experiment_defaults():
    # run_config(ExperimentConfig("fig1")) once ran zero laws and wrote a header-only summary.
    defaults = {"fig1": (FIG1_EPSILONS, "out_fig1"), "fig2": (FIG2_EPSILONS, "out_fig2"),
                "conjecture-scan": (None, "out_conjecture")}
    for name, (eps, outdir) in defaults.items():
        config = rc.ExperimentConfig(name)
        assert (config.epsilons, config.outdir) == (eps, outdir)
        assert config == config_from_values({"experiment": name})
    assert rc.ExperimentConfig("fig1", epsilons=(0.5,), outdir="x").epsilons == (0.5,)
    with pytest.raises(UnknownExperimentError):
        rc.ExperimentConfig("fig3")


def test_run_config_of_a_bare_fig1_config_runs_every_default_law(tmp_path):
    outdir = tmp_path / "f1"
    rc.run_config(rc.ExperimentConfig("fig1", steps=2000, outdir=str(outdir)))
    assert sorted(p.name for p in outdir.glob("fig1_eps*.csv")) == sorted(f"fig1_eps{e:g}.csv" for e in FIG1_EPSILONS)
    assert len((outdir / "fig1_summary.csv").read_text().splitlines()) == 1 + len(FIG1_EPSILONS)
    assert rc.verify_manifest(outdir)
