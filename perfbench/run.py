"""relochain benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload fig1 --seed 1 --seconds 20 --trace 0

Run from the repository root. The workload repeats its unit of work until
`--seconds` would be exceeded (at least once), checks every unit's outputs
against independent oracles, prints each metric on its own line with unit
and sample count, and prints one JSON object as the last line of stdout.

--trace 0 reports the end-to-end metrics: wall_ref_s (median unit time),
setup_s (median of fresh interpreters that start, import relochain, load
the config and validate the matrix), peak_rss_mb and ok_frac (checks passed
over checks attempted; an uncaught exception counts as a failed check).

--trace 1 alternates untraced and traced units and reports per-layer
metrics from the traced ones: per-function calls and self time, latency
percentiles, work counters, module error counts, the unwrapped remainder
and the tracing overhead. Spans of the last traced unit are written to
.perfbench_runs/.

wall_ref_s and setup_s are in reference seconds: measured wall time, less
the probe's own time, times PROBE_NOMINAL_S over the median time of a fixed
pure-Python probe loop sampled during the same interval (every 20 ms by a
timer signal inside a unit; next to each set-up interpreter). On a shared VM
the machine's speed drifts by tens of percent within minutes, and every kind
of work slows together: on a 2-vCPU Xeon VM, 10-second means of four
different relochain kernels correlated at 0.95-0.99. Over four minutes the
quartile spread over median of raw fig1 unit times was 0.29, of reference
times 0.06. The raw times are printed as comment lines and kept in the
report file.

The interpreter runs numpy single-threaded (set below, before numpy is
imported). Seeds: develop a change against 12345 (the shipped configs'
seed) and confirm a claimed gain on 20261017, a seed not used while writing it.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
DEV_SEED = 12345
CONFIRM_SEED = 20261017
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 60
PROBE_PERIOD_S = 0.02
PROBE_LOOP = 3000
PROBE_NOMINAL_S = 2.0e-4  # the probe loop's time on a 2.1 GHz Xeon VM, fast phase

# Functions whose calls and self time the traced run reports by name; the
# self time of every other wrapped function is summed into other.self_s.
LAYER_FUNCTIONS = (
    "matrices.validate_substochastic",
    "matrices.tilt",
    "matrices.perron_triple",
    "matrices.spectral_radius",
    "relocation.truncate_law",
    "lifted.apply",
    "lifted.build_lifted",
    "lifted.lifted_spectral_radius",
    "lifted.bracket_radius",
    "lifted.survival_exact",
    "simulate.run_weighted_chain",
    "simulate.fk_survival_estimate",
    "simulate.run_killed_chain",
    "bounds.j_objective",
    "bounds.optimize_j",
    "bounds.rate_function_lifted",
    "experiments.run_config",
    "experiments.fmt",
    "experiments.write_csv",
    "experiments.sha256_of",
    "svg.histogram_panel",
    "svg.line_chart",
)
# Functions called often enough somewhere for per-call latency percentiles.
LATENCY_FUNCTIONS = (
    "matrices.tilt",
    "matrices.perron_triple",
    "matrices.spectral_radius",
    "lifted.apply",
    "lifted.build_lifted",
    "lifted.lifted_spectral_radius",
    "bounds.j_objective",
)


def per_layer_names() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    return {name: unit for name, (_, unit, _) in layer_metrics([], [], []).items()}


# ---------------------------------------------------------------- environment


def _cpuinfo() -> dict:
    info = {}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key in ("model name", "cache size") and key not in info:
                    info[key] = value.strip()
    except OSError:
        pass
    return info


def _git_commit() -> str:
    """HEAD of a git checkout, read from .git directly; "unknown" elsewhere."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def _src_lines() -> int:
    pkg = os.path.join(ROOT, "src", "relochain")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = _cpuinfo()
    return {
        "cpu_model": cpu.get("model name", platform.machine() or "unknown"),
        "cache_size": cpu.get("cache size", "unknown"),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_commit": _git_commit(),
        "src_relochain_lines": _src_lines(),
        "seed": seed,
        "dev_seed": DEV_SEED,
        "confirm_seed": CONFIRM_SEED,
    }


# ---------------------------------------------------------------- measurement


class Tally:
    """Checks attempted and failed, with the names of the failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, name: str, ok: bool, detail: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")


class SpeedProbe:
    """Samples the machine's speed as the time of a fixed pure-Python loop.

    Inside `with probe:` a SIGALRM handler takes one sample every
    PROBE_PERIOD_S, so the samples cover the same interval as the work they
    rescale; `sample()` takes one directly.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def sample(self, *_):
        t0 = time.perf_counter()
        x = 0
        for i in range(PROBE_LOOP):
            x += i * i & 7
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def to_reference(self, elapsed: float) -> float:
        """`elapsed` less the samples taken within it, rescaled to the nominal probe time."""
        work = elapsed - sum(self.samples)
        while len(self.samples) < 5:  # too short an interval for the timer
            self.sample()
        return work * PROBE_NOMINAL_S / statistics.median(self.samples)


def measure_setup(workload, tally: Tally) -> tuple[list[float], list[float]]:
    """Raw and reference times of fresh interpreters doing the workload's set-up."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    raw, ref = [], []
    probe = SpeedProbe()
    for k in range(SETUP_PROBES):
        probe.samples = []
        for _ in range(25):
            probe.sample()
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", workload.setup_code()],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        elapsed = time.perf_counter() - t0
        for _ in range(25):
            probe.sample()
        raw.append(elapsed)
        ref.append(elapsed * PROBE_NOMINAL_S / statistics.median(probe.samples))
        tally.add(f"setup.probe{k}", proc.returncode == 0, proc.stderr.strip()[-500:])
    return raw, ref


def run_unit(workload, tally: Tally, tracer=None, probe=None):
    """One unit of the workload, timed and checked; returns (seconds, result or None).

    With a tracer the unit runs traced; with a probe, under speed sampling.
    """
    from tracer import ROOT_SPAN

    gc.collect()
    result = None
    t0 = time.perf_counter()
    try:
        if probe is not None:
            with probe:
                result = workload.run()
        elif tracer is None:
            result = workload.run()
        else:
            tracer.reset()
            tracer.install()
            try:
                with tracer.span(ROOT_SPAN):
                    result = workload.run()
            finally:
                tracer.uninstall()
    except Exception:
        traceback.print_exc()
        tally.add(f"{workload.name}.run", False, "uncaught exception")
    elapsed = time.perf_counter() - t0
    if result is not None:
        try:
            for check in workload.check(result):
                tally.add(check.name, check.ok, check.detail)
            for key, value in workload.quality(result).items():
                limit = workload.quality_limits[key]
                tally.add(f"guard.{key}", value <= limit, f"{value:.6g} above the limit {limit:.6g}")
        except Exception:
            traceback.print_exc()
            tally.add(f"{workload.name}.check", False, "oracle could not read the outputs")
            result = None
    return elapsed, result


def _time_boxed(seconds: float, step):
    """Call step() until the next call would likely end after `seconds`; at least once."""
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return


def end_to_end(workload, seconds: float, tally: Tally) -> dict:
    setup_raw, setup_ref = measure_setup(workload, tally)
    walls, refs = [], []
    probe = SpeedProbe()

    def step():
        elapsed, _ = run_unit(workload, tally, probe=probe)
        walls.append(elapsed)
        refs.append(probe.to_reference(elapsed))

    _time_boxed(seconds, step)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"# raw unit seconds {' '.join(f'{w:.4f}' for w in walls)}; median {statistics.median(walls):.4f}")
    print(f"# raw set-up seconds {' '.join(f'{w:.4f}' for w in setup_raw)}; median {statistics.median(setup_raw):.4f}")
    metrics = {
        "wall_ref_s": (statistics.median(refs), "s", len(refs)),
        "setup_s": (statistics.median(setup_ref), "s", len(setup_ref)),
        "peak_rss_mb": (peak_kb / 1024.0, "MB", 1),
        "ok_frac": (1.0 - tally.failed / tally.attempted, "frac", tally.attempted),
    }
    return metrics, {"unit_raw_s": walls, "unit_ref_s": refs, "setup_raw_s": setup_raw, "setup_ref_s": setup_ref}


def traced(workload, seconds: float, tally: Tally, spans_path: str):
    """Alternate untraced and traced units; per-layer metrics from the traced ones."""
    from tracer import Tracer, unit_stats

    tracer = Tracer()
    untraced_walls, stats, quality = [], [], []

    def step():
        elapsed, _ = run_unit(workload, tally)
        untraced_walls.append(elapsed)
        _, result = run_unit(workload, tally, tracer)
        unit = unit_stats(tracer)
        stats.append(unit)
        if result is not None:
            quality.append(workload.quality(result))
        total = sum(f["self_s"] for f in unit["functions"].values()) + unit["unwrapped_s"]
        tally.add("trace.self_time_sum", abs(total - unit["root_s"]) <= 1e-6 * unit["root_s"],
                  f"layer self times + unwrapped {total:.6f}s vs traced wall {unit['root_s']:.6f}s")

    _time_boxed(seconds, step)
    tracer.save_spans(spans_path)
    return layer_metrics(stats, untraced_walls, quality), {"traced_units": stats}


def layer_metrics(stats: list[dict], untraced_walls: list[float], quality: list[dict]) -> dict:
    """Per-layer metrics as {name: (value, unit, samples)}; values are means over traced units."""
    from tracer import TRACED_MODULES

    units = len(stats)
    out = {}

    def mean(values):
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    def fn_stat(fn, key):
        return mean(u["functions"].get(fn, {}).get(key) or 0.0 for u in stats)

    def counter(key):
        return mean(u["counters"][key] for u in stats)

    def ratio(num, den):
        return num / den if den else 0.0

    for fn in LAYER_FUNCTIONS:
        out[f"{fn}.calls"] = (fn_stat(fn, "calls"), "count", units)
        out[f"{fn}.self_s"] = (fn_stat(fn, "self_s"), "s", units)
    for fn in LATENCY_FUNCTIONS:
        calls = int(fn_stat(fn, "calls"))
        out[f"{fn}.p50_s"] = (fn_stat(fn, "p50_s"), "s", calls)
        out[f"{fn}.p90_s"] = (fn_stat(fn, "p90_s"), "s", calls)

    windows = counter("lifted.apply.windows")
    nbytes = counter("lifted.apply.bytes_computed")
    out["lifted.apply.windows"] = (windows, "count", units)
    out["lifted.apply.ns_per_window"] = (1e9 * ratio(fn_stat("lifted.apply", "self_s"), windows), "ns", units)
    out["lifted.apply.bytes_computed"] = (nbytes, "B", units)
    out["lifted.apply.flops_per_byte"] = (ratio(counter("lifted.apply.flops_computed"), nbytes), "flop/B", units)
    out["lifted.lifted_spectral_radius.sweeps"] = (counter("lifted.lifted_spectral_radius.sweeps"), "count", units)
    for fn, key in (
        ("simulate.run_weighted_chain", "steps"),
        ("simulate.fk_survival_estimate", "replica_steps"),
        ("simulate.run_killed_chain", "replica_steps"),
    ):
        out[f"{fn}.{key}_per_s"] = (ratio(counter(f"{fn}.{key}"), fn_stat(fn, "total_s")), "1/s", units)
    out["experiments.write_csv.bytes"] = (counter("experiments.write_csv.bytes"), "B", units)
    for module in TRACED_MODULES:
        out[f"{module}.errors"] = (mean(u["errors"][module] for u in stats), "count", units)
    for key, unit in (("lifted.bracket_radius.log_width_max", "log"), ("simulate.fk_survival_estimate.rel_se", "frac")):
        values = [q[key] for q in quality if key in q]
        out[key] = (mean(values), unit, len(values))
    listed = set(LAYER_FUNCTIONS)
    out["other.self_s"] = (mean(
        sum(f["self_s"] for name, f in u["functions"].items() if name not in listed) for u in stats
    ), "s", units)
    out["unwrapped.self_s"] = (mean(u["unwrapped_s"] for u in stats), "s", units)
    traced_wall = mean(u["root_s"] for u in stats)
    untraced_wall = mean(untraced_walls)
    out["trace.wall_s"] = (traced_wall, "s", units)
    out["trace.untraced_wall_s"] = (untraced_wall, "s", len(untraced_walls))
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s", units)
    return out


# ---------------------------------------------------------------- entry point


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [
        p for p in (os.path.join("src", "relochain", "__init__.py"), os.path.join("configs", "benchmark2.txt"))
        if not os.path.isfile(os.path.join(ROOT, p))
    ]
    if missing:
        print(f"perfbench: {', '.join(missing)} not found under {ROOT}; "
              "run from a relochain checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}"
    os.makedirs(RUNS_DIR, exist_ok=True)
    workload = WORKLOADS[args.workload](ROOT, args.seed, os.path.join(RUNS_DIR, tag))
    tally = Tally()
    env = environment(args.seed)
    if args.trace:
        values, details = traced(workload, args.seconds, tally, os.path.join(RUNS_DIR, f"spans-{tag}.npz"))
    else:
        values, details = end_to_end(workload, args.seconds, tally)

    report = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": env,
        "metrics": {k: {"value": v, "unit": unit, "samples": n} for k, (v, unit, n) in values.items()},
        "failures": tally.failures,
        "details": details,
    }
    with open(os.path.join(RUNS_DIR, f"report-{tag}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"# environment {json.dumps(env, sort_keys=True)}")
    for failure in tally.failures:
        print(f"# FAILED {failure}")
    for name, entry in report["metrics"].items():
        print(f"{args.workload} {name} = {entry['value']:.6g} {entry['unit']} (n={entry['samples']})")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
