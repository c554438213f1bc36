import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import relochain as rc
from relochain import simulate
from relochain.cli import main as cli_main
from relochain.matrices import tilt_vector
from relochain.simulate import _BLOCK, N_CHAINS, _PART, _Memory, _search

from conftest import R_CLOSED, cycle_matrix_200


def exact_survival(sigma, law, init, n):
    return rc.survival_exact(rc.build_lifted(sigma, law), init, n)


def test_killed_chain_determinism(sigma_fig):
    law = rc.RelocationLaw.geometric(0.3)
    init = rc.HistoryWindow((0,))
    a = rc.run_killed_chain(sigma_fig, law, init, 50, 5000, rc.RngSpec(99, 3))
    b = rc.run_killed_chain(sigma_fig, law, init, 50, 5000, rc.RngSpec(99, 3))
    np.testing.assert_array_equal(a.curve.p_hat, b.curve.p_hat)
    np.testing.assert_array_equal(a.lifetimes, b.lifetimes)
    c = rc.run_killed_chain(sigma_fig, law, init, 50, 5000, rc.RngSpec(99, 4))
    assert not np.array_equal(a.lifetimes, c.lifetimes)


def test_fk_overflow_guard_fires_above_its_limit(sigma_fig, monkeypatch):
    # A tilted step adds log(K a) - log a(next) to a log weight. No run here
    # nears log(1e300), so the limit is lowered below this run's largest log
    # weight, which is at least the log of the mean weight.
    args = (sigma_fig, rc.RelocationLaw.explicit([0.5, 0.5]), np.array([1.0, 0.5]), rc.HistoryWindow((0, 0)), 30, 500)
    est = rc.fk_survival_estimate(*args, rc.RngSpec(3))
    monkeypatch.setattr(simulate, "LOG_OVERFLOW_LIMIT", math.log(est.value) - 1e-9)
    with pytest.raises(rc.OverflowGuardError, match="representable range"):
        rc.fk_survival_estimate(*args, rc.RngSpec(3))


def test_killed_chain_curve_monotone_and_se(sigma_fig):
    law = rc.RelocationLaw.explicit([0.5, 0.5])
    res = rc.run_killed_chain(sigma_fig, law, rc.HistoryWindow((0, 0)), 40, 20000, rc.RngSpec(1))
    p = res.curve.p_hat
    assert (np.diff(p) <= 0).all()
    np.testing.assert_allclose(res.curve.se, np.sqrt(p * (1 - p) / 20000), atol=1e-15)
    assert p[0] == 1.0


def test_killed_chain_matches_exact_dirac(sigma_fig):
    law = rc.RelocationLaw.dirac(0)
    init = rc.HistoryWindow((0,))
    res = rc.run_killed_chain(sigma_fig, law, init, 10, 40000, rc.RngSpec(7))
    exact = exact_survival(sigma_fig, law, init, 10)
    assert abs(res.curve.p_hat[10] - exact) <= 3 * res.curve.se[10]


def test_killed_chain_decay_rate_at_least_benchmark(sigma_fig):
    # Empirical log-slope of the survival curve over a window where survivors
    # remain plentiful; the persistence rate dominates the benchmark rate.
    law = rc.RelocationLaw.geometric(0.25)
    res = rc.run_killed_chain(sigma_fig, law, rc.HistoryWindow((0,)), 30, 200_000, rc.RngSpec(13))
    p = res.curve.p_hat
    n0, n1 = 10, 30
    slope = (math.log(p[n1]) - math.log(p[n0])) / (n1 - n0)
    se_log = res.curve.se / np.maximum(p, 1e-12)
    slope_se = math.hypot(se_log[n0], se_log[n1]) / (n1 - n0)
    assert slope >= math.log(R_CLOSED) - 3 * slope_se


def test_killed_chain_dirac_ratio_stabilizes(sigma_fig):
    # The scaled survival r^-n p(n) approaches a constant for point-mass laws;
    # check the ratio moves little between checkpoints relative to noise.
    law = rc.RelocationLaw.dirac(0)
    res = rc.run_killed_chain(sigma_fig, law, rc.HistoryWindow((0,)), 15, 200_000, rc.RngSpec(21))
    ratios = [res.curve.p_hat[n] / R_CLOSED**n for n in (5, 10, 15)]
    ses = [res.curve.se[n] / R_CLOSED**n for n in (5, 10, 15)]
    assert abs(ratios[2] - ratios[1]) <= 4 * math.hypot(ses[1], ses[2])
    assert abs(ratios[1] - ratios[0]) <= 4 * math.hypot(ses[0], ses[1])


def test_weighted_chain_dirac0_with_h_is_constant(sigma_fig):
    h = rc.perron_triple(sigma_fig).h
    stats = rc.run_weighted_chains(
        sigma_fig, [rc.RelocationLaw.dirac(0)], h, steps=20_000, burnin=500, thin=10, rng=rc.RngSpec(4)
    )[0]
    assert stats.c2_mean == pytest.approx(math.log(R_CLOSED), abs=1e-12)
    assert np.abs(stats.chain_means - math.log(R_CLOSED)).max() <= 1e-12
    assert stats.c2_se <= 1e-12


def test_weighted_chain_samples_in_simplex(sigma_fig):
    stats = rc.run_weighted_chains(
        sigma_fig, [rc.RelocationLaw.geometric(0.05)], np.ones(2), steps=60_000, rng=rc.RngSpec(8)
    )[0]
    assert np.abs(stats.theta_samples.sum(axis=1) - 1.0).max() <= 1e-12
    assert (stats.theta_samples >= 0).all()
    assert stats.state_histogram.sum() == stats.steps - stats.burnin


def test_weighted_chain_concentration_direction(sigma_fig):
    stds = []
    for k, eps in enumerate((0.3, 0.1, 0.03, 0.01)):
        stats = rc.run_weighted_chains(
            sigma_fig,
            [rc.RelocationLaw.geometric(eps)],
            np.ones(2),
            steps=150_000,
            thin=20,
            rng=rc.RngSpec(100, k),
        )[0]
        stds.append(stats.theta_samples[:, 0].std(ddof=1))
    assert stds[0] > stds[1] > stds[2] > stds[3]


def test_weighted_chain_mean_occupation_near_quasi_stationary(sigma_fig, triple_closed):
    _, rho, _ = triple_closed
    stats = rc.run_weighted_chains(
        sigma_fig, [rc.RelocationLaw.geometric(0.01)], np.ones(2), steps=400_000, rng=rc.RngSpec(30)
    )[0]
    mean_theta = stats.theta_samples.mean(axis=0)
    assert np.abs(mean_theta - rho).sum() / 2 <= 0.02  # total variation


def test_fk_single_step_zero_variance(sigma_fig):
    law = rc.RelocationLaw.explicit([0.5, 0.5])
    init = rc.HistoryWindow((0, 0))
    est = rc.fk_survival_estimate(sigma_fig, law, np.ones(2), init, 1, 200, rc.RngSpec(2))
    expected = rc.defective_kernel_row(init, sigma_fig, law).sum()
    assert est.value == pytest.approx(expected, abs=1e-14)
    assert est.se <= 1e-15


def test_fk_matches_exact_both_tilts(sigma_fig):
    law = rc.RelocationLaw.explicit([0.5, 0.5])
    init = rc.HistoryWindow((0, 0))
    exact = exact_survival(sigma_fig, law, init, 10)
    h = rc.perron_triple(sigma_fig).h
    est1 = rc.fk_survival_estimate(sigma_fig, law, np.ones(2), init, 10, 30_000, rc.RngSpec(5, 0))
    esth = rc.fk_survival_estimate(sigma_fig, law, h, init, 10, 30_000, rc.RngSpec(5, 1))
    assert abs(est1.value - exact) <= 3 * est1.se
    assert abs(esth.value - exact) <= 3 * esth.se
    assert abs(est1.value - esth.value) <= 3 * math.hypot(est1.se, esth.se)


def test_fk_geometric_law_matches_bracket_band(sigma_fig):
    # Unbounded law: no exact finite reference, but the estimate must sit
    # inside the certified radius envelope at a moderate horizon.
    law = rc.RelocationLaw.geometric(0.5)
    init = rc.HistoryWindow((0,))
    est = rc.fk_survival_estimate(sigma_fig, law, np.ones(2), init, 12, 30_000, rc.RngSpec(6))
    br = rc.bracket_radius(sigma_fig, law, delta_tail=1e-9, d_max=16)
    lo_chain = rc.build_lifted(
        sigma_fig, rc.truncate_law(law, 1e-9, 16), mode="lower"
    )
    lo_ref = rc.survival_exact(lo_chain, rc.HistoryWindow((0,) * (lo_chain.d + 1)), 12)
    assert est.value >= lo_ref - 4 * est.se
    assert est.value <= br.hi**12 * 3  # crude envelope: c r^n with c moderate


def test_fk_unbiased_desk_scale(sigma_fig):
    h = rc.perron_triple(sigma_fig).h
    cases = [
        (5, rc.RelocationLaw.explicit([0.5, 0.5]), np.ones(2)),
        (12, rc.RelocationLaw.explicit([0.2, 0.3, 0.5]), h),
        (8, rc.RelocationLaw.dirac(2), np.ones(2)),
    ]
    for n, law, a in cases:
        init = rc.HistoryWindow((0,) * ((law.support_max or 0) + 1))
        exact = exact_survival(sigma_fig, law, init, n)
        hits = 0
        for rep in range(100):
            est = rc.fk_survival_estimate(sigma_fig, law, a, init, n, 2000, rc.RngSpec(1000, rep))
            if abs(est.value - exact) <= 4 * est.se:
                hits += 1
        assert hits >= 99


@pytest.mark.parametrize("start", [0, 150])
def test_samplers_read_states_above_127(start):
    # Oracle: the dense three-step survival (sigma^3 1)(start) of the plain
    # chain, which a point mass at 0 reproduces.
    raw = cycle_matrix_200()
    sigma = rc.validate_substochastic(raw)
    exact = np.linalg.matrix_power(raw, 3).sum(axis=1)[start]
    law = rc.RelocationLaw.dirac(0)
    init = rc.HistoryWindow((start,))
    killed = rc.run_killed_chain(sigma, law, init, 3, 20_000, rc.RngSpec(11))
    assert abs(killed.curve.p_hat[3] - exact) <= 4 * killed.curve.se[3]
    fk = rc.fk_survival_estimate(sigma, law, np.ones(200), init, 3, 20_000, rc.RngSpec(12))
    assert abs(fk.value - exact) <= 4 * fk.se


def test_start_window_shorter_than_law_support(sigma_fig):
    # The window (1, 0) extends by its oldest entry to (1, 0, 0) for a law on {0, 1, 2}.
    law = rc.RelocationLaw.explicit([0.2, 0.3, 0.5])
    init = rc.HistoryWindow((1, 0))
    n = 8
    exact = exact_survival(sigma_fig, law, init, n)
    killed = rc.run_killed_chain(sigma_fig, law, init, n, 40_000, rc.RngSpec(13))
    assert abs(killed.curve.p_hat[n] - exact) <= 4 * killed.curve.se[n]
    fk = rc.fk_survival_estimate(sigma_fig, law, np.ones(2), init, n, 40_000, rc.RngSpec(14))
    assert abs(fk.value - exact) <= 4 * fk.se


def test_start_window_outside_state_space(sigma_fig):
    with pytest.raises(ValueError):
        rc.run_killed_chain(sigma_fig, rc.RelocationLaw.dirac(0), rc.HistoryWindow((2,)), 3, 10, rc.RngSpec(1))


def test_far_point_mass_reads_the_start_state(sigma_fig):
    # Three steps never reach past the start window, so every row is sigma[0],
    # of sum 0.8; the ring holds the states a run can read, not 10**9 + 1 slots.
    law = rc.RelocationLaw.dirac(10**9)
    init = rc.HistoryWindow((0,))
    fk = rc.fk_survival_estimate(sigma_fig, law, np.ones(2), init, 3, 10, rc.RngSpec(15))
    assert fk.value == pytest.approx(0.8**3, abs=1e-14)
    assert fk.se == 0.0
    killed = rc.run_killed_chain(sigma_fig, law, init, 3, 20_000, rc.RngSpec(16))
    assert abs(killed.curve.p_hat[3] - 0.8**3) <= 4 * killed.curve.se[3]


@pytest.mark.parametrize(
    "law",
    [rc.RelocationLaw.explicit([0.2, 0.3, 0.5]), rc.RelocationLaw.explicit([0.1, 0, 0, 0.4, 0, 0.5])],
    ids=["near", "spread"],
)
@pytest.mark.parametrize("pushes", [0, 1, 2, 5])
def test_short_run_memory_matches_full_ring(sigma_fig, law, pushes):
    # A memory told its push count keeps a shorter ring; every row it can be
    # asked for within that count equals the full ring's.
    rng = np.random.default_rng(pushes)
    init = rc.HistoryWindow((1, 0))
    paths = rng.integers(0, 2, size=(3, pushes))
    full = _Memory(law, init, sigma_fig.entries, replicas=3)
    short = _Memory(law, init, sigma_fig.entries, replicas=3, pushes=pushes)
    for n in range(pushes + 1):
        np.testing.assert_allclose(short.row(), full.row(), rtol=1e-15)
        if n < pushes:
            for memory in (full, short):
                memory.push(paths[:, n])


@pytest.mark.parametrize(
    "law",
    [rc.RelocationLaw.dirac(2), rc.RelocationLaw.explicit([0.2, 0.3, 0.5]), rc.RelocationLaw.geometric(0.35)],
    ids=["dirac", "explicit", "geometric"],
)
def test_memory_row_matches_depth_definition(sigma_fig, law):
    # Oracle: the kernel row sum_i tau(i) sigma[w_i] of the full window that
    # the path spells out, most recent first, ahead of the start window. The
    # table's last column is the row sum sigma 1, read by the same gather.
    rng = np.random.default_rng(3)
    init = rc.HistoryWindow((1, 0))
    paths = rng.integers(0, 2, size=(4, 12))
    many = _Memory(law, init, np.column_stack([sigma_fig.entries, sigma_fig.entries @ np.ones(2)]), replicas=4)
    for n in range(12):
        if n == 6:
            alive = np.array([True, False, True, True])
            many.keep(np.flatnonzero(alive))
            paths = paths[alive]
        row = many.row()
        rows = row[:, :2]
        for r, path in enumerate(paths):
            window = rc.HistoryWindow(tuple(int(s) for s in path[:n][::-1]) + init.states)
            np.testing.assert_allclose(rows[r], rc.defective_kernel_row(window, sigma_fig, law), atol=1e-14)
        np.testing.assert_allclose(row[:, 2], rows.sum(axis=1), atol=1e-15)
        many.push(paths[:, n])


def test_memory_row_holds_at_most_two_replica_arrays():
    # The row is summed one depth at a time; a (k, R, m) gather would hold k + 1 arrays.
    m, replicas = 200, 2000
    law = rc.RelocationLaw.explicit([0.2, 0.3, 0.5])
    mat = np.random.default_rng(4).uniform(size=(m, m))
    memory = _Memory(law, rc.HistoryWindow((3, 150, 199)), mat, replicas)
    tracemalloc.start()
    try:
        row = memory.row()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * replicas * m * 8
    np.testing.assert_allclose(row, np.tile(0.2 * mat[3] + 0.3 * mat[150] + 0.5 * mat[199], (replicas, 1)))


def test_far_ring_is_built_without_a_slot_table():
    # The ring of 210,001 states per chain is the only large array: slots are
    # computed per row, not tabulated per ring position.
    law = rc.RelocationLaw.dirac(10**6)
    table = np.eye(2)
    tracemalloc.start()
    try:
        memory = _Memory(law, rc.HistoryWindow.constant(0), table, replicas=20, pushes=210_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * memory._ring.nbytes


def test_weighted_chain_layout(sigma_fig, tmp_path):
    steps, burnin, thin = 2_050, 50, 7
    post = (steps - burnin) // N_CHAINS
    stats = rc.run_weighted_chains(
        sigma_fig, [rc.RelocationLaw.explicit([0.2, 0.3, 0.5])], np.ones(2),
        steps=steps, burnin=burnin, thin=thin, rng=rc.RngSpec(17),
    )[0]
    sampled = (post - 1) // thin + 1
    assert stats.theta_samples.shape == (sampled * N_CHAINS, 2)
    assert len(stats.sample_steps) == len(stats.c2_running) == sampled * N_CHAINS
    assert (np.diff(stats.sample_steps) >= 0).all()
    values, counts = np.unique(stats.sample_steps, return_counts=True)
    np.testing.assert_array_equal(values, burnin + 1 + thin * np.arange(sampled))
    assert (counts == N_CHAINS).all()
    assert stats.state_histogram.sum() == N_CHAINS * post
    assert stats.steps == steps
    assert stats.c2_se == stats.chain_means.std(ddof=1) / math.sqrt(N_CHAINS)

    with pytest.raises(ValueError):
        rc.run_weighted_chains(sigma_fig, [rc.RelocationLaw.dirac(0)], np.ones(2), steps=69, burnin=50)
    code = cli_main(
        ["weighted-run", "--tau", "dirac 0", "--steps", "69", "--burnin", "50", "--out", str(tmp_path / "w.csv")]
    )
    assert code == 2



# Reference samplers: the per-step loops the blocked weighted chain and the
# (m - 1)-column search replaced, kept verbatim as oracles for bit equality.


def _reference_search(rows, x):
    acc = np.zeros(len(x))
    k = np.zeros(len(x), dtype=np.intp)
    for col in rows.T:
        acc += col
        k += acc <= x
    return k


def _reference_weighted_chain(sigma, law, a, steps, burnin=None, thin=20, rng=rc.RngSpec(0), memory=_Memory):
    if burnin is None:
        # The memory horizon: 10/eps steps for a geometric law, 100 (d + 1) for a law on {0..d}.
        horizon = 100 * (law.support_max + 1) if law.bounded else math.ceil(10 / law.eps)
        burnin = min(horizon, steps // 2)
    av = tilt_vector(a, sigma.m)
    gen = rng.generator()
    m = sigma.m
    tilted = sigma.entries * av
    log_av = np.log(av)
    post = (steps - burnin) // N_CHAINS
    table = np.hstack([tilted, tilted.sum(axis=1, keepdims=True), np.eye(m)])
    memory = memory(law, rc.HistoryWindow.constant(0), table, N_CHAINS, pushes=burnin + post)

    theta_samples = np.empty(((post - 1) // thin + 1, N_CHAINS, m))
    c2_running = np.empty(len(theta_samples))
    chain_sums = np.zeros(N_CHAINS)
    state_histogram = np.zeros(m, dtype=np.int64)

    rows = memory.row()
    for k in range(-burnin, post):
        nxt = _reference_search(rows[:, :m], gen.random(N_CHAINS) * rows[:, m])
        np.minimum(nxt, m - 1, out=nxt)
        memory.push(nxt)
        rows = memory.row()
        if k >= 0:
            chain_sums += np.log(rows[:, m]) - log_av[nxt]
            state_histogram += np.bincount(nxt, minlength=m)
            if k % thin == 0:
                theta = rows[:, m + 1 :]
                theta_samples[k // thin] = theta / theta.sum(axis=1, keepdims=True)
                c2_running[k // thin] = chain_sums.sum() / (N_CHAINS * (k + 1))

    means = chain_sums / post
    return rc.WeightedChainStats(
        theta_samples=theta_samples.reshape(-1, m),
        sample_steps=np.repeat(burnin + 1 + thin * np.arange(len(c2_running)), N_CHAINS),
        c2_running=np.repeat(c2_running, N_CHAINS),
        c2_mean=float(means.mean()),
        c2_se=float(means.std(ddof=1) / math.sqrt(N_CHAINS)),
        chain_means=means,
        state_histogram=state_histogram,
        burnin=burnin,
        steps=steps,
    )


def _reference_killed_chain(sigma, law, init, n_max, replicas, rng, memory=_Memory):
    gen = rng.generator()
    m = sigma.m
    memory = memory(law, init, sigma.entries, replicas, pushes=n_max)
    lifetimes = np.full(replicas, np.inf)
    active = np.arange(replicas)
    alive_counts = [replicas]
    for n in range(1, n_max + 1):
        nxt = _reference_search(memory.row(), gen.random(active.size))
        alive = nxt < m
        lifetimes[active[~alive]] = n - 1
        active, nxt = active[alive], nxt[alive]
        memory.keep(np.flatnonzero(alive))
        memory.push(nxt)
        alive_counts.append(active.size)
    return lifetimes, np.array(alive_counts) / float(replicas)


class _ThetaMemory:
    """A geometric law's memory kept as theta: theta <- (1 - eps) theta + eps e_t, row = theta @ table."""

    def __init__(self, law, init, table, replicas, pushes=None):
        self.eps, self.table = law.eps, table
        self.theta = np.tile(rc.occupation_measure(init, law, len(table)), (replicas, 1))

    def row(self):
        return self.theta @ self.table

    def push(self, t):
        self.theta *= 1.0 - self.eps
        self.theta[np.arange(len(self.theta)), t] += self.eps

    def keep(self, index):
        self.theta = self.theta[index]


def _reference_fk(sigma, law, a, init, n, replicas, rng, memory=_Memory):
    gen = rng.generator()
    av = tilt_vector(a, sigma.m)
    m = sigma.m
    log_av = np.log(av)
    ones = np.ones(m)
    memory = memory(law, init, sigma.entries * av, replicas, pushes=n)
    log_w = np.zeros(replicas)
    for _ in range(n):
        rows = memory.row()
        ka = rows @ ones
        nxt = _reference_search(rows, gen.random(replicas) * ka)
        np.minimum(nxt, m - 1, out=nxt)
        log_w += np.log(ka) - log_av[nxt]
        memory.push(nxt)
    w = np.exp(log_w)
    value = float(w.mean())
    se = float(w.std(ddof=1) / math.sqrt(replicas)) if replicas > 1 else 0.0
    return rc.FkEstimate(value=value, se=se, n=n, replicas=replicas)


def _assert_same_bits(got, want):
    for field in dataclasses.fields(want):
        g, w = getattr(got, field.name), getattr(want, field.name)
        if isinstance(w, np.ndarray):
            assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes()), field.name
        elif isinstance(w, float):
            assert g.hex() == w.hex(), field.name
        else:
            assert g == w, field.name


SIGMA_3 = [[0.5, 0.2, 0.1], [0.1, 0.6, 0.2], [0.3, 0.1, 0.4]]
ORACLE_LAWS = {
    "geometric 0.3": rc.RelocationLaw.geometric(0.3),
    "geometric 0.01": rc.RelocationLaw.geometric(0.01),
    "dirac 0": rc.RelocationLaw.dirac(0),
    "explicit 0.2 0.3 0.5": rc.RelocationLaw.explicit([0.2, 0.3, 0.5]),
    "far atom": rc.RelocationLaw((0, 3, 10**6), (0.5, 0.2, 0.3)),
}


def _oracle_sigma(m):
    return rc.benchmark_matrix() if m == 2 else rc.validate_substochastic(np.array(SIGMA_3))


def _oracle_tilt(m, flat):
    return np.ones(m) if flat else np.array([1.0, 2.5, 0.4][:m])


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("flat", [True, False], ids=["flat", "tilted"])
@pytest.mark.parametrize("law", list(ORACLE_LAWS), ids=list(ORACLE_LAWS))
def test_weighted_chain_matches_per_step_loop_across_laws(law, flat, m):
    sigma, a = _oracle_sigma(m), _oracle_tilt(m, flat)
    law = ORACLE_LAWS[law]
    # Burn-in ends one step into the second block; three blocks fold statistics.
    kwargs = dict(steps=_BLOCK + 1 + N_CHAINS * 2 * _BLOCK, burnin=_BLOCK + 1, thin=7, rng=rc.RngSpec(41, m))
    (got,) = rc.run_weighted_chains(sigma, [law], a, **kwargs)
    _assert_same_bits(got, _reference_weighted_chain(sigma, law, a, **kwargs))


@pytest.mark.parametrize(
    "burnin, post, thin",
    [
        (0, 300, 1),
        (_BLOCK - 1, 300, 7),
        (_BLOCK, 300, 20),
        (_BLOCK + 1, 300, 7),
        (_BLOCK - 1, 5, 7),  # post < thin: one sample
        (_BLOCK, 2 * _BLOCK, 20),  # post a multiple of the block
        (0, 2 * _BLOCK, 1),  # whole blocks, burn-in none
        (3 * _BLOCK + 10, 2 * _BLOCK + 5, 20),  # several blocks of burn-in alone
        (None, 600, 20),  # the default burn-in, min(100 (d+1), steps // 2)
    ],
)
@pytest.mark.parametrize("law", ["geometric 0.3", "explicit 0.2 0.3 0.5"])
def test_weighted_chain_matches_per_step_loop_across_block_edges(law, burnin, post, thin):
    sigma, a = _oracle_sigma(2), _oracle_tilt(2, flat=False)
    # The default burn-in, at most steps // 2, leaves at least post steps per chain.
    steps = 2 * N_CHAINS * post if burnin is None else burnin + N_CHAINS * post + N_CHAINS - 1
    kwargs = dict(steps=steps, burnin=burnin, thin=thin, rng=rc.RngSpec(43))
    got = rc.run_weighted_chains(sigma, [ORACLE_LAWS[law]], a, **kwargs)[0]
    want = _reference_weighted_chain(sigma, ORACLE_LAWS[law], a, **kwargs)
    assert got.state_histogram.sum() == N_CHAINS * ((steps - got.burnin) // N_CHAINS)
    _assert_same_bits(got, want)


# Side by side, eps 0.3, 0.05 and 0.01 burn in 34, 200 and min(1000, steps // 2)
# steps by default. At 6,440 steps their chains take 354, 512 and 1,272 steps:
# the runs end in blocks 1, 2 and 4, the second exactly on a block edge.
SIDE_BY_SIDE = tuple(rc.RelocationLaw.geometric(eps) for eps in (0.3, 0.05, 0.01))


@pytest.mark.parametrize("burnin", [None, 300], ids=["default-burnin", "burnin-300"])
@pytest.mark.parametrize("thin", [1, 7, 20])
@pytest.mark.parametrize("flat", [True, False], ids=["flat", "tilted"])
@pytest.mark.parametrize("m", [2, 3])
def test_laws_side_by_side_match_their_lone_runs(m, flat, thin, burnin):
    sigma, a = _oracle_sigma(m), _oracle_tilt(m, flat)
    kwargs = dict(steps=6_440, burnin=burnin, thin=thin)
    runs = rc.run_weighted_chains(sigma, SIDE_BY_SIDE, a, rng=rc.RngSpec(59, 3), **kwargs)
    assert len(runs) == len(SIDE_BY_SIDE)
    if burnin is None:
        assert [run.burnin + run.state_histogram.sum() // N_CHAINS for run in runs] == [354, 2 * _BLOCK, 1_272]
    for k, (law, got) in enumerate(zip(SIDE_BY_SIDE, runs)):
        # Law k draws from stream 3 + k, as its lone run would.
        alone = rc.run_weighted_chains(sigma, [law], a, rng=rc.RngSpec(59, 3 + k), **kwargs)[0]
        _assert_same_bits(got, alone)
        _assert_same_bits(got, _reference_weighted_chain(sigma, law, a, rng=rc.RngSpec(59, 3 + k), **kwargs))


SIGMA_5 = [
    [0.3, 0.2, 0.1, 0.1, 0.1],
    [0.1, 0.4, 0.2, 0.1, 0.1],
    [0.2, 0.1, 0.3, 0.2, 0.1],
    [0.1, 0.1, 0.2, 0.4, 0.1],
    [0.2, 0.2, 0.1, 0.1, 0.3],
]


def test_five_state_laws_side_by_side_match_their_lone_runs():
    # Five states search four columns, so the search adds columns 2 and 3 in
    # place and every count starts from its law's gain-row offset. The laws
    # end in blocks 1, 2 and 4, as in test_laws_side_by_side_match_their_lone_runs.
    sigma, a = rc.validate_substochastic(np.array(SIGMA_5)), np.array([1.0, 2.5, 0.4, 1.7, 0.8])
    kwargs = dict(steps=6_440, thin=7)
    runs = rc.run_weighted_chains(sigma, SIDE_BY_SIDE, a, rng=rc.RngSpec(59, 3), **kwargs)
    assert [run.burnin + run.state_histogram.sum() // N_CHAINS for run in runs] == [354, 2 * _BLOCK, 1_272]
    for k, (law, got) in enumerate(zip(SIDE_BY_SIDE, runs)):
        assert (got.state_histogram > 0).all()
        alone = rc.run_weighted_chains(sigma, [law], a, rng=rc.RngSpec(59, 3 + k), **kwargs)[0]
        _assert_same_bits(got, alone)
        _assert_same_bits(got, _reference_weighted_chain(sigma, law, a, rng=rc.RngSpec(59, 3 + k), **kwargs))


@pytest.mark.parametrize("law", list(ORACLE_LAWS), ids=list(ORACLE_LAWS))
def test_one_law_batch_after_whole_blocks_of_burnin(law):
    sigma, a = _oracle_sigma(3), _oracle_tilt(3, flat=False)
    kwargs = dict(steps=3 * _BLOCK + N_CHAINS * _BLOCK, burnin=3 * _BLOCK, thin=7, rng=rc.RngSpec(61))
    (got,) = rc.run_weighted_chains(sigma, [ORACLE_LAWS[law]], a, **kwargs)
    _assert_same_bits(got, _reference_weighted_chain(sigma, ORACLE_LAWS[law], a, **kwargs))


@pytest.mark.filterwarnings("ignore::relochain.ProportionalToStochasticWarning")
@pytest.mark.parametrize("law", ["geometric 0.3", "explicit 0.5 0.5"])
def test_one_state_weighted_run(law):
    # One state: the draw searches zero columns, every step stays in state 0,
    # theta is exactly 1 and each step adds log(K a / a) = log(0.9 * 2 / 2).
    sigma, law = rc.validate_substochastic([[0.9]]), rc.parse_relocation_law(law)
    kwargs = dict(steps=_BLOCK + 1 + N_CHAINS * 2 * _BLOCK, burnin=_BLOCK + 1, thin=7, rng=rc.RngSpec(73))
    (got,) = rc.run_weighted_chains(sigma, [law], [2.0], **kwargs)
    _assert_same_bits(got, _reference_weighted_chain(sigma, law, [2.0], **kwargs))
    assert got.theta_samples.shape == (len(got.sample_steps), 1) and (got.theta_samples == 1.0).all()
    assert got.state_histogram.tolist() == [N_CHAINS * 2 * _BLOCK]
    np.testing.assert_allclose(got.chain_means, math.log(0.9), rtol=1e-12)


def test_side_by_side_needs_geometric_laws_and_a_step_budget(sigma_fig):
    ones, geometric = np.ones(2), rc.RelocationLaw.geometric(0.3)
    with pytest.raises(ValueError, match="a bounded law runs alone"):
        rc.run_weighted_chains(sigma_fig, [geometric, rc.RelocationLaw.dirac(0)], ones, steps=1_000)
    with pytest.raises(ValueError, match="a bounded law runs alone"):
        rc.run_weighted_chains(sigma_fig, [rc.RelocationLaw.explicit([0.5, 0.5])] * 2, ones, steps=1_000)
    with pytest.raises(ValueError, match="at least one"):
        rc.run_weighted_chains(sigma_fig, [], ones, steps=1_000)
    with pytest.raises(ValueError, match="steps - burnin >= 20"):
        rc.run_weighted_chains(sigma_fig, [geometric, geometric], ones, steps=69, burnin=50)


@pytest.mark.filterwarnings("ignore::relochain.ProportionalToStochasticWarning")
@pytest.mark.parametrize("entries", [[[0.5, 0.5], [0.3, 0.7]], [[0.5, 0.5], [0.3, 0.6999]]],
                         ids=["stochastic", "rare-deaths"])
@pytest.mark.parametrize("law", ["geometric 0.3", "explicit 0.2 0.3 0.5"])
def test_killed_chain_copies_no_state_on_steps_without_deaths(monkeypatch, entries, law):
    # A step where every replica survives once copied the whole memory, the
    # active indices and the draws. The memory is kept only on the steps with
    # a death, and every output keeps its bits.
    sigma, law = rc.validate_substochastic(np.array(entries)), ORACLE_LAWS[law]
    args = (sigma, law, rc.HistoryWindow((1, 0)), 20, 500, rc.RngSpec(67))
    lifetimes, p_hat = _reference_killed_chain(*args)
    kept = []
    keep = _Memory.keep
    monkeypatch.setattr(_Memory, "keep", lambda self, index: kept.append(1) or keep(self, index))
    got = rc.run_killed_chain(*args)
    assert len(kept) == int((np.diff(p_hat) < 0).sum())
    if entries[1][1] == 0.7:
        assert kept == [] and p_hat[20] == 1.0
    else:
        assert 0 < len(kept) < 20
    assert got.lifetimes.tobytes() == lifetimes.tobytes()
    assert got.curve.p_hat.tobytes() == p_hat.tobytes()


@pytest.mark.filterwarnings("ignore::relochain.ProportionalToStochasticWarning")
@pytest.mark.parametrize("entries", [[[0.5, 0.5], [0.3, 0.7]], [[0.5, 0.5], [0.3, 0.6999]], None],
                         ids=["stochastic", "rare-deaths", "benchmark"])
@pytest.mark.parametrize("law", ["geometric 0.3", "explicit 0.2 0.3 0.5"])
def test_killed_chain_curve_counts_the_lifetimes(entries, law):
    # The two outputs of one run tell one story: p_hat[k] is the fraction of
    # replicas that completed at least k transitions, with or without deaths.
    sigma = rc.benchmark_matrix() if entries is None else rc.validate_substochastic(np.array(entries))
    res = rc.run_killed_chain(sigma, ORACLE_LAWS[law], rc.HistoryWindow((1, 0)), 20, 5_000, rc.RngSpec(71))
    for k in range(21):
        assert res.curve.p_hat[k] == np.mean(res.lifetimes >= k)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("flat", [True, False], ids=["flat", "tilted"])
@pytest.mark.parametrize("law", list(ORACLE_LAWS), ids=list(ORACLE_LAWS))
def test_fk_matches_per_step_loop(law, flat, m):
    sigma, a = _oracle_sigma(m), _oracle_tilt(m, flat)
    init = rc.HistoryWindow((1, 0))
    args = (sigma, ORACLE_LAWS[law], a, init, 25, 300, rc.RngSpec(47, m))
    _assert_same_bits(rc.fk_survival_estimate(*args), _reference_fk(*args))


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("flat", [True, False], ids=["flat", "tilted"])
@pytest.mark.parametrize("law", list(ORACLE_LAWS), ids=list(ORACLE_LAWS))
def test_fk_matches_per_step_loop_across_part_edges(law, flat, m):
    # Three memories of _PART, _PART and 7 replicas read their own slices of
    # each step's one draw; the oracle runs all replicas through one memory.
    sigma, a = _oracle_sigma(m), _oracle_tilt(m, flat)
    args = (sigma, ORACLE_LAWS[law], a, rc.HistoryWindow((1, 0)), 4, 2 * _PART + 7, rc.RngSpec(43, m))
    _assert_same_bits(rc.fk_survival_estimate(*args), _reference_fk(*args))


@pytest.mark.parametrize("law", list(ORACLE_LAWS), ids=list(ORACLE_LAWS))
def test_killed_chain_matches_per_step_loop_with_deaths_on_every_step(law):
    # The benchmark matrix kills on every step, so each step compacts the
    # active list, the draws and the memory by one index list; the oracle
    # compacts the first two by boolean masks.
    args = (rc.benchmark_matrix(), ORACLE_LAWS[law], rc.HistoryWindow((1, 0)), 12, 40_000, rc.RngSpec(61))
    lifetimes, p_hat = _reference_killed_chain(*args)
    got = rc.run_killed_chain(*args)
    assert (np.diff(p_hat) < 0).all()
    assert got.lifetimes.tobytes() == lifetimes.tobytes()
    assert got.curve.p_hat.tobytes() == p_hat.tobytes()


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("law", ["geometric 0.3", "geometric 0.01"])
def test_affine_row_matches_theta_memory(law, m):
    # Oracle: theta kept by its own recursion, the row rebuilt as theta @ table
    # at every step. Rounding differs, so paths, state counts and theta samples
    # must agree bit for bit and the sums of logs of K a to 1e-12.
    sigma, a, law = _oracle_sigma(m), _oracle_tilt(m, flat=False), ORACLE_LAWS[law]
    init = rc.HistoryWindow((1, 0))
    args = (sigma, law, init, 20, 5_000, rc.RngSpec(53, m))
    want, _ = _reference_killed_chain(*args, memory=_ThetaMemory)
    assert rc.run_killed_chain(*args).lifetimes.tobytes() == want.tobytes()

    kwargs = dict(steps=_BLOCK + 1 + N_CHAINS * 2 * _BLOCK, burnin=_BLOCK + 1, thin=7, rng=rc.RngSpec(41, m))
    got = rc.run_weighted_chains(sigma, [law], a, **kwargs)[0]
    want = _reference_weighted_chain(sigma, law, a, memory=_ThetaMemory, **kwargs)
    assert got.state_histogram.tobytes() == want.state_histogram.tobytes()
    assert got.theta_samples.tobytes() == want.theta_samples.tobytes()
    assert got.c2_mean == pytest.approx(want.c2_mean, rel=1e-12, abs=0)
    np.testing.assert_allclose(got.c2_running, want.c2_running, rtol=1e-12, atol=0)

    args = (sigma, law, a, init, 25, 300, rc.RngSpec(47, m))
    want = _reference_fk(*args, memory=_ThetaMemory)
    assert rc.fk_survival_estimate(*args).value == pytest.approx(want.value, rel=1e-12, abs=0)


def test_affine_row_does_not_drift():
    # Each push rounds the row, and the factor 1 - eps damps what it rounded
    # before: after 200,000 pushes at eps = 1e-3 the row is still theta @ table.
    law = rc.RelocationLaw.geometric(1e-3)
    table = np.array(SIGMA_3) * _oracle_tilt(3, flat=False)
    init = rc.HistoryWindow((1, 0))
    path = np.random.default_rng(5).integers(0, 3, size=(200_000, 4))
    affine, theta = _Memory(law, init, table, replicas=4), _ThetaMemory(law, init, table, replicas=4)
    for t in path:
        affine.push(t)
        theta.push(t)
    np.testing.assert_allclose(affine.row(), theta.row(), rtol=1e-12, atol=0)


def test_geometric_push_holds_at_most_two_replica_arrays():
    # The row is the memory's state and a push adds one gathered (R, m) term;
    # no theta and no second row are kept.
    m, replicas, eps = 200, 2000, 0.1
    mat = np.random.default_rng(4).uniform(size=(m, m))
    tracemalloc.start()
    try:
        memory = _Memory(rc.RelocationLaw.geometric(eps), rc.HistoryWindow((3, 150, 199)), mat, replicas)
        memory.push(np.full(replicas, 7))
        row = memory.row()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * replicas * m * 8
    theta0 = np.zeros(m)
    theta0[[3, 150, 199]] = eps, eps * (1 - eps), (1 - eps) ** 2
    np.testing.assert_allclose(row, np.tile((1 - eps) * theta0 @ mat + eps * mat[7], (replicas, 1)), rtol=1e-14)
    assert not row.flags.writeable


MEMORY_KINDS = {
    "geometric": ((rc.RelocationLaw.geometric(0.3),), 3),
    "side by side": (SIDE_BY_SIDE, 3),
    "ring": ((rc.RelocationLaw.explicit([0.2, 0.3, 0.5]),), 3),
    "far atom": ((ORACLE_LAWS["far atom"],), 3),
    "one state, geometric": ((rc.RelocationLaw.geometric(0.3),), 1),
    "one state, ring": ((rc.RelocationLaw.explicit([0.5, 0.5]),), 1),
}


@pytest.mark.parametrize("kind", list(MEMORY_KINDS), ids=list(MEMORY_KINDS))
def test_push_into_a_buffer_keeps_the_row_bits(kind):
    # The weighted chain pushes into its block buffers, two rows taking turns
    # as it does; the memory pushed by default gives its row the same bits.
    laws, m = MEMORY_KINDS[kind]
    table = np.array(SIGMA_3)[:m, :m] * _oracle_tilt(m, flat=False)
    table = np.hstack([table, table.sum(axis=1, keepdims=True), np.eye(m)])
    init, replicas, pushes = rc.HistoryWindow((1, 0) if m > 1 else (0,)), 4, 12
    law = laws if len(laws) > 1 else laws[0]
    plain, into = (_Memory(law, init, table, replicas, pushes=pushes) for _ in range(2))
    offsets = np.repeat(np.arange(0, m * len(laws), m), replicas)
    gain_rows = np.random.default_rng(7).integers(0, m, size=(pushes, len(offsets))) + offsets
    buffers = np.full((2, len(offsets), table.shape[1]), np.nan)
    for n, t in enumerate(gain_rows):
        plain.push(t)
        into.push(t, out=buffers[n % 2])
        want = plain.row()
        assert buffers[n % 2].tobytes() == want.tobytes()
        assert into.row().tobytes() == want.tobytes()
        if not laws[0].bounded:
            assert not want.flags.writeable and not into.row().flags.writeable
    assert np.isfinite(buffers).all()


def _rows_and_targets(draw):
    replicas = draw(st.integers(1, 6))
    m = draw(st.integers(1, 5))
    zeros = draw(st.integers(0, m))  # trailing zero columns
    entry = st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.1, 0.2, 0.3, 1e-300])
    rows = np.array(draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=replicas, max_size=replicas)))
    rows[:, m - zeros :] = 0.0
    partial = np.cumsum(rows, axis=1)
    x = np.empty(replicas)
    for r in range(replicas):
        if draw(st.booleans()):
            x[r] = partial[r, draw(st.integers(0, m - 1))]  # exactly a running sum
        else:
            x[r] = draw(st.floats(0.0, 1.0, exclude_max=True)) * partial[r, -1]
    return rows, x


@settings(max_examples=400, deadline=None)
@given(st.composite(_rows_and_targets)())
@example((np.array([[0.3, 0.0, 0.0], [0.3, 0.2, 0.0]]), np.array([0.3, 0.5])))
@example((np.array([[0.0, 0.0], [0.7, 0.1]]), np.array([0.0, 0.79])))
@example((np.array([[0.4]]), np.array([0.2])))
def test_search_on_m_minus_one_columns_is_the_clamped_full_search(data):
    rows, x = data
    rows.setflags(write=False)  # the search reads a sampler's row and never writes it
    m = rows.shape[1]
    np.testing.assert_array_equal(_search(rows[:, :-1], x), np.minimum(_reference_search(rows, x), m - 1))
    np.testing.assert_array_equal(_search(rows, x), _reference_search(rows, x))


def test_deep_law_needs_no_burnin(sigma_fig):
    # dirac 10**4 never reads a state pushed in a 5,000-step run, so every row is
    # sigma[0] (sum 0.8) from the first step on and the default burns in nothing.
    stats = rc.run_weighted_chains(sigma_fig, [rc.RelocationLaw.dirac(10**4)], np.ones(2), steps=5_000)[0]
    assert stats.burnin == 0
    assert stats.state_histogram.sum() == 5_000
    assert np.abs(stats.chain_means - math.log(0.8)).max() <= 1e-12


def test_deep_law_burnin_rule_reads_the_pushed_depth(sigma_fig):
    # With the capped default burn-in of 2,500 steps each chain pushes
    # 2,500 + 2,500 // 20 = 2,625 states, so an atom at depth 2,625 is never
    # read and needs no burn-in, while one at 2,624 reads the last push.
    far = rc.run_weighted_chains(sigma_fig, [rc.RelocationLaw.dirac(2_625)], np.ones(2), steps=5_000)[0]
    assert far.burnin == 0
    assert np.abs(far.chain_means - math.log(0.8)).max() <= 1e-12
    near = rc.run_weighted_chains(sigma_fig, [rc.RelocationLaw.dirac(2_624)], np.ones(2), steps=5_000)[0]
    assert near.burnin == 2_500


@pytest.mark.parametrize("a", [[1.0], [1.0, 1.0, 1.0]], ids=["short", "long"])
def test_tilt_of_the_wrong_length_is_a_value_error(sigma_fig, a):
    # A length-1 tilt once failed with IndexError, a length-3 one with a broadcast error.
    init = rc.HistoryWindow((0,))
    with pytest.raises(ValueError, match="length"):
        rc.fk_survival_estimate(sigma_fig, rc.RelocationLaw.geometric(0.3), a, init, 3, 100, rc.RngSpec(1))
    with pytest.raises(ValueError, match="length"):
        rc.run_weighted_chains(sigma_fig, [rc.RelocationLaw.geometric(0.3)], a, steps=1000)


def test_negative_step_counts_are_rejected(sigma_fig):
    # n = -2 once returned value 1.0, n_max = -1 an empty curve.
    law, init = rc.RelocationLaw.geometric(0.3), rc.HistoryWindow((0,))
    with pytest.raises(ValueError, match="n >= 0"):
        rc.fk_survival_estimate(sigma_fig, law, np.ones(2), init, -2, 100, rc.RngSpec(1))
    with pytest.raises(ValueError, match="n_max >= 0"):
        rc.run_killed_chain(sigma_fig, law, init, -1, 100, rc.RngSpec(1))
    assert rc.fk_survival_estimate(sigma_fig, law, np.ones(2), init, 0, 100, rc.RngSpec(1)).value == 1.0
    assert rc.run_killed_chain(sigma_fig, law, init, 0, 100, rc.RngSpec(1)).curve.p_hat.tolist() == [1.0]
