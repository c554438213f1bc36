import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import relochain as rc
from relochain.errors import StateCapExceededError
from relochain.config import FIG2_EPSILONS
from relochain.lifted import _lift_row_sums
from relochain.matrices import DENSE_MAX_STATES, _certified_perron

from conftest import R_CLOSED, largest_eigenvalue, window_matrix

# Frozen before the build: power iteration on the explicit 4x4 window chain
# for the two-point law (0.5, 0.5), cross-checked against a dense eigensolve.
R_BOLD_HALF_HALF = 0.7893433926663943
# Slack for the eigvals oracle's own rounding when it is compared with a
# Collatz-Wielandt bound that may sit within a few ulps of the radius.
ORACLE_RTOL = 1e-14


def two_point_law():
    return rc.RelocationLaw.explicit([0.5, 0.5])


def test_build_dirac0_is_sigma(sigma_fig):
    chain = rc.build_lifted(sigma_fig, rc.RelocationLaw.dirac(0))
    assert chain.d == 0 and chain.n_states == 2
    np.testing.assert_array_equal(chain.weights, sigma_fig.entries)


def test_build_two_point_rows(sigma_fig):
    chain = rc.build_lifted(sigma_fig, two_point_law())
    assert chain.n_states == 4
    # window (s0=0, s1=1) has index 1; weights 0.5 sigma[0,t] + 0.5 sigma[1,t]
    np.testing.assert_allclose(chain.weights[1], [0.45, 0.33], atol=1e-15)
    # successor under t: t*2 + 0
    assert chain.window_index(rc.HistoryWindow((0, 0))) == 0
    assert chain.window_index(rc.HistoryWindow((1, 0))) == 2
    assert (chain.weights.sum(axis=1) <= 1 + 1e-12).all()


def test_upper_mode_with_zero_tail_is_exact(sigma_fig):
    trunc = rc.truncate_law(rc.RelocationLaw.dirac(1), 1e-9, d_max=5)
    assert trunc.tail_mass == 0.0
    exact = rc.build_lifted(sigma_fig, trunc, mode="exact")
    upper = rc.build_lifted(sigma_fig, trunc, mode="upper")
    np.testing.assert_array_equal(exact.weights, upper.weights)


def test_state_cap(sigma_fig):
    # 2**22 windows, one doubling past the cap; raised before any allocation.
    with pytest.raises(StateCapExceededError) as err:
        rc.build_lifted(sigma_fig, rc.RelocationLaw.dirac(21))
    assert err.value.best_d == 20


def test_state_cap_far_point_mass(sigma_fig):
    # m**(d+1) would have far more digits than an int may print; the message names m and d.
    with pytest.raises(StateCapExceededError) as err:
        rc.build_lifted(sigma_fig, rc.RelocationLaw.dirac(10**9))
    assert err.value.best_d == 20
    assert "m = 2, d = 1000000000" in str(err.value)


def test_build_one_state_is_constant_time():
    # One state has one window at every depth; its weight is sum_i tau(i) sigma[0, 0].
    start = time.perf_counter()
    chain = rc.build_lifted(np.array([[0.5]]), rc.RelocationLaw.dirac(10**6))
    assert time.perf_counter() - start < 0.1
    np.testing.assert_array_equal(chain.weights, [[0.5]])
    assert rc.survival_exact(chain, rc.HistoryWindow.constant(0), 3) == 0.125



def test_window_index_matches_digit_fold():
    # Oracle: pad the window to d + 1 digits with its oldest entry and fold them all.
    rng = np.random.default_rng(7)
    for m in (1, 2, 3):
        for d in range(7):
            chain = rc.build_lifted(np.full((m, m), 0.5 / m), rc.RelocationLaw.dirac(d))
            for _ in range(30):
                window = rc.HistoryWindow(tuple(rng.integers(0, m, size=rng.integers(1, d + 4)).tolist()))
                idx = 0
                for s in window.truncated(d + 1):
                    idx = idx * m + s
                assert chain.window_index(window) == idx, (m, d, window)
    with pytest.raises(ValueError, match="outside the state space"):
        chain.window_index(rc.HistoryWindow((3,)))


def test_window_index_is_constant_in_depth():
    # One state at depth 10**6: the index is 0 without padding the window to 10**6 + 1 digits.
    chain = rc.build_lifted(np.array([[0.5]]), rc.RelocationLaw.dirac(10**6))
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        assert rc.survival_exact(chain, rc.HistoryWindow((0,)), 3) == 0.125
        best = min(best, time.perf_counter() - start)
    assert best < 0.02


@pytest.mark.parametrize("d", [0, 1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_dense_scatter_equals_sparse_operator(m, d):
    rng = np.random.default_rng(10 * m + d)
    sigma = rng.uniform(0.0, 1.0 / m, size=(m, m))
    chain = rc.build_lifted(sigma, rc.RelocationLaw.explicit(rng.dirichlet(np.ones(d + 1))))
    np.testing.assert_array_equal(chain.dense(), chain.operator.toarray())


def test_small_window_solves_never_build_the_sparse_operator(sigma_fig, monkeypatch):
    chain = rc.build_lifted(sigma_fig, two_point_law())
    res = rc.lifted_spectral_radius(chain)
    assert res.iterations == 0 and "operator" not in chain.__dict__
    # The rate table's window chains have 4 windows each.
    built = []

    def recording_build(*args, **kwargs):
        built.append(rc.build_lifted(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr("relochain.bounds.build_lifted", recording_build)
    rc.rate_function_lifted(sigma_fig, two_point_law(), grid_points=5)
    assert built and not any("operator" in c.__dict__ for c in built)


@pytest.mark.parametrize(
    "raw, error",
    [
        ([[-0.5, 0.2], [0.1, 0.3]], rc.NegativeEntryError),
        ([[math.nan, 0.5], [0.5, 0.2]], rc.NonFiniteEntryError),
        ([[0.5, 0.2, 0.1], [0.1, 0.3, 0.2]], ValueError),
    ],
    ids=["negative", "nan", "not-square"],
)
def test_raw_matrices_pass_the_entry_check(raw, error):
    # Raw arrays go through the same entry check as perron_triple. A NaN is
    # not negative, and once passed it into NaN window weights; tilt returned
    # it, and structure_flags called a negative 2x2 irreducible and aperiodic.
    with pytest.raises(error):
        rc.build_lifted(raw, rc.RelocationLaw.dirac(0))
    with pytest.raises(error):
        rc.defective_kernel_row(rc.HistoryWindow((0,)), raw, rc.RelocationLaw.dirac(0))
    with pytest.raises(error):
        rc.tilt(raw, [1.0, 1.0])
    with pytest.raises(error):
        rc.structure_flags(raw)
    with pytest.raises(error):
        rc.phi_map([0.5, 0.5], raw)


@pytest.mark.parametrize(
    "raw, message",
    [
        ([[math.nan, 0.5], [0.5, 0.2]], "entry (0, 0) is not finite: nan"),
        ([[0.5, 0.2], [-math.inf, 0.2]], "entry (1, 0) is not finite: -inf"),
        ([[0.5, 0.2], [0.1, -0.5]], "entry (1, 1) is negative"),
    ],
    ids=["nan", "-inf", "negative"],
)
def test_the_entry_check_names_the_entry_as_validation_does(raw, message):
    # The positioned message of validate_substochastic, now for raw arrays too.
    for check in (rc.validate_substochastic, rc.spectral_radius, rc.structure_flags):
        with pytest.raises(ValueError) as err:
            check(raw)
        assert str(err.value).startswith(message)


def test_radius_dirac_matches_benchmark(sigma_fig):
    for d in range(4):
        chain = rc.build_lifted(sigma_fig, rc.RelocationLaw.dirac(d))
        res = rc.lifted_spectral_radius(chain)
        assert abs(res.radius - R_CLOSED) <= 1e-10
        # So max |A v - radius v| <= upper - lower <= 1e-12 * upper for the sup-normalized v.
        assert res.upper - res.lower <= 1e-12 * res.upper


def test_radius_two_point_oracle(sigma_fig):
    res = rc.lifted_spectral_radius(rc.build_lifted(sigma_fig, two_point_law()))
    assert res.radius == pytest.approx(R_BOLD_HALF_HALF, abs=1e-12)
    assert res.radius - R_CLOSED > 1e-4


def test_survival_examples(sigma_fig):
    chain0 = rc.build_lifted(sigma_fig, rc.RelocationLaw.dirac(0))
    w = rc.HistoryWindow((0, 0))
    assert rc.survival_exact(chain0, w, 0) == 1.0
    assert rc.survival_exact(chain0, w, 1) == pytest.approx(0.80, abs=1e-15)
    assert rc.survival_exact(chain0, w, 2) == pytest.approx(0.6368, abs=1e-15)


@pytest.mark.parametrize(
    "law",
    [[1.5, -0.5], [math.nan, 1.0], [0.3, 0.3], [], rc.RelocationLaw.geometric(0.5)],
    ids=["negative", "nan", "deficient", "empty", "geometric"],
)
def test_build_lifted_takes_a_bounded_law_or_a_truncation_only(sigma_fig, law):
    # Raw masses used to pass unchecked: [1.5, -0.5] got a Collatz-Wielandt
    # "certified" radius of an operator with negative entries.
    with pytest.raises(ValueError, match="bounded RelocationLaw or a truncate_law result"):
        rc.build_lifted(sigma_fig, law)


def test_lift_mode_and_survival_steps_are_checked(sigma_fig):
    with pytest.raises(ValueError, match="unknown lift mode 'middle'"):
        rc.build_lifted(sigma_fig, two_point_law(), mode="middle")
    with pytest.raises(ValueError, match="n must be nonnegative"):
        rc.survival_exact(rc.build_lifted(sigma_fig, two_point_law()), rc.HistoryWindow((0,)), -1)


def test_survival_rate_converges_to_radius(sigma_fig):
    chain = rc.build_lifted(sigma_fig, two_point_law())
    p = rc.survival_exact(chain, rc.HistoryWindow((0, 0)), 2000)
    assert p ** (1 / 2000) == pytest.approx(R_BOLD_HALF_HALF, abs=1e-3)


def test_structure_check(sigma_fig):
    chain = rc.build_lifted(sigma_fig, two_point_law())
    assert rc.lifted_structure_check(chain) == (True, True)
    chain0 = rc.build_lifted(sigma_fig, rc.RelocationLaw.dirac(0))
    assert rc.lifted_structure_check(chain0) == (True, True)
    # periodic two-cycle support with an even-index law: the lift is reducible
    two_cycle = np.array([[0.0, 0.9], [0.9, 0.0]])
    even_law = rc.RelocationLaw.explicit([0.5, 0.0, 0.5])
    lifted = rc.build_lifted(two_cycle, even_law)
    irreducible, _ = rc.lifted_structure_check(lifted)
    assert not irreducible


def support_power(support, k):
    """Support of the k-th power of a 0/1 matrix, by repeated squaring."""
    result = np.eye(support.shape[0], dtype=int)
    base = support.astype(int)
    while k:
        if k & 1:
            result = np.minimum(result @ base, 1)
        base = np.minimum(base @ base, 1)
        k >>= 1
    return result


def dense_structure(mat):
    """(irreducible, irreducible and aperiodic) of the support of a dense n x n matrix.

    Irreducible iff (I + A)^(n-1) > 0; primitive iff A^((n-1)^2 + 1) > 0
    (Wielandt's bound).
    """
    support = mat > 0
    n = support.shape[0]
    irreducible = support_power(support | np.eye(n, dtype=bool), n - 1).all()
    return bool(irreducible), bool(support_power(support, (n - 1) ** 2 + 1).all())


@st.composite
def supports_and_laws(draw):
    """A 0/1 support on m <= 6 states and a law support on {0..d} with m**(d+1) <= 64."""
    m = draw(st.integers(min_value=1, max_value=6))
    bits = draw(st.lists(st.booleans(), min_size=m * m, max_size=m * m))
    d = draw(st.integers(min_value=0, max_value=max(d for d in range(6) if m ** (d + 1) <= 64)))
    law = draw(st.lists(st.booleans(), min_size=d + 1, max_size=d + 1).filter(any))
    return np.array(bits).reshape(m, m), law


@settings(max_examples=300, deadline=None)
@given(case=supports_and_laws())
@example(case=(np.array([[False]]), [True]))
# periodic two-cycle with an even-index law: the lift splits into two classes
@example(case=(np.array([[False, True], [True, False]]), [True, False, True]))
def test_structure_checks_match_dense_oracle(case):
    support, atoms = case
    m = support.shape[0]
    sigma = support * (0.9 / m)
    masses = np.array(atoms, dtype=float) / sum(atoms)
    assert rc.structure_flags(sigma) == (*dense_structure(sigma), bool(support.all()))
    law = rc.RelocationLaw.explicit(masses)
    chain = rc.build_lifted(sigma, law)
    # explicit() drops trailing zero depths, so the lift keeps only the digits up to the last atom.
    assert rc.lifted_structure_check(chain) == dense_structure(window_matrix(sigma, masses[: law.support_max + 1]))


def test_bracket_exact_for_bounded(sigma_fig):
    br = rc.bracket_radius(sigma_fig, rc.RelocationLaw.dirac(2))
    assert br.exact and br.tail_mass == 0.0
    assert br.lo <= br.hi and br.hi - br.lo <= 1e-12 * br.hi
    assert (br.lo_lift, br.hi_lift) == (br.lo, br.hi)
    assert abs(br.lo - R_CLOSED) <= 1e-10
    br2 = rc.bracket_radius(sigma_fig, two_point_law())
    assert br2.lo == pytest.approx(R_BOLD_HALF_HALF, abs=1e-12)


@pytest.mark.parametrize("d", [5, 10**9])
def test_bracket_is_envelope_when_all_mass_lies_past_the_cap(sigma_fig, d):
    # d_max = 2 keeps no mass of a point mass at d: the conservative lift is zero.
    br = rc.bracket_radius(sigma_fig, rc.RelocationLaw.dirac(d), d_max=2)
    assert not br.exact and br.cap_reached and br.d_used == 2
    assert br.tail_mass == 1.0 and br.lo_lift == 0.0
    assert br.lo <= R_CLOSED <= br.hi == sigma_fig.row_sums().max()
    assert br.lo == pytest.approx(R_CLOSED, rel=1e-12)
    spread = rc.bracket_radius(sigma_fig, rc.RelocationLaw.explicit([0.5, 0, 0, 0.5]), d_max=2)
    assert (br.lo, br.hi) == (spread.lo, spread.hi)


def test_bracket_geometric(sigma_fig):
    br = rc.bracket_radius(sigma_fig, rc.RelocationLaw.geometric(0.25), delta_tail=1e-6, d_max=14)
    assert br.lo <= br.hi
    assert br.cap_reached  # 1e-6 needs d = 48
    assert br.d_used == 14
    tail = br.tail_mass
    assert br.hi - br.lo <= 2 * tail / (1 - tail)
    assert br.lo >= R_CLOSED - 1e-12
    assert br.hi <= 0.80 + 1e-12


def test_bracket_lower_lift_monotone_in_depth(sigma_fig):
    # The bracket's lo_lift may be a stopped bound, so the property is read
    # off full solves of the conservative lift: each certified interval lies
    # strictly above the one of the shallower truncation.
    law = rc.RelocationLaw.geometric(0.25)
    prev = 0.0
    for d in (4, 6, 8, 10):
        trunc = rc.truncate_law(law, 1e-300, d_max=d)
        res = rc.lifted_spectral_radius(rc.build_lifted(sigma_fig, trunc, mode="lower"))
        assert res.lower > prev
        prev = res.upper
        br = rc.bracket_radius(sigma_fig, law, delta_tail=1e-300, d_max=d)
        assert br.lo >= R_CLOSED - 1e-12


def test_tilted_lift_dominates_tilted_benchmark(sigma_fig):
    rng = np.random.default_rng(29)
    law = two_point_law()
    for _ in range(10):
        a = rng.uniform(0.2, 3.0, size=2)
        tilted = rc.tilt(sigma_fig, a)
        r_a = rc.perron_triple(tilted).r
        chain = rc.build_lifted(tilted, law)
        r_bold_a = rc.lifted_spectral_radius(chain).radius
        assert r_bold_a >= r_a - 1e-12


def test_nondirac_strictly_above_benchmark(sigma_fig):
    for masses in ([0.5, 0.5], [0.2, 0.3, 0.5], [0.9, 0.1]):
        law = rc.RelocationLaw.explicit(masses)
        res = rc.lifted_spectral_radius(rc.build_lifted(sigma_fig, law))
        assert res.radius > R_CLOSED


def test_exact_radius_dominates_own_truncations(sigma_fig):
    law = rc.RelocationLaw.explicit([0.2, 0.3, 0.5])
    exact = rc.lifted_spectral_radius(rc.build_lifted(sigma_fig, law)).radius
    for d in (0, 1):
        trunc = rc.truncate_law(law, 1e-300, d_max=d)
        lower = rc.lifted_spectral_radius(rc.build_lifted(sigma_fig, trunc, mode="lower")).radius
        assert exact >= lower - 1e-12


@pytest.mark.parametrize(
    "eps, d_max, ends",
    [
        pytest.param(0.25, 3, "envelope", id="3"),
        pytest.param(0.25, 7, "envelope", id="7"),
        pytest.param(0.75, 7, "lifts", id="7-lifts-carry"),
    ],
)
def test_truncated_bracket_contains_enumerated_radii(sigma_fig, eps, d_max, ends):
    law = rc.RelocationLaw.geometric(eps)
    br = rc.bracket_radius(sigma_fig, law, delta_tail=1e-6, d_max=d_max)
    assert not br.exact and br.d_used == d_max
    # d_max 3 gives 16 windows, whose lifts are both decided from their row
    # sums; d_max 7 gives 256, solved by power sweeps where they are built.
    trunc = rc.truncate_law(law, 1e-6, d_max)
    sigma = sigma_fig.entries
    lam_lower = largest_eigenvalue(window_matrix(sigma, trunc.masses))
    lam_upper = largest_eigenvalue(
        window_matrix(sigma, trunc.masses, extra=trunc.tail_mass * sigma.max(axis=0))
    )
    # Stopped early or not, the lift fields are valid Collatz-Wielandt bounds.
    assert br.lo_lift <= lam_lower * (1 + ORACLE_RTOL)
    assert lam_upper <= br.hi_lift * (1 + ORACLE_RTOL)
    if ends == "envelope":
        # Both lifts were proved to lose to [r_bench, max row sum], unbuilt or
        # by a power solve stopped early; the oracle radii lie on that side.
        assert br.lo_lift < br.lo and br.hi < br.hi_lift
        assert br.hi == sigma.sum(axis=1).max()
        assert lam_lower <= br.lo * (1 + ORACLE_RTOL)
        assert lam_upper >= br.hi * (1 - ORACLE_RTOL)
    else:
        # A power solve whose lift carries its end of the bracket runs to its certificate.
        assert (br.lo, br.hi) == (br.lo_lift, br.hi_lift)
        assert lam_lower - br.lo_lift <= 2e-12 * lam_lower
        assert br.hi_lift - lam_upper <= 2e-12 * lam_upper


def _envelope(sigma):
    """(r_bench, max row sum): the analytic ends a truncated bracket folds in."""
    entries = sigma.entries
    return _certified_perron(entries.dot, sigma.m, lambda: entries).lower, float(sigma.row_sums().max())


def assert_envelope_stop_is_exact(sigma, law, d_max):
    """(lo, hi) equal those of full solves of both lifts, bit for bit.

    Where the envelope carries an end, the lift's radius lies on the
    envelope's side: by np.linalg.eigvals of the enumerated window matrix up
    to 256 windows, by the full certified solve beyond (eigvals takes about
    1.6 s at 1024 windows). Where the lift carries its end, the bracket's
    lift field is the full solve's.
    """
    br = rc.bracket_radius(sigma, law, delta_tail=1e-6, d_max=d_max)
    assert not br.exact
    r_bench, row_max = _envelope(sigma)
    trunc = rc.truncate_law(law, 1e-6, d_max)
    entries = sigma.entries
    extra = {"lower": None, "upper": trunc.tail_mass * entries.max(axis=0)}
    full = {mode: rc.lifted_spectral_radius(rc.build_lifted(sigma, trunc, mode=mode)) for mode in extra}
    lo = max(full["lower"].lower, r_bench)
    assert (br.lo, br.hi) == (lo, max(min(full["upper"].upper, row_max), lo))

    def radius(mode):
        if sigma.m ** (trunc.d + 1) <= 256:
            return largest_eigenvalue(window_matrix(entries, trunc.masses, extra=extra[mode]))
        return full[mode].upper if mode == "lower" else full[mode].lower

    if br.lo_lift < r_bench:
        assert radius("lower") <= r_bench * (1 + ORACLE_RTOL)
    else:
        assert br.lo_lift == full["lower"].lower
    if br.hi_lift > row_max:
        assert radius("upper") >= row_max * (1 - ORACLE_RTOL)
    else:
        assert br.hi_lift == full["upper"].upper
    return br


@pytest.mark.parametrize("d_max", [3, 7, 9])
def test_bracket_envelope_stop_matches_full_lift_solves(sigma_fig, d_max):
    # 16 windows take the dense eigensolve; 256 and 1024 the power sweeps.
    for eps in FIG2_EPSILONS:
        br = assert_envelope_stop_is_exact(sigma_fig, rc.RelocationLaw.geometric(eps), d_max)
        # At these depths the envelope carries the lower end for every eps of the grid.
        assert br.lo_lift < br.lo


def random_validated(rng, m):
    """Uniform entries on [0.05, 1], rows scaled to sums uniform on [0.3, 0.98]."""
    raw = rng.uniform(0.05, 1.0, size=(m, m))
    return rc.validate_substochastic(raw / raw.sum(axis=1, keepdims=True) * rng.uniform(0.3, 0.98, size=(m, 1)))


@pytest.mark.parametrize("m, d_max", [(2, 3), (2, 7), (3, 2), (3, 4)])
def test_bracket_envelope_stop_random_matrices(m, d_max):
    rng = np.random.default_rng(97 + 10 * m + d_max)
    for _ in range(3):
        sigma = random_validated(rng, m)
        for eps in (0.9, 0.5, 0.05):
            assert_envelope_stop_is_exact(sigma, rc.RelocationLaw.geometric(eps), d_max)


def assert_certified(res, mat):
    """CW bounds enclose the eigvals oracle, are 1e-12 tight, and h has a small residual."""
    oracle = largest_eigenvalue(mat)
    slack = ORACLE_RTOL * oracle
    assert res.lower - slack <= oracle <= res.upper + slack
    assert res.upper - res.lower <= 1e-12 * res.radius
    h = res.right_vector
    assert (h > 0).all() and h.max() == 1.0
    assert np.abs(mat @ h - res.radius * h).max() <= 1e-10 * res.radius


@st.composite
def lifts(draw):
    """(m, d, mode, seed): m = 2 with d up to 6, m = 3 with d up to 3, so N runs from 4 to 128."""
    m = draw(st.sampled_from([2, 3]))
    d = draw(st.integers(min_value=1, max_value=6 if m == 2 else 3))
    return m, d, draw(st.sampled_from(["exact", "lower", "upper"])), draw(st.integers(0, 2**31))


@settings(max_examples=60, deadline=None)
@given(case=lifts(), scale=st.floats(min_value=0.2, max_value=0.98), zeros=st.booleans())
def test_lifted_certificate_random_laws(case, scale, zeros):
    m, d, mode, seed = case
    rng = np.random.default_rng(seed)
    sigma = rng.uniform(0.05, 1.0, size=(m, m))
    sigma = sigma / sigma.sum(axis=1, keepdims=True) * scale * rng.uniform(0.5, 1.0, size=(m, 1))
    # Truncated modes cut a law on {0..d+2} at d; zeros empties random depths strictly inside {0..d}.
    masses = rng.dirichlet(np.ones(d + 1 if mode == "exact" else d + 3))
    if zeros:
        masses[1:d] *= rng.integers(0, 2, size=d - 1)
        masses /= masses.sum()
    if mode == "exact":
        chain = rc.build_lifted(sigma, rc.RelocationLaw.explicit(masses))
        mat = window_matrix(sigma, masses)
    else:
        trunc = rc.truncate_law(rc.RelocationLaw.explicit(masses), 1e-300, d_max=d)
        assert trunc.d == d and trunc.tail_mass > 0.0
        chain = rc.build_lifted(sigma, trunc, mode=mode)
        extra = trunc.tail_mass * sigma.max(axis=0) if mode == "upper" else None
        mat = window_matrix(sigma, trunc.masses, extra=extra)
    assert chain.n_states == m ** (d + 1)
    # The weight recursion and the operator's successor map against enumeration of the windows.
    np.testing.assert_allclose(chain.operator.toarray(), mat, rtol=1e-14, atol=0.0)
    v = rng.uniform(0.1, 1.0, size=chain.n_states)
    np.testing.assert_allclose(chain.apply(v), mat @ v, rtol=1e-14, atol=0.0)
    res = rc.lifted_spectral_radius(chain)
    if chain.n_states > DENSE_MAX_STATES:
        assert res.iterations > 0
    assert_certified(res, mat)


def test_badly_scaled_lift_falls_back_to_power_sweeps(sigma_fig):
    tilted = rc.tilt(sigma_fig, [math.exp(25.0), 1.0])
    res = rc.lifted_spectral_radius(rc.build_lifted(tilted, two_point_law()))
    assert res.iterations > 0  # the dense eigenvector failed its certificate
    assert_certified(res, window_matrix(tilted, [0.5, 0.5]))


def test_bracket_rejects_negative_depth_cap(sigma_fig, monkeypatch):
    # A negative cap is a usage error, raised before any truncation or lift.
    def forbidden(*args, **kwargs):
        raise AssertionError("called for a negative d_max")

    monkeypatch.setattr(rc.lifted, "truncate_law", forbidden)
    monkeypatch.setattr(rc.lifted, "build_lifted", forbidden)
    with pytest.raises(ValueError, match="d_max must be nonnegative") as err:
        rc.bracket_radius(sigma_fig, rc.RelocationLaw.geometric(0.5), d_max=-1)
    assert not isinstance(err.value, StateCapExceededError)


def record_builds(monkeypatch):
    """Patch the build_lifted that bracket_radius calls; the returned list collects each call's mode."""
    modes = []
    build = rc.lifted.build_lifted

    def recording(sigma, law, mode="exact"):
        modes.append(mode)
        return build(sigma, law, mode)

    monkeypatch.setattr(rc.lifted, "build_lifted", recording)
    return modes


@pytest.mark.parametrize("m", [2, 3, 4])
def test_closed_form_row_sums_enclose_built_lifts(m):
    # Oracle: the row sums of the lift build_lifted assembles, and the exact
    # rational extremes sum_i tau(i) * min/max s (+ tail * sum_t max_u sigma).
    rng = np.random.default_rng(300 + m)
    for d in range(7):
        sigma = random_validated(rng, m)
        trunc = rc.truncate_law(rc.RelocationLaw.explicit(rng.dirichlet(np.ones(d + 3))), 1e-300, d_max=d)
        assert trunc.d == d and trunc.tail_mass > 0.0
        sums = [sum(map(Fraction, row)) for row in sigma.entries.tolist()]
        kept = sum(map(Fraction, trunc.masses.tolist()))
        for mode in ("lower", "upper"):
            low, high = _lift_row_sums(sigma, trunc, mode)
            built = rc.build_lifted(sigma, trunc, mode=mode).weights.sum(axis=1)
            extra = Fraction(trunc.tail_mass) * sum(map(Fraction, sigma.entries.max(axis=0).tolist()))
            extra = extra if mode == "upper" else 0
            assert low <= built.min() and built.max() <= high
            assert low <= kept * min(sums) + extra and kept * max(sums) + extra <= high
            # The widening is a few dozen ulps, not a loose bound.
            assert high - built.max() <= 1e-14 * high and built.min() - low <= 1e-14 * high


@pytest.mark.parametrize("d_max", [3, 7])
def test_decided_lifts_bound_their_dense_radii(sigma_fig, monkeypatch, d_max):
    # 16 and 256 windows: lifts that lose to the envelope are decided from
    # their row sums at every size, and both sizes fit np.linalg.eigvals.
    built = record_builds(monkeypatch)
    sigma = sigma_fig.entries
    decided = {"lower": 0, "upper": 0}
    for eps in FIG2_EPSILONS:
        built.clear()
        br = rc.bracket_radius(sigma_fig, rc.RelocationLaw.geometric(eps), delta_tail=1e-6, d_max=d_max)
        trunc = rc.truncate_law(rc.RelocationLaw.geometric(eps), 1e-6, d_max)
        assert trunc.d == d_max
        if "lower" not in built:
            decided["lower"] += 1
            assert br.lo_lift <= largest_eigenvalue(window_matrix(sigma, trunc.masses)) * (1 + ORACLE_RTOL)
        if "upper" not in built:
            decided["upper"] += 1
            extra = trunc.tail_mass * sigma.max(axis=0)
            lam_upper = largest_eigenvalue(window_matrix(sigma, trunc.masses, extra=extra))
            assert lam_upper <= br.hi_lift * (1 + ORACLE_RTOL)
    assert decided["lower"] > 0 and decided["upper"] > 0


def test_fig2_builds_five_of_its_lifts(sigma_fig, monkeypatch):
    # fig2's twelve geometric laws at depth cap 14: 19 of the 24 truncated
    # lifts are decided from their closed-form row sums and never built.
    built = record_builds(monkeypatch)
    for eps in FIG2_EPSILONS:
        rc.bracket_radius(sigma_fig, rc.RelocationLaw.geometric(eps), delta_tail=1e-6, d_max=14)
    # 10 conservative and 9 majorized lifts decided.
    assert (built.count("lower"), built.count("upper")) == (2, 3)


def full_solve_bracket(sigma, law, delta_tail, d_max):
    """(lo, hi, d_used, tail_mass, exact, cap_reached) with both lifts always built and fully solved.

    d_max must fit the state cap; the envelope folds in as lo = max(lift, r_bench),
    hi = max(min(lift, row sum), lo).
    """
    if law.bounded and law.support_max <= d_max:
        res = rc.lifted_spectral_radius(rc.build_lifted(sigma, law))
        return res.lower, res.upper, law.support_max, 0.0, True, False
    r_bench, row_max = _envelope(sigma)
    trunc = rc.truncate_law(law, delta_tail, d_max)
    lo_lift = 0.0
    if trunc.masses.any():
        lo_lift = rc.lifted_spectral_radius(rc.build_lifted(sigma, trunc, mode="lower")).lower
    hi_lift = rc.lifted_spectral_radius(rc.build_lifted(sigma, trunc, mode="upper")).upper
    lo = max(lo_lift, r_bench)
    return lo, max(min(hi_lift, row_max), lo), trunc.d, trunc.tail_mass, False, trunc.cap_reached


@pytest.mark.parametrize("m, d_maxes", [(2, (0, 3, 6, 8, 11, 14)), (3, (0, 2, 4, 6, 8)), (4, (0, 2, 4, 6))])
def test_bracket_matches_full_solves_bit_for_bit(m, d_maxes):
    # 14 geometric laws over eps in [0.001, 0.9] and one bounded law of depth
    # 3, so that deep caps take the exact path: 225 cases in all.
    rng = np.random.default_rng(500 + m)
    sigma = rc.benchmark_matrix() if m == 2 else random_validated(rng, m)
    laws = [rc.RelocationLaw.geometric(eps) for eps in np.geomspace(0.9, 0.001, 14)]
    laws.append(rc.RelocationLaw.explicit(rng.dirichlet(np.ones(4))))
    for d_max in d_maxes:
        for law in laws:
            br = rc.bracket_radius(sigma, law, delta_tail=1e-6, d_max=d_max)
            got = (br.lo, br.hi, br.d_used, br.tail_mass, br.exact, br.cap_reached)
            assert got == full_solve_bracket(sigma, law, 1e-6, d_max)
