import math
import time
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import relochain as rc
from relochain.errors import StateCapExceededError
from relochain.config import FIG2_EPSILONS
from relochain import matrices
from relochain.lifted import LOWER, UPPER, _dense_lifts, _finite_masses, _lift_row_sums, _solve_lift
from relochain.matrices import CHECK_EVERY, CW_RTOL, DENSE_MAX_STATES, NORM_EVERY, _certified_perron, _cw_bounds

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
    # The rate table's window chains have 4 windows each: it builds them as
    # dense stacks and never reads a chain's sparse operator.
    built = []

    def recording_lifts(kernels, law):
        built.append(_dense_lifts(kernels, law))
        return built[-1]

    def refuse(chain):
        raise AssertionError("sparse operator built for a 4-window chain")

    monkeypatch.setattr("relochain.bounds._dense_lifts", recording_lifts)
    monkeypatch.setattr(rc.LiftedChain, "operator", property(refuse))
    rc.rate_function_lifted(sigma_fig, two_point_law(), grid_points=5)
    assert built and all(stack.shape[1:] == (4, 4) for stack in built)


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
    assert rc.structure_flags(chain.dense())[:2] == (True, True)
    chain0 = rc.build_lifted(sigma_fig, rc.RelocationLaw.dirac(0))
    assert rc.structure_flags(chain0.dense())[:2] == (True, True)
    # periodic two-cycle support with an even-index law: the lift is reducible
    two_cycle = np.array([[0.0, 0.9], [0.9, 0.0]])
    even_law = rc.RelocationLaw.explicit([0.5, 0.0, 0.5])
    lifted = rc.build_lifted(two_cycle, even_law)
    irreducible = rc.structure_flags(lifted.dense())[0]
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
    assert rc.structure_flags(chain.dense())[:2] == dense_structure(window_matrix(sigma, masses[: law.support_max + 1]))


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
    assert br.lo <= R_CLOSED <= br.hi == _envelope(sigma_fig)[1]
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
        assert br.hi == _envelope(sigma_fig)[1]
        assert lam_lower <= br.lo * (1 + ORACLE_RTOL)
        assert lam_upper >= br.hi * (1 - ORACLE_RTOL)
    else:
        # A power solve whose lift carries its end of the bracket runs to its certificate.
        assert (br.lo, br.hi) == (br.lo_lift, br.hi_lift)
        assert lam_lower - br.lo_lift <= 2e-12 * lam_lower
        assert br.hi_lift - lam_upper <= 2e-12 * lam_upper


def _envelope(sigma):
    """(r_bench, max row sum widened outward): the analytic ends a truncated bracket folds in."""
    entries = sigma.entries
    return _certified_perron(entries.dot, sigma.m, lambda: entries).lower, _cw_bounds(sigma.row_sums(), sigma.m)[1]


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


@pytest.mark.parametrize("entries", [[[0.72, 0.08], [0.08, 0.72]], [[0.7, 0.1], [0.1, 0.7]], [[0.3, 0.6], [0.6, 0.3]]])
@pytest.mark.parametrize("eps", [0.25, 0.001])
def test_truncated_bracket_encloses_the_exact_row_sum(entries, eps):
    # Read as exact binary values, each row of these matrices sums to the
    # same s, so r = r_bold = s for every law. The rounded float sum lies
    # below s; an envelope taken from it put hi up to 6.2e-17 relative below r.
    with pytest.warns(rc.ProportionalToStochasticWarning):
        sigma = rc.validate_substochastic(np.array(entries))
    exact = {sum(map(Fraction, row)) for row in sigma.entries.tolist()}
    assert len(exact) == 1
    br = rc.bracket_radius(sigma, rc.RelocationLaw.geometric(eps), d_max=6)
    assert not br.exact
    assert Fraction(br.lo) <= exact.pop() <= Fraction(br.hi)


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


def plain_power_solve(chain):
    """(operator applications, lower, upper) of the shifted power iteration with no Ritz restart.

    Shift, normalization, check schedule and stop rule are those of
    `_certified_perron` on a chain too large for the dense eigensolve.
    """
    v = np.ones(chain.n_states)
    av = chain.apply(v)
    shift = 0.1 * av.max()
    sweeps = 1
    while True:
        v = av + shift * v
        if sweeps % NORM_EVERY == 0:
            v /= v.max()
        av = chain.apply(v)
        sweeps += 1
        if sweeps % CHECK_EVERY == 0:
            lo, hi = _cw_bounds(av / v, chain.m)
            if hi - lo <= CW_RTOL * hi:
                return sweeps, lo, hi


@pytest.mark.parametrize("mode", ["lower", "upper"])
def test_ritz_restarts_halve_the_operator_applications(sigma_fig, mode):
    # A fig2-shaped lift: geometric 0.5 cut at depth 12, 8,192 windows, where
    # |lambda_2 / lambda_1| of the shifted operator is 0.83.
    trunc = rc.truncate_law(rc.RelocationLaw.geometric(0.5), 1e-6, 12)
    chain = rc.build_lifted(sigma_fig, trunc, mode=mode)
    assert chain.n_states == 8192
    res = rc.lifted_spectral_radius(chain)
    sweeps, lo, hi = plain_power_solve(chain)
    assert res.iterations <= 0.5 * sweeps
    assert max(res.lower, lo) <= min(res.upper, hi)


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


def exact_ratios(rows, v):
    """(A v)/v in exact arithmetic; rows[w] lists the (column, Fraction weight) pairs of row w."""
    x = [Fraction(float(t)) for t in v]
    return [sum(weight * x[col] for col, weight in row) / x[w] for w, row in enumerate(rows)]


def exact_lift_rows(kernel, masses, tail_mass=0.0):
    """Rows of the window operator of a float kernel under float masses, each weight an exact sum.

    A positive `tail_mass` adds the majorizing term tail_mass * max_u kernel[u, t] of an upper lift.
    """
    m, d = kernel.shape[0], len(masses) - 1
    k = [[Fraction(float(x)) for x in row] for row in kernel]
    tau = [Fraction(float(t)) for t in masses]
    top = [Fraction(float(tail_mass)) * max(row[t] for row in k) for t in range(m)]
    rows = []
    for w in range(m ** (d + 1)):
        digits = [(w // m ** (d - i)) % m for i in range(d + 1)]  # newest state first
        rows.append(
            [(t * m**d + w // m, sum(tau[i] * k[digits[i]][t] for i in range(d + 1)) + top[t]) for t in range(m)]
        )
    return rows


def exact_matrix_rows(a):
    return [[(col, Fraction(float(x))) for col, x in enumerate(row)] for row in a]


def assert_encloses(rows, v, lower, upper):
    ratios = exact_ratios(rows, v)
    assert Fraction(lower) <= min(ratios) and max(ratios) <= Fraction(upper)


AUDIT_LAWS = [[0.5, 0.5], [0.2, 0.3, 0.5], [0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1]]


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("power", [False, True], ids=["dense", "power"])
def test_certificates_enclose_the_exact_operators_ratios(monkeypatch, m, power):
    # The float weights of a lift are rounded sums of d + 1 products, so the
    # exact lift (its weights summed exactly from the stored kernel entries and
    # masses) is not the stored operator. Its Collatz-Wielandt ratios at the
    # returned vector must lie in [lower, upper], checked in Fractions: on
    # lifts of m = 2 and 3 up to 27 windows, on truncated lower and upper
    # lifts at d <= 1 and on tilted kernels, for the stacked dense step, the
    # one-matrix dense step and the power path.
    if power:
        monkeypatch.setattr(matrices, "DENSE_MAX_STATES", 0)
    rng = np.random.default_rng(40 + m)
    for masses in AUDIT_LAWS if m == 2 else AUDIT_LAWS[:2]:  # at most 27 windows
        law = rc.RelocationLaw.explicit(masses)
        depths, law_masses, _ = _finite_masses(law)
        tau = np.zeros(depths[-1] + 1)
        tau[depths] = law_masses
        raw = rng.uniform(0.05, 1.0, size=(m, m))
        sigma = raw / raw.sum(axis=1, keepdims=True) * rng.uniform(0.3, 0.98, size=(m, 1))
        kernels = sigma * np.exp(rng.uniform(-3.0, 3.0, size=(6, 1, m)))
        for kernel in kernels:
            res = rc.lifted_spectral_radius(rc.build_lifted(kernel, law))
            assert (res.iterations > 0) == power
            assert_encloses(exact_lift_rows(kernel, tau), res.right_vector, res.lower, res.upper)
            res = _certified_perron(kernel.dot, m, lambda: kernel)
            assert_encloses(exact_matrix_rows(kernel), res.right_vector, res.lower, res.upper)
        if not power:
            stack = _dense_lifts(kernels, law)
            n = stack.shape[-1]
            with np.errstate(all="ignore"):
                vals, vecs = matrices._umath_linalg.eig(stack, signature="d->DD")
                _, vectors, _, bounds, ok = matrices._dense_certificates(
                    vals, vecs, lambda x: (stack @ x[:, :, None])[:, :, 0], n
                )
            assert all(ok)
            for kernel, v, (lower, upper) in zip(kernels, vectors, bounds):
                assert_encloses(exact_lift_rows(kernel, tau), v, lower, upper)
    # Truncated lifts at d <= 1, the conservative one and the majorized one: their
    # n = m**(d+1) columns are fewer than the m + d + 2 terms a lift counts.
    for d_max in (0, 1) if m == 2 else (0,):
        trunc = rc.truncate_law(rc.RelocationLaw.geometric(0.5), 1e-6, d_max)
        for mode, tail_mass in ((LOWER, 0.0), (UPPER, trunc.tail_mass)):
            for kernel in kernels:
                res = rc.lifted_spectral_radius(rc.build_lifted(kernel, trunc, mode))
                assert (res.iterations > 0) == power
                rows = exact_lift_rows(kernel, trunc.masses, tail_mass)
                assert_encloses(rows, res.right_vector, res.lower, res.upper)


@pytest.mark.parametrize("m", [2, 3])
def test_row_sum_bounds_enclose_the_exact_lifts_row_sums(m):
    # A lift is decided from the least and largest of its row sums. Oracle:
    # the row sums of the exact truncated lift (each weight an exact sum of
    # the stored entries and masses), and those of the lift build_lifted
    # rounds, summed exactly, in Fractions, at d <= 3 with nonzero tail mass.
    rng = np.random.default_rng(810 + m)
    sigmas = [random_validated(rng, m) for _ in range(3)] + ([rc.benchmark_matrix()] if m == 2 else [])
    for sigma in sigmas:
        for d in range(4):
            for law in (rc.RelocationLaw.geometric(0.3), rc.RelocationLaw.explicit(rng.dirichlet(np.ones(d + 3)))):
                trunc = rc.truncate_law(law, 1e-300, d_max=d)
                assert trunc.d == d and trunc.tail_mass > 0.0
                for mode, tail_mass in ((LOWER, 0.0), (UPPER, trunc.tail_mass)):
                    low, high = map(Fraction, _lift_row_sums(sigma, trunc, mode))
                    exact = [sum(weight for _, weight in row) for row in exact_lift_rows(sigma.entries, trunc.masses, tail_mass)]
                    built = [sum(map(Fraction, row)) for row in rc.build_lifted(sigma, trunc, mode).weights.tolist()]
                    assert low <= min(exact) and max(exact) <= high
                    assert low <= min(built) and max(built) <= high


@pytest.mark.parametrize("m", [2, 3])
def test_envelope_stops_enclose_the_exact_lifts_ratios(monkeypatch, m):
    # A truncated lift's power solve returns as soon as its interval lies on
    # the side of bracket_radius's envelope (r_bench above the conservative
    # lift, the widened largest row sum below the majorized one), with the
    # possibly wide bounds at which it stopped. The exact lift's
    # Collatz-Wielandt ratios at the returned vector must lie within them.
    rng = np.random.default_rng(820 + m)
    sigmas = [random_validated(rng, m) for _ in range(2)] + ([rc.benchmark_matrix()] if m == 2 else [])
    envelopes = [_envelope(sigma) for sigma in sigmas]
    monkeypatch.setattr(matrices, "DENSE_MAX_STATES", 0)  # every lift takes the power path
    stopped = 0
    for sigma, (r_bench, row_max) in zip(sigmas, envelopes):
        for d in (1, 2, 3):
            for eps in FIG2_EPSILONS[::3]:
                trunc = rc.truncate_law(rc.RelocationLaw.geometric(eps), 1e-6, d)
                for mode, tail_mass, envelope in ((LOWER, 0.0, (r_bench, math.inf)), (UPPER, trunc.tail_mass, (-math.inf, row_max))):
                    res = _solve_lift(rc.build_lifted(sigma, trunc, mode), envelope)
                    if res.upper - res.lower > CW_RTOL * res.upper:
                        stopped += 1
                        assert res.upper <= envelope[0] or res.lower >= envelope[1]
                    assert_encloses(exact_lift_rows(sigma.entries, trunc.masses, tail_mass), res.right_vector, res.lower, res.upper)
    assert stopped >= 10


@st.composite
def proportional_to_stochastic(draw):
    """(entries, c): an integer matrix with equal row sums S, times 2**-k, so that every row sums exactly to c = S 2**-k <= 1.

    The ones vector is then a positive right eigenvector, so the radius of
    the matrix, and of every lift of every law whose masses sum to 1, is
    exactly c: a closed form that shares no code with the solver.
    """
    m = draw(st.integers(min_value=2, max_value=4))
    total = draw(st.integers(min_value=m, max_value=60))
    rows = []
    for _ in range(m):
        cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=total), min_size=m - 1, max_size=m - 1)))
        rows.append(np.diff([0, *cuts, total]))
    k = draw(st.integers(min_value=total.bit_length(), max_value=total.bit_length() + 8))
    entries = np.array(rows, dtype=float) * 2.0**-k
    irreducible, aperiodic, _ = matrices.structure_flags(entries)
    assume(irreducible and aperiodic)
    return entries, math.ldexp(total, -k)


@st.composite
def dyadic_masses(draw, depth):
    """Masses w_i / 2**j of a law of support max `depth`: exact floats that sum exactly to 1."""
    j = draw(st.integers(min_value=depth + 1, max_value=depth + 6))
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=2**j - 1), min_size=depth, max_size=depth)))
    weights = np.diff([0, *cuts, 2**j])
    return (weights * 2.0**-j).tolist()


@settings(max_examples=40, deadline=None)
@given(case=proportional_to_stochastic(), data=st.data())
def test_certificates_enclose_the_closed_form_radius_of_a_uniformly_killing_matrix(case, data):
    entries, c = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", rc.ProportionalToStochasticWarning)
        sigma = rc.validate_substochastic(entries)
    exact, m = Fraction(c), sigma.m
    assert {sum(map(Fraction, row)) for row in sigma.entries.tolist()} == {exact}

    # perron_triple's certificates, right and left: the dense step's bounds,
    # then, with the dense step off, the two power solves'.
    checked = []
    dense_step, power_solve = matrices._dense_certificates, matrices._certified_perron

    def dense(*args):
        top, v, av, bounds, ok = dense_step(*args)
        checked.extend(b for b, good in zip(bounds, ok) if good)
        return top, v, av, bounds, ok

    def power(*args, **kwargs):
        res = power_solve(*args, **kwargs)
        checked.append((res.lower, res.upper))
        return res

    with mock.patch.object(matrices, "_dense_certificates", dense):
        rc.perron_triple(sigma)
    with mock.patch.object(matrices, "DENSE_MAX_STATES", 0), mock.patch.object(matrices, "_certified_perron", power):
        rc.perron_triple(sigma)
    assert len(checked) == 4
    for lower, upper in checked:
        assert Fraction(lower) <= exact <= Fraction(upper)

    # A bounded law of dyadic masses, on the dense and the power path.
    depth = data.draw(st.integers(min_value=0, max_value={2: 4, 3: 2, 4: 1}[m]), label="depth")
    chain = rc.build_lifted(sigma, rc.RelocationLaw.explicit(data.draw(dyadic_masses(depth), label="masses")))
    for dense_max in (DENSE_MAX_STATES, 0):
        with mock.patch.object(matrices, "DENSE_MAX_STATES", dense_max):
            res = rc.lifted_spectral_radius(chain)
        assert (res.iterations > 0) == (dense_max == 0)
        assert Fraction(res.lower) <= exact <= Fraction(res.upper)

    # A geometric law: its masses sum to 1, so the relocation chain's radius is c.
    eps = data.draw(st.floats(min_value=0.01, max_value=0.99), label="eps")
    d_max = data.draw(st.integers(min_value=0, max_value={2: 5, 3: 3, 4: 2}[m]), label="d_max")
    br = rc.bracket_radius(sigma, rc.RelocationLaw.geometric(eps), d_max=d_max)
    assert Fraction(br.lo) <= exact <= Fraction(br.hi)
