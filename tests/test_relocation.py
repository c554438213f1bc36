import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import relochain as rc


def test_geometric_masses_and_tail():
    law = rc.RelocationLaw.geometric(0.25)
    assert law.mass(0) == 0.25
    assert law.mass(2) == pytest.approx(0.140625, abs=1e-15)
    for n in range(6):
        assert law.tail(n) == pytest.approx(0.75**n, rel=1e-14)
    assert not law.bounded


def test_dirac_masses_and_tail():
    law = rc.RelocationLaw.dirac(3)
    assert law.mass(3) == 1.0
    assert law.tail(4) == 0.0
    assert law.tail(3) == 1.0
    assert law.support_max == 3
    assert law.is_dirac_mass


def test_explicit_law():
    law = rc.RelocationLaw.explicit([0.5, 0.5])
    assert law.tail(1) == 0.5
    assert not law.is_dirac_mass
    assert rc.RelocationLaw.explicit([0.0, 1.0]).is_dirac_mass
    with pytest.raises(ValueError):
        rc.RelocationLaw.explicit([0.5, 0.6])


def test_parse_relocation_law():
    assert rc.parse_relocation_law("dirac 3") == rc.RelocationLaw.dirac(3)
    assert rc.parse_relocation_law("geometric 0.25") == rc.RelocationLaw.geometric(0.25)
    assert rc.parse_relocation_law("explicit 0.5 0.5") == rc.RelocationLaw.explicit([0.5, 0.5])
    for bad in (
        "zipf 2", "", "explicit", "dirac", "dirac 1 2", "geometric", "geometric 0.1 0.2", "geometric 0", "geometric 1.5"
    ):
        with pytest.raises(ValueError):
            rc.parse_relocation_law(bad)


def test_point_mass_is_one_law_in_both_spellings():
    for d in range(5):
        assert rc.RelocationLaw.dirac(d) == rc.RelocationLaw.explicit([0.0] * d + [1.0])
    assert rc.RelocationLaw.dirac(3) == rc.RelocationLaw.explicit([0, 0, 0, 1])
    assert rc.RelocationLaw.explicit([0.25, 0, 0.75, 0]) == rc.RelocationLaw.explicit([0.25, 0, 0.75])
    for spec, law in (
        ("dirac 3", rc.RelocationLaw((3,), (1.0,))),
        ("explicit 0 0 0 1", rc.RelocationLaw((3,), (1.0,))),
        ("explicit 0.25 0 0.75", rc.RelocationLaw((0, 2), (0.25, 0.75))),
        ("explicit 0 0.5 0 0.5 0", rc.RelocationLaw((1, 3), (0.5, 0.5))),
    ):
        assert rc.parse_relocation_law(spec) == law


def test_far_point_mass_is_one_atom():
    d = 10**9
    law = rc.RelocationLaw.dirac(d)
    assert law.depths == (d,) and law.masses == (1.0,)
    assert law.support_max == d and law.is_dirac_mass
    assert law.tail(d) == 1.0 and law.tail(d + 1) == 0.0 and law.tail(17) == 1.0
    assert law.mass(d) == 1.0 and law.mass(d - 1) == 0.0 and law.mass(0) == 0.0
    assert rc.parse_relocation_law(f"dirac {d}") == law


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
def test_explicit_rejects_nonfinite_and_negative_masses(bad):
    with pytest.raises(ValueError):
        rc.RelocationLaw.explicit([bad, 1.0])
    with pytest.raises(ValueError):
        rc.RelocationLaw.explicit([1.0, 0.0, bad])


@pytest.mark.parametrize(
    "depths, masses, eps, message",
    [
        ((), (), None, "at least one"),
        ((0, 1), (1.0,), None, "one mass per depth"),
        ((1, 0), (0.5, 0.5), None, "increasing"),
        ((2, 2), (0.5, 0.5), None, "increasing"),
        ((0, 1), (0.0, 1.0), None, "finite and positive"),
        ((3,), (1.0,), 0.5, "not both"),
        ((0.5,), (1.0,), None, "integers"),
        ((0, 1.0), (0.5, 0.5), None, "integers"),
        ((np.float64(2.0),), (1.0,), None, "integers"),
    ],
    ids=[
        "empty", "depths-without-masses", "decreasing", "repeated", "zero-mass", "eps-with-atoms",
        "half-depth", "float-depth", "numpy-float-depth",
    ],
)
def test_law_rejects_bad_atoms(depths, masses, eps, message):
    # A zero mass was reported as negative, and eps with atoms built a
    # geometric law that still carried depths == (3,). A depth of 0.5 built a
    # law that failed later with a TypeError, which the CLI does not map to exit 2.
    with pytest.raises(ValueError, match=message):
        rc.RelocationLaw(depths, masses, eps)


def test_dirac_takes_integer_depths_only():
    # dirac(2.7) once became dirac 2 without an error.
    with pytest.raises(ValueError, match="integers"):
        rc.RelocationLaw.dirac(2.7)
    law = rc.RelocationLaw.dirac(np.int64(3))
    assert law == rc.RelocationLaw.dirac(3) and type(law.depths[0]) is int
    assert rc.RelocationLaw((np.int32(0), np.int64(2)), (0.5, 0.5)).depths == (0, 2)


@pytest.mark.parametrize("states", [(), (0.5, 1), (np.float64(1.0),), (0, -1)], ids=["empty", "half", "float", "negative"])
def test_window_entries_are_integer_state_indices(states):
    # (0.5, 1) used to build, and run_killed_chain then ran from state 0.
    with pytest.raises(ValueError, match="nonempty|>= 0"):
        rc.HistoryWindow(states)


@pytest.mark.parametrize("state", [2.7, 0.5])
def test_constant_window_rejects_a_non_integer_state(state):
    # constant(2.7) used to build the window (2,), constant(0.5) the window (0,).
    with pytest.raises(ValueError, match="integers"):
        rc.HistoryWindow.constant(state)
    assert rc.HistoryWindow.constant(np.int64(3)).states == (3,)


@st.composite
def dense_masses(draw):
    """Mass vectors on {0..d} with zeros at random depths below d."""
    raw = draw(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=9))
    keep = draw(st.lists(st.booleans(), min_size=len(raw) - 1, max_size=len(raw) - 1))
    p = np.array(raw) * np.array(keep + [True])
    return p / p.sum()


@settings(max_examples=200, deadline=None)
@given(p=dense_masses())
def test_atoms_match_dense_mass_vector(p):
    law = rc.RelocationLaw.explicit(p)
    assert law.support_max == int(np.flatnonzero(p).max())
    assert law.depths == tuple(int(i) for i in np.flatnonzero(p))
    for i in range(-1, len(p) + 2):
        assert law.mass(i) == (p[i] if 0 <= i < len(p) else 0.0)
        assert law.tail(i) == pytest.approx(1.0 if i <= 0 else p[i:].sum(), rel=1e-12, abs=1e-15)
    assert law.is_dirac_mass == (np.count_nonzero(p) == 1)


@settings(max_examples=50, deadline=None)
@given(eps=st.floats(min_value=0.01, max_value=0.99), n=st.integers(min_value=0, max_value=50))
def test_tail_monotone(eps, n):
    law = rc.RelocationLaw.geometric(eps)
    assert law.tail(0) == 1.0
    assert law.tail(n + 1) <= law.tail(n)


def test_truncate_geometric_depth():
    # Independent oracle: smallest d with 0.75**(d+1) <= 1e-12, found by logarithms.
    d_oracle = math.ceil(math.log(1e-12) / math.log(0.75)) - 1
    while 0.75 ** (d_oracle + 1) > 1e-12:
        d_oracle += 1
    while d_oracle > 0 and 0.75**d_oracle <= 1e-12:
        d_oracle -= 1
    assert d_oracle == 96
    trunc = rc.truncate_law(rc.RelocationLaw.geometric(0.25), 1e-12, d_max=1000)
    assert trunc.d == d_oracle
    assert not trunc.cap_reached
    assert trunc.tail_mass <= 1e-12


def test_truncate_dirac_noop():
    trunc = rc.truncate_law(rc.RelocationLaw.dirac(3), 1e-12, d_max=10)
    assert trunc.d == 3
    assert 1.0 - trunc.tail_mass == 1.0
    np.testing.assert_array_equal(trunc.masses, [0, 0, 0, 1])


def test_truncate_far_point_mass_at_once():
    # Nothing lies within depth 0 and the whole mass is tail, so d = 0; the
    # answer comes from the one atom, not from a walk over a billion depths
    # (about 0.8 s per million depths).
    start = time.perf_counter()
    trunc = rc.truncate_law(rc.RelocationLaw.dirac(10**9), 1.0, d_max=2)
    assert time.perf_counter() - start < 1.0
    assert trunc.d == 0 and trunc.tail_mass == 1.0 and not trunc.cap_reached
    np.testing.assert_array_equal(trunc.masses, [0.0])


@pytest.mark.parametrize(
    "law", [rc.RelocationLaw.geometric(0.5), rc.RelocationLaw.explicit([0.2, 0.3, 0.5])], ids=["geometric", "bounded"]
)
def test_truncate_law_takes_an_infinite_tail_bound_and_rejects_nan(law):
    # Every tail is at most 1, so any bound of at least 1 keeps depth 0 only.
    for delta in (1.0, 2.0, math.inf):
        trunc = rc.truncate_law(law, delta, d_max=4)
        assert (trunc.d, trunc.tail_mass, trunc.cap_reached) == (0, law.tail(1), False)
    with pytest.raises(ValueError, match="delta_tail must be positive, got nan"):
        rc.truncate_law(law, math.nan, d_max=4)


def test_truncate_law_rejects_a_negative_depth_cap():
    # It returned d = -1 with no masses, where bracket_radius rejects the same cap.
    for law in (rc.RelocationLaw.geometric(0.5), rc.RelocationLaw.dirac(0)):
        with pytest.raises(ValueError, match="d_max must be nonnegative, got -1"):
            rc.truncate_law(law, 1e-6, d_max=-1)


def dense_truncation_depth(p, delta_tail):
    """The smallest-depth rule walked one depth at a time over the dense mass vector."""
    d = len(p) - 1
    while d > 0 and math.fsum(p[d:]) <= delta_tail:
        d -= 1
    return d


# A suffix sum taken from the top in plain float arithmetic reads 1 ulp above
# fsum(p[2:]) = delta here, which would stop the walk at depth 2 instead of 1.
ROUNDING_EDGE = np.array(
    [0.21188722270590135, 0.10950703811260121, 0.1396882018613662, 0.38995039573462276, 0.14896714158550856]
)


@settings(max_examples=200, deadline=None)
@example(p=ROUNDING_EDGE, delta=0.6786057391814975, d_max=12)
@given(
    p=dense_masses(),
    delta=st.one_of(st.floats(min_value=1e-12, max_value=1.5), st.sampled_from([1.0, 0.5, 0.25])),
    d_max=st.integers(min_value=0, max_value=12),
)
def test_truncate_bounded_law_matches_dense_walk(p, delta, d_max):
    law = rc.RelocationLaw.explicit(p)
    trunc = rc.truncate_law(law, delta, d_max)
    d = dense_truncation_depth(p, delta)
    assert trunc.cap_reached == (d > d_max)
    assert trunc.d == min(d, d_max)
    assert trunc.tail_mass == law.tail(trunc.d + 1)
    np.testing.assert_array_equal(trunc.masses, np.append(p, np.zeros(d_max + 1))[: trunc.d + 1])


@pytest.mark.parametrize(
    "masses, d, tail_mass, message",
    [
        ([1.5, -0.5], 1, 0.0, "finite and nonnegative"),
        ([0.5, math.nan], 1, 0.0, "finite and nonnegative"),
        ([0.5, 0.5], 3, 0.0, "needs d \\+ 1 masses"),
        ([], -1, 1.0, "needs d \\+ 1 masses"),
        ([0.5, 0.4], 1, -0.1, r"tail_mass must lie in \[0, 1\]"),
        ([0.5, 0.4], 1, math.nan, r"tail_mass must lie in \[0, 1\]"),
        ([0.6, 0.5], 1, 0.0, "sum to 1.1, above 1"),
        ([0.5, 0.4], 1, 0.2, "above 1"),
        ([0.0, 0.0], 1, 1.5, "sum to 1.5, above 1"),
    ],
    ids=[
        "negative", "nan", "short", "no-depth", "negative-tail", "nan-tail", "masses-above-1", "tail-above-1",
        "tail-alone-above-1",
    ],
)
def test_hand_built_truncation_is_checked(masses, d, tail_mass, message):
    # [1.5, -0.5] got a "certified" window-chain radius of 0.788 and three
    # depths with two masses numpy's broadcast error.
    with pytest.raises(ValueError, match=message):
        rc.build_lifted(
            rc.benchmark_matrix(),
            rc.TruncationResult(masses=np.array(masses), d=d, tail_mass=tail_mass, cap_reached=False),
        )


@pytest.mark.parametrize("eps", [0.999, 0.5, 0.1, 1e-3])
@pytest.mark.parametrize("d_max", [0, 3, 200])
def test_truncate_law_results_pass_the_truncation_checks(eps, d_max):
    # A law's masses may sum to 1 + 5e-13, and a truncation at depth 0 of the
    # last one carries all of that as its tail.
    laws = [rc.RelocationLaw.geometric(eps), rc.RelocationLaw.explicit([eps, 0.0, 1.0 - eps])]
    laws.append(rc.RelocationLaw.explicit([0.0, 1.0 - eps, eps + 5e-13]))
    for law in laws:
        trunc = rc.truncate_law(law, 1e-12, d_max=d_max)
        assert math.fsum(trunc.masses) + trunc.tail_mass <= 1.0 + 1e-12


def test_truncate_capped_conservative():
    trunc = rc.truncate_law(rc.RelocationLaw.geometric(0.5), 1e-12, d_max=1)
    assert trunc.cap_reached
    np.testing.assert_allclose(trunc.masses, [0.5, 0.25])
    assert 1.0 - trunc.tail_mass == pytest.approx(0.75)
    assert trunc.tail_mass == pytest.approx(0.25)


def test_occupation_examples():
    assert np.array_equal(
        rc.occupation_measure(rc.HistoryWindow((1, 0)), rc.RelocationLaw.dirac(0), 2), [0, 1]
    )
    np.testing.assert_allclose(
        rc.occupation_measure(rc.HistoryWindow((1, 1, 1)), rc.RelocationLaw.geometric(0.3), 2),
        [0, 1],
    )
    np.testing.assert_allclose(
        rc.occupation_measure(rc.HistoryWindow((0, 1)), rc.RelocationLaw.explicit([0.5, 0.5]), 2),
        [0.5, 0.5],
    )


def test_window_states_outside_the_matrix_are_a_value_error(sigma_fig):
    # State 2 of a two-state matrix raised IndexError, which the CLI does not map to exit 2.
    window, law = rc.HistoryWindow((0, 2)), rc.RelocationLaw.explicit([0.5, 0.5])
    with pytest.raises(ValueError, match="outside the state space"):
        rc.occupation_measure(window, law, 2)
    with pytest.raises(ValueError, match="outside the state space"):
        rc.defective_kernel_row(window, sigma_fig, law)


def test_window_extension_rule():
    # Mass beyond the stored window rides on the oldest entry.
    law = rc.RelocationLaw.geometric(0.5)
    occ = rc.occupation_measure(rc.HistoryWindow((0, 1)), law, 2)
    np.testing.assert_allclose(occ, [0.5, 0.5], atol=1e-15)
    w = rc.HistoryWindow((0, 1))
    assert w.entry(0) == 0 and w.entry(1) == 1 and w.entry(7) == 1
    assert w.truncated(4) == (0, 1, 1, 1)


def test_defective_row_examples(sigma_fig):
    law = rc.RelocationLaw.explicit([0.5, 0.5])
    row = rc.defective_kernel_row(rc.HistoryWindow((0, 1)), sigma_fig, law)
    np.testing.assert_allclose(row, [0.45, 0.33], atol=1e-15)
    assert row.sum() == pytest.approx(0.78)
    dirac_row = rc.defective_kernel_row(rc.HistoryWindow((1, 0)), sigma_fig, rc.RelocationLaw.dirac(0))
    np.testing.assert_array_equal(dirac_row, sigma_fig.entries[1])


def test_defective_row_matches_occupation_product(sigma_fig):
    rng = np.random.default_rng(5)
    laws = [
        rc.RelocationLaw.dirac(2),
        rc.RelocationLaw.explicit([0.2, 0.3, 0.5]),
        rc.RelocationLaw.geometric(0.35),
    ]
    for law in laws:
        for _ in range(100):
            w = rc.HistoryWindow(tuple(rng.integers(0, 2, size=rng.integers(1, 7))))
            direct = rc.defective_kernel_row(w, sigma_fig, law)
            via_occ = rc.occupation_measure(w, law, 2) @ sigma_fig.entries
            np.testing.assert_allclose(direct, via_occ, atol=1e-15)


def _biased_row(window, sigma, law, a):
    """The conservative kernel row: the defective row reweighted by a and normalized."""
    weighted = rc.defective_kernel_row(window, sigma, law) * a
    return weighted / weighted.sum()


def test_biased_row_examples(sigma_fig):
    law = rc.RelocationLaw.explicit([0.5, 0.5])
    row = _biased_row(rc.HistoryWindow((0, 1)), sigma_fig, law, np.ones(2))
    np.testing.assert_allclose(row, np.array([0.45, 0.33]) / 0.78, atol=1e-15)
    # Dirac(0): the biased row is exactly the a-weighted transition row.
    a = np.array([1.3, 0.4])
    pi_row = sigma_fig.entries[1] * a / (sigma_fig.entries[1] @ a)
    np.testing.assert_allclose(
        _biased_row(rc.HistoryWindow((1, 1)), sigma_fig, rc.RelocationLaw.dirac(0), a),
        pi_row,
        atol=1e-15,
    )


def test_biased_row_simplex_and_decomposition(sigma_fig):
    # The paper's conservative kernel: reweighting the defective row by a
    # equals first picking a relocation index with probability proportional
    # to mass(i) * (sigma a)(w_i), then moving by the a-biased matrix.
    rng = np.random.default_rng(17)
    entries = sigma_fig.entries
    laws = [
        rc.RelocationLaw.explicit([0.5, 0.5]),
        rc.RelocationLaw.geometric(0.4),
        rc.RelocationLaw.dirac(1),
    ]
    for _ in range(1000):
        law = laws[rng.integers(0, len(laws))]
        w = rc.HistoryWindow(tuple(rng.integers(0, 2, size=rng.integers(1, 6))))
        a = rng.uniform(0.1, 5.0, size=2)
        row = _biased_row(w, sigma_fig, law, a)
        assert abs(row.sum() - 1.0) <= 1e-12
        sa = entries @ a
        k = len(w)
        idx_w = np.array(
            [law.mass(i) * sa[w.entry(i)] for i in range(k - 1)] + [law.tail(k - 1) * sa[w.entry(k - 1)]]
        )
        idx_w /= idx_w.sum()
        two_stage = np.zeros(2)
        for i, wt in enumerate(idx_w):
            s = w.entry(i)
            two_stage += wt * entries[s] * a / sa[s]
        np.testing.assert_allclose(row, two_stage, atol=1e-14)


def test_conservative_truncation_identity(sigma_fig):
    # The truncated-and-renormalized chain on the shrunk matrix reproduces the
    # raw truncated sums: the identity behind the certified lower bound.
    law = rc.RelocationLaw.geometric(0.3)
    trunc = rc.truncate_law(law, 1e-9, d_max=4)
    retained = 1.0 - trunc.tail_mass
    tau_renorm = rc.RelocationLaw.explicit(np.asarray(trunc.masses) / retained)
    sigma_shrunk = retained * sigma_fig.entries
    rng = np.random.default_rng(23)
    for _ in range(50):
        w = rc.HistoryWindow(tuple(rng.integers(0, 2, size=trunc.d + 1)))
        renorm_row = rc.defective_kernel_row(w, sigma_shrunk, tau_renorm)
        raw_row = sum(law.mass(i) * sigma_fig.entries[w.entry(i)] for i in range(trunc.d + 1))
        np.testing.assert_allclose(renorm_row, raw_row, atol=1e-15)


def test_truncated_row_monotone_in_depth(sigma_fig):
    law = rc.RelocationLaw.geometric(0.3)
    w = rc.HistoryWindow((0, 1, 0, 1, 1, 0, 0, 1, 1, 1))
    prev = np.zeros(2)
    for d in range(1, 9):
        masses = [law.mass(i) for i in range(d + 1)]
        row = sum(mass * sigma_fig.entries[w.entry(i)] for i, mass in enumerate(masses))
        assert (row >= prev - 1e-15).all()
        prev = row
