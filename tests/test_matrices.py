import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import relochain as rc
from relochain.cli import main
from relochain.errors import (
    NegativeEntryError,
    NoConvergenceError,
    NonFiniteEntryError,
    NonPositiveInputError,
    PeriodicError,
    ProportionalToStochasticWarning,
    ReducibleError,
    RowSumExceedsOneError,
    ZeroRowError,
)
from relochain import matrices
from relochain.matrices import CHECK_EVERY, CW_RTOL, DENSE_MAX_STATES, _certified_perron, _cw_bounds

from conftest import R_CLOSED, largest_eigenvalue


def test_validate_benchmark(sigma_fig):
    assert rc.structure_flags(sigma_fig.entries)[2] and sigma_fig.m == 2
    np.testing.assert_allclose(sigma_fig.row_sums(), [0.80, 0.76])
    with warnings.catch_warnings():
        warnings.simplefilter("error", ProportionalToStochasticWarning)  # killing is not uniform
        rc.validate_substochastic(sigma_fig.entries)


def test_validate_identity_reducible():
    with pytest.raises(ReducibleError):
        rc.validate_substochastic(np.eye(2))


def test_validate_periodic():
    with pytest.raises(PeriodicError):
        rc.validate_substochastic([[0.0, 0.9], [0.9, 0.0]])


def test_validate_proportional_warns():
    with pytest.warns(ProportionalToStochasticWarning):
        rc.validate_substochastic([[0.5, 0.5], [0.5, 0.5]])


def test_validate_negative_entry():
    # The entry prints as a float, as a non-finite one does, not as np.float64(-0.1).
    with pytest.raises(NegativeEntryError, match=r"^entry \(0, 1\) is negative: -0\.1$"):
        rc.validate_substochastic([[0.5, -0.1], [0.2, 0.3]])
    with pytest.raises(ValueError, match="at least one state"):
        rc.validate_substochastic(np.zeros((0, 0)))


def test_validate_clamps_rounding_noise_to_positive_zero():
    # Entries within 1e-15 below zero, -0.0 included, become +0.0 (a masked
    # assignment would keep -0.0); anything further below is an error.
    v = rc.validate_substochastic([[0.5, 0.2, -0.0], [-1e-15, 0.3, 0.4], [0.2, 0.2, 0.2]])
    assert v.entries[0, 2] == v.entries[1, 0] == 0.0
    assert not np.signbit(v.entries).any()
    with pytest.raises(NegativeEntryError, match=r"entry \(1, 0\) is negative"):
        rc.validate_substochastic([[0.5, 0.2, 0.0], [-2e-15, 0.3, 0.4], [0.2, 0.2, 0.2]])


def test_validate_row_sum_error_and_clamp():
    with pytest.raises(RowSumExceedsOneError):
        rc.validate_substochastic([[0.7, 0.4], [0.2, 0.3]])
    noisy = rc.validate_substochastic([[0.72, 0.28 + 5e-13], [0.18, 0.58]])
    assert noisy.row_sums().max() <= 1.0


_BAD_ENTRIES = {
    NonFiniteEntryError: st.sampled_from([math.nan, math.inf, -math.inf]),
    NegativeEntryError: st.floats(min_value=-1e6, max_value=-1e-9),
    RowSumExceedsOneError: st.floats(min_value=1.0 + 1e-9, max_value=1e6),
}


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31),
    error=st.sampled_from(sorted(_BAD_ENTRIES, key=lambda e: e.__name__)),
    data=st.data(),
)
def test_validate_rejects_bad_entries(m, seed, error, data):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.05, 1.0, size=(m, m))
    raw = raw / raw.sum(axis=1, keepdims=True) * 0.9
    s, t = rng.integers(m, size=2)
    raw[s, t] = data.draw(_BAD_ENTRIES[error])
    with pytest.raises(error):
        rc.validate_substochastic(raw)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sigma.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(rc.write_matrix_text(raw))
        assert main(["perron", "--sigma", path]) == 2


def test_validate_nan_entry():
    with pytest.raises(NonFiniteEntryError):
        rc.validate_substochastic([[math.nan, 0.1], [0.2, 0.5]])


def test_structure_flags_examples(sigma_fig):
    assert rc.structure_flags(sigma_fig.entries) == (True, True, True)
    assert rc.structure_flags([[0, 1], [1, 0]]) == (True, False, False)
    irreducible, _, _ = rc.structure_flags([[1, 1], [0, 1]])
    assert not irreducible


def _fresh_interpreter(code):
    """Run `code` in a new interpreter from the repository root with PYTHONPATH=src."""
    src = os.path.dirname(os.path.dirname(rc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", code], cwd=os.path.dirname(src), env=env, capture_output=True, text=True, timeout=120
    )


def test_strictly_positive_run_never_imports_csgraph():
    # csgraph is imported on the first support check of a matrix with a zero
    # entry; validating and solving a strictly positive one must not load it.
    code = (
        "import sys, relochain as rc\n"
        "rc.perron_triple(rc.load_matrix('configs/benchmark2.txt'))\n"
        "sys.exit('scipy.sparse.csgraph' in sys.modules)\n"
    )
    assert _fresh_interpreter(code).returncode == 0


# Exits with the names of the loaded scipy modules, if any.
_NO_SCIPY = "sys.exit(' '.join(sorted(k for k in sys.modules if k.startswith('scipy'))) or None)\n"


def test_solves_without_optimizer_or_large_chain_never_import_scipy():
    # Perron solves, the killed chain and small window chains need numpy only.
    code = (
        "import sys, relochain as rc\n"
        "sigma = rc.load_matrix('configs/benchmark2.txt')\n"
        "rc.perron_triple(sigma)\n"
        "law = rc.parse_relocation_law('explicit 0.5 0.5')\n"
        "rc.run_killed_chain(sigma, law, rc.HistoryWindow((0,)), 20, 1000, rc.RngSpec(0))\n"
        "rc.lifted_spectral_radius(rc.build_lifted(sigma, law))\n" + _NO_SCIPY
    )
    proc = _fresh_interpreter(code)
    assert proc.returncode == 0, proc.stderr


def test_cli_perron_never_imports_scipy():
    code = "import sys, relochain.cli\nrelochain.cli.main(['perron'])\n" + _NO_SCIPY
    proc = _fresh_interpreter(code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["r"] == pytest.approx(R_CLOSED, rel=1e-12)
    # The searches of bound-c3 and of a rate table are numpy only too.
    for argv, lines in (["bound-c3"], 1), (["rate-function", "--tau", "explicit 0.5 0.5", "--grid", "11"], 12):
        proc = _fresh_interpreter(f"import sys, relochain.cli\nrelochain.cli.main({argv!r})\n" + _NO_SCIPY)
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.splitlines()) == lines


def test_optimizer_and_rate_functions_never_import_scipy():
    # The BFGS search is numpy only: J*, I and an 11-point table of a
    # two-window law (4 windows, dense) load no scipy module.
    code = (
        "import sys, relochain as rc\n"
        "sigma = rc.load_matrix('configs/benchmark2.txt')\n"
        "print(rc.optimize_j(sigma).j_star)\n"
        "rc.rate_function_I(sigma, [0.3, 0.7])\n"
        "rc.rate_function_lifted(sigma, rc.RelocationLaw.explicit([0.5, 0.5]), grid_points=11)\n" + _NO_SCIPY
    )
    proc = _fresh_interpreter(code)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) == pytest.approx(0.790329, abs=1e-6)


def test_perron_closed_form(sigma_fig, triple_closed):
    r, rho, h = triple_closed
    triple = rc.perron_triple(sigma_fig)
    assert triple.r == pytest.approx(r, rel=1e-12)
    np.testing.assert_allclose(triple.rho, rho, atol=1e-11)
    np.testing.assert_allclose(triple.h, h, atol=1e-11)
    assert abs(triple.rho.sum() - 1.0) <= 1e-12
    assert abs(triple.rho @ triple.h - 1.0) <= 1e-12


def test_perron_residuals(sigma_fig):
    t = rc.perron_triple(sigma_fig)
    a = sigma_fig.entries
    assert np.abs(t.rho @ a - t.r * t.rho).max() <= 1e-10 * t.r
    assert np.abs(a @ t.h - t.r * t.h).max() <= 1e-10 * t.r


def test_perron_scalar_case():
    t = rc.perron_triple(np.array([[0.5]]))
    assert t.r == 0.5
    np.testing.assert_array_equal(t.rho, [1.0])
    np.testing.assert_array_equal(t.h, [1.0])


def test_perron_scaling(sigma_fig):
    r = rc.perron_triple(sigma_fig).r
    for c in (0.5, 2.0, 10.0):
        rc_scaled = rc.perron_triple(c * sigma_fig.entries).r
        assert rc_scaled == pytest.approx(c * r, rel=1e-12)


def test_tilt_identity_and_scaling(sigma_fig):
    r = rc.perron_triple(sigma_fig).r
    same = rc.perron_triple(rc.tilt(sigma_fig, [1.0, 1.0]))
    assert same.r == pytest.approx(r, rel=1e-13)
    doubled = rc.perron_triple(rc.tilt(sigma_fig, [2.0, 2.0]))
    assert doubled.r == pytest.approx(2 * r, rel=1e-12)


def test_tilt_by_h_identity(sigma_fig):
    # r_h = r * (rho_h h) because the tilted matrix has row sums (sigma h)(s) = r h(s).
    t = rc.perron_triple(sigma_fig)
    tilted = rc.perron_triple(rc.tilt(sigma_fig, t.h))
    assert tilted.r == pytest.approx(t.r * float(tilted.rho @ t.h), rel=1e-11)


def test_phi_map_examples(sigma_fig):
    out = rc.phi_map(np.array([1.0, 0.0]), sigma_fig.entries)
    np.testing.assert_allclose(out, [0.9, 0.1], atol=1e-15)
    # fixed point and scale cancellation
    rng = np.random.default_rng(42)
    for _ in range(20):
        a = rng.uniform(0.2, 3.0, size=2)
        sa = rc.tilt(sigma_fig, a)
        rho_a = rc.perron_triple(sa).rho
        np.testing.assert_allclose(rc.phi_map(rho_a, sa), rho_a, atol=1e-12)
        p = rng.dirichlet(np.ones(2))
        np.testing.assert_allclose(
            rc.phi_map(p, rc.tilt(sigma_fig, 2 * a)), rc.phi_map(p, sa), atol=1e-14
        )


@pytest.mark.parametrize("p", [[-1.0, 2.0], [math.inf, 1.0], [math.nan, 1.0], [1.0], [0.2, 0.3, 0.5]])
def test_phi_map_takes_finite_nonnegative_weights_on_the_states(sigma_fig, p):
    # [-1, 2] gave [-0.5, 1.5] and [inf, 1] a NaN with a RuntimeWarning.
    with pytest.raises(ValueError, match="p must be 2 finite nonnegative weights"):
        rc.phi_map(p, sigma_fig.entries)


def test_hilbert_distance_examples():
    assert rc.hilbert_distance([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert rc.hilbert_distance([1.0, 1.0], [2.0, 2.0]) == 0.0
    assert rc.hilbert_distance([1.0, 2.0], [2.0, 1.0]) == pytest.approx(math.log(4.0), rel=1e-14)
    with pytest.raises(NonPositiveInputError):
        rc.hilbert_distance([1.0, 0.0], [1.0, 1.0])
    # This raised numpy's "zero-size array to reduction operation maximum".
    with pytest.raises(ValueError, match="expected at least one coordinate"):
        rc.hilbert_distance([], [])


@pytest.mark.parametrize(
    "x, y, error",
    [
        ([math.nan, 1.0], [1.0, 1.0], NonPositiveInputError),
        ([1.0, 1.0], [math.inf, 1.0], NonPositiveInputError),
        ([1.0, 2.0], [1.0], ValueError),
        ([[1.0, 2.0]], [1.0, 2.0], ValueError),
    ],
    ids=["nan", "inf", "lengths", "two-dimensional"],
)
def test_hilbert_distance_rejects_what_tilt_vector_rejects(x, y, error):
    # These returned nan, inf (or -inf) and a broadcast 0.693 (log 2).
    with pytest.raises(error):
        rc.hilbert_distance(x, y)
    with pytest.raises(error):
        rc.hilbert_distance(y, x)


def test_hilbert_triangle_inequality():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        m = rng.integers(2, 6)
        x, y, z = rng.uniform(0.05, 5.0, size=(3, m))
        dxz = rc.hilbert_distance(x, z)
        dxy = rc.hilbert_distance(x, y)
        dyz = rc.hilbert_distance(y, z)
        assert dxz <= dxy + dyz + 1e-12


def test_hilbert_diameter_of_convex_hull():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = rng.integers(2, 5)
        k = rng.integers(2, 6)
        points = rng.dirichlet(np.ones(m) * 2.0, size=k) * 0.9 + 0.1 / m
        diam = max(
            rc.hilbert_distance(points[i], points[j])
            for i in range(k)
            for j in range(i + 1, k)
        )
        for _ in range(5):
            w1, w2 = rng.dirichlet(np.ones(k), size=2)
            combo1 = w1 @ points
            combo2 = w2 @ points
            assert rc.hilbert_distance(combo1, combo2) <= diam + 1e-12


def test_birkhoff_examples(sigma_fig):
    assert rc.birkhoff_contraction(np.array([[0.3, 0.7], [0.3, 0.7]])) == pytest.approx(0.0, abs=1e-15)
    assert rc.birkhoff_contraction(np.array([[0.0, 0.7], [0.3, 0.7]])) == 1.0
    with pytest.raises(ZeroRowError):
        rc.birkhoff_contraction(np.array([[0.0, 0.0], [0.3, 0.7]]))
    delta = math.log((0.72 * 0.58) / (0.08 * 0.18))
    assert rc.birkhoff_contraction(sigma_fig) == pytest.approx(math.tanh(delta / 4.0), rel=1e-14)


def test_contraction_property(sigma_fig):
    rng = np.random.default_rng(3)
    for _ in range(1000):
        a = rng.uniform(0.2, 4.0, size=2)
        sa = rc.tilt(sigma_fig, a)
        kappa = rc.birkhoff_contraction(sa)
        x, y = rng.dirichlet(np.ones(2) * 0.7, size=2)
        x = np.clip(x, 1e-6, None)
        y = np.clip(y, 1e-6, None)
        lhs = rc.hilbert_distance(rc.phi_map(x, sa), rc.phi_map(y, sa))
        assert lhs <= kappa * rc.hilbert_distance(x, y) + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31),
    scale=st.floats(min_value=0.2, max_value=0.98),
)
def test_perron_residuals_random(m, seed, scale):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.05, 1.0, size=(m, m))
    # Unequal row sums, so that neither Perron vector is trivially flat.
    raw = raw / raw.sum(axis=1, keepdims=True) * scale * rng.uniform(0.5, 1.0, size=(m, 1))
    oracle = largest_eigenvalue(raw)
    for a in (raw, raw.T):
        cert = _certified_perron(a.dot, m, lambda: a)
        assert cert.lower - 1e-14 * oracle <= oracle <= cert.upper + 1e-14 * oracle
        assert cert.upper - cert.lower <= 1e-12 * cert.radius
    t = rc.perron_triple(raw)
    assert np.abs(t.rho @ raw - t.r * t.rho).max() <= 1e-10 * t.r
    assert np.abs(raw @ t.h - t.r * t.h).max() <= 1e-10 * t.r
    assert abs(t.rho.sum() - 1.0) <= 1e-12
    assert abs(t.rho @ t.h - 1.0) <= 1e-12


def test_envelope_stop_keeps_a_valid_enclosure():
    # 100 states take the power path; a lazy cycle converges slowly. An
    # envelope the row sums already decide stops at the first gap check; a
    # tighter one stops before the full certificate. Each stopped interval
    # still encloses the radius, on the envelope's side.
    rng = np.random.default_rng(5)
    n = 100
    a = 0.3 * np.eye(n) + 0.6 * np.roll(np.eye(n), 1, axis=1) + 0.001 * rng.uniform(size=(n, n))
    a *= rng.uniform(0.8, 1.0, size=(n, 1))
    oracle = largest_eigenvalue(a)
    full = _certified_perron(a.dot, n, None)
    unbounded = _certified_perron(a.dot, n, None, envelope=(-math.inf, math.inf))
    assert (unbounded.lower, unbounded.upper, unbounded.iterations) == (full.lower, full.upper, full.iterations)
    sums = a.sum(axis=1)
    for below, above, first_check in (
        (sums.max() * 1.01, math.inf, True),
        (-math.inf, sums.min() * 0.99, True),
        (oracle * (1 + 1e-4), math.inf, False),
        (-math.inf, oracle * (1 - 1e-4), False),
    ):
        res = _certified_perron(a.dot, n, None, envelope=(below, above))
        assert res.upper <= below or res.lower >= above
        assert res.lower - 1e-14 * oracle <= oracle <= res.upper + 1e-14 * oracle
        if first_check:
            assert res.iterations == CHECK_EVERY
        else:
            assert 1 < res.iterations < full.iterations


def power_test_operator(kind, seed):
    """(dense matrix, certified solve) of a 65-400 state operator of the given kind, which takes the power path."""
    rng = np.random.default_rng(seed)
    if kind == "window":  # a badly scaled tilt of a random sigma: 128 to 256 windows
        m = [2, 3, 4][seed % 3]
        d = {2: 6 + seed % 2, 3: 4, 4: 3}[m]
        raw = rng.uniform(0.05, 1.0, size=(m, m))
        sigma = raw / raw.sum(axis=1, keepdims=True) * rng.uniform(0.3, 0.98, size=(m, 1))
        tilted = sigma * rng.lognormal(0.0, 2.0, size=m)
        chain = rc.build_lifted(tilted, rc.RelocationLaw.explicit(rng.dirichlet(np.ones(d + 1))))
        return chain.operator.toarray(), lambda: rc.lifted_spectral_radius(chain)
    n = int(rng.integers(DENSE_MAX_STATES + 1, 401))
    a = rng.uniform(0.0, 1.0, size=(n, n))
    cycle = np.roll(np.eye(n), 1, axis=1)
    if kind == "sparse":  # about 3 entries per row, irreducible through the cycle
        a = a * (rng.random((n, n)) < 3.0 / n) + rng.uniform(0.1, 1.0, size=(n, 1)) * cycle
    elif kind == "lazy":
        a = (0.3 * np.eye(n) + 0.6 * cycle + 0.001 * a) * rng.uniform(0.8, 1.0, size=(n, 1))
    elif kind == "periodic":  # period 2: -r is an eigenvalue too
        a[: n // 2, : n // 2] = 0.0
        a[n // 2 :, n // 2 :] = 0.0
    return a, lambda: _certified_perron(a.dot, n, None)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ["positive", "sparse", "lazy", "periodic", "window"])
def test_power_path_encloses_the_eigvals_radius(kind, seed):
    # The power iteration with Ritz restarts against np.linalg.eigvals. The
    # Perron root is the largest real part (of largest modulus too, but -r
    # ties it on a periodic support).
    a, solve = power_test_operator(kind, seed)
    res = solve()
    oracle = float(np.linalg.eigvals(a).real.max())
    assert res.iterations > 0
    assert res.lower - 1e-14 * oracle <= oracle <= res.upper + 1e-14 * oracle
    assert res.upper - res.lower <= CW_RTOL * res.upper


def test_spectral_radius_rejects_zero_perron_entries():
    # Reducible: the right vector of r = 0.5 is (1, 0), and no strictly
    # positive vector certifies r, so the solver must fail loudly.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoConvergenceError, match="strict positivity"):
            rc.spectral_radius(np.array([[0.5, 0.1], [0.0, 0.3]]))


def test_spectral_radius_rejects_negative_entries():
    # Named as perron_triple names it, not left to the solver's positivity check.
    for raw in ([[-2.0, 0.0], [0.0, 1.0]], [[0.5, -1e-3], [0.2, 0.3]]):
        with pytest.raises(NegativeEntryError):
            rc.spectral_radius(np.array(raw))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_raw_matrix_solvers_reject_non_finite_entries(bad):
    # Named where the entries enter, not left to numpy's LinAlgError (which
    # is no RelochainError) or, for -inf, reported as a negative entry.
    raw = np.array([[bad, 0.5], [0.5, 0.2]])
    for solve in (rc.spectral_radius, rc.perron_triple):
        with pytest.raises(NonFiniteEntryError):
            solve(raw)


def test_power_path_rejects_a_nan_entry():
    # 65 states skip the dense eigensolve; a NaN made the power iteration's
    # row-sum shift NaN, reported as "zero operator has no Perron radius".
    raw = np.full((DENSE_MAX_STATES + 1, DENSE_MAX_STATES + 1), 0.01)
    raw[3, 7] = math.nan
    with pytest.raises(NonFiniteEntryError):
        rc.spectral_radius(raw)


def wrapper_dense_step(a):
    """The dense step of `_certified_perron` written on np.linalg.eig: (radius, v, lower, upper), or None to fall through."""
    vals, vecs = np.linalg.eig(a)
    k = int(np.argmax(vals.real))
    top = float(vals[k].real)
    v = vecs[:, k].real
    v = v / v[np.argmax(np.abs(v))]
    if (v > 0.0).all():
        lo, hi = _cw_bounds(a @ v / v, a.shape[0])
        if hi - lo <= CW_RTOL * hi:
            return top, v, lo, hi
    return None


def dense_test_matrix(kind, n, seed):
    """A nonnegative n x n matrix of the given kind; a window matrix of at most 64 windows for "window"."""
    rng = np.random.default_rng(seed)
    if kind == "window":
        m = int(rng.integers(2, 5))
        d = int(rng.integers(0, {2: 6, 3: 3, 4: 2}[m]))  # m**(d+1) <= DENSE_MAX_STATES
        raw = rng.uniform(0.05, 1.0, size=(m, m))
        sigma = raw / raw.sum(axis=1, keepdims=True) * rng.uniform(0.3, 0.98, size=(m, 1))
        tilted = sigma * rng.lognormal(0.0, 2.0, size=m)
        return rc.build_lifted(tilted, rc.RelocationLaw.explicit(rng.dirichlet(np.ones(d + 1)))).dense()
    a = rng.uniform(0.0, 1.0, size=(n, n))
    if kind == "zeros":
        a[rng.random((n, n)) < 0.6] = 0.0
    elif kind == "periodic":  # a weighted n-cycle: every eigenvalue has modulus r
        a = a * np.roll(np.eye(n), 1, axis=1)
    elif kind == "scaled":  # a badly scaled tilt, whose small eigenvector entries eig resolves loosely
        a = a * rng.lognormal(0.0, 4.0, size=n)
    return a


def solver_outcome(a):
    """The certificate of `_certified_perron` on `a`, in bits, or the type of the error it raised."""
    try:
        res = _certified_perron(a.dot, a.shape[0], lambda: a)
    except (ValueError, NoConvergenceError) as exc:
        return type(exc)
    return res.radius.hex(), res.lower.hex(), res.upper.hex(), res.right_vector.tobytes(), res.iterations


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(["positive", "zeros", "periodic", "scaled", "window"]),
    n=st.integers(min_value=1, max_value=DENSE_MAX_STATES),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    transpose=st.booleans(),
)
@example(kind="scaled", n=13, seed=76, transpose=False)  # these three fall through to the power path
@example(kind="periodic", n=35, seed=34, transpose=False)
@example(kind="zeros", n=3, seed=2, transpose=False)
def test_dense_step_keeps_the_bits_of_np_linalg_eig(kind, n, seed, transpose):
    # The solver calls the gufunc np.linalg.eig wraps; every certificate it
    # gives must be the one the wrapper gave, bit for bit, on C-ordered
    # matrices and on the F-ordered transposes that _perron_triple passes.
    # Where the wrapper's step did not certify, the power iterations must
    # match too, as the eigensolve's leading eigenvalue picks the shift.
    a = dense_test_matrix(kind, n, seed)
    if transpose:
        a = a.T
    wrapped = wrapper_dense_step(a)
    outcome = solver_outcome(a)
    if wrapped is not None:
        radius, v, lower, upper = wrapped
        assert outcome == (radius.hex(), lower.hex(), upper.hex(), v.tobytes(), 0)
    else:
        wrapper = SimpleNamespace(eig=lambda x, signature: np.linalg.eig(x))
        with mock.patch.object(matrices, "_umath_linalg", wrapper):
            assert outcome == solver_outcome(a)


def test_unconverged_eigensolve_falls_back_to_power_iteration(monkeypatch, sigma_fig):
    # dgeev's failure leaves NaN eigenvalues and raises the invalid flag; the
    # solver must take the power path, even beside a vector that would
    # certify, and let no RuntimeWarning out.
    def unconverged(a, signature):
        nan = np.full(a.shape[:-1], np.inf) - np.inf  # sets the invalid flag, as the gufunc does
        return nan.astype(complex), np.linalg.eig(a)[1].astype(complex)

    monkeypatch.setattr(matrices, "_umath_linalg", SimpleNamespace(eig=unconverged))
    a = sigma_fig.entries
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = _certified_perron(a.dot, 2, lambda: a)
        triple = rc.perron_triple(sigma_fig)
    assert res.iterations > 0
    assert res.lower <= R_CLOSED <= res.upper
    assert triple.r == pytest.approx(R_CLOSED, rel=1e-12)


def reference_triple(a, terms=None):
    """The Perron triple as `_perron_triple` computed it one operator at a time: two solves, then the Rayleigh quotient."""
    n, at = a.shape[0], a.T
    v = _certified_perron(a.dot, n, lambda: a, terms).right_vector
    u = _certified_perron(at.dot, n, lambda: at, terms).right_vector
    rho = u / u.sum()
    r = float(rho @ (a @ v) / (rho @ v))
    return r, v / (rho @ v), rho


def triple_bits(triple):
    """A triple's bits, or the type and message of the error that stood for it."""
    if isinstance(triple, Exception):
        return type(triple), str(triple)
    if isinstance(triple, tuple):
        r, h, rho = triple
    else:
        r, h, rho = triple.r, triple.h, triple.rho
    return r.hex(), h.tobytes(), rho.tobytes()


def outcome_of(solve, *args):
    try:
        return triple_bits(solve(*args))
    except (NoConvergenceError, ValueError) as exc:
        return triple_bits(exc)


# Tilted by exp(-S) on state 0, the window chains of this matrix fail the
# dense certificate at S = 45 and 60 (see test_bounds.py).
BADLY_SCALED = [[0.3, 0.6, 0.0], [0.0, 0.0, 0.9], [0.8, 0.0, 0.0]]


def stacked_test_operators(n, size, seed):
    """`size` nonnegative n x n operators as `_perron_triples` takes them.

    Up to 64 states, mixed kinds as one (size, n, n) stack. At 65, positive
    members as one stack, but the next to last has row 0 zero off the
    diagonal and the last column 0, so that the right and the left Perron
    vector of one of them has a zero entry. At 128, the sparse operators of
    128-window chains of badly scaled two-state tilts.
    """
    rng = np.random.default_rng(seed)
    if n == 128:
        ops = []
        for _ in range(size):
            raw = rng.uniform(0.05, 1.0, size=(2, 2))
            sigma = raw / raw.sum(axis=1, keepdims=True) * rng.uniform(0.3, 0.98, size=(2, 1))
            law = rc.RelocationLaw.explicit(rng.dirichlet(np.ones(7)))
            ops.append(rc.build_lifted(sigma * rng.lognormal(0.0, 2.0, size=2), law).operator)
        return ops
    if n > DENSE_MAX_STATES:
        stack = rng.uniform(0.0, 1.0, size=(size, n, n)) / n
        stack[-2, 0, 1:] = 0.0
        stack[-1, 1:, 0] = 0.0
        return stack
    kinds = ["positive", "zeros", "scaled", "periodic"]
    return np.array([dense_test_matrix(kinds[int(rng.integers(4))], n, int(rng.integers(2**32))) for _ in range(size)])


@pytest.mark.parametrize(
    "n, size, seed",
    [(2, 1, 0), (2, 40, 1), (3, 17, 2), (4, 33, 3), (9, 12, 4), (16, 9, 5), (27, 6, 6), (64, 3, 7), (65, 4, 8), (128, 4, 9)],
)
def test_stacked_triples_keep_the_bits_of_single_solves(monkeypatch, n, size, seed):
    # Every member of a stack gets the outcome a solve of it alone gives,
    # and the one the one-operator solver gave before stacks existed: its
    # triple's bits, or its error's type and message. Up to 64 states a
    # member that fails the dense certificate takes the power path; above,
    # every side of a dense or sparse operator takes it. Members whose solve
    # raises leave the others their bits.
    stack = stacked_test_operators(n, size, seed)
    want = [outcome_of(reference_triple, a) for a in stack]
    assert [triple_bits(t) for t in matrices._perron_triples(stack)] == want
    assert [triple_bits(matrices._perron_triples(stack[k : k + 1])[0]) for k in range(size)] == want
    errors = [bits for bits in want if isinstance(bits[0], type)]
    # Sparse "zeros" members make these raise, and two of the 65-state stack.
    assert bool(errors) == (seed in (1, 2, 3, 4, 5, 8))
    powered = []
    power_perron = matrices._power_perron

    def recording(matvec, *args):
        powered.append(args)
        return power_perron(matvec, *args)

    monkeypatch.setattr(matrices, "_power_perron", recording)
    matrices._perron_triples(stack)
    if seed == 7:  # this stack holds a member that falls back and certifies
        assert powered
    if n > DENSE_MAX_STATES:  # both sides of every member, but the left of the one whose right raises
        assert len(powered) == 2 * size - (seed == 8)


@pytest.mark.parametrize("spread", [45, 60])
def test_badly_scaled_members_fall_back_alone(monkeypatch, spread):
    # The window chains of BADLY_SCALED tilted by exp(-S) on state 0 fail the
    # dense certificate; in a stack with well-scaled tilts, only they take the
    # power path, and every member keeps the bits of its solve alone.
    sigma = np.array(BADLY_SCALED)
    law = rc.RelocationLaw.explicit([0.5, 0.5])
    tilts = [np.exp([-spread, 0.0, 0.0]), np.ones(3), np.exp([0.3, -0.2, 0.0]), np.exp([-spread, 0.5, 0.0])]
    stack = np.array([rc.build_lifted(sigma * a, law).dense() for a in tilts])
    powered = []
    power_perron = matrices._power_perron

    def recording(matvec, n, top, *args):
        powered.append(top)
        return power_perron(matvec, n, top, *args)

    monkeypatch.setattr(matrices, "_power_perron", recording)
    stacked = [triple_bits(t) for t in matrices._perron_triples(stack, 3)]
    falls = len(powered)
    assert falls >= 2
    assert stacked == [outcome_of(reference_triple, a, 3) for a in stack]
    assert len(powered) == 2 * falls  # the reference solves took the same power paths


def test_a_stack_member_that_raises_gets_its_error_in_its_slot(sigma_fig):
    # [[0.5, 0.1], [0, 0.3]] is reducible: its Perron vector has a zero entry,
    # so the power path raises. In a stack its slot holds that error and the
    # others their triples; alone, the solve raises it.
    reducible = np.array([[0.5, 0.1], [0.0, 0.3]])
    stack = np.array([sigma_fig.entries, reducible, sigma_fig.entries * [1.5, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        triples = matrices._perron_triples(stack)
        with pytest.raises(NoConvergenceError, match="strict positivity"):
            matrices._perron_triple(reducible)
    assert isinstance(triples[1], NoConvergenceError) and "strict positivity" in str(triples[1])
    assert [triple_bits(triples[k]) for k in (0, 2)] == [triple_bits(matrices._perron_triple(stack[k])) for k in (0, 2)]


@pytest.mark.parametrize("scale", [1e100, 1e250, 1e-100, 1e-250])
def test_power_path_certifies_huge_and_tiny_radii(scale):
    # The radius of a constant 65 x 65 matrix is 65 times its entry. Past
    # about 1e+-77 the iterate used to overflow or underflow between
    # sup-normalizations (RuntimeWarnings, then NoConvergenceError).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = _certified_perron(np.full((65, 65), scale).dot, 65, None)
    exact = 65 * Fraction(scale)
    assert Fraction(res.lower) <= exact <= Fraction(res.upper)
    assert res.upper - res.lower <= CW_RTOL * res.upper


@pytest.mark.parametrize("power", [400, -400, 150])
def test_power_path_rescale_is_exact(power):
    # An operator scaled by 2**power is solved as the operator itself: every
    # bound and vector is the unscaled one times a power of two.
    rng = np.random.default_rng(11)
    a = rng.uniform(0.0, 0.2, size=(80, 80))  # row sums near 8: a shift near 0.8, not rescaled
    base = _certified_perron(a.dot, 80, None)
    scaled_a = a * 2.0**power
    scaled = _certified_perron(scaled_a.dot, 80, None)
    assert scaled.iterations == base.iterations
    assert (scaled.lower, scaled.upper, scaled.radius) == tuple(x * 2.0**power for x in (base.lower, base.upper, base.radius))
    assert scaled.right_vector.tobytes() == base.right_vector.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    a=st.integers(min_value=1, max_value=6).flatmap(
        lambda m: hnp.arrays(np.float64, (m, m), elements=st.floats(allow_nan=False, allow_infinity=False))
    )
)
def test_matrix_text_roundtrip(a):
    # Every finite float, the 2-digit benchmark's and the drawn ones, comes
    # back bit for bit; 12 significant digits lost most of them.
    for entries in (rc.benchmark_matrix().entries, a):
        text = rc.write_matrix_text(entries)
        assert rc.read_matrix_text(text).tobytes() == entries.tobytes()
        assert text.splitlines()[0] == str(len(entries))
    for text, message in (
        ("2\n0.5 0.5\n0.5", "expected 4 entries"),
        ("", "empty matrix text"),
        ("two\n0.5 0.5\n0.5 0.5", "first token must be the dimension"),
    ):
        with pytest.raises(ValueError, match=message):
            rc.read_matrix_text(text)


def exact_root_2x2(a):
    """Perron root of a 2x2 float matrix from its closed form in 60-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 60
        p, q, r, s = (Decimal(float(x)) for x in np.asarray(a).ravel())
        trace, det = p + s, p * s - q * r
        return (trace + (trace * trace - 4 * det).sqrt()) / 2


def test_cw_bounds_enclose_exact_2x2_root():
    # Rounding in (Av)/v alone can put both bounds on one side of the root;
    # the benchmark matrix of configs/benchmark2.txt is such a case.
    rng = np.random.default_rng(17)
    cases = [rc.benchmark_matrix()]
    for _ in range(500):
        raw = rng.uniform(0.05, 1.0, size=(2, 2))
        raw = raw / raw.sum(axis=1, keepdims=True) * rng.uniform(0.2, 0.98) * rng.uniform(0.5, 1.0, size=(2, 1))
        cases.append(rc.validate_substochastic(raw))
    for sigma in cases:
        a = sigma.entries
        root = exact_root_2x2(a)
        for res in (
            _certified_perron(a.dot, 2, lambda: a),
            rc.lifted_spectral_radius(rc.build_lifted(sigma, rc.RelocationLaw.dirac(0))),
        ):
            assert Decimal(res.lower) <= root <= Decimal(res.upper)
        exact = rc.bracket_radius(sigma, rc.RelocationLaw.dirac(0))
        assert Decimal(exact.lo) <= root <= Decimal(exact.hi)
        # A depth-0 truncation keeps only mass(0) = 1/2, so the lower end of
        # the bracket is the benchmark envelope, which must not exceed the root.
        bracket = rc.bracket_radius(sigma, rc.RelocationLaw.geometric(0.5), d_max=0)
        assert bracket.lo_lift < bracket.lo
        assert Decimal(bracket.lo) <= root
