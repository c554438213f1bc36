"""Validated nonnegative matrix algebra for killed-chain benchmarks.

Covers construction and structure checking of sub-stochastic matrices,
certified Perron spectral elements (a dense eigensolve for small operators,
a shifted power iteration otherwise, each accepted only on a tight
Collatz-Wielandt enclosure), positive tilting, the normalized simplex map
driven by a tilted matrix, the Hilbert projective metric, and Birkhoff
contraction coefficients.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    DegenerateImageError,
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

ROW_SUM_TOL = 1e-12
NEGATIVE_NOISE_TOL = 1e-15
CW_RTOL = 1e-12  # certified relative width of the Perron radius enclosure
MAX_SWEEPS = 100_000
CHECK_EVERY = 16  # power sweeps between Collatz-Wielandt checks
NORM_EVERY = 4  # defer sup-normalization; growth over 4 steps stays in range
# Largest operator solved by a dense eigensolve. Measured per solve on
# window chains with CSR power sweeps (2-core Xeon VM, one BLAS thread): eig
# 0.6 vs power 2.1 ms at N=32, 2.8 vs 2.5 ms at N=64, 18 vs 3.0 ms at N=128.
# N=64 sits at the crossover; a lower limit would change the bits of its radii.
DENSE_MAX_STATES = 64


@dataclass(frozen=True)
class SubStochasticMatrix:
    """Nonnegative matrix with row sums at most 1, irreducible and aperiodic.

    The row deficit 1 - sum_t entries[s, t] is the per-state killing
    probability. Construct through :func:`validate_substochastic`.
    """

    entries: np.ndarray
    strictly_positive: bool
    proportional_to_stochastic: bool

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    def row_sums(self) -> np.ndarray:
        return self.entries.sum(axis=1)


@dataclass(frozen=True)
class PerronTriple:
    """Spectral radius r with right vector h and left probability vector rho.

    Normalized so that rho sums to 1 and rho @ h = 1.
    """

    r: float
    h: np.ndarray
    rho: np.ndarray


def _as_square_array(raw) -> np.ndarray:
    a = np.asarray(raw, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("matrix must have at least one state")
    return a


def _nonnegative_entries(matrix) -> np.ndarray:
    """Entries of a validated matrix, or a raw square array of finite nonnegative entries.

    Every public function that takes a raw matrix reads it through here. The
    happy path is one min and one max reduction: a NaN fails the min test as a
    negative entry does, and only a failure looks for the entry and names it.
    """
    if isinstance(matrix, SubStochasticMatrix):
        return matrix.entries
    a = _as_square_array(matrix)
    if not (a.min() >= 0.0 and a.max() < math.inf):
        bad = ~np.isfinite(a)
        if bad.any():
            s, t = np.argwhere(bad)[0]
            raise NonFiniteEntryError(f"entry ({s}, {t}) is not finite: {float(a[s, t])!r}")
        s, t = np.unravel_index(np.argmin(a), a.shape)
        raise NegativeEntryError(f"entry ({s}, {t}) is negative: {float(a[s, t])!r}")
    return a


def structure_flags(raw) -> tuple[bool, bool, bool]:
    """(irreducible, aperiodic, strictly_positive) of the support digraph.

    Irreducibility is strong connectivity; aperiodicity is period 1, and a
    reducible support is reported as not aperiodic.
    """
    a = _nonnegative_entries(raw)
    if (a > 0.0).all():
        # A complete digraph with self-loops: strongly connected, period 1.
        return True, True, True
    return (*_digraph_structure(a), False)


def _digraph_structure(graph) -> tuple[bool, bool]:
    """(irreducible, aperiodic) of the digraph of the positive entries of a square array.

    `graph` is a dense array or a scipy sparse array. Strong components come
    from csgraph; the period is the gcd of depth(u) + 1 - depth(v) over all
    edges (u, v), with unweighted shortest-path depths from state 0. A
    reducible digraph gives (False, False).
    """
    # Deferred: scipy.sparse costs about 0.2 s to import and csgraph about
    # 1 MB of RSS, and strictly positive matrices never need them.
    from scipy import sparse
    from scipy.sparse import csgraph

    # Positive entries only: csgraph reads a stored zero as an edge.
    edges = sparse.csr_array(graph > 0)
    n_strong, _ = csgraph.connected_components(edges, directed=True, connection="strong")
    if n_strong > 1:
        return False, False
    depth = csgraph.dijkstra(edges, indices=0, unweighted=True).astype(np.int64)
    src, dst = edges.nonzero()
    return True, bool(np.gcd.reduce(depth[src] + 1 - depth[dst]) == 1)


def validate_substochastic(raw) -> SubStochasticMatrix:
    """Validate entries and structure, clamp rounding noise, and build the matrix.

    Entries within 1e-15 below zero become +0.0, and `_nonnegative_entries` names
    any other negative or non-finite one. Rows summing within 1e-12 above 1, as
    text inputs routinely do, are rescaled onto the simplex boundary. A matrix
    proportional to a stochastic one warns: uniform killing makes the comparison trivial.
    """
    a = _as_square_array(raw).copy()
    np.clip(a, 0.0, None, out=a, where=a >= -NEGATIVE_NOISE_TOL)
    _nonnegative_entries(a)

    sums = a.sum(axis=1)
    if (sums > 1.0 + ROW_SUM_TOL).any():
        s = int(np.argmax(sums))
        raise RowSumExceedsOneError(f"row {s} sums to {sums[s]!r} > 1 + {ROW_SUM_TOL}")
    over = sums > 1.0
    if over.any():
        a[over] /= sums[over, None]
        sums = a.sum(axis=1)

    irreducible, aperiodic, strictly_positive = structure_flags(a)
    if not irreducible:
        raise ReducibleError("support digraph is not strongly connected")
    if not aperiodic:
        raise PeriodicError("support digraph is periodic")

    proportional = bool(sums.max() - sums.min() <= ROW_SUM_TOL)
    if proportional:
        warnings.warn(
            "matrix is proportional to a stochastic matrix; killing is uniform",
            ProportionalToStochasticWarning,
            stacklevel=2,
        )

    a.setflags(write=False)
    return SubStochasticMatrix(
        entries=a,
        strictly_positive=strictly_positive,
        proportional_to_stochastic=proportional,
    )


def tilt_vector(a, m: int) -> np.ndarray:
    """Copy of a vector of m >= 1 positive finite coordinates (a tilt, a `hilbert_distance` point).

    A bad shape raises ValueError, a bad coordinate NonPositiveInputError.
    """
    v = np.asarray(a, dtype=float).copy()
    if v.ndim != 1:
        raise ValueError("expected a one-dimensional vector")
    if v.shape[0] == 0:
        raise ValueError("expected at least one coordinate")
    if v.shape[0] != m:
        raise ValueError(f"vector has length {v.shape[0]}, expected {m}")
    if not np.isfinite(v).all() or (v <= 0).any():
        raise NonPositiveInputError("coordinates must be positive and finite")
    return v


def tilt(sigma, a) -> np.ndarray:
    """Column-scale sigma by the positive weights a: result[s, t] = sigma[s, t] * a[t].

    Support is unchanged, so irreducibility and aperiodicity carry over.
    """
    entries = _nonnegative_entries(sigma)
    return entries * tilt_vector(a, entries.shape[0])[None, :]


@dataclass(frozen=True)
class SpectralResult:
    """Perron radius with its positive sup-normalized right vector v.

    `lower` and `upper` are min and max of (A v)/v, widened outward by the
    rounding of their evaluation, so they enclose the radius of the operator;
    `iterations` counts power sweeps (0 when the dense eigensolve certified).
    As v is sup-normalized and the radius lies in [lower, upper],
    max |A v - radius v| <= upper - lower.
    """

    radius: float
    right_vector: np.ndarray
    iterations: int
    lower: float
    upper: float


def _certified_perron(
    matvec, n: int, dense, terms: int | None = None, envelope: tuple[float, float] | None = None
) -> SpectralResult:
    """Perron radius and right vector, stopped by a Collatz-Wielandt gap.

    For any strictly positive v, min (Av)/v <= r <= max (Av)/v; a result is
    returned only once that interval, widened for rounding (`_cw_bounds`),
    is at most CW_RTOL * r wide. `terms` is the number of summands per row
    of `matvec` (n when omitted). Operators with at most DENSE_MAX_STATES
    states are solved first by LAPACK's dgeev on the n x n matrix that
    `dense()` builds, through the gufunc that np.linalg.eig wraps: the same
    bits without the wrapper's per-call checks, so the matrix must be finite
    (callers pass validated or `_nonnegative_entries` entries). When dgeev does
    not converge (non-finite eigenvalues), when its eigenvector fails the
    certificate (badly scaled or reducible operators), and for every larger
    operator, a sup-normalized power iteration over `matvec` runs on
    A + shift I, so periodic supports converge too; the gap is read once
    every CHECK_EVERY sweeps. The shift is a tenth of the eigensolve's
    leading eigenvalue when that is positive (a row sum far above the radius
    would shrink the shifted gap), else a tenth of the largest row sum.

    With `envelope` = (below, above), the power iteration also returns at a
    gap check as soon as its widened interval lies at or below `below` or at
    or above `above`: the radius is then proved to sit on that side, and the
    result carries the still-valid, possibly wide, bounds at which it stopped.
    """
    top = 0.0
    if n <= DENSE_MAX_STATES:
        a = dense()
        with np.errstate(all="ignore"):  # non-convergence shows as NaN, read below
            vals, vecs = _umath_linalg.eig(a, signature="d->DD")
        k = int(np.argmax(vals.real))  # a NaN, if any, is the argmax
        top = float(vals[k].real)
        v = vecs[:, k].real
        v = v / v[np.argmax(np.abs(v))]
        if math.isfinite(top) and (v > 0.0).all():
            lo, hi = _cw_bounds(a @ v / v, n)
            if hi - lo <= CW_RTOL * hi:
                return _cw_result(top, v, 0, lo, hi)

    terms = n if terms is None else terms
    below, above = (-math.inf, math.inf) if envelope is None else envelope
    v = np.ones(n)
    av = matvec(v)
    shift = 0.1 * (top if top > 0.0 else float(av.max()))
    if not shift > 0.0:
        raise ValueError("zero operator has no Perron radius")
    sweeps = 1
    while sweeps < MAX_SWEEPS:
        v = av + shift * v
        if sweeps % NORM_EVERY == 0:
            v /= v.max()  # positive iterates: the sup norm is the max
        av = matvec(v)
        sweeps += 1
        if sweeps % CHECK_EVERY == 0:
            if not v.min() > 0.0:
                # A Perron vector with zero entries (reducible operator) underflows.
                raise NoConvergenceError("power iterate lost strict positivity; no certificate exists")
            lo, hi = _cw_bounds(av / v, terms)
            if hi - lo <= CW_RTOL * hi or hi <= below or lo >= above:
                return _cw_result(0.5 * (lo + hi), v / v.max(), sweeps, lo, hi)
    raise NoConvergenceError(f"power iteration did not certify in {MAX_SWEEPS} sweeps")


def _cw_bounds(ratio: np.ndarray, terms: int) -> tuple[float, float]:
    """min and max of ratio = (Av)/v, widened to enclose the exact values.

    Each entry of Av is a sum of `terms` nonnegative products, so it is
    within terms * 2**-53 relative of the exact one, and the division by v
    adds one rounding more. The bounds are widened outward by
    (terms + 2) * 2**-53 relative and then by one ulp, which covers the
    rounding of the widening itself.
    """
    slack = (terms + 2) * 2.0**-53
    return (
        math.nextafter(float(ratio.min()) * (1.0 - slack), 0.0),
        math.nextafter(float(ratio.max()) * (1.0 + slack), math.inf),
    )


def _cw_result(radius, v, sweeps, lower, upper) -> SpectralResult:
    """Certificate of a strictly positive, sup-normalized v."""
    v.setflags(write=False)
    return SpectralResult(radius=radius, right_vector=v, iterations=sweeps, lower=lower, upper=upper)


def perron_triple(matrix) -> PerronTriple:
    """Spectral radius and eigenvectors of an irreducible nonnegative matrix.

    Accepts a validated SubStochasticMatrix or a raw square array such as a
    tilted matrix. The right and left vectors come from the certified solver
    on the matrix and on its transpose; r is their two-sided Rayleigh
    quotient. The result satisfies rho @ M = r rho and M @ h = r h to 1e-10
    relative, with sum(rho) = 1 and rho @ h = 1.
    """
    a = _nonnegative_entries(matrix)
    # Validation has already proved a SubStochasticMatrix irreducible.
    irreducible = isinstance(matrix, SubStochasticMatrix) or structure_flags(a)[0]
    if not irreducible or not a.any():  # a 1x1 zero passes the digraph test
        raise ReducibleError("matrix is reducible or zero; Perron data is not well defined here")
    return _perron_triple(a)


def _perron_triple(a, terms: int | None = None) -> PerronTriple:
    """Unchecked Perron triple of an irreducible nonnegative square operator.

    `a` is a numpy array, or a scipy sparse array of more than
    DENSE_MAX_STATES states. `terms` counts the summands per row of `a` and
    `a.T` (the order of `a` when omitted): m for a window operator, as every
    window has m successors and m predecessors.
    """
    n = a.shape[0]
    at = a.T
    v = _certified_perron(a.dot, n, lambda: a, terms).right_vector
    u = _certified_perron(at.dot, n, lambda: at, terms).right_vector

    rho = u / u.sum()
    # Two-sided Rayleigh estimate: error is quadratic in the vector residuals.
    r = float(rho @ (a @ v) / (rho @ v))
    h = v / (rho @ v)
    h.setflags(write=False)
    rho.setflags(write=False)
    return PerronTriple(r=r, h=h, rho=rho)


def spectral_radius(matrix) -> float:
    """Spectral radius only, certified from the right vector; cheaper than the full triple.

    The Perron vector must be strictly positive, as it is for irreducible
    matrices; otherwise no certificate exists and NoConvergenceError is raised.
    A negative entry raises NegativeEntryError.
    """
    a = _nonnegative_entries(matrix)
    return _certified_perron(a.dot, a.shape[0], lambda: a).radius


def phi_map(p, sigma_a) -> np.ndarray:
    """Normalized right action of a tilted matrix on the simplex: p sigma_a / (p sigma_a 1)."""
    entries = _nonnegative_entries(sigma_a)
    p = np.asarray(p, dtype=float)
    if p.shape != entries.shape[:1] or not (p.min() >= 0.0 and p.max() < math.inf):
        raise ValueError(f"p must be {entries.shape[0]} finite nonnegative weights, got {p.tolist()}")
    w = p @ entries
    total = w.sum()
    if total <= 0.0:
        raise DegenerateImageError("image p @ sigma_a vanished; input outside the admissible cone")
    return w / total


def hilbert_distance(x, y) -> float:
    """Projective distance log max(x/y) - log min(x/y) between positive vectors of one length."""
    x = tilt_vector(x, np.size(x))
    y = tilt_vector(y, x.shape[0])
    ratio = x / y
    return float(np.log(ratio.max()) - np.log(ratio.min()))


def birkhoff_contraction(matrix) -> float:
    """Contraction coefficient tanh(Delta/4) of the projective action of a matrix.

    Delta is the largest log cross-ratio over entry pairs. Any zero entry
    voids the strict-contraction certificate and the conventional value 1 is
    returned; rows of zeros are rejected outright.
    """
    a = _nonnegative_entries(matrix)
    if (a.sum(axis=1) == 0.0).any():
        raise ZeroRowError("matrix has a zero row")
    if (a == 0.0).any():
        return 1.0
    logs = np.log(a)
    # G[s, t, t'] = log a[s,t] - log a[s,t']; Delta = max over s,s' of G[s] - G[s'].
    g = logs[:, :, None] - logs[:, None, :]
    delta = float((g.max(axis=0) - g.min(axis=0)).max())
    return math.tanh(delta / 4.0)


def read_matrix_text(text: str) -> np.ndarray:
    """Parse the shared matrix text format: first line m, then m rows of m reals."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty matrix text")
    try:
        m = int(tokens[0])
    except ValueError as exc:
        raise ValueError(f"first token must be the dimension, got {tokens[0]!r}") from exc
    need = 1 + m * m
    if len(tokens) != need:
        raise ValueError(f"expected {need - 1} entries for a {m}x{m} matrix, got {len(tokens) - 1}")
    vals = [float(t) for t in tokens[1:]]
    return np.array(vals, dtype=float).reshape(m, m)


def write_matrix_text(a) -> str:
    a = _as_square_array(a)
    lines = [str(a.shape[0])]
    for row in a:
        lines.append(" ".join(f"{x:.12g}" for x in row))
    return "\n".join(lines) + "\n"


def load_matrix(path) -> SubStochasticMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return validate_substochastic(read_matrix_text(fh.read()))
