"""Validated nonnegative matrix algebra for killed-chain benchmarks.

Covers construction and structure checking of sub-stochastic matrices,
certified Perron spectral elements (a dense eigensolve for small operators,
a shifted power iteration with Ritz restarts otherwise, each accepted only
on a tight Collatz-Wielandt enclosure), positive tilting, the normalized
simplex map driven by a tilted matrix, the Hilbert projective metric, and
Birkhoff contraction coefficients.

The dense step is written once, for a stack of operators, around the one
dgeev call of the package (`_dense_certificates`). `_perron_triples` is
the only two-sided solve: it checks a stack of up to DENSE_MAX_STATES
states at once and sends a side that fails the check, and every side of a
larger numpy or scipy-sparse operator, down the power path alone, so each
member's triple, or the error its solve raised, is the one its solve alone
gives.
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
KRYLOV_SIZE = 3  # Arnoldi basis of a Ritz restart; 3 measured best of 2 to 6 on fig2's lifts
NORM_EVERY = 4  # defer sup-normalization; growth over 4 steps stays in range (see SCALE_EXPONENT)
# Between sup-normalizations the power iterate grows or shrinks by about
# (1.1 r)^NORM_EVERY, which leaves double range for radii beyond about
# 1e+-77. When the shift's binary exponent exceeds this in size, the power
# path runs on the operator scaled by 2**-exponent: exact, so every iterate,
# bound and Ritz vector is the unscaled one times a power of two.
SCALE_EXPONENT = 100
# Largest operator solved by a dense eigensolve. Measured per solve on
# window chains with CSR power sweeps and Ritz restarts (2-core Xeon VM, one
# BLAS thread): eig 0.31-0.47 vs power 0.81 ms at N=32, 1.5-1.6 vs 1.06 ms at
# N=64, 10.6-11.4 vs 1.31 ms at N=128. The crossover lies between 32 and 64;
# a lower limit would change the bits of those radii.
DENSE_MAX_STATES = 64


@dataclass(frozen=True)
class SubStochasticMatrix:
    """Nonnegative matrix with row sums at most 1, irreducible and aperiodic.

    The row deficit 1 - sum_t entries[s, t] is the per-state killing
    probability. Construct through :func:`validate_substochastic`.
    """

    entries: np.ndarray

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

    Irreducibility is strong connectivity, from csgraph's strong components;
    aperiodicity is period 1, the gcd of depth(u) + 1 - depth(v) over all
    edges (u, v), with unweighted shortest-path depths from state 0. A
    reducible support is reported as not aperiodic.
    """
    a = _nonnegative_entries(raw)
    if (a > 0.0).all():
        # A complete digraph with self-loops: strongly connected, period 1.
        return True, True, True
    # Deferred: scipy.sparse costs about 0.2 s to import and csgraph about
    # 1 MB of RSS, and strictly positive matrices never need them.
    from scipy import sparse
    from scipy.sparse import csgraph

    # Positive entries only: csgraph reads a stored zero as an edge.
    edges = sparse.csr_array(a > 0)
    n_strong, _ = csgraph.connected_components(edges, directed=True, connection="strong")
    if n_strong > 1:
        return False, False, False
    depth = csgraph.dijkstra(edges, indices=0, unweighted=True).astype(np.int64)
    src, dst = edges.nonzero()
    return True, bool(np.gcd.reduce(depth[src] + 1 - depth[dst]) == 1), False


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

    irreducible, aperiodic, _ = structure_flags(a)
    if not irreducible:
        raise ReducibleError("support digraph is not strongly connected")
    if not aperiodic:
        raise PeriodicError("support digraph is periodic")

    if sums.max() - sums.min() <= ROW_SUM_TOL:
        warnings.warn(
            "matrix is proportional to a stochastic matrix; killing is uniform",
            ProportionalToStochasticWarning,
            stacklevel=2,
        )

    a.setflags(write=False)
    return SubStochasticMatrix(entries=a)


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
    `iterations` counts operator applications: the power sweeps and, per
    Ritz restart, its Arnoldi matvecs and the one that checks its vector
    (0 when the dense eigensolve certified).
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
    of `matvec` (n when omitted), or more to count other rounding; the dense
    step widens by the larger of n and `terms`. Operators with at most
    DENSE_MAX_STATES states are solved first by the dense step
    (`_dense_certificates`) on the n x n matrix that `dense()` builds, as a
    stack of one, so the matrix must be finite (callers pass validated or
    `_nonnegative_entries` entries). When dgeev does
    not converge (non-finite eigenvalues), when its eigenvector fails the
    certificate (badly scaled or reducible operators), and for every larger
    operator, a sup-normalized power iteration over `matvec` runs on
    A + shift I, so periodic supports converge too; the gap is read once
    every CHECK_EVERY sweeps. The shift is a tenth of the eigensolve's
    leading eigenvalue when that is positive (a row sum far above the radius
    would shrink the shifted gap), else a tenth of the largest row sum.

    A gap check that does not stop the solve restarts it on the leading Ritz
    vector of a KRYLOV_SIZE-vector Krylov space of the iterate
    (`_ritz_vector`), which removes the second eigenvalue that slows the
    power iteration. The Ritz vector is adopted only when it is strictly
    positive and the Collatz-Wielandt interval of a real matvec at it is
    narrower than the iterate's; otherwise the iterate goes on unchanged.

    With `envelope` = (below, above), the power iteration also returns at a
    gap check as soon as its widened interval lies at or below `below` or at
    or above `above`: the radius is then proved to sit on that side, and the
    result carries the still-valid, possibly wide, bounds at which it stopped.
    """
    top = 0.0
    if n <= DENSE_MAX_STATES:
        a = dense()
        tops, v, _, bounds, ok = _dense_certificates(a[None], lambda x: a @ x[0], terms)
        top = tops[0]
        if ok[0]:
            return _cw_result(top, v[0], 0, *bounds[0])
    return _power_perron(matvec, n, top, terms, envelope)


def _power_perron(matvec, n: int, top: float, terms: int | None, envelope: tuple[float, float] | None) -> SpectralResult:
    """The power path of `_certified_perron`, shifted by a tenth of `top` when that is positive.

    When the shift's binary exponent exceeds SCALE_EXPONENT in size, the
    sweeps run on the operator times 2**-exponent and the bounds are scaled
    back, so a radius far from 1 neither overflows nor underflows the iterate.
    """
    terms = n if terms is None else terms
    below, above = (-math.inf, math.inf) if envelope is None else envelope
    v = np.ones(n)
    av = matvec(v)
    shift = 0.1 * (top if top > 0.0 else float(av.max()))
    if not shift > 0.0:
        raise ValueError("zero operator has no Perron radius")
    scale = 1.0
    exponent = math.frexp(shift)[1]
    if abs(exponent) > SCALE_EXPONENT:
        scale, unscaled = math.ldexp(1.0, -exponent), matvec

        def matvec(x):
            return unscaled(x) * scale

        av *= scale
        shift, below, above = shift * scale, below * scale, above * scale
    applied = sweeps = 1
    while applied < MAX_SWEEPS:
        v *= shift
        v += av  # av + shift * v, in place: the same bits
        if sweeps % NORM_EVERY == 0:
            v /= v.max()  # positive iterates: the sup norm is the max
        av = matvec(v)
        applied += 1
        sweeps += 1
        if sweeps % CHECK_EVERY == 0:
            if not v.min() > 0.0:
                # A Perron vector with zero entries (reducible operator) underflows.
                raise NoConvergenceError("power iterate lost strict positivity; no certificate exists")
            lo, hi = _cw_bounds(av / v, terms)
            if not _settled(lo, hi, below, above):
                x = _ritz_vector(matvec, v, av)
                applied += KRYLOV_SIZE - 1
                if x is not None and x.min() > 0.0:
                    ax = matvec(x)
                    applied += 1
                    x_lo, x_hi = _cw_bounds(ax / x, terms)
                    # Only a narrower interval is adopted: a restart drops the
                    # iterate's tiny components, which may carry the certificate.
                    if x_hi - x_lo < hi - lo:
                        v, av, lo, hi = x, ax, x_lo, x_hi
            if _settled(lo, hi, below, above):
                return _cw_result(0.5 * (lo + hi) / scale, v / v.max(), applied, lo / scale, hi / scale)
    raise NoConvergenceError(f"power iteration did not certify in {MAX_SWEEPS} operator applications")


def _settled(lo: float, hi: float, below: float, above: float) -> bool:
    """True when [lo, hi] certifies the radius to CW_RTOL or lies at or beyond an envelope end."""
    return hi - lo <= CW_RTOL * hi or hi <= below or lo >= above


def _ritz_vector(matvec, v: np.ndarray, av: np.ndarray) -> np.ndarray | None:
    """Leading Ritz vector of A on the Krylov space of v, scaled to max |x| = 1.

    Arnoldi builds an orthonormal basis of span{v, A v, ..., A^(K-1) v}, K =
    KRYLOV_SIZE, in place in one K x n array, by classical Gram-Schmidt done
    twice; A v is read from av, so the basis costs K - 1 matvecs. A and
    A + shift I share the space and its Ritz vectors. The vector is that of
    the Ritz value of largest real part, which approximates the Perron root
    (Saad, Numerical Methods for Large Eigenvalue Problems, ch. 4 and 6).
    None when the space is invariant before K vectors. The result carries no
    certificate: the caller checks it with a real matvec.
    """
    basis = np.empty((KRYLOV_SIZE, v.shape[0]))
    h = np.zeros((KRYLOV_SIZE, KRYLOV_SIZE))
    norm = float(np.linalg.norm(v))
    np.divide(v, norm, out=basis[0])
    np.divide(av, norm, out=basis[1])
    for j in range(1, KRYLOV_SIZE):
        q, w = basis[:j], basis[j]
        for _ in range(2):
            c = q @ w
            w -= c @ q
            h[:j, j - 1] += c
        h[j, j - 1] = beta = float(np.linalg.norm(w))
        if not beta > 0.0:
            return None
        w /= beta
        if j + 1 < KRYLOV_SIZE:
            basis[j + 1] = matvec(w)
    h[:, -1] = basis @ matvec(basis[-1])
    vals, vecs = np.linalg.eig(h)
    x = vecs[:, int(np.argmax(vals.real))].real @ basis
    top, bottom = x.max(), x.min()
    x /= top if top >= -bottom else bottom
    return x


def _dense_certificates(stack: np.ndarray, times, terms: int | None):
    """The dense step of the certified solver over a (K, n, n) stack: (top, v, av, bounds, ok), one row or item each.

    One call of the dgeev gufunc that np.linalg.eig wraps gives the
    eigenvalues and right eigenvectors of every operator: the same bits
    without the wrapper's per-call checks, so the stack must be finite. Its
    non-convergence shows as NaN, under np.errstate(all="ignore") as every
    step here runs: a failed row may divide by zero or carry NaN, and its
    ok is False. `times(v)` returns each operator's product av with its row
    of the (K, n) array v. Per operator: top is the largest real part of an
    eigenvalue (a NaN, if any, is the argmax), v its eigenvector's real part
    scaled to max |v| = 1, bounds the widened Collatz-Wielandt interval
    (lo, hi) of (A v)/v, and ok is True when top is finite, v > 0 and
    hi - lo <= CW_RTOL * hi. The products sum n terms, so the bounds widen
    by the larger of n and `terms` (n when None), which may count other
    rounding, as a lift's weights do. Every array step is elementwise or one
    product or reduction per operator, so an operator gets the bits it gets
    in a stack of one.
    """
    with np.errstate(all="ignore"):
        vals, vecs = _umath_linalg.eig(stack, signature="d->DD")
        re, n = vals.real, vals.shape[-1]
        # Rows of (A v)/v, its negation and v, so that one min reduction gives
        # each operator's lo, -hi and least entry; negation is exact.
        parts = np.empty((3, len(vals), n))
        if len(vals) == 1:  # a single solve's stack of one: basic indexing, the same elements
            k = int(re[0].argmax())
            top = [re.item(k)]
            v = vecs.real[:, :, k]
            v = np.divide(v, v[0, abs(v[0]).argmax()], out=parts[2])
        else:
            rows = np.arange(len(vals))
            k = re.argmax(axis=1)
            top = re[rows, k].tolist()
            v = vecs.real[rows, :, k]
            v = np.divide(v, v[rows, np.abs(v).argmax(axis=1), None], out=parts[2])
        av = times(v)
        np.divide(av, v, out=parts[0])
        np.negative(parts[0], out=parts[1])
        extremes = np.minimum.reduce(parts, 2).tolist()
    terms = n if terms is None else max(n, terms)
    # The few numbers per operator are cheaper as Python floats than as arrays.
    bounds, ok = [], []
    for lo, neg_hi, least, t in zip(*extremes, top):
        lo, hi = _widened(lo, -neg_hi, terms)
        bounds.append((lo, hi))
        ok.append(hi - lo <= CW_RTOL * hi and least > 0.0 and math.isfinite(t))
    return top, v, av, bounds, ok


def _cw_bounds(ratio: np.ndarray, terms: int) -> tuple[float, float]:
    """min and max of ratio = (Av)/v, widened by `_widened` to enclose the exact values."""
    return _widened(float(ratio.min()), float(ratio.max()), terms)


def _widened(lo: float, hi: float, terms: int) -> tuple[float, float]:
    """The rounded extremes lo and hi of (Av)/v, widened outward to enclose the exact ones.

    Each entry of Av is a sum of `terms` nonnegative products, so it is
    within terms * 2**-53 relative of the exact one, and the division by v
    adds one rounding more. The bounds are widened outward by
    (terms + 2) * 2**-53 relative and then by one ulp, which covers the
    rounding of the widening itself.
    """
    slack = (terms + 2) * 2.0**-53
    return math.nextafter(lo * (1.0 - slack), 0.0), math.nextafter(hi * (1.0 + slack), math.inf)


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


def _perron_triple(a: np.ndarray, terms: int | None = None) -> PerronTriple:
    """Unchecked Perron triple of an irreducible nonnegative square array: `_perron_triples` on a stack of one, raising its error."""
    (triple,) = _perron_triples(a[None], terms)
    if isinstance(triple, Exception):
        raise triple
    return triple


def _perron_triples(ops, terms: int | None = None) -> list:
    """The Perron triple of each of K irreducible nonnegative n x n operators, or the exception its solve raised.

    Up to DENSE_MAX_STATES states `ops` is a (K, n, n) array: one
    `_dense_certificates` call solves and checks the 2K matrices
    [A_k; A_k^T], the left ones on the transposed views A_k.T, as
    `_certified_perron` multiplies a transpose. A side that fails the check
    takes that solver's power path, shifted by its own eigenvalue, as a
    solve of that side alone would; above the limit `ops` is any sequence
    of numpy or scipy-sparse operators, and every side takes it. `terms`
    counts the summands per row of A_k and A_k^T (n when omitted): m for a
    window operator. Right sides come first: a member whose right, else
    left, solve raises gets that exception, and the others their triples.
    """
    size, n = len(ops), ops[0].shape[-1]
    if n <= DENSE_MAX_STATES:

        def times(x):
            return np.concatenate((ops @ x[:size, :, None], ops.mT @ x[size:, :, None]))[:, :, 0]

        top, vectors, av, _, ok = _dense_certificates(np.concatenate((ops, ops.mT)), times, terms)
        av = av[:size]
    else:
        top, ok = [0.0] * (2 * size), [False] * (2 * size)
        vectors, av = np.empty((2 * size, n)), np.empty((size, n))
    failed = {}
    for row in [row for row, good in enumerate(ok) if not good]:
        k = row % size
        if k in failed:
            continue
        op = ops[k] if row < size else ops[k].T
        try:
            vectors[row] = _power_perron(op.dot, n, top[row], terms, None).right_vector
        except Exception as exc:  # this member's outcome; the others go on
            failed[k] = exc
            continue
        if row < size:
            av[row] = op @ vectors[row]
    if not failed:
        return _rayleigh_triples(av, vectors[:size], vectors[size:])
    keep = [k for k in range(size) if k not in failed]
    triples = iter(_rayleigh_triples(av[keep], vectors[keep], vectors[[size + k for k in keep]]))
    return [failed[k] if k in failed else next(triples) for k in range(size)]


def _rayleigh_triples(av, v, u) -> list[PerronTriple]:
    """One PerronTriple per row of the right vectors v, their products av = A v and the left vectors u.

    rho = u / sum(u), r is the two-sided Rayleigh quotient rho A v / rho v,
    whose error is quadratic in the vector residuals, and h = v / (rho v).
    """
    rho = u / np.add.reduce(u, 1, keepdims=True)
    rho_v = (rho[:, None, :] @ v[:, :, None])[:, 0]
    r = ((rho[:, None, :] @ av[:, :, None])[:, 0, 0] / rho_v[:, 0]).tolist()
    h = v / rho_v
    h.setflags(write=False)
    rho.setflags(write=False)
    return [PerronTriple(r=r_k, h=h_k, rho=rho_k) for r_k, h_k, rho_k in zip(r, h, rho)]


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
    """The shared matrix text of a square array, each entry as the repr of its float: `read_matrix_text` gives it back exactly."""
    a = _as_square_array(a)
    return "\n".join([str(a.shape[0])] + [" ".join(map(repr, row)) for row in a.tolist()]) + "\n"


def load_matrix(path) -> SubStochasticMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return validate_substochastic(read_matrix_text(fh.read()))
