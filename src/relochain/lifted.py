"""Exact finite representation of the relocation chain on memory windows.

A bounded relocation law with support in {0..d} makes the chain Markov on
windows of d+1 states. Windows are encoded in mixed radix with the most
recent state most significant, so the successor of window index w under a
new state t is t * m**d + w // m: an integer shift-and-add, no lookup
tables. The kernel weight from window w toward t is
sum_i mass(i) * sigma[w_i, t]; the N x m array of these weights is the
stored object, and `_successor_table` is the one place the successor map is
written. `LiftedChain.operator` views the weights as the N x N sparse
window operator (m entries per row, int32 indices); power sweeps and survival
products run on it. Chains of at most
DENSE_MAX_STATES windows are solved on `LiftedChain.dense`, which scatters
the weights straight into an N x N array, so their solves never build the
sparse form. `_window_operators` is the one place that picks the format of
a whole stack of tilted kernels' operators, as the rate tables solve them:
one dense array (`_dense_lifts`) up to that limit, each chain's sparse
operator above. scipy.sparse is imported only when `operator` is first
built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import StateCapExceededError
from .matrices import DENSE_MAX_STATES, SpectralResult, SubStochasticMatrix
from .matrices import _certified_perron, _cw_bounds, _nonnegative_entries
from .relocation import HistoryWindow, RelocationLaw, TruncationResult, truncate_law

if TYPE_CHECKING:
    from scipy import sparse

STATE_CAP = 2**21  # largest window count a chain may have
D_MAX = 16  # default truncation depth cap of a radius bracket

EXACT = "exact"
LOWER = "lower"
UPPER = "upper"


@dataclass(frozen=True)
class LiftedChain:
    """Sub-stochastic chain on the m**(d+1) memory windows.

    `weights[w, t]` is the transition weight from window w toward state t,
    whose successor window is `successors[w, t]` = t * m**d + w // m.
    `operator` (sparse, cached) and `dense()` are two views of the same
    N x N window operator. Construct through :func:`build_lifted`.
    """

    m: int
    d: int
    weights: np.ndarray

    @property
    def n_states(self) -> int:
        return self.m ** (self.d + 1)

    def window_index(self, window: HistoryWindow) -> int:
        """Mixed-radix index of the window's first d + 1 entries, most recent most significant.

        A window shorter than d + 1 is padded with its oldest entry.
        """
        m = self.m
        if any(s >= m for s in window.states[: self.d + 1]):
            raise ValueError("window entry outside the state space")
        if m == 1:  # one window, whatever d is
            return 0
        idx = 0
        for s in window.truncated(self.d + 1):
            idx = idx * m + s
        return idx

    @cached_property
    def successors(self) -> np.ndarray:
        """N x m successor indices: entry (w, t) is t * m**d + w // m, int32 below 2**31 entries."""
        return _successor_table(self.n_states, self.m)

    @cached_property
    def operator(self) -> sparse.csr_array:
        """N x N sparse window operator: row w holds weights[w, t] in column successors[w, t].

        `data` is a view of `weights`; columns rise with t, so the CSR form
        is canonical and a matvec sums each row in the order t = 0..m-1.
        """
        from scipy import sparse

        n, m = self.n_states, self.m
        indptr = np.arange(0, n * m + 1, m, dtype=self.successors.dtype)
        return sparse.csr_array((self.weights.reshape(-1), self.successors.reshape(-1), indptr), shape=(n, n))

    def dense(self) -> np.ndarray:
        """The window operator as an N x N array, for chains of at most DENSE_MAX_STATES windows.

        The successors of a window are distinct, so the scatter writes each
        weight once and equals `operator.toarray()` exactly.
        """
        return _scatter(self.weights, self.successors)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """One sub-stochastic sweep u(w) = sum_t weights[w, t] * v(succ(w, t))."""
        return self.operator @ v


@dataclass(frozen=True)
class RadiusBracket:
    """Certified two-sided enclosure of the relocation-chain radius.

    `lo_lift` and `hi_lift` are the Collatz-Wielandt lower bound of the
    conservative lift and upper bound of the tail-majorized lift; when the
    law fits uncut (`exact`) they are the two Collatz-Wielandt bounds of
    one solve of the exact lift, at most 1e-12 relative apart, and equal
    `lo` and `hi`. Otherwise `lo` and `hi` additionally fold in the
    always-valid analytic envelopes (the Collatz-Wielandt lower bound of the
    benchmark radius from below, the largest benchmark row sum, widened
    outward, from above),
    which carry the certificate when the affordable truncation is loose.
    A lift field is then tight to 1e-12 only when it carries its end of the
    bracket, and is otherwise a valid bound on the envelope's side: a lift
    whose closed-form row sums already lose is not built, and its field
    holds that widened row-sum bound (the Collatz-Wielandt bound at v = 1);
    a built lift's solve stops as soon as it is proved to lose, and the
    field keeps the bound at which it stopped.
    """

    lo: float
    hi: float
    d_used: int
    tail_mass: float
    lo_lift: float
    hi_lift: float
    exact: bool
    cap_reached: bool


def _finite_masses(law_or_trunc) -> tuple[list[int], list[float], float]:
    """(depths, masses, tail_mass) of the two accepted forms: a bounded law or a `truncate_law` result."""
    if isinstance(law_or_trunc, RelocationLaw) and law_or_trunc.bounded:
        return list(law_or_trunc.depths), list(law_or_trunc.masses), 0.0
    if isinstance(law_or_trunc, TruncationResult):
        return list(range(law_or_trunc.d + 1)), law_or_trunc.masses.tolist(), law_or_trunc.tail_mass
    raise ValueError("law must be a bounded RelocationLaw or a truncate_law result")


def build_lifted(sigma, law, mode: str = EXACT) -> LiftedChain:
    """Assemble the window chain of sigma under a law of finite support.

    `sigma` may be a raw array; `law` is a bounded RelocationLaw or a
    `truncate_law` result, and any other law, geometric included, raises
    ValueError. Modes: exact uses the masses as given; lower is the
    conservative truncation (row deficits realize the discarded tail as
    killing); upper adds tail_mass * max_u sigma[u, t] to every weight toward
    t, which dominates the true kernel pointwise.

    The weights are those of `_window_weights`.
    """
    entries = _nonnegative_entries(sigma)
    if mode not in (EXACT, LOWER, UPPER):
        raise ValueError(f"unknown lift mode {mode!r}")
    depths, masses, tail_mass = _finite_masses(law)
    m = entries.shape[0]
    d = depths[-1]
    # Compared through the depth, so a far point mass never forms m**(d+1).
    best = _affordable_depth(m, d)
    if best < d:
        raise StateCapExceededError(
            f"m**(d+1) windows for m = {m}, d = {d} exceed the cap {STATE_CAP}; largest affordable d is {best}",
            best_d=best,
        )

    weights = _window_weights(entries, _mass_by_depth(depths, masses, m))
    if mode == UPPER and tail_mass > 0.0:
        weights += tail_mass * entries.max(axis=0)[None, :]

    weights.setflags(write=False)
    return LiftedChain(m=m, d=d, weights=weights)


def _mass_by_depth(depths: list[int], masses: list[float], m: int) -> np.ndarray:
    """tau(0), ..., tau(d) of a finite law; for m = 1 the one window's total, as every depth reads state 0."""
    if m == 1:
        return np.array([sum(masses)])
    tau = np.zeros(depths[-1] + 1)
    tau[depths] = masses
    return tau


def _window_weights(entries: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """N x m window weights of the m x m kernel `entries` under the masses tau, on any leading axes.

    The table is built from the oldest window digit up: with W the weights
    of the windows (w_{i+1}, ..., w_d), prefixing the digit w_i gives
    tau(i) sigma[w_i] + W, and w_i is the more significant digit. Every
    step is elementwise, so a kernel of a stack gets the weights it gets alone.
    """
    lead, m = entries.shape[:-2], entries.shape[-1]
    digit = entries[..., :, None, :]
    weights = tau[-1] * entries
    for i in range(len(tau) - 2, -1, -1):
        weights = (tau[i] * digit + weights[..., None, :, :]).reshape(lead + (-1, m))
    return weights


def _successor_table(n: int, m: int) -> np.ndarray:
    """N x m successor indices of N windows: entry (w, t) is t * N/m + w // m, int32 below 2**31 entries."""
    index = np.int32 if n * m < 2**31 else np.int64
    return np.arange(m, dtype=index) * (n // m) + (np.arange(n, dtype=index) // m)[:, None]


def _scatter(weights: np.ndarray, successors: np.ndarray) -> np.ndarray:
    """Dense N x N window operators of N x m weight tables, on any leading axes.

    Row w holds weights[w, t] in column successors[w, t].
    """
    n = weights.shape[-2]
    a = np.zeros(weights.shape[:-2] + (n, n))
    a[..., np.arange(n)[:, None], successors] = weights
    return a


def _dense_lifts(kernels: np.ndarray, law: RelocationLaw) -> np.ndarray:
    """`build_lifted(kernels[k], law).dense()` for every kernel of a (K, m, m) stack, as one (K, N, N) array.

    The kernels must be finite and nonnegative and the law bounded; the
    weight recursion and the scatter run once on the leading axis, entry
    for entry as the build of each kernel alone.
    """
    depths, masses, _ = _finite_masses(law)
    m = kernels.shape[-1]
    weights = _window_weights(kernels, _mass_by_depth(depths, masses, m))
    return _scatter(weights, _successor_table(weights.shape[-2], m))


def _window_operators(kernels: np.ndarray, law: RelocationLaw):
    """The window operators of a (K, m, m) stack of kernels under a bounded law, as `_perron_triples` takes them.

    One (K, N, N) array (`_dense_lifts`) up to DENSE_MAX_STATES windows, each
    chain's sparse `operator` above; past the state cap, build_lifted's error.
    """
    m, d = kernels.shape[-1], law.support_max
    if _affordable_depth(m, d) == d and m ** (d + 1) <= DENSE_MAX_STATES:
        return _dense_lifts(kernels, law)
    return [build_lifted(kernel, law).operator for kernel in kernels]


def lifted_spectral_radius(chain: LiftedChain) -> SpectralResult:
    """Certified Perron radius of the window operator.

    Chains of at most DENSE_MAX_STATES windows are solved by a dense
    eigensolve of `chain.dense()`; larger ones, and small ones
    whose eigenvector fails the Collatz-Wielandt check, by a shifted power
    iteration over `chain.apply` (O(m**(d+2)) per sweep, O(m**(d+1)) memory
    per vector). `lower` and `upper` enclose the radius to 1e-12 relative.
    """
    return _solve_lift(chain)


def _solve_lift(chain: LiftedChain, envelope: tuple[float, float] | None = None) -> SpectralResult:
    """`lifted_spectral_radius`, stopped early once the radius is proved outside `envelope`.

    The bounds enclose the radius of the exact lift, whose weights are the
    exact sums of `build_lifted`'s terms, not only of the rounded operator.
    A built weight sums d + 1 products (d + 2 terms with the majorizing one;
    for m = 1, the sum of the masses times sigma), so it is within
    (d + 2) * 2**-53 relative of the exact weight, and a product with the
    operator sums m nonzero products of weights: `terms` = m + d + 2 counts
    both roundings. The dense step widens by the larger of `terms` and its
    n = m**(d+1) columns, so it counts both as well: its product adds n - m
    exact zeros.
    """
    return _certified_perron(chain.apply, chain.n_states, chain.dense, terms=chain.m + chain.d + 2, envelope=envelope)


def survival_exact(chain: LiftedChain, init: HistoryWindow, n: int) -> float:
    """Probability that the window chain survives n transitions from `init`.

    n-fold application of the operator to the all-ones vector, read at the
    initial window.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    v = np.ones(chain.n_states)
    for _ in range(n):
        v = chain.apply(v)
    return float(v[chain.window_index(init)])


def _affordable_depth(m: int, d: int) -> int:
    """Largest depth at most d whose m**(depth+1) windows fit STATE_CAP (-1 if none)."""
    best = d if m == 1 else -1  # one window at every depth
    while best < d and m ** (best + 2) <= STATE_CAP:
        best += 1
    return best


def bracket_radius(
    sigma: SubStochasticMatrix,
    law: RelocationLaw,
    delta_tail: float = 1e-6,
    d_max: int = D_MAX,
) -> RadiusBracket:
    """Two-sided certified enclosure of the relocation-chain spectral radius.

    Bounded laws that fit the caps get the Collatz-Wielandt bounds of one
    solve of the exact lift, 1e-12 relative apart. Otherwise the law is
    truncated at the largest affordable depth: the Collatz-Wielandt lower
    bound of the conservative lift bounds from below, the Collatz-Wielandt
    upper bound of the tail-majorized lift from above, so solver error
    cannot leak into the enclosure; the analytic envelopes (the
    Collatz-Wielandt lower bound of the benchmark radius, the largest
    benchmark row sum widened outward, as a rounded sum can fall below the
    exact one) tighten whatever the truncation left loose. A law
    with no mass within the affordable depth gets exactly that envelope.
    The law is truncated, and so delta_tail checked, before the exact branch.

    The envelope is computed first. A lift is decided before it is built
    when its closed-form row sums (`_lift_row_sums`) already lie on the
    envelope's side (the conservative lift's largest at or below r_bench,
    the majorized lift's least at or above the row sum); the lift field then
    holds the other, widened row-sum bound. A conservative lift that keeps
    no mass (the zero operator) has widened row sums 0.0 and 5e-324, at or
    below any certified r_bench, so it is never solved and lo_lift = 0.0.
    Any other lift is built, and its power solve stops once its interval
    lies on the envelope's side. Either way the envelope carries that end
    whatever a full solve would have reached: `lo` and `hi` are those of
    full solves, bit for bit.
    """
    if d_max < 0:
        raise ValueError(f"d_max must be nonnegative, got {d_max}")
    m = sigma.m
    d_cap = _affordable_depth(m, d_max)
    if d_cap < 0:
        raise StateCapExceededError("state cap too small for even a single-step window", best_d=None)
    trunc = truncate_law(law, delta_tail, d_cap)

    if law.bounded and law.support_max <= d_cap:
        chain = build_lifted(sigma, law, mode=EXACT)
        res = lifted_spectral_radius(chain)
        return RadiusBracket(
            lo=res.lower,
            hi=res.upper,
            d_used=law.support_max,
            tail_mass=0.0,
            lo_lift=res.lower,
            hi_lift=res.upper,
            exact=True,
            cap_reached=False,
        )

    entries = sigma.entries
    r_bench = _certified_perron(entries.dot, m, lambda: entries).lower
    row_max = _cw_bounds(sigma.row_sums(), m)[1]
    low, high = _lift_row_sums(sigma, trunc, LOWER)
    if high <= r_bench:
        lo_lift = low
    else:
        lo_lift = _solve_lift(build_lifted(sigma, trunc, mode=LOWER), (r_bench, math.inf)).lower
    low, high = _lift_row_sums(sigma, trunc, UPPER)
    if low >= row_max:
        hi_lift = high
    else:
        hi_lift = _solve_lift(build_lifted(sigma, trunc, mode=UPPER), (-math.inf, row_max)).upper
    lo = max(lo_lift, r_bench)
    hi = max(min(hi_lift, row_max), lo)
    return RadiusBracket(
        lo=lo,
        hi=hi,
        d_used=trunc.d,
        tail_mass=trunc.tail_mass,
        lo_lift=lo_lift,
        hi_lift=hi_lift,
        exact=False,
        cap_reached=trunc.cap_reached,
    )


def _lift_row_sums(sigma: SubStochasticMatrix, trunc: TruncationResult, mode: str) -> tuple[float, float]:
    """Least and largest row sums of a truncated lift, from their closed form, widened outward.

    Window w's row sum is sum_i tau(i) s(w_i), with s the row sums of sigma,
    and every digit tuple is a window, so the extremes are kept * min s and
    kept * max s with kept = sum_i tau(i); the majorized lift adds
    tail_mass * sum_t max_u sigma[u, t] to every row. The widening encloses
    the row sums of the exact lift and of the one `build_lifted` rounds: a
    built weight (d + 1 products summed, plus the majorizing term) is within
    (d + 2) * 2**-53 relative of its exact value, and the extremes here
    within (d + m + 1) * 2**-53 (kept sums d + 1 masses, s and the
    majorizing sum m terms each, then two products and one sum).
    `_cw_bounds` with 3d + m + 4 terms widens by (3d + m + 6) * 2**-53 and
    one ulp, d + 3 units above that first-order (2d + m + 3) * 2**-53.
    """
    sums = sigma.row_sums()
    kept = float(trunc.masses.sum())
    extra = trunc.tail_mass * float(sigma.entries.max(axis=0).sum()) if mode == UPPER else 0.0
    extremes = np.array([kept * float(sums.min()) + extra, kept * float(sums.max()) + extra])
    return _cw_bounds(extremes, 3 * trunc.d + sigma.m + 4)
