"""Exact finite representation of the relocation chain on memory windows.

A bounded relocation law with support in {0..d} makes the chain Markov on
windows of d+1 states. Windows are encoded in mixed radix with the most
recent state most significant, so the successor of window index w under a
new state t is t * m**d + w // m: an integer shift-and-add, no lookup
tables. The kernel weight from window w toward t is
sum_i mass(i) * sigma[w_i, t]; the N x m array of these weights is the
stored object. The N x N operator is materialized only for the dense
eigensolve of chains with at most DENSE_MAX_STATES windows; larger chains
are solved matrix-free by power sweeps of `LiftedChain.apply`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StateCapExceededError
from .matrices import SpectralResult, SubStochasticMatrix, _certified_perron
from .relocation import HistoryWindow, RelocationLaw, TruncationResult, truncate_law

STATE_CAP = 2**21  # largest window count a chain may have

EXACT = "exact"
LOWER = "lower"
UPPER = "upper"


@dataclass(frozen=True)
class LiftedChain:
    """Sub-stochastic chain on the m**(d+1) memory windows.

    `weights[w, t]` is the transition weight from window w toward state t;
    the successor window index is t * m**d + w // m.
    """

    m: int
    d: int
    weights: np.ndarray

    @property
    def n_states(self) -> int:
        return self.m ** (self.d + 1)

    def window_index(self, window: HistoryWindow) -> int:
        digits = window.truncated(self.d + 1)
        if any(s >= self.m for s in digits):
            raise ValueError("window entry outside the state space")
        idx = 0
        for s in digits:
            idx = idx * self.m + s
        return idx

    def apply(self, v: np.ndarray) -> np.ndarray:
        """One sub-stochastic sweep u(w) = sum_t weights[w, t] * v(succ(w, t))."""
        m = self.m
        block = self.n_states // m
        u = np.zeros_like(v)
        for t in range(m):
            u += self.weights[:, t] * np.repeat(v[t * block : (t + 1) * block], m)
        return u


@dataclass(frozen=True)
class RadiusBracket:
    """Certified two-sided enclosure of the relocation-chain radius.

    `lo_lift` and `hi_lift` are the Collatz-Wielandt lower bound of the
    conservative lift and upper bound of the tail-majorized lift (both the
    exact radius when the law fits uncut); `lo` and `hi` additionally fold
    in the always-valid analytic envelopes (the Collatz-Wielandt lower bound
    of the benchmark radius from below, the largest benchmark row sum from
    above), which carry the certificate when the affordable truncation is
    loose.
    """

    lo: float
    hi: float
    d_used: int
    tail_mass: float
    lo_lift: float
    hi_lift: float
    exact: bool
    cap_reached: bool


def _finite_masses(law_or_trunc) -> tuple[np.ndarray, float]:
    if isinstance(law_or_trunc, TruncationResult):
        return np.asarray(law_or_trunc.masses, dtype=float), law_or_trunc.tail_mass
    if isinstance(law_or_trunc, RelocationLaw):
        if not law_or_trunc.bounded:
            raise ValueError("unbounded law: truncate first, or use bracket_radius")
        d = law_or_trunc.support_max
        masses = np.array([law_or_trunc.mass(i) for i in range(d + 1)], dtype=float)
        return masses, 0.0
    return np.asarray(law_or_trunc, dtype=float), 0.0


def build_lifted(sigma, law, mode: str = EXACT) -> LiftedChain:
    """Assemble the window chain for a finite-support mass vector.

    `law` may be a bounded RelocationLaw, a TruncationResult, or a raw mass
    sequence. Modes: exact uses the masses as given; lower is the
    conservative truncation (row deficits realize the discarded tail as
    killing); upper adds tail_mass * max_u sigma[u, t] to every weight toward
    t, which dominates the true kernel pointwise.
    """
    entries = sigma.entries if isinstance(sigma, SubStochasticMatrix) else np.asarray(sigma, dtype=float)
    if mode not in (EXACT, LOWER, UPPER):
        raise ValueError(f"unknown lift mode {mode!r}")
    masses, tail_mass = _finite_masses(law)
    m = entries.shape[0]
    d = len(masses) - 1
    n_states = m ** (d + 1)
    if n_states > STATE_CAP:
        best = int(math.floor(math.log(STATE_CAP, m))) - 1
        raise StateCapExceededError(
            f"m**(d+1) = {n_states} exceeds the cap {STATE_CAP}; largest affordable d is {best}",
            best_d=best,
        )

    occ = np.zeros((n_states, m))
    base = np.arange(m)
    for i, mass in enumerate(masses):
        if mass == 0.0:
            continue
        pattern = np.tile(np.repeat(base, m ** (d - i)), m**i)
        for s in range(m):
            occ[:, s] += mass * (pattern == s)
    weights = occ @ entries
    if mode == UPPER and tail_mass > 0.0:
        weights += tail_mass * entries.max(axis=0)[None, :]

    # The sub-stochastic invariant only binds for chains built from a
    # validated benchmark; tilted matrices may legitimately exceed it.
    if mode != UPPER and isinstance(sigma, SubStochasticMatrix):
        sums = weights.sum(axis=1)
        if (sums > 1.0 + 1e-12).any():
            raise ValueError("lifted row sums exceed 1; input masses are not sub-stochastic")
    weights.setflags(write=False)
    return LiftedChain(m=m, d=d, weights=weights)


def lifted_spectral_radius(chain: LiftedChain) -> SpectralResult:
    """Certified Perron radius of the window operator.

    Chains of at most DENSE_MAX_STATES windows are solved by a dense
    eigensolve of the explicit N x N matrix; larger ones, and small ones
    whose eigenvector fails the Collatz-Wielandt check, by a shifted power
    iteration over `chain.apply` (O(m**(d+2)) per sweep, O(m**(d+1)) memory
    per vector). `lower` and `upper` enclose the radius to 1e-12 relative.
    """
    return _certified_perron(chain.apply, chain.n_states, lambda: _window_matrix(chain), terms=chain.m)


def _window_matrix(chain: LiftedChain) -> np.ndarray:
    """Explicit operator: entry (w, t * m**d + w // m) is weights[w, t]."""
    n, m = chain.n_states, chain.m
    w = np.arange(n)
    succ = np.arange(m)[None, :] * (n // m) + (w // m)[:, None]
    dense = np.zeros((n, n))
    dense[w[:, None], succ] = chain.weights
    return dense


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


def lifted_structure_check(chain: LiftedChain) -> tuple[bool, bool]:
    """(irreducible, aperiodic) of the lifted support digraph.

    Strong connectivity by forward and backward reachability from window 0;
    period as the gcd of 1 + depth(u) - depth(v) over support edges, using
    BFS depths.
    """
    m, n = chain.m, chain.n_states
    block = n // m
    pos = chain.weights > 0.0

    depth = _lifted_bfs(chain, pos, forward=True)
    if (depth < 0).any():
        return False, False
    back = _lifted_bfs(chain, pos, forward=False)
    if (back < 0).any():
        return False, False

    g = 0
    for t in range(m):
        src = np.nonzero(pos[:, t])[0]
        dst = t * block + src // m
        diffs = np.abs(depth[src] + 1 - depth[dst])
        g = math.gcd(g, int(np.gcd.reduce(diffs))) if len(diffs) else g
    return True, g == 1


def _lifted_bfs(chain: LiftedChain, pos: np.ndarray, forward: bool) -> np.ndarray:
    m, n = chain.m, chain.n_states
    block = n // m
    depth = np.full(n, -1, dtype=np.int64)
    depth[0] = 0
    frontier = np.array([0], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        nxt = []
        for t in range(m):
            if forward:
                cand_src = frontier[pos[frontier, t]]
                cand = t * block + cand_src // m
            else:
                # Predecessors of u under letter t exist when u sits in block t;
                # they are (u mod block) * m + x with a positive weight toward t.
                in_block = frontier[(frontier // block) == t]
                if in_block.size == 0:
                    continue
                base = (in_block % block) * m
                cand = (base[:, None] + np.arange(m)[None, :]).ravel()
                cand = cand[pos[cand, t]]
            if cand.size:
                cand = cand[depth[cand] < 0]
                if cand.size:
                    cand = np.unique(cand)
                    depth[cand] = level
                    nxt.append(cand)
        frontier = np.concatenate(nxt) if nxt else np.empty(0, dtype=np.int64)
    return depth


def bracket_radius(
    sigma: SubStochasticMatrix,
    law: RelocationLaw,
    delta_tail: float = 1e-6,
    d_max: int = 20,
) -> RadiusBracket:
    """Two-sided certified enclosure of the relocation-chain spectral radius.

    Bounded laws that fit the caps get the exact lifted radius on both
    sides. Otherwise the law is truncated at the largest affordable depth:
    the Collatz-Wielandt lower bound of the conservative lift bounds from
    below, the Collatz-Wielandt upper bound of the tail-majorized lift from
    above, so solver error cannot leak into the enclosure; the analytic
    envelopes (the Collatz-Wielandt lower bound of the benchmark radius, the
    largest benchmark row sum) tighten whatever the truncation left loose.
    """
    m = sigma.m
    d_cap = d_max
    while m ** (d_cap + 1) > STATE_CAP:
        d_cap -= 1
    if d_cap < 0:
        raise StateCapExceededError("state cap too small for even a single-step window", best_d=None)

    if law.bounded and law.support_max <= d_cap:
        chain = build_lifted(sigma, law, mode=EXACT)
        radius = lifted_spectral_radius(chain).radius
        return RadiusBracket(
            lo=radius,
            hi=radius,
            d_used=law.support_max,
            tail_mass=0.0,
            lo_lift=radius,
            hi_lift=radius,
            exact=True,
            cap_reached=False,
        )

    trunc = truncate_law(law, delta_tail, d_cap)
    lower = build_lifted(sigma, trunc, mode=LOWER)
    lo_lift = lifted_spectral_radius(lower).lower
    upper = build_lifted(sigma, trunc, mode=UPPER)
    hi_lift = lifted_spectral_radius(upper).upper

    entries = sigma.entries
    r_bench = _certified_perron(entries.dot, m, lambda: entries).lower
    lo = max(lo_lift, r_bench)
    hi = min(hi_lift, float(sigma.row_sums().max()))
    hi = max(hi, lo)
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
