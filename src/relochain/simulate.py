"""Seeded Monte Carlo engines for the killed and weighted relocation chains.

With memory w = (w_0, w_1, ...), w_0 the current state, the relocation chain
moves to t with weight sum_i tau(i) sigma[w_i, t]; the deficit of that row
from 1 is the killing probability. The row depends on the past only through
the law-weighted occupation theta of the memory (the row is theta @ sigma),
so every sampler draws its next state straight from the memory row and no
relocation depth is ever drawn. Each sampler names the (m, k) per-state table
it reads and `_Memory` gives its row, sum_i tau(i) table[w_i], per replica:
the killed chain reads sigma, the Feynman-Kac estimator sigma diag(a), and
the weighted chain [sigma diag(a) | K a | I], whose one row holds the draw
row, K a and theta. For a geometric law theta moves by the affine map
theta <- (1 - eps) theta + eps e_t, so the row moves by the same map and is
the memory's whole state: the unbounded memory enters with no truncation
and no per-step matmul. For a law on {0..d} the memory is a ring of the last
d+1 states, or fewer when the run is too short to push states past the
start window. All three samplers run replicas side by side in numpy arrays
through that one memory: the killed chain and the Feynman-Kac estimator as
many as asked for, the weighted chain N_CHAINS independent chains. A step of
the weighted chain costs a few numpy calls on N_CHAINS x k arrays, so its
loop runs in blocks of _BLOCK steps: one draw of uniforms per block, and the
per-step chain sums, running means and state counts folded once per block,
in step order, so every output is bit for bit that of a loop folding one
step at a time. The two samplers that never kill search only the first
m - 1 columns of a row.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import OverflowGuardError
from .matrices import SubStochasticMatrix, tilt_vector
from .relocation import HistoryWindow, RelocationLaw, occupation_measure

LOG_OVERFLOW_LIMIT = 690.0  # log(1e300), unreachable for sub-stochastic weights
N_CHAINS = 20  # independent weighted chains behind the standard error of c2
_BLOCK = 256  # weighted-chain steps per block of uniforms and of folded statistics


@dataclass(frozen=True)
class RngSpec:
    """Deterministic stream identity: same (seed, stream) reproduces the same paths."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class SurvivalCurve:
    ns: np.ndarray
    p_hat: np.ndarray
    se: np.ndarray
    replicas: int


@dataclass(frozen=True)
class KilledChainResult:
    curve: SurvivalCurve
    lifetimes: np.ndarray  # completed transitions; +inf when censored at n_max
    empirical: dict  # checkpoint n -> (survivors, m) array of empirical measures


@dataclass(frozen=True)
class WeightedChainStats:
    """Occupation samples and ergodic averages from N_CHAINS weighted-chain paths.

    Samples are ordered by step, then by chain, so each step appears N_CHAINS
    times; `c2_running` is the running mean pooled over all chains.
    """

    theta_samples: np.ndarray  # (k * N_CHAINS, m)
    sample_steps: np.ndarray  # (k * N_CHAINS,)
    c2_running: np.ndarray  # (k * N_CHAINS,) running mean of the bound integrand
    c2_mean: float
    c2_se: float
    chain_means: np.ndarray  # (N_CHAINS,)
    state_histogram: np.ndarray
    burnin: int
    steps: int


@dataclass(frozen=True)
class FkEstimate:
    value: float
    se: float
    n: int
    replicas: int


class _Memory:
    """The memory row sum_i tau(i) table[w_i] of `replicas` paths side by side.

    `table` is the (m, k) per-state table a sampler reads, and the start
    window extends by its oldest entry. The row is theta @ table, theta the
    law-weighted occupation of the memory. For a geometric law a move to t
    maps theta to (1 - eps) theta + eps e_t, so the row moves by the same
    affine map, row <- (1 - eps) row + eps table[t]: that (R, k) row is the
    memory's whole state, kept with no theta and no matmul per step. `row()`
    returns it read-only, since the next push writes it in place. A law on
    {0..d} reads only w_0..w_d, kept in an (L, R) ring with L = min(d+1,
    pushes + len(init)). Within `pushes` pushes every w_i with i >= L is the
    start window's oldest entry, so the atoms there add one constant term,
    read from a fixed slot L past the ring.
    """

    def __init__(
        self, law: RelocationLaw, init: HistoryWindow, table: np.ndarray, replicas: int, pushes: float = math.inf
    ):
        m = len(table)
        if max(init.states) >= m:
            raise ValueError(f"start window names a state outside 0..{m - 1}")
        self._geometric = not law.bounded
        if self._geometric:
            self._decay = 1.0 - law.eps
            self._gain = law.eps * table
            self._hold(np.tile(occupation_measure(init, law, m) @ table, (replicas, 1)))
        else:
            self._table = table
            self._length = length = min(law.support_max + 1, pushes + len(init))
            near = bisect_left(law.depths, length)
            far = near < len(law.depths)
            # Zero-mass depths stay in the ring, unread; the far atoms read slot L.
            self._depths = law.depths[:near] + (length,) * far
            self._weights = law.masses[:near] + (law.tail(length),) * far
            self._ptr = 0
            start = np.array(init.truncated(length) + init.states[-1:] * far, dtype=np.intp)
            self._ring = np.repeat(start[:, None], replicas, axis=1)

    def _hold(self, row: np.ndarray) -> None:
        self._row = row
        self._view = row.view()
        self._view.flags.writeable = False

    def row(self) -> np.ndarray:
        if self._geometric:
            return self._view
        # Slot (ptr + i) mod L holds w_i. One term at a time, so at most two
        # (R, k) arrays are alive.
        table, length = self._table, self._length
        slots = [(self._ptr + i) % length if i < length else length for i in self._depths]
        out = table.take(self._ring[slots[0]], axis=0)
        out *= self._weights[0]
        for slot, weight in zip(slots[1:], self._weights[1:]):
            term = table.take(self._ring[slot], axis=0)
            term *= weight
            out += term
            del term
        return out

    def push(self, t) -> None:
        if self._geometric:
            self._row *= self._decay
            self._row += self._gain.take(t, axis=0)
        else:
            self._ptr = (self._ptr - 1) % self._length
            self._ring[self._ptr] = t

    def keep(self, alive: np.ndarray) -> None:
        """Drop the replicas whose entry of the mask is False."""
        if self._geometric:
            self._hold(self._row[alive])
        else:
            self._ring = self._ring[:, alive]


def _search(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per replica, the number of columns whose running row sum is at most x.

    That is the first column whose running sum exceeds x, or the column count
    when none does. Rows are non-negative, so the running sums are monotone
    and the columns counted form a prefix: searching only the first m - 1
    columns of a row gives min(k, m - 1), the draw of a sampler that never
    kills, while the killed chain searches all m and reads m as death.
    """
    if not rows.shape[1]:
        return np.zeros(len(x), dtype=np.intp)
    # Column 0 is read in place; the first sum is a new array, so the caller's
    # rows are never written.
    acc = rows[:, 0]
    k = (acc <= x).astype(np.intp)
    for j in range(1, rows.shape[1]):
        acc = np.add(acc, rows[:, j], out=acc if j > 1 else None)
        k += acc <= x
    return k


def default_burnin(law: RelocationLaw) -> int:
    """10/eps steps for geometric laws, else 100 (d+1): the memory horizon sets mixing."""
    if not law.bounded:
        return int(math.ceil(10.0 / law.eps))
    return 100 * (law.support_max + 1)


def _burnin(law: RelocationLaw, steps: int, burnin: int | None, thin: int) -> int:
    """The burn-in of `run_weighted_chain`; ValueError when the run would be empty."""
    if burnin is None:
        # The memory-horizon rule, capped so short diagnostic runs stay legal.
        burnin = min(default_burnin(law), steps // 2)
        if law.bounded and law.depths[0] >= burnin + (steps - burnin) // N_CHAINS:
            # No push is ever read, so every row is the start window's: nothing mixes.
            burnin = 0
    if burnin < 0 or thin < 1 or steps - burnin < N_CHAINS:
        raise ValueError(f"need burnin >= 0, thin >= 1 and steps - burnin >= {N_CHAINS}, one step per chain")
    return burnin


def run_killed_chain(
    sigma: SubStochasticMatrix,
    law: RelocationLaw,
    init: HistoryWindow,
    n_max: int,
    replicas: int,
    rng: RngSpec,
    checkpoints: tuple[int, ...] = (),
) -> KilledChainResult:
    """Replica-parallel simulation of the killed chain with relocations.

    Each step draws the next state from the memory row sum_i tau(i)
    sigma[w_i, :] (the start window extends by its oldest entry); a uniform
    past the row sum kills the replica. p_hat[n] is the fraction of
    replicas whose first n transitions all succeeded.
    """
    if n_max < 0 or replicas < 1:
        raise ValueError(f"need n_max >= 0 and replicas >= 1, got n_max = {n_max}, replicas = {replicas}")
    check = set(int(c) for c in checkpoints)
    if check and not 1 <= min(check) <= max(check) <= n_max:
        raise ValueError(f"checkpoints must lie in 1..{n_max}, got {sorted(check)}")
    gen = rng.generator()
    m = sigma.m
    memory = _Memory(law, init, sigma.entries, replicas, pushes=n_max)

    lifetimes = np.full(replicas, np.inf)
    active = np.arange(replicas)
    alive_counts = np.full(n_max + 1, replicas, dtype=np.int64)
    empirical: dict[int, np.ndarray] = {}
    counts = np.zeros((replicas, m), dtype=np.int64) if check else None

    for n in range(1, n_max + 1):
        nxt = _search(memory.row(), gen.random(active.size))
        alive = nxt < m
        lifetimes[active[~alive]] = n - 1
        active, nxt = active[alive], nxt[alive]
        memory.keep(alive)
        memory.push(nxt)
        alive_counts[n] = active.size
        if check:
            counts[active, nxt] += 1
        if n in check:
            empirical[n] = counts[active] / float(n)

    p_hat = alive_counts / float(replicas)
    se = np.sqrt(p_hat * (1.0 - p_hat) / replicas)
    curve = SurvivalCurve(ns=np.arange(n_max + 1), p_hat=p_hat, se=se, replicas=replicas)
    return KilledChainResult(curve=curve, lifetimes=lifetimes, empirical=empirical)


def run_weighted_chain(
    sigma: SubStochasticMatrix,
    law: RelocationLaw,
    a,
    steps: int,
    burnin: int | None = None,
    thin: int = 20,
    rng: RngSpec = RngSpec(0),
) -> WeightedChainStats:
    """N_CHAINS independent paths of the conservative chain with weighted relocations.

    Per step each chain draws its next state from the tilted memory row
    sum_i tau(i) sigma[w_i, t] a(t), normalized by its sum K a. Every chain
    starts in state 0, burns in for `burnin` steps and then runs
    (steps - burnin) // N_CHAINS more, so the chains share the step budget.
    After burn-in each chain adds the bound integrand log(K a / a) to its
    mean, and every `thin` steps its occupation measure and the pooled
    running mean are recorded. K a is the sum of the row the next step draws
    from, and a is read at the state just entered, so a point-mass law at 0
    with a equal to the right Perron vector yields a constant sequence.
    c2_se is the standard error of the N_CHAINS chain means. A law whose
    nearest atom lies at or past the b + (steps - b) // N_CHAINS states each
    chain pushes with the default burn-in b never reads one: burn-in is 0.

    Steps run in blocks of _BLOCK: one draw of uniforms per block, the same
    PCG64 stream as one draw per step, and the chain sums, running means and
    state counts folded after the block by a sequential cumsum, so every
    output is bit for bit that of a loop that folds each step as it goes.
    """
    burnin = _burnin(law, steps, burnin, thin)
    av = tilt_vector(a, sigma.m)
    gen = rng.generator()
    m = sigma.m
    tilted = sigma.entries * av  # sigma diag(a)
    log_av = np.log(av)
    post = (steps - burnin) // N_CHAINS
    # One gather of [sigma diag(a) | K a | I] gives the draw row, K a and theta.
    table = np.hstack([tilted, tilted.sum(axis=1, keepdims=True), np.eye(m)])
    memory = _Memory(law, HistoryWindow.constant(0), table, N_CHAINS, pushes=burnin + post)

    theta_samples = np.empty(((post - 1) // thin + 1, N_CHAINS, m))
    c2_running = np.empty(len(theta_samples))
    chain_sums = np.zeros(N_CHAINS)
    state_histogram = np.zeros(m, dtype=np.int64)

    nxt_block = np.empty((_BLOCK, N_CHAINS), dtype=np.intp)
    d_block = np.empty((_BLOCK, N_CHAINS))
    rows = memory.row()
    # k counts the steps after burn-in, from 0 at step burnin + 1; one block
    # of uniforms drives the steps k0 <= k < k0 + size.
    for k0 in range(-burnin, post, _BLOCK):
        size = min(_BLOCK, post - k0)
        uniforms = gen.random((size, N_CHAINS))
        for j in range(size):
            nxt = _search(rows[:, : m - 1], uniforms[j] * rows[:, m])
            memory.push(nxt)
            rows = memory.row()
            nxt_block[j] = nxt
            d_block[j] = rows[:, m]
            k = k0 + j
            if k >= 0 and k % thin == 0:
                theta = rows[:, m + 1 :]
                theta_samples[k // thin] = theta / theta.sum(axis=1, keepdims=True)
        # Fold the block's post-burn-in steps: row j of d becomes the chain
        # sums after that step, added in step order as one step at a time would.
        skip = max(-k0, 0)
        if skip < size:
            nxt, d = nxt_block[skip:size], d_block[skip:size]
            np.log(d, out=d)
            d -= log_av.take(nxt)
            d[0] += chain_sums
            np.cumsum(d, axis=0, out=d)
            chain_sums[:] = d[-1]
            state_histogram += np.bincount(nxt.ravel(), minlength=m)
            first = -(k0 + skip) % thin
            ks = np.arange(k0 + skip + first, k0 + size, thin)
            c2_running[ks // thin] = d[first::thin].sum(axis=1) / (N_CHAINS * (ks + 1))

    means = chain_sums / post
    return WeightedChainStats(
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


def fk_survival_estimate(
    sigma: SubStochasticMatrix,
    law: RelocationLaw,
    a,
    init: HistoryWindow,
    n: int,
    replicas: int,
    rng: RngSpec,
) -> FkEstimate:
    """Unbiased survival estimate through the weighted chain.

    Replicas never die: each step draws from the tilted memory row
    sum_i tau(i) sigma[w_i, t] a(t), and the replica's log weight gains
    log(K a) - log a(next), where K a is that row's sum. The estimate is the
    plain mean of the exponentiated weights.
    """
    if n < 0 or replicas < 1:
        raise ValueError(f"need n >= 0 and replicas >= 1, got n = {n}, replicas = {replicas}")
    gen = rng.generator()
    av = tilt_vector(a, sigma.m)
    m = sigma.m
    log_av = np.log(av)
    ones = np.ones(m)
    # K a = rows @ ones: at large R a gathered third column costs more than the matvec.
    memory = _Memory(law, init, sigma.entries * av, replicas, pushes=n)

    log_w = np.zeros(replicas)
    for _ in range(n):
        rows = memory.row()
        ka = rows @ ones
        nxt = _search(rows[:, :-1], gen.random(replicas) * ka)
        del rows  # so the next (R, m) row is not built while this one is held
        np.log(ka, out=ka)
        ka -= log_av.take(nxt)
        log_w += ka
        memory.push(nxt)

    if (log_w > LOG_OVERFLOW_LIMIT).any():
        raise OverflowGuardError("Feynman-Kac weight left the representable range")
    w = np.exp(log_w)
    value = float(w.mean())
    se = float(w.std(ddof=1) / math.sqrt(replicas)) if replicas > 1 else 0.0
    return FkEstimate(value=value, se=se, n=n, replicas=replicas)
