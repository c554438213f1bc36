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
start window; it gathers each atom's row from that atom's table, scaled by
the atom's mass once when the memory is built, so a row costs one gather per
atom and one add. All three samplers run replicas side by side in numpy
arrays through that one memory: the killed chain as many as asked for, the
Feynman-Kac estimator as many in parts of _PART replicas, one memory per
part, so that the arrays of one part's step stay in a core's L2 cache, and
the weighted chain N_CHAINS independent chains per law. The killed chain
drops the replicas killed in a step by one index list of the survivors.
A step of the weighted chain costs a few numpy calls whatever the width of
its arrays, so several geometric laws run side by side as one memory of
L x N_CHAINS chains, and the loop costs the longest law's steps, not the sum
of all laws' steps. The loop runs in blocks of _BLOCK steps: one draw of
uniforms per law and block, and each law's per-step chain sums, running
means, occupation samples and state counts folded once per block, in step
order, so every output is bit for bit that of one law run alone in a loop
folding one step at a time. The two samplers that never kill search only
the first m - 1 columns of a row.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import OverflowGuardError
from .matrices import SubStochasticMatrix, tilt_vector
from .relocation import HistoryWindow, RelocationLaw, occupation_measure

# log(1e300). A step adds log(K a) - log a(next) to a log weight, at most
# log(max a / min a): reachable by steep tilts, never by a = 1.
LOG_OVERFLOW_LIMIT = 690.0
N_CHAINS = 20  # independent weighted chains behind the standard error of c2
_BLOCK = 256  # weighted-chain steps per block of uniforms and of folded statistics
# Feynman-Kac replicas per memory, so one part's step arrays stay in a core's
# 2 MB L2. At 10^5 replicas and n = 50 a call took 85 / 76 ms (two-point /
# geometric law) in parts of 16,384, against 88 / 80 ms at 8,192, 96 / 87 ms
# at 32,768, 114 / 99 ms at 4,096 and 98 / 120 ms in one part (medians of 9,
# the sizes interleaved in one process, 2-core VM).
_PART = 16384


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
    read from a fixed slot L past the ring. Each atom's table is scaled by its
    mass once, here, so a row gathers one (R, k) term per atom and adds it,
    with no multiply pass; the price is one (m, k) table per atom.

    `law` may also be a tuple of geometric laws, run side by side in one
    affine row of L * replicas rows, law l in rows l * replicas onward. Each
    row then decays by its own law's 1 - eps, held as a full (R, k) array (a
    broadcast (R, 1) column doubles the multiply: 1.47 against 0.72 us at
    R = 60, k = 5 on a 2-core VM), and the gains
    stack to L * m rows, so a push of state t to a row of law l reads gain
    row t + m * l. One law keeps a float decay and reads gain row t: the
    full decay array and offsets for one law, kept by `keep` too, made
    survival's geometric FK estimates 31% and its killed chain 53% slower
    (medians of 10 alternating pairs, 100,000 replicas, 2-core VM). A
    bounded law runs alone.
    """

    def __init__(
        self,
        law: RelocationLaw | tuple[RelocationLaw, ...],
        init: HistoryWindow,
        table: np.ndarray,
        replicas: int,
        pushes: float = math.inf,
    ):
        laws = law if isinstance(law, tuple) else (law,)
        m = len(table)
        if max(init.states) >= m:
            raise ValueError(f"start window names a state outside 0..{m - 1}")
        if len(laws) > 1 and any(one.bounded for one in laws):
            raise ValueError("only geometric laws run side by side; a bounded law runs alone")
        law = laws[0]
        self._geometric = not law.bounded
        if self._geometric:
            if len(laws) == 1:
                self._decay, self._offsets = 1.0 - law.eps, None
            else:
                self._decay = np.repeat([[1.0 - one.eps] * table.shape[1] for one in laws], replicas, axis=0)
                self._offsets = np.repeat(np.arange(0, m * len(laws), m), replicas)
            self._gain = np.concatenate([one.eps * table for one in laws])
            starts = [occupation_measure(init, one, m) @ table for one in laws]
            self._hold(np.repeat(starts, replicas, axis=0))
        else:
            self._length = length = min(law.support_max + 1, pushes + len(init))
            near = bisect_left(law.depths, length)
            far = near < len(law.depths)
            # Zero-mass depths stay in the ring, unread; the far atoms read slot L.
            self._depths = law.depths[:near] + (length,) * far
            self._tables = [weight * table for weight in law.masses[:near] + (law.tail(length),) * far]
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
        length = self._length
        slots = [(self._ptr + i) % length if i < length else length for i in self._depths]
        out = self._tables[0].take(self._ring[slots[0]], axis=0)
        for slot, table in zip(slots[1:], self._tables[1:]):
            term = table.take(self._ring[slot], axis=0)
            out += term
            del term
        return out

    def push(self, t) -> None:
        if self._geometric:
            self._row *= self._decay
            self._row += self._gain.take(t if self._offsets is None else t + self._offsets, axis=0)
        else:
            self._ptr = (self._ptr - 1) % self._length
            self._ring[self._ptr] = t

    def keep(self, index: np.ndarray) -> None:
        """Keep only the replicas at the increasing positions `index` (one law only)."""
        if self._geometric:
            self._hold(self._row.take(index, axis=0))
        else:
            self._ring = self._ring.take(index, axis=1)


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


def _burnin(law: RelocationLaw, steps: int, burnin: int | None, thin: int) -> int:
    """The burn-in of a weighted run of `law`; ValueError when the run would be empty."""
    if burnin is None:
        # The memory horizon sets mixing: 10/eps steps for a geometric law, else
        # 100 (d+1), capped so short diagnostic runs stay legal.
        horizon = math.ceil(10.0 / law.eps) if not law.bounded else 100 * (law.support_max + 1)
        burnin = min(horizon, steps // 2)
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
) -> KilledChainResult:
    """Replica-parallel simulation of the killed chain with relocations.

    Each step draws the next state from the memory row sum_i tau(i)
    sigma[w_i, :] (the start window extends by its oldest entry); a uniform
    past the row sum kills the replica. p_hat[n] is the fraction of
    replicas whose first n transitions all succeeded.
    """
    if n_max < 0 or replicas < 1:
        raise ValueError(f"need n_max >= 0 and replicas >= 1, got n_max = {n_max}, replicas = {replicas}")
    gen = rng.generator()
    m = sigma.m
    memory = _Memory(law, init, sigma.entries, replicas, pushes=n_max)

    lifetimes = np.full(replicas, np.inf)
    active = np.arange(replicas)
    alive_counts = np.full(n_max + 1, replicas, dtype=np.int64)

    for n in range(1, n_max + 1):
        nxt = _search(memory.row(), gen.random(active.size))
        dead = nxt == m
        if dead.any():  # a step with no death copies no state
            lifetimes[active[dead]] = n - 1
            alive = np.flatnonzero(~dead)
            active, nxt = active.take(alive), nxt.take(alive)
            memory.keep(alive)
        memory.push(nxt)
        alive_counts[n] = active.size

    p_hat = alive_counts / float(replicas)
    se = np.sqrt(p_hat * (1.0 - p_hat) / replicas)
    curve = SurvivalCurve(ns=np.arange(n_max + 1), p_hat=p_hat, se=se, replicas=replicas)
    return KilledChainResult(curve=curve, lifetimes=lifetimes)


def run_weighted_chains(
    sigma: SubStochasticMatrix,
    laws: Sequence[RelocationLaw],
    a,
    steps: int,
    burnin: int | None = None,
    thin: int = 20,
    rng: RngSpec = RngSpec(0),
) -> list[WeightedChainStats]:
    """N_CHAINS independent paths of the conservative chain with weighted relocations, per law.

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

    Law k draws from stream rng.stream + k and keeps its own burn-in, so each
    returned stats is bit for bit that of the law run alone. The laws run
    side by side, L * N_CHAINS chains through one memory and one step loop,
    which costs the longest law's steps instead of the sum of all laws'
    steps; so the laws must all be geometric, and a bounded law runs alone.
    Steps run in blocks of _BLOCK: one draw of uniforms per law and block,
    the same PCG64 stream as one draw per step (a law that has ended draws
    and steps on unread). Each step only draws, pushes and stores its state
    and its row; after the block each law's chain sums, running means,
    occupation samples and state counts are folded on its own chains by a
    sequential cumsum, so every output is bit for bit that of a loop that
    folds each step as it goes.
    """
    laws = tuple(laws)
    if not laws:
        raise ValueError("need at least one relocation law")
    burnins = [_burnin(law, steps, burnin, thin) for law in laws]
    ends = [b + (steps - b) // N_CHAINS for b in burnins]  # the steps each law's chains take
    total = max(ends)
    av = tilt_vector(a, sigma.m)
    gens = [RngSpec(rng.seed, rng.stream + k).generator() for k in range(len(laws))]
    m = sigma.m
    tilted = sigma.entries * av  # sigma diag(a)
    log_av = np.log(av)
    # One gather of [sigma diag(a) | K a | I] gives the draw row, K a and theta.
    table = np.hstack([tilted, tilted.sum(axis=1, keepdims=True), np.eye(m)])
    memory = _Memory(laws, HistoryWindow.constant(0), table, N_CHAINS, pushes=total)
    chains = [slice(k * N_CHAINS, (k + 1) * N_CHAINS) for k in range(len(laws))]

    theta_samples = [np.empty(((end - b - 1) // thin + 1, N_CHAINS, m)) for b, end in zip(burnins, ends)]
    c2_running = [np.empty(len(samples)) for samples in theta_samples]
    chain_sums = np.zeros(len(laws) * N_CHAINS)
    state_histograms = [np.zeros(m, dtype=np.int64) for _ in laws]

    nxt_block = np.empty((_BLOCK, len(chain_sums)), dtype=np.intp)
    # Per step, the whole new row, whose K a and unnormalized theta the fold
    # reads: one contiguous copy costs less than a copy of its last m + 1
    # columns (0.25 against 0.92 us at 60 x 5 on a 2-core VM).
    row_block = np.empty((_BLOCK, len(chain_sums), 2 * m + 1))
    rows = memory.row()
    # s counts the steps from 0; law k's chains are past burn-in from step
    # burnins[k] on, and one block of uniforms drives the steps s0 <= s < s0 + size.
    for s0 in range(0, total, _BLOCK):
        size = min(_BLOCK, total - s0)
        uniforms = np.hstack([gen.random((size, N_CHAINS)) for gen in gens])
        for j in range(size):
            nxt = _search(rows[:, : m - 1], uniforms[j] * rows[:, m])
            memory.push(nxt)
            rows = memory.row()
            nxt_block[j] = nxt
            row_block[j] = rows
        # Fold each law's post-burn-in steps of the block: row j of d becomes
        # its chain sums after that step, added in step order as one step at a
        # time would; i counts the law's steps after burn-in, from i0, and
        # every thin-th i records the running mean and theta.
        for k, (b, end) in enumerate(zip(burnins, ends)):
            i0 = s0 - b
            skip, stop = max(-i0, 0), min(size, end - s0)
            if skip >= stop:
                continue
            nxt, block = nxt_block[skip:stop, chains[k]], row_block[skip:stop, chains[k]]
            d = block[:, :, m]
            np.log(d, out=d)
            d -= log_av.take(nxt)
            d[0] += chain_sums[chains[k]]
            np.cumsum(d, axis=0, out=d)
            chain_sums[chains[k]] = d[-1]
            state_histograms[k] += np.bincount(nxt.ravel(), minlength=m)
            first = -(i0 + skip) % thin
            ks = np.arange(i0 + skip + first, i0 + stop, thin)
            c2_running[k][ks // thin] = d[first::thin].sum(axis=1) / (N_CHAINS * (ks + 1))
            theta = block[first::thin, :, m + 1 :]
            theta_samples[k][ks // thin] = theta / theta.sum(axis=2, keepdims=True)

    runs = []
    for k, (b, end) in enumerate(zip(burnins, ends)):
        means = chain_sums[chains[k]] / (end - b)
        runs.append(WeightedChainStats(
            theta_samples=theta_samples[k].reshape(-1, m),
            sample_steps=np.repeat(b + 1 + thin * np.arange(len(c2_running[k])), N_CHAINS),
            c2_running=np.repeat(c2_running[k], N_CHAINS),
            c2_mean=float(means.mean()),
            c2_se=float(means.std(ddof=1) / math.sqrt(N_CHAINS)),
            chain_means=means,
            state_histogram=state_histograms[k],
            burnin=b,
            steps=steps,
        ))
    return runs


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
    plain mean of the exponentiated weights, and `se` their sample standard
    error. `se` cannot see paths the proposal never draws: for the benchmark,
    a = (1, 1e-12), `explicit 0.5 0.5` from the window (0, 0), n = 60 and
    2,000 replicas, no replica enters state 1, every weight is equal, and
    the estimate is 2.75e-9 with se 1.9e-26 against the exact 7.24e-7.
    A log weight above LOG_OVERFLOW_LIMIT raises OverflowGuardError.

    The replicas run in parts of _PART, one memory per part. Each step makes
    one draw of `replicas` uniforms, and each part reads its own slice of it,
    so every output is bit for bit that of one memory over all replicas; but
    the ten or so arrays of a part's step (about 1 MB at m = 2) stay in a
    core's L2 cache, where those of 10^5 replicas (about 6 MB) do not.
    """
    if n < 0 or replicas < 1:
        raise ValueError(f"need n >= 0 and replicas >= 1, got n = {n}, replicas = {replicas}")
    gen = rng.generator()
    av = tilt_vector(a, sigma.m)
    m = sigma.m
    log_av = np.log(av)
    ones = np.ones(m)
    # K a = rows @ ones: at large R a gathered third column costs more than the matvec.
    table = sigma.entries * av
    parts = [slice(lo, min(lo + _PART, replicas)) for lo in range(0, replicas, _PART)]
    memories = [_Memory(law, init, table, part.stop - part.start, pushes=n) for part in parts]

    log_w = np.zeros(replicas)
    for _ in range(n):
        uniforms = gen.random(replicas)
        for part, memory in zip(parts, memories):
            rows = memory.row()
            ka = rows @ ones
            nxt = _search(rows[:, :-1], uniforms[part] * ka)
            del rows  # so the next (R, m) row is not built while this one is held
            np.log(ka, out=ka)
            ka -= log_av.take(nxt)
            log_w[part] += ka
            memory.push(nxt)

    if (log_w > LOG_OVERFLOW_LIMIT).any():
        raise OverflowGuardError("Feynman-Kac weight left the representable range")
    w = np.exp(log_w)
    value = float(w.mean())
    se = float(w.std(ddof=1) / math.sqrt(replicas)) if replicas > 1 else 0.0
    return FkEstimate(value=value, se=se, n=n, replicas=replicas)
