"""Relocation laws, memory windows, occupation rows, and the killed chain's kernel row.

The law families are closed-form only (a bounded law given by its atoms,
geometric), so masses and tails are exact and never need numerical
truncation.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .matrices import _nonnegative_entries


@dataclass(frozen=True)
class RelocationLaw:
    """Probability law on the nonnegative integers governing relocation depth.

    A bounded law is stored as its increasing integer depths of positive mass and
    their masses (summing to 1), so `dirac(d)` and `explicit([0] * d + [1])`
    are one law and a point mass far out is a single atom. A geometric law
    has eps in (0, 1), no atoms and mass(k) = eps (1-eps)^k.
    """

    depths: tuple[int, ...] = ()
    masses: tuple[float, ...] = ()
    eps: float | None = None

    def __post_init__(self):
        if self.eps is not None:
            if self.depths or self.masses:
                raise ValueError("a geometric law has no atoms: give eps or depths and masses, not both")
            if not 0.0 < self.eps < 1.0:
                raise ValueError("geometric law needs eps in (0, 1)")
            return
        p = np.asarray(self.masses, dtype=float)
        if len(p) == 0 or len(p) != len(self.depths):
            raise ValueError("a bounded law needs one mass per depth and at least one")
        if not all(isinstance(k, (int, np.integer)) for k in self.depths):
            raise ValueError(f"depths must be integers, got {self.depths!r}")
        object.__setattr__(self, "depths", tuple(int(k) for k in self.depths))
        if not (np.isfinite(p).all() and (p > 0).all()):
            raise ValueError("explicit masses must be finite and positive")
        if self.depths[0] < 0 or (np.diff(self.depths) <= 0).any():
            raise ValueError("depths must be nonnegative and increasing")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"explicit masses sum to {p.sum()!r}, not 1")

    @classmethod
    def explicit(cls, masses) -> "RelocationLaw":
        """Law with mass masses[i] at depth i; zero masses are dropped."""
        atoms = [(i, float(x)) for i, x in enumerate(masses) if float(x) != 0.0]
        return cls(tuple(i for i, _ in atoms), tuple(x for _, x in atoms))

    @classmethod
    def dirac(cls, d: int) -> "RelocationLaw":
        return cls((d,), (1.0,))

    @classmethod
    def geometric(cls, eps: float) -> "RelocationLaw":
        return cls(eps=float(eps))

    @property
    def bounded(self) -> bool:
        return self.eps is None

    @property
    def support_max(self) -> int | None:
        """Largest index with positive mass, None when unbounded."""
        return self.depths[-1] if self.bounded else None

    @property
    def is_dirac_mass(self) -> bool:
        """True when the whole mass sits on one index.

        This decides the paper's strictness condition. Its ergodicity
        hypotheses hold for every law here: route (i) needs a finite first
        moment, which bounded and geometric laws have; route (ii) needs a
        strictly positive matrix (`structure_flags(entries)[2]`) and a tail
        of order o(n^{-1/2}). Relocations then improve the persistence rate
        strictly over the benchmark exactly when the law is not a point mass.
        """
        return len(self.depths) == 1

    def mass(self, i: int) -> float:
        if not self.bounded:
            return self.eps * (1.0 - self.eps) ** i if i >= 0 else 0.0
        k = bisect_left(self.depths, i)
        return self.masses[k] if k < len(self.depths) and self.depths[k] == i else 0.0

    def tail(self, n: int) -> float:
        """tail(n) = sum of masses at indices >= n; nonincreasing with tail(0) = 1."""
        if n <= 0:
            return 1.0
        if not self.bounded:
            return (1.0 - self.eps) ** n
        return float(max(0.0, math.fsum(self.masses[bisect_left(self.depths, n):])))


def parse_relocation_law(spec: str) -> RelocationLaw:
    """Parse `dirac d` | `geometric eps` | `explicit p0 p1 ... pd`."""
    parts = spec.split()
    if not parts:
        raise ValueError("empty relocation law spec")
    kind = parts[0].lower()
    if kind == "dirac":
        if len(parts) != 2:
            raise ValueError("dirac law takes exactly one integer argument")
        return RelocationLaw.dirac(int(parts[1]))
    if kind == "geometric":
        if len(parts) != 2:
            raise ValueError("geometric law takes exactly one argument")
        return RelocationLaw.geometric(float(parts[1]))
    if kind == "explicit":
        if len(parts) < 2:
            raise ValueError("explicit law needs at least one mass")
        return RelocationLaw.explicit(float(x) for x in parts[1:])
    raise ValueError(f"unknown relocation law {parts[0]!r}")


@dataclass(frozen=True)
class HistoryWindow:
    """Nonempty memory window (s_0, ..., s_d) of integer state indices >= 0, most recent first.

    Indices past the stored window reuse the oldest entry, which realizes an
    eventually constant infinite memory.
    """

    states: tuple[int, ...]

    def __post_init__(self):
        if len(self.states) == 0:
            raise ValueError("history window must be nonempty")
        if not all(isinstance(s, (int, np.integer)) and s >= 0 for s in self.states):
            raise ValueError("window entries are state indices, must be integers >= 0")

    def __len__(self) -> int:
        return len(self.states)

    @classmethod
    def constant(cls, state: int) -> "HistoryWindow":
        return cls((state,))

    def entry(self, i: int) -> int:
        """State i steps into the past, with the eventually constant extension."""
        return self.states[i] if i < len(self.states) else self.states[-1]

    def truncated(self, length: int) -> tuple[int, ...]:
        """First `length` entries, extended by the oldest one if needed."""
        s = self.states
        if len(s) >= length:
            return s[:length]
        return s + (s[-1],) * (length - len(s))


@dataclass(frozen=True)
class TruncationResult:
    """Law restricted to {0..d} with the unassigned tail accounted for.

    The raw masses (total 1 - tail_mass) are kept, so a chain built from
    them realizes the discarded tail as killing. Construct through
    `truncate_law`; a hand-built one must hold d + 1 finite, nonnegative
    masses and a tail_mass in [0, 1] that together sum to at most 1 (both
    within 1e-12, the rounding a law's masses may carry), or raises
    ValueError.
    """

    masses: np.ndarray
    d: int
    tail_mass: float
    cap_reached: bool

    def __post_init__(self):
        p = np.asarray(self.masses, dtype=float)
        if self.d < 0 or p.shape != (self.d + 1,):
            raise ValueError(f"a truncation to depth d = {self.d} needs d + 1 masses, got shape {p.shape}")
        if not (np.isfinite(p).all() and (p >= 0).all()):
            raise ValueError("truncated masses must be finite and nonnegative")
        if not self.tail_mass >= 0.0:  # also catches NaN; the sum below bounds it above
            raise ValueError(f"tail_mass must lie in [0, 1], got {self.tail_mass!r}")
        if math.fsum(p) + self.tail_mass > 1.0 + 1e-12:  # a law's masses sum to 1 within 1e-12
            raise ValueError(f"truncated masses and tail_mass sum to {math.fsum(p) + self.tail_mass!r}, above 1")


def truncate_law(law: RelocationLaw, delta_tail: float, d_max: int) -> TruncationResult:
    """Smallest d with tail(d+1) <= delta_tail, capped at d_max.

    delta_tail must be positive (NaN is rejected) and d_max nonnegative.
    Hitting the cap is reported through `cap_reached` and the achieved
    `tail_mass` rather than by failing.
    """
    if not delta_tail > 0:  # also catches NaN
        raise ValueError(f"delta_tail must be positive, got {delta_tail}")
    if d_max < 0:
        raise ValueError(f"d_max must be nonnegative, got {d_max}")
    d = _smallest_depth(law, delta_tail)
    cap_reached = d > d_max
    if cap_reached:
        d = d_max
    masses = np.array([law.mass(i) for i in range(d + 1)], dtype=float)
    tail_mass = law.tail(d + 1)
    masses.setflags(write=False)
    return TruncationResult(masses=masses, d=d, tail_mass=tail_mass, cap_reached=cap_reached)


def _smallest_depth(law: RelocationLaw, delta_tail: float) -> int:
    if law.bounded:
        # The deepest atom whose suffix sum, tail() at that depth, exceeds
        # delta_tail, else 0; exact sums round as the fsum in tail() does.
        suffix = Fraction(0)
        for depth, mass in zip(reversed(law.depths), reversed(law.masses)):
            suffix += Fraction(mass)
            if float(suffix) > delta_tail:
                return depth
        return 0
    if delta_tail >= 1.0:  # tail(1) = 1 - eps < 1; also keeps inf out of the logarithm
        return 0
    # Geometric: closed-form first guess, then exact adjustment at the float boundary.
    n = max(1, math.ceil(math.log(delta_tail) / math.log1p(-law.eps)))
    while law.tail(n) > delta_tail:
        n += 1
    while n > 1 and law.tail(n - 1) <= delta_tail:
        n -= 1
    return n - 1


def occupation_measure(window: HistoryWindow, law: RelocationLaw, m: int) -> np.ndarray:
    """Law-weighted histogram of the window over the m states, renormalized onto the simplex.

    Mass at indices beyond the window is carried by the oldest entry, so the
    total assigned mass is exactly 1 up to rounding. A window entry of m or
    more raises ValueError.
    """
    s = window.states
    if max(s) >= m:
        raise ValueError("window entry outside the state space")
    weights = np.zeros(m, dtype=float)
    k = len(s)
    for i in range(k - 1):
        weights[s[i]] += law.mass(i)
    weights[s[k - 1]] += law.tail(k - 1)
    total = weights.sum()
    return weights / total


def defective_kernel_row(window: HistoryWindow, sigma, law: RelocationLaw) -> np.ndarray:
    """Sub-probability row sum_i mass(i) sigma[w_i, :]; the deficit from 1 is the killing probability."""
    entries = _nonnegative_entries(sigma)
    return occupation_measure(window, law, entries.shape[0]) @ entries
