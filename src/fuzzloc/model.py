"""Problem data types and the crisp queuing/allocation/objective formulas.

Node indices are 1-based everywhere in the public API; numpy arrays are
indexed internally with ``index - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .errors import DomainError
from .fuzzy import SLICE_INDEX, TriFuzzy


def _fuzzy_rows(values, n: int, what: str) -> np.ndarray:
    arr = np.asarray(
        [v.as_tuple() if isinstance(v, TriFuzzy) else tuple(v) for v in values],
        dtype=float,
    )
    if arr.shape != (n, 3):
        raise DomainError(f"{what} must be {n} fuzzy triples, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DomainError(f"{what} must be finite")
    if not (np.all(arr[:, 0] <= arr[:, 1]) and np.all(arr[:, 1] <= arr[:, 2])):
        bad = int(np.argmax(~((arr[:, 0] <= arr[:, 1]) & (arr[:, 1] <= arr[:, 2])))) + 1
        raise DomainError(f"{what} triple at node {bad} is not ordered lo <= mid <= hi")
    return arr


@dataclass(frozen=True)
class Instance:
    """One problem datum: network, fuzzy rates, and model parameters.

    ``demand`` and ``service`` are (n, 3) arrays of [lo, mid, hi] rows;
    ``distance`` is a symmetric zero-diagonal (n, n) matrix.
    """

    n: int
    m_servers: int
    distance: np.ndarray
    demand: np.ndarray
    service: np.ndarray
    idle_min: TriFuzzy
    mql: float
    gamma: float = 0.5
    logit_sensitivity: float = 0.5
    benefit_weight: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        n = self.n
        if n < 2:
            raise DomainError("instance needs at least two nodes")
        if not (1 <= self.m_servers < n):
            raise DomainError(f"m_servers must satisfy 1 <= M < n, got {self.m_servers}")
        dist = np.asarray(self.distance, dtype=float)
        if dist.shape != (n, n):
            raise DomainError(f"distance must be {n}x{n}, got {dist.shape}")
        for name in ("distance", "mql", "logit_sensitivity"):
            if not np.isfinite(getattr(self, name)).all():
                raise DomainError(f"{name} must be finite")
        if np.any(np.diag(dist) != 0):
            raise DomainError("distance diagonal must be zero")
        if not np.array_equal(dist, dist.T):
            raise DomainError("distance matrix must be symmetric")
        off = dist[~np.eye(n, dtype=bool)]
        if np.any(off <= 0):
            raise DomainError("off-diagonal distances must be positive")
        demand = _fuzzy_rows(self.demand, n, "demand")
        service = _fuzzy_rows(self.service, n, "service")
        if np.any(demand < 0) or np.any(service[:, 0] <= 0):
            raise DomainError("demand must be nonnegative and service rates positive")
        if not (0 <= self.idle_min.lo and self.idle_min.hi <= 1):
            raise DomainError("idle_min must lie in [0, 1]")
        if self.mql <= 0:
            raise DomainError("mql must be positive")
        if not (0 <= self.gamma <= 1):
            raise DomainError("gamma must lie in [0, 1]")
        if self.logit_sensitivity <= 0:
            raise DomainError("logit_sensitivity must be positive")
        weight = self.benefit_weight
        if weight is not None:
            weight = np.asarray(weight, dtype=float)
            if weight.shape != (n, n):
                raise DomainError(f"benefit_weight must be {n}x{n}, got {weight.shape}")
            if not (np.isfinite(weight).all() and np.all(weight >= 0)):
                raise DomainError("benefit weights must be finite and nonnegative")
            weight.setflags(write=False)
        for name, arr in (("distance", dist), ("demand", demand), ("service", service)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "benefit_weight", weight)


@dataclass(frozen=True)
class Solution:
    """A nonempty set of distinct open-facility node indices (1-based); its
    size is not checked against M (see _open_indices)."""

    open: frozenset[int] = field()

    def __init__(self, open: Iterable[int]):
        genes = frozenset(int(j) for j in open)
        if not genes:
            raise DomainError("solution must open at least one facility")
        object.__setattr__(self, "open", genes)

    def sorted(self) -> list[int]:
        return sorted(self.open)

    def __str__(self) -> str:
        return "{" + ",".join(str(j) for j in self.sorted()) + "}"


def _open_indices(instance: Instance, solution: Solution) -> np.ndarray:
    # Size is deliberately not checked: the GA's greedy drop evaluates
    # oversized intermediate subsets through the same fitness interface.
    genes = solution.sorted()
    if genes[0] < 1 or genes[-1] > instance.n:
        raise DomainError(f"solution indices out of range 1..{instance.n}: {solution}")
    return np.array(genes) - 1


def _allocation(instance: Instance, idx: np.ndarray) -> np.ndarray:
    """Logit shares of shape idx.shape + (n,) for 0-based facility indices
    idx of shape (k,) or (B, k).

    probs[..., j, i] is the share of node i's demand captured by facility
    idx[..., j]. Rows of the symmetric distance matrix stand in for its
    columns. The shares are built facility-major, as a (k, B, n) array of
    contiguous (B, n) slabs (k, n for one subset), so the max and the
    denominators reduce over axis 0, one facility slab at a time in facility
    order. The (B, k, n) result is a view of that array, not C-ordered.

    Every step works in place on the fresh array that ``np.take`` returns;
    d * -a has the bits of -a * d.
    """
    shares = np.take(instance.distance, idx.T, axis=0)
    shares *= -instance.logit_sensitivity
    shares -= shares.max(axis=0)
    np.exp(shares, out=shares)
    shares /= shares.sum(axis=0)
    return shares.swapaxes(0, -2)


def logit_allocation(instance: Instance, solution: Solution) -> np.ndarray:
    """Share of each node's demand captured by each open facility.

    Row i holds exp(-a*d_ij) / sum_k exp(-a*d_ik) over open facilities k and
    zeros for closed ones; the exponent is shifted per row for stability.
    """
    open_idx = _open_indices(instance, solution)
    allocation = np.zeros((instance.n, instance.n))
    allocation[:, open_idx] = _allocation(instance, open_idx).T
    return allocation


def queue_state(lam, mu):
    """M/M/1 occupancy rho = lam/mu and waiting-line length Lq, elementwise on
    scalars or arrays. Lq is meaningful where lam < mu."""
    rho = lam / mu
    with np.errstate(divide="ignore"):  # lam == mu, an unstable queue
        lq = lam * lam / (mu * (mu - lam))
    return rho, lq


def balking_ramp(lq, mql):
    """Probability of joining a line of length lq: 1 when empty, 0 from MQL on."""
    return np.minimum(np.maximum(1.0 - lq / mql, 0.0), 1.0)


def served_share(rho, lq, mql):
    """Counted share of captured demand: all while idle, the joining share while busy."""
    return (1.0 - rho) + balking_ramp(lq, mql) * rho


def mm1_metrics(lam: float, mu: float):
    """Checked scalar (P0, Lq) from queue_state; None when lam >= mu."""
    if mu <= 0:
        raise DomainError(f"service rate must be positive, got {mu}")
    if lam < 0:
        raise DomainError(f"arrival rate must be nonnegative, got {lam}")
    if lam >= mu:
        return None
    rho, lq = queue_state(lam, mu)
    return (1.0 - rho, lq)


def capacity_threshold(instance: Instance) -> float:
    """Crisp occupancy bound from the truth-degree transform of the constraint.

    With B = (1-beta.hi, 1-beta.mid, 1-beta.lo), the occupancy center must not
    exceed B.hi - gamma*(B.hi - B.mid); at gamma=1 this is the center-vs-center
    comparison.
    """
    b_mid = 1.0 - instance.idle_min.mid
    b_hi = 1.0 - instance.idle_min.lo
    return b_hi - instance.gamma * (b_hi - b_mid)


class Kernel:
    """The model's figures for facility subsets given as 0-based, ascending
    index arrays of shape (..., k): one subset when idx is (k,), a block of B
    subsets when (B, k).

    The per-facility arrays are computed on construction, each derived figure
    by its method on each call. benefit[..., j, s] = sum_i w_ij * lambda_i^s
    * p_ij is the weighted captured demand that the objective discounts by
    queue state.

    A block gives the same bits as its subsets one at a time: the logit
    denominators are summed facility by facility, over axis 0 of a
    facility-major array (see _allocation), and every other sum over the
    facilities runs along a contiguous last axis, where numpy sums in pairs
    from k = 8 on.
    """

    def __init__(self, instance: Instance, idx: np.ndarray):
        probs = _allocation(instance, idx)
        self.instance = instance
        self.lam_bar = probs @ instance.demand  # (..., k, 3) aggregated arrivals
        self.mu = np.take(instance.service, idx, axis=0)  # (..., k, 3)
        weight = instance.benefit_weight
        if weight is None:
            self.benefit = self.lam_bar
        else:
            self.benefit = (np.take(weight.T, idx, axis=0) * probs) @ instance.demand
        # The center of the fuzzy occupancy ratio, (..., k). The division
        # triple (lo/hi', mid/mid', hi/lo') is already ascending for
        # nonnegative arrival and positive service rates, so no component
        # sort is needed.
        self.occupancy = self.lam_bar[..., 1] / self.mu[..., 1]

    def stable(self, axis=-2) -> np.ndarray:
        """Every queue is stable, in one reduction over ``axis``: per slice by default."""
        return (self.lam_bar < self.mu).all(axis=axis)

    def slices(self) -> np.ndarray:
        """(..., 3): objective per slice in slice order, meaningful where the
        slice is stable."""
        terms = self.benefit * served_share(*queue_state(self.lam_bar, self.mu), self.instance.mql)
        # A C-ordered (..., 3, k) copy, so each slice sums over a contiguous axis.
        return terms.swapaxes(-1, -2).copy().sum(axis=-1)

    def objective(self) -> np.ndarray:
        """(..., 3): the slice objectives sorted ascending."""
        return np.sort(self.slices(), axis=-1)

    def spreads(self) -> np.ndarray:
        """(..., 3): the spread components (z1, z2, z3) = (mid - lo, mid,
        hi - mid) of the sorted slice objectives."""
        z = self.objective()  # a fresh (lo, mid, hi) array from np.sort, rewritten in place
        z[..., 0] = z[..., 1] - z[..., 0]
        z[..., 2] -= z[..., 1]
        return z

    def feasible(self) -> np.ndarray:
        """(...): the capacity threshold holds and every queue is stable."""
        capacity = (self.occupancy <= capacity_threshold(self.instance)).all(axis=-1)
        return capacity & self.stable(axis=(-2, -1))

    def violation(self) -> np.ndarray:
        """(...): relative capacity excess plus queue instability."""
        threshold = capacity_threshold(self.instance)
        excess = np.maximum(self.occupancy - threshold, 0.0).sum(axis=-1) / threshold
        overload = np.maximum(self.lam_bar - self.mu, 0.0) / self.mu
        # One sum over the k * 3 entries per subset, in row order.
        return excess + overload.reshape(overload.shape[:-2] + (-1,)).sum(axis=-1)


def solution_kernel(instance: Instance, solution: Solution) -> Kernel:
    return Kernel(instance, _open_indices(instance, solution))


def crisp_objective_slice(instance: Instance, solution: Solution, slc: str):
    """Benefit objective with all fuzzy data pinned at one slice.

    Returns None (unstable marker) when some open facility has lam_bar >= mu.
    """
    s = SLICE_INDEX[slc]
    result = solution_kernel(instance, solution)
    return float(result.slices()[s]) if result.stable()[s] else None
