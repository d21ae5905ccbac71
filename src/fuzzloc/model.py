"""Problem data types and the crisp queuing/allocation/objective formulas.

Node indices are 1-based everywhere in the public API; numpy arrays are
indexed internally with ``index - 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Iterable, Optional

import numpy as np

from .errors import DomainError
from .fuzzy import SLICE_INDEX, TriFuzzy, check_count


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


# The largest a * max(distance) for which an instance keeps its attraction
# matrix exp(-a * d): every entry is then at least e^-700, about 1e-304, a
# normal double, so no share underflows to 0/0.
ATTRACTION_LIMIT = 700.0
# Subsets per kernel block of an enumeration (_blocks). The kernel's
# intermediates grow with this, not with the number of subsets: the
# facility-major (k, B, n) logit shares take 0.8 MB at n = 20, k = 5.
BLOCK_SIZE = 1024
# The most m-subsets for which an instance keeps a figures table (see
# figures_table): 33 bytes a subset, about 0.5 MB at the limit, and 24 + m
# more per feasible subset for n < 256 (the rows that feasible_rows gives a
# Scan), about 1 MB in all at most. An ACO solve's first round builds the
# whole table, and single window-100 ACO solves on fresh mild instances
# mostly repaid it below about 20 000 subsets and never at 42 504 or more
# (ROADMAP item 8 has the figures).
TABLE_LIMIT = 1 << 14


@dataclass(frozen=True, eq=False)
class Instance:
    """One problem datum: network, fuzzy rates, and model parameters.

    ``demand`` and ``service`` are (n, 3) arrays of [lo, mid, hi] rows;
    ``distance`` is a symmetric zero-diagonal (n, n) matrix.

    ``attraction`` is derived, never given: the read-only matrix
    exp(distance * -logit_sensitivity) that the logit allocation reads, or
    None when logit_sensitivity * max(distance) exceeds ATTRACTION_LIMIT.
    ``certified`` is derived too: the tuple whose entry k, for k = 0..n, is
    True when no k-subset can be feasible (see _certificate), so that
    no_feasible_subset and Kernel.figures() read one entry.
    ``dataclasses.replace`` recomputes both, and instance files hold neither.
    Nor do they hold ``_table``, the figures table that figures_table builds
    and every drive, feasible_rows and violations reads from then on;
    ``dataclasses.replace`` drops it.

    Instances compare field by field, arrays by value, leaving ``attraction``,
    ``certified`` and ``_table`` out. They are unhashable: their arrays are.
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
    attraction: Optional[np.ndarray] = field(init=False, repr=False, compare=False)
    certified: tuple[bool, ...] = field(init=False, repr=False, compare=False)
    _table: Optional[_FiguresTable] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.n
        check_count("n", n, 2, "instance needs at least two nodes")
        message = f"m_servers must satisfy 1 <= M < n, got {self.m_servers}"
        check_count("m_servers", self.m_servers, 1, message)
        if self.m_servers >= n:
            raise DomainError(message)
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
        if not capacity_threshold(self) > 0:  # the violation divides by it
            raise DomainError("idle_min and gamma give a capacity threshold of 0: idle_min.lo "
                              "must be below 1, and idle_min.mid too when gamma is 1")
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
        attraction = None
        if self.logit_sensitivity * dist.max() <= ATTRACTION_LIMIT:
            attraction = np.exp(dist * -self.logit_sensitivity)
            attraction.setflags(write=False)
        object.__setattr__(self, "attraction", attraction)
        object.__setattr__(self, "certified", _certificate(demand, service,
                                                           capacity_threshold(self)))
        object.__setattr__(self, "_table", None)  # built by figures_table

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        for f in fields(self):
            if f.compare:
                a, b = getattr(self, f.name), getattr(other, f.name)
                if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
                    if not np.array_equal(a, b):
                        return False
                elif a != b:
                    return False
        return True

    __hash__ = None


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
    contiguous (B, n) slabs (k, n for one subset), so the denominators
    reduce over axis 0, one facility slab at a time in facility order. The
    (B, k, n) result is a view of that array, not C-ordered.

    The numerators are rows of the instance's attraction matrix. An
    instance past ATTRACTION_LIMIT has none; its exponents are computed on
    each call and shifted by their maximum over the open facilities, so the
    largest is exp(0) = 1 and no denominator underflows. Every step works in
    place on the fresh array that ``take`` returns; d * -a has the bits of
    -a * d.
    """
    if instance.attraction is None:
        shares = instance.distance.take(idx.T, axis=0)
        shares *= -instance.logit_sensitivity
        shares -= np.maximum.reduce(shares, axis=0)
        np.exp(shares, out=shares)
    else:
        shares = instance.attraction.take(idx.T, axis=0)
    shares /= np.add.reduce(shares, axis=0)
    return shares.swapaxes(0, -2)


def logit_allocation(instance: Instance, solution: Solution) -> np.ndarray:
    """Share of each node's demand captured by each open facility.

    Row i holds exp(-a*d_ij) / sum_k exp(-a*d_ik) over open facilities k and
    zeros for closed ones. The exponentials are the instance's attraction
    matrix, computed once, or on an instance past ATTRACTION_LIMIT shifted
    per row by their maximum (see _allocation).
    """
    open_idx = _open_indices(instance, solution)
    allocation = np.zeros((instance.n, instance.n))
    allocation[:, open_idx] = _allocation(instance, open_idx).T
    return allocation


def occupancy(lam, mu):
    """M/M/1 occupancy rho = lam/mu, elementwise on scalars or arrays."""
    return lam / mu


@np.errstate(divide="ignore")  # lam == mu, an unstable queue
def queue_state(lam, mu):
    """M/M/1 occupancy rho (see occupancy) and waiting-line length Lq,
    elementwise; Lq is meaningful where lam < mu, and +inf where lam == mu."""
    lq = lam * lam
    lq /= (mu - lam) * mu  # mu - lam, not -(lam - mu): a zero stays positive
    return occupancy(lam, mu), lq


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


def _certificate(demand: np.ndarray, service: np.ndarray, threshold: float) -> tuple:
    """Entry k, for k = 0..n, certifies that ``Kernel.feasible()`` holds for
    no k-subset.

    Each node's logit shares sum to 1, so the open facilities' arrivals sum
    to the total demand D_s of each slice s. A feasible k-subset S then has
    D_mid <= threshold * sum_S mu_mid and D_s < sum_S mu_s for every slice,
    and the k largest rates of a slice, one prefix sum of the rates sorted
    in descending order, bound sum_S mu_s. Entry k holds when either fails
    against those k rates by a relative margin of 1e-9. Every term is
    nonnegative, so the kernel's sums, and these, are off by at most about
    n * 2**-53 relative, far below the margin.
    """
    total = demand.sum(axis=0)
    top = np.zeros((len(service) + 1, 3))
    np.cumsum(np.sort(service, axis=0)[::-1], axis=0, out=top[1:])
    top *= 1.0 + 1e-9
    certified = (total[1] > threshold * top[:, 1]) | (total >= top).any(axis=1)
    return tuple(certified.tolist())


def no_feasible_subset(instance: Instance) -> bool:
    """A certificate that ``Kernel.feasible()`` holds for no m-subset: entry
    m of ``instance.certified``."""
    return instance.certified[instance.m_servers]


class Kernel:
    """The model's figures for facility subsets given as 0-based, ascending
    index arrays of shape (..., k): one subset when idx is (k,), a block of B
    subsets when (B, k).

    The per-facility arrays are computed on construction, each derived figure
    by its method on each call. benefit[..., j, s] = sum_i w_ij * lambda_i^s
    * p_ij is the weighted captured demand that the objective discounts by
    queue state. ``over`` = occupancy - threshold and ``surplus`` = lam_bar -
    mu are shared by the feasibility mask and the violation: a difference of
    doubles has the sign of their comparison.

    slices(), objective() and spreads() compute their figure for the rows
    that ``rows`` selects on the leading axis (a boolean mask, say), or for
    every row, with no copy, when it is None; violation() computes its
    figure for every row. Each is elementwise or reduces along a row's own
    axes, so a row's bits do not depend on the rows computed with it.

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
        self.mu = instance.service.take(idx, axis=0)  # (..., k, 3)
        weight = instance.benefit_weight
        if weight is None:
            self.benefit = self.lam_bar
        else:
            self.benefit = (weight.T.take(idx, axis=0) * probs) @ instance.demand
        # The center of the fuzzy occupancy ratio, (..., k): the triple
        # (lo/hi', mid/mid', hi/lo') is ascending for lam >= 0 and mu > 0.
        self.occupancy = occupancy(self.lam_bar[..., 1], self.mu[..., 1])
        self.threshold = capacity_threshold(instance)
        self.over = self.occupancy - self.threshold  # (..., k)
        self.surplus = self.lam_bar - self.mu  # (..., k, 3)

    def stable(self) -> np.ndarray:
        """(..., 3): every queue of the slice is stable."""
        return (self.lam_bar < self.mu).all(axis=-2)

    def feasible(self) -> np.ndarray:
        """(...): the capacity threshold holds and every queue is stable."""
        capacity = np.logical_and.reduce(self.over <= 0.0, axis=-1)
        return capacity & np.logical_and.reduce(self.surplus < 0.0, axis=(-2, -1))

    def slices(self, rows=None) -> np.ndarray:
        """(..., 3): objective per slice in slice order, meaningful where the
        slice is stable."""
        lam_bar, mu, benefit = self.lam_bar, self.mu, self.benefit
        if rows is not None:
            lam_bar, mu, benefit = lam_bar[rows], mu[rows], benefit[rows]
        terms = benefit * served_share(*queue_state(lam_bar, mu), self.instance.mql)
        # A C-ordered (..., 3, k) copy, so each slice sums over a contiguous axis.
        return np.add.reduce(terms.swapaxes(-1, -2).copy(), axis=-1)

    def objective(self, rows=None) -> np.ndarray:
        """(..., 3): the slice objectives sorted ascending."""
        objective = self.slices(rows)  # a fresh array, sorted in place
        objective.sort(axis=-1)
        return objective

    def spreads(self, rows=None) -> np.ndarray:
        """(..., 3): (z1, z2, z3) = (mid - lo, mid, hi - mid) of the sorted
        slice objectives, meaningful where the row is feasible."""
        spreads = self.objective(rows)  # a fresh (lo, mid, hi) array, rewritten in place
        lo, mid, hi = spreads[..., 0], spreads[..., 1], spreads[..., 2]
        np.subtract(mid, lo, out=lo)
        hi -= mid
        return spreads

    def violation(self) -> np.ndarray:
        """(...): relative capacity excess plus queue instability, 0 where
        the row is feasible."""
        excess = np.add.reduce(np.maximum(self.over, 0.0), axis=-1) / self.threshold
        overload = np.maximum(self.surplus, 0.0)
        overload /= self.mu
        # One sum over the k * 3 entries per subset, in row order.
        return excess + np.add.reduce(overload.reshape(excess.shape + (-1,)), axis=-1)

    def figures(self):
        """(feasible, spreads, violation) of every row, each part computed
        only if some row reads it: the spreads None if no row is feasible,
        the violation None if every row is (it would be 0). A block of a
        subset size that the instance certifies (Instance.certified) has an
        all-False mask, given without computing it."""
        if self.instance.certified[self.over.shape[-1]]:
            # [()] gives a scalar for one subset, as feasible() does
            return np.zeros(self.over.shape[:-1], bool)[()], None, self.violation()
        feasible = self.feasible()
        count = np.count_nonzero(feasible)
        spreads = self.spreads() if count else None
        violation = None if count == feasible.size else self.violation()
        return feasible, spreads, violation


def _comb_counts(n: int, m: int) -> np.ndarray:
    """The read-only (m, n + 1) table that numbers the m-subsets of n: row p
    holds comb(j, m - p) for j = 0..n, so row 0 ends in comb(n, m). Counts
    are capped at comb(n, m), which only entries no subset can take exceed,
    to stay within intp."""
    count = math.comb(n, m)
    counts = np.array([[min(math.comb(j, m - p), count) for j in range(n + 1)]
                       for p in range(m)], dtype=np.intp)
    counts.setflags(write=False)
    return counts


def _unrank(counts: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """The (len(ranks), m) rows of 1-based indices of the m-subsets of those
    lexicographic ranks, one entry at a time for all rows, by the counts of
    _comb_counts. A row's key counts the subsets from its own to the last
    among those sharing its entries so far. With s entries left, comb(j, s)
    of them take all s from the last j values, so the next entry is
    n + 1 - J for the least J with comb(J, s) >= key, and the key drops by
    comb(J - 1, s).
    """
    m, n = counts.shape[0], counts.shape[1] - 1
    key = counts[0, n] - ranks
    rows = np.empty((m, len(key)), dtype=np.intp)  # row p: entry p of every subset
    for p, row in enumerate(counts):
        j = np.searchsorted(row, key)
        rows[p] = n + 1 - j
        key -= row.take(j - 1)
    return rows.T


def _blocks(instance: Instance):
    """Every m-subset as rows of 1-based indices, in lexicographic order, in
    (B, m) arrays of BLOCK_SIZE rows but the last, each one run of ranks
    unranked. _kernel_pass and a cold violations() compute on these blocks."""
    counts = _comb_counts(instance.n, instance.m_servers)
    for first in range(0, counts[0, -1], BLOCK_SIZE):
        yield _unrank(counts, np.arange(first, min(first + BLOCK_SIZE, counts[0, -1])))


def _kernel_pass(instance: Instance):
    """One Kernel per block of _blocks, yielding the block's kernel, its
    feasibility mask, and the spreads and rows of its feasible subsets, or
    None and None when it has none. The kernel computes the spreads of the
    feasible rows only; the rows are in the smallest unsigned dtype that
    holds n (a byte for n < 256). _FiguresTable and a cold feasible_rows
    both read this pass, so they keep the same bytes."""
    dtype = np.min_scalar_type(instance.n)
    for block in _blocks(instance):
        kernel = Kernel(instance, block - 1)
        feasible = kernel.feasible()
        if feasible.any():
            yield kernel, feasible, kernel.spreads(feasible), block[feasible].astype(dtype)
        else:
            yield kernel, feasible, None, None


def _joined(instance: Instance, parts) -> tuple[np.ndarray, np.ndarray]:
    """The (F, 3) spreads and (F, m) rows of the (spreads, rows) parts that
    _kernel_pass gives, in order; no part gives F = 0. The spreads are held
    column by column, the transpose of a C-ordered (3, F) array: each
    component is contiguous, so the extrema of exact_bounds and the
    elementwise memberships of a score run along it, with the bits that
    row-ordered spreads give."""
    empty = np.empty((0, 3)), np.empty((0, instance.m_servers), np.min_scalar_type(instance.n))
    spreads, subsets = zip(empty, *parts)
    return np.concatenate([part.T for part in spreads], axis=1).T, np.concatenate(subsets)


class _FiguresTable:
    """The figures of every m-subset of an instance, one read-only row per
    subset in lexicographic order: ``feasible``, the ``spreads`` of feasible
    rows (0 in the others) and the ``violation`` (0 where feasible, as the
    kernel's is). It also keeps feasible_rows' two arrays, the
    ``feasible_spreads`` (F, 3) and ``feasible_subsets`` (F, m) of its F
    feasible subsets. One _kernel_pass fills all five, as it does a cold
    feasible_rows, and by the block contract (a row's bits do not depend on
    the rows computed with it) each row holds the bits that any block gives
    its subset.

    The lexicographic rank of the ascending 0-based row c_0 < ... < c_{m-1}
    is comb(n, m) - 1 - sum_j comb(n - 1 - c_j, m - j), and entry j's term
    is ``counts[j, n - 1 - c_j]`` of _comb_counts. Row j of the flattened
    (m, n) ``weights`` holds those terms, negated, with comb(n, m) - 1 added
    to row 0, so a rank is one gather and one integer dot product with ones
    (faster than a sum at solver block sizes).
    """

    def __init__(self, instance: Instance):
        n, m = instance.n, instance.m_servers
        count = math.comb(n, m)
        feasible, spreads, violation = np.empty(count, bool), np.zeros((count, 3)), np.zeros(count)
        parts, start = [], 0
        for kernel, mask, kept, subsets in _kernel_pass(instance):
            rows = slice(start, start + len(mask))
            start = rows.stop
            feasible[rows] = mask
            if kept is not None:
                spreads[rows][mask] = kept
                parts.append((kept, subsets))
            if not mask.all():
                violation[rows] = kernel.violation()
        weights = -_comb_counts(n, m)[:, n - 1::-1]
        weights[0] += count - 1
        self.weights, self.ones = weights.ravel(), np.ones(m, np.intp)
        self.offsets = np.arange(0, m * n, n)  # entry j reads row j of the weights
        self.feasible, self.spreads, self.violation = feasible, spreads, violation
        self.feasible_spreads, self.feasible_subsets = _joined(instance, parts)
        for array in vars(self).values():
            array.setflags(write=False)

    def figures(self, idx: np.ndarray):
        """Kernel(instance, idx).figures() for a (B, m) block of ascending
        0-based rows, gathered from the table, with the same None rules."""
        rank = self.weights.take(idx + self.offsets).dot(self.ones)
        feasible = self.feasible.take(rank)
        count = np.count_nonzero(feasible)
        spreads = self.spreads.take(rank, axis=0) if count else None
        violation = None if count == feasible.size else self.violation.take(rank)
        return feasible, spreads, violation


def feasible_rows(instance: Instance):
    """(spreads, subsets) of the F feasible m-subsets in lexicographic order:
    their (F, 3) spread components and (F, m) rows of 1-based indices, the
    rows in the smallest unsigned dtype that holds n (a byte for n < 256).

    An instance that no_feasible_subset certifies keeps no rows and reads
    nothing. One that holds a figures table gets the table's own read-only
    arrays, with nothing computed or copied. Any other gets one _kernel_pass,
    the pass that built the table of an instance that holds one, so both
    ways keep the same bits.
    """
    table = instance._table
    if no_feasible_subset(instance):
        return _joined(instance, ())
    if table is not None:
        return table.feasible_spreads, table.feasible_subsets
    return _joined(instance, [(kept, subsets) for _, _, kept, subsets in _kernel_pass(instance)
                              if kept is not None])


def violations(instance: Instance) -> tuple[np.ndarray, np.ndarray]:
    """(feasible, violation) of every m-subset in lexicographic order, the
    violation 0 where feasible, as the kernel's: the figures table's own
    read-only columns when the instance holds one, else one Kernel per
    block of _blocks, which gives each row the table's bits."""
    table = instance._table
    if table is not None:
        return table.feasible, table.violation
    kernels = (Kernel(instance, block - 1) for block in _blocks(instance))
    feasible, violation = zip(*((kernel.feasible(), kernel.violation()) for kernel in kernels))
    return np.concatenate(feasible), np.concatenate(violation)


def ranked_subset(instance: Instance, rank: int) -> np.ndarray:
    """The (m,) row of 1-based indices of the m-subset of lexicographic rank
    ``rank``, as _blocks gives it."""
    return _unrank(_comb_counts(instance.n, instance.m_servers), np.array([rank]))[0]


def figures_table(instance: Instance) -> Optional[_FiguresTable]:
    """The instance's figures table, built on the first call if comb(n, m) <=
    TABLE_LIMIT, else None. An ACO solve's first round is the only caller;
    block_figures, feasible_rows and violations read ``instance._table``
    itself."""
    if instance._table is None and math.comb(instance.n, instance.m_servers) <= TABLE_LIMIT:
        object.__setattr__(instance, "_table", _FiguresTable(instance))
    return instance._table


def block_figures(instance: Instance, idx: np.ndarray):
    """``Kernel(instance, idx).figures()`` of a (B, k) block of ascending
    0-based rows, with the same None rules and the same bits, except for
    the spreads of infeasible rows, which no score reads.

    A block of m-subsets is looked up in the instance's figures table, if
    figures_table has built one; any other block gets its own Kernel. A
    model formula patched after the build does not reach the table's rows.
    """
    table = instance._table
    if table is not None and idx.shape[-1] == instance.m_servers:
        return table.figures(idx)
    return Kernel(instance, idx).figures()


def solution_kernel(instance: Instance, solution: Solution) -> Kernel:
    return Kernel(instance, _open_indices(instance, solution))


def crisp_objective_slice(instance: Instance, solution: Solution, slc: str):
    """Benefit objective with all fuzzy data pinned at one slice, or None
    (unstable marker) when some open facility has lam_bar >= mu."""
    s = SLICE_INDEX[slc]
    result = solution_kernel(instance, solution)
    return float(result.slices()[s]) if result.stable()[s] else None
