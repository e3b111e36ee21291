"""Exact computation: variable elimination, enumeration and symmetry classes.

``partition_log`` sums out vertices one at a time in a greedy min-fill order
(bucket elimination in log space, Dechter 1999), which costs O(n q^(w+1)) for
induced width w; when the largest intermediate factor would not fit in one
enumeration block it enumerates instead.

Restricted sums, total-variation distance and the reference sampler need
every state's weight and enumerate the q^n configuration space in blocks of
q^k <= 2^20 states with log-sum-exp accumulation.  A state's log-weight is
T(0) + ... + T(n-1), added in vertex order, where T(v) is h_v[s_v] plus
beta*[s_u == s_v] for each lower neighbour u of v in edge order.  A block is
a (q,)*k log-weight tensor grown one vertex at a time: adding T(t), a small
table over t and its lower neighbours broadcast onto their axes (a factor
product, Koller & Friedman 2009, ch. 9), turns q^t cells into q^(t+1), so a
build costs about q^k * q/(q-1) additions where one pass per edge and field
row cost (|E| + n) * q^k.  The top n-k vertices index the blocks and add
their T(v) in the same order, so ``block_log_weights`` on decoded spins gives
the same bits; spin matrices broadcast ``arange(q)`` the same way, so nothing
is decoded.  Every entry point is guarded by the same bit budget on q^n.
Enumeration order is lexicographic in base q with vertex 0 as the least
significant digit (axis k-1-v).  ``logsumexp`` has scipy's bits.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import BudgetExceededError, InvalidConfigurationError, InvalidModelError
from .model import Configuration, SpinSystem

DEFAULT_BUDGET_BITS = 26
_BLOCK_BITS = 20  # fixed block size so sums are reproducible
_P_SUM_ATOL = math.sqrt(np.finfo(np.float64).eps)  # rng.choice's tolerance on sum(p)

_log = logging.getLogger("spinlab.exact")


def check_budget(model: SpinSystem, budget_bits: float = DEFAULT_BUDGET_BITS) -> None:
    if math.isnan(budget_bits):
        raise InvalidConfigurationError("budget_bits must be a number, got nan")
    if model.log2_states() > budget_bits + 1e-9:
        raise BudgetExceededError(model.n, model.q, budget_bits)


def decode_spins(model: SpinSystem, indices: np.ndarray) -> np.ndarray:
    """Spins matrix (len(indices), n) for base-q state indices."""
    q, n = model.q, model.n
    # smallest signed integer dtype holding 0..q-1 (int8 up to q=128)
    # filled one vertex per row, so each spins[:, v] column is contiguous
    out = np.empty((n, len(indices)), dtype=np.min_scalar_type(-q))
    rem = indices.copy()
    for v in range(n):
        out[v] = rem % q
        rem //= q
    return out.T


def _terms(model: SpinSystem, spin: Callable[[int], np.ndarray]):
    """T(v) = h_v[s_v] + beta*[s_u == s_v] + ... over the lower neighbours u
    of v in edge order, added left to right, where ``spin(x)`` gives s_x as
    a spin column, a broadcast table or a fixed spin.  A state's log-weight
    is T(0) + ... + T(n-1), added in that order too."""
    h = model.field_array
    lower = [[] for _ in range(model.n)]
    for u, v, beta in model.edges:
        lower[v].append((u, beta))
    return lambda v: sum((beta * (spin(u) == spin(v)) for u, beta in lower[v]), h[v][spin(v)])


def iter_blocks(
    model: SpinSystem, with_spins: bool = False
) -> Iterator[tuple[np.ndarray, Optional[np.ndarray]]]:
    """Yield (log_weights, spins) for each block of q^k states, in
    enumeration order; ``spins`` is the block's (q^k, n) spin matrix with
    contiguous columns, or None unless ``with_spins``."""
    q, n = model.q, model.n
    # q^k <= 2^_BLOCK_BITS exactly, as q^k is no power of two unless q is (k is
    # 1 for larger q).  The last j axes merge into <= 2^8 cells over which every
    # operand is materialised, so numpy's inner loops stay long; the addends
    # are unchanged.
    k = min(n, max(1, int(_BLOCK_BITS / math.log2(q))))
    j = min(k, int(8 / math.log2(q)))
    merged = (q,) * (k - j) + (q**j,)
    dtype = np.min_scalar_type(-q)  # as decode_spins

    def onto(x: int) -> np.ndarray:
        """Vertex x's spins on its axis, as a merged-block operand."""
        shape = [1] * k
        shape[k - 1 - x] = q
        full = np.broadcast_to(np.arange(q, dtype=dtype).reshape(shape), shape[: k - j] + [q] * j)
        return full.reshape(tuple(shape[: k - j]) + (q**j,))

    low = [onto(x) for x in range(k)]
    term = _terms(model, lambda x: low[x] if x < k else top[x - k])  # top: set per block
    # The tensor over vertices < t is the block's first q^t cells, so adding
    # T(t), a small table over t and its lower neighbours, grows it in place
    # to q^(t+1) cells: about q^k * q/(q-1) additions per block.
    base = np.empty(q**k)
    base[: q**j] = np.ravel(sum(map(term, range(j)), 0.0))
    for t in range(j, k):
        rows = base[: q ** (t + 1)].reshape(merged[k - 1 - t:])
        table = term(t)
        table = table.reshape(table.shape[k - 1 - t:])  # drop the axes above t
        np.add(rows[0], table[1:], out=rows[1:])
        np.add(rows[0], table[0], out=rows[0])
    base = base.reshape(merged)
    if with_spins:
        spins = np.empty((n, q**k), dtype=dtype)
        for x in range(k):
            spins[x].reshape(merged)[...] = low[x]
    # the top n-k vertices index the blocks: with their spins fixed, each
    # T(v) is a constant or a table over its low neighbours
    for block in range(q ** (n - k)):
        top = block // q ** np.arange(n - k) % q
        lw = sum(map(term, range(k, n)), base)
        if with_spins:
            spins[k:] = top[:, None]
            # later blocks overwrite the top rows, so each gets a copy
            yield lw.ravel(), (spins.copy() if n > k else spins).T
        else:
            yield lw.ravel(), None


def state_table(model: SpinSystem) -> tuple[np.ndarray, np.ndarray]:
    """(log_weights, spins) of all q^n states in enumeration order."""
    weights, spins = zip(*iter_blocks(model, with_spins=True))
    return np.concatenate(weights), np.concatenate(spins)


def block_log_weights(model: SpinSystem, spins: np.ndarray) -> np.ndarray:
    """Log-weights for every configuration row of ``spins``, bit for bit as
    :func:`iter_blocks` gives them."""
    return sum(map(_terms(model, lambda x: spins[:, x]), range(model.n)), np.zeros(len(spins)))


def logsumexp(a) -> float:
    """log(sum(exp(a))) of a 1-D float64 array or sequence, with the bits of
    ``scipy.special.logsumexp(a)``: with peak m taken c times and s the sum of
    exp(x - m) over the other entries, log1p(s/c) + log(c) + m, which is
    finite for finite m; the unshifted log(sum(exp(a))) when m is not finite
    (all -inf, or a +inf or nan entry); -inf when empty."""
    a = np.asarray(a, dtype=float)
    if not a.size:
        return float("-inf")
    peak = a.max()
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if not math.isfinite(peak):
            return float(np.log(np.exp(a).sum()))
        top = a == peak
        count = np.float64(np.count_nonzero(top))
        shifted = a - peak
        shifted[top] = -np.inf
        s = np.exp(shifted, out=shifted).sum()
    return float(np.log1p(s / count) + np.log(count) + peak)


def _min_fill_order(model: SpinSystem) -> tuple[list[int], int]:
    """Greedy min-fill elimination order and its induced width.

    Each step eliminates the vertex whose neighbours need the fewest fill
    edges to form a clique, ties broken by degree and then vertex id; only
    the eliminated vertex's neighbours and theirs are re-costed.
    """
    adj = [set() for _ in range(model.n)]
    for u, v, _ in model.edges:
        adj[u].add(v)
        adj[v].add(u)

    def cost(v: int) -> tuple[int, int, int]:
        nbrs = sorted(adj[v])
        fill = sum(b not in adj[a] for i, a in enumerate(nbrs) for b in nbrs[i + 1 :])
        return fill, len(nbrs), v

    costs = {v: cost(v) for v in range(model.n)}
    order: list[int] = []
    width = 0
    while costs:
        v = min(costs.values())[2]
        nbrs = adj[v]
        width = max(width, len(nbrs))
        for a in nbrs:
            adj[a] |= nbrs
            adj[a] -= {a, v}
        del costs[v]
        order.append(v)
        for x in nbrs.union(*(adj[a] for a in nbrs)):
            costs[x] = cost(x)
    return order, width


def _eliminate_log_Z(model: SpinSystem, order: Sequence[int]) -> float:
    """log Z by bucket elimination along ``order`` (every vertex once).

    Factors are log-tables with axes in elimination order: one length-q
    field table per vertex and one q x q table per edge (beta on the
    diagonal).  Each factor waits in the bucket of its first-eliminated
    vertex; a bucket is summed out by a max-shifted log-sum-exp over its
    leading axis, and the message joins the bucket of its next vertex.
    """
    q = model.q
    rank = {v: i for i, v in enumerate(order)}
    buckets: list[list[tuple[tuple[int, ...], np.ndarray]]] = [
        [((v,), model.field_array[v])] for v in order
    ]
    eye = np.eye(q)
    for u, v, beta in model.edges:
        scope = (u, v) if rank[u] < rank[v] else (v, u)
        buckets[rank[scope[0]]].append((scope, beta * eye))
    log_z = 0.0
    for bucket in buckets:
        scope = sorted({x for vars_, _ in bucket for x in vars_}, key=rank.__getitem__)
        joint = sum(
            table.reshape([q if x in vars_ else 1 for x in scope]) for vars_, table in bucket
        )
        peak = joint.max(axis=0)
        message = peak + np.log(np.exp(joint - peak).sum(axis=0))
        rest = tuple(scope[1:])
        if rest:
            buckets[rank[rest[0]]].append((rest, message))
        else:
            log_z += float(message)
    return log_z


def _enumerate_log_Z(model: SpinSystem) -> float:
    """log Z by full block enumeration."""
    return logsumexp([logsumexp(lw) for lw, _ in iter_blocks(model)])


def partition_log(model: SpinSystem, budget_bits: float = DEFAULT_BUDGET_BITS) -> float:
    """Exact log Z.

    Uses variable elimination when its largest intermediate factor, q^(w+1)
    cells for induced width w, fits in one enumeration block, and block
    enumeration otherwise.  Logs the engine on the ``spinlab.exact`` logger
    at DEBUG level.
    """
    check_budget(model, budget_bits)
    order, width = _min_fill_order(model)
    cells = model.q ** (width + 1)
    if cells <= 1 << _BLOCK_BITS:
        engine, log_z = "elimination", _eliminate_log_Z(model, order)
    else:
        engine, log_z = "enumeration", _enumerate_log_Z(model)
    _log.debug("partition_log engine=%s induced_width=%d largest_factor_cells=%d",
               engine, width, cells)
    return log_z


def restricted_partition_log(
    model: SpinSystem, predicate: Callable[[np.ndarray], np.ndarray]
) -> float:
    """log of the weight sum over configurations satisfying ``predicate``,
    which receives a (block, n) spins matrix and returns a boolean mask.
    Returns -inf when no state qualifies.
    """
    return restricted_partition_multi(model, [predicate])[0]


def restricted_partition_multi(
    model: SpinSystem, predicates: Sequence[Callable[[np.ndarray], np.ndarray]]
) -> list[float]:
    """Several vectorized restricted sums in a single enumeration pass."""
    check_budget(model)
    parts: list[list[float]] = [[] for _ in predicates]
    for lw, spins in iter_blocks(model, with_spins=True):
        for k, pred in enumerate(predicates):
            mask = np.asarray(pred(spins), dtype=bool)
            if mask.any():
                parts[k].append(logsumexp(lw[mask]))
    return [logsumexp(p) for p in parts]


def tv_exact(model_a: SpinSystem, model_b: SpinSystem) -> float:
    """Total-variation distance between the two Gibbs distributions."""
    if model_a.n != model_b.n or model_a.q != model_b.q:
        raise InvalidModelError("tv_exact requires matching n and q")
    log_za = partition_log(model_a)
    log_zb = partition_log(model_b)
    return 0.5 * sum(
        float(np.sum(np.abs(np.exp(lwa - log_za) - np.exp(lwb - log_zb))))
        for (lwa, _), (lwb, _) in zip(iter_blocks(model_a), iter_blocks(model_b))
    )


@dataclass(frozen=True)
class ExactDistribution:
    """Materialized exact Gibbs distribution for reference sampling."""

    model: SpinSystem
    log_Z: float
    log_probs: np.ndarray  # indexed by base-q state index

    @classmethod
    def from_model(
        cls, model: SpinSystem, budget_bits: float = DEFAULT_BUDGET_BITS
    ) -> "ExactDistribution":
        check_budget(model, budget_bits)
        lw = np.concatenate([w for w, _ in iter_blocks(model)])
        log_z = logsumexp(lw)
        return cls(model=model, log_Z=log_z, log_probs=lw - log_z)

    def configuration(self, index: int) -> Configuration:
        return Configuration(tuple(decode_spins(self.model, np.array([index]))[0].tolist()))


def sample_exact(
    dist: ExactDistribution, rng: np.random.Generator, size: Optional[int] = None
):
    """Draw from the exact distribution; one Configuration, or a list of them."""
    idx = sample_exact_indices(dist, rng, size)
    if size is None:
        return dist.configuration(int(idx))
    return [Configuration(tuple(row)) for row in decode_spins(dist.model, idx).tolist()]


def sample_exact_indices(
    dist: ExactDistribution, rng: np.random.Generator, size: Optional[int] = None
):
    """State-index draws in enumeration order; one index when ``size`` is None."""
    return IndexSampler(np.exp(dist.log_probs)).draw(rng, size)


class IndexSampler:
    """Draws of indices 0..len(p)-1 with probabilities p = weights / sum(weights),
    by binary search on the cumulative table (inverse transform, Devroye 1986,
    §III.2).  Built once, it gives exactly the indices of
    ``rng.choice(len(p), size, p=p)`` and leaves the generator in the same
    state, without re-checking and re-summing p on every call.  p gets the
    checks ``rng.choice`` makes, once: an InvalidModelError unless p is
    finite, non-negative and sums to 1 within sqrt(machine epsilon)."""

    def __init__(self, weights: np.ndarray) -> None:
        with np.errstate(invalid="ignore", divide="ignore"):
            p = weights / weights.sum()
        if not (np.isfinite(p).all() and (p >= 0).all() and abs(p.sum() - 1.0) <= _P_SUM_ATOL):
            raise InvalidModelError(
                f"draw weights must give finite, non-negative probabilities summing to 1; "
                f"got {len(p)} weights summing to {float(weights.sum())!r}"
            )
        self.cdf = p.cumsum()
        self.cdf /= self.cdf[-1]

    def draw(self, rng: np.random.Generator, size: Optional[int] = None):
        """One index (size None) or an array of ``size`` indices."""
        return self.cdf.searchsorted(rng.random(size), side="right")


def dump_distribution_csv(dist: ExactDistribution, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["state_index", "log_probability"])
        for i, lp in enumerate(dist.log_probs):
            writer.writerow([i, repr(float(lp))])


@dataclass(frozen=True)
class ClassLayout:
    """How a collapsed space numbers its classes: ``key`` names the class
    structure (e.g. ``("hub", N)``) and ``size`` is the class count.  Spaces
    with equal layouts index the same classes in the same order."""

    key: tuple
    size: int


@dataclass(frozen=True)
class CollapsedSpace:
    """A partition of configuration space into constant-weight classes.

    Class ``i`` of ``layout`` has log state count ``log_count[i]`` and common
    per-configuration log-weight ``log_weight[i]``.  Two spaces with equal
    layouts are directly comparable via :func:`tv_collapsed`.
    """

    layout: ClassLayout
    log_count: np.ndarray
    log_weight: np.ndarray

    def __post_init__(self) -> None:
        if not (self.layout.size == len(self.log_count) == len(self.log_weight)):
            raise InvalidModelError("collapsed-space arrays must align")

    @property
    def log_Z(self) -> float:
        """Log total mass; a nan, infinite or zero total is an
        InvalidModelError, never a nan TV, tester answer or phase sum."""
        log_Z = logsumexp(self.log_count + self.log_weight)
        if not math.isfinite(log_Z):
            raise InvalidModelError(f"collapsed space has non-finite log Z = {log_Z!r}")
        return log_Z

    def log_class_masses(self) -> np.ndarray:
        """Log probability of each class; raises as :attr:`log_Z` does."""
        return self.log_count + self.log_weight - self.log_Z


def tv_collapsed(space_a: CollapsedSpace, space_b: CollapsedSpace) -> float:
    """TV distance between two models sharing a collapsed class structure."""
    if space_a.layout != space_b.layout:
        raise InvalidModelError("collapsed spaces have mismatched class layouts")
    if not np.array_equal(space_a.log_count, space_b.log_count):
        raise InvalidModelError("collapsed spaces have mismatched class counts")
    ma = np.exp(space_a.log_class_masses())
    mb = np.exp(space_b.log_class_masses())
    return 0.5 * float(np.sum(np.abs(ma - mb)))
