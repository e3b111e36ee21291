"""Exact computation: variable elimination, enumeration and symmetry classes.

``partition_log`` sums out vertices one at a time in a greedy min-fill order
(bucket elimination in log space, Dechter 1999), which costs O(n q^(w+1)) for
induced width w; when the largest intermediate factor would not fit in one
enumeration block it enumerates instead.  Restricted sums, total-variation
distance and the reference sampler need every state's weight and enumerate
the q^n configuration space in blocks of q^k <= 2^20 states with log-sum-exp
accumulation.  A block is a (q,)*k log-weight tensor built by broadcasting
each edge's beta*I_q and each field row onto the vertices' axes (a factor
product, Koller & Friedman 2009, ch. 9); the top n-k vertices index the
blocks and fold into fields plus a constant, and spin matrices broadcast
``arange(q)`` the same way, so nothing is decoded.  Every entry point is
guarded by the same bit budget on q^n.  Enumeration order is lexicographic
in base q with vertex 0 as the least significant digit (axis k-1-v).
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np
from scipy.special import logsumexp

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

    def onto(table: np.ndarray, *vertices: int) -> np.ndarray:
        """A table over ``vertices`` (highest first) as a merged-block operand."""
        shape = [1] * k
        for x in vertices:
            shape[k - 1 - x] = q
        full = np.broadcast_to(table.reshape(shape), shape[: k - j] + [q] * j)
        return full.reshape(tuple(shape[: k - j]) + (q**j,))

    u, v, b = model.edge_arrays
    h = model.field_array
    low = v < k  # u < v, so both ends are low
    base = np.zeros(merged)
    for ui, vi, bi in zip(u[low], v[low], b[low]):
        base += onto(bi * np.eye(q), vi, ui)
    if with_spins:
        dtype = np.min_scalar_type(-q)  # as decode_spins
        spins = np.empty((n, q**k), dtype=dtype)
        for vtx in range(k):
            spins[vtx].reshape(merged)[...] = onto(np.arange(q, dtype=dtype), vtx)
    # the top n-k vertices index the blocks: fold their spins into fields on
    # the low vertices (edges across) and a constant (edges and fields above)
    cross, inner = low ^ (u < k), u >= k
    for block in range(q ** (n - k)):
        top = block // q ** np.arange(n - k) % q
        fields = h[:k].copy()
        np.add.at(fields, (u[cross], top[v[cross] - k]), b[cross])
        const = b[inner] @ (top[u[inner] - k] == top[v[inner] - k])
        lw = base + (const + h[np.arange(k, n), top].sum()) if n > k else base
        for vtx in range(k):
            if np.any(fields[vtx]):
                lw += onto(fields[vtx], vtx)
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
    """Log-weights for every configuration row of ``spins``."""
    u, v, b = model.edge_arrays
    lw = np.zeros(len(spins), dtype=float)
    for ui, vi, bi in zip(u, v, b):
        lw += bi * (spins[:, ui] == spins[:, vi])
    if model.field:
        h = model.field_array
        for vtx in range(model.n):
            col = h[vtx]
            if np.any(col):
                lw += col[spins[:, vtx]]
    return lw


def _logsumexp_parts(parts: list[float]) -> float:
    """Combine per-block log sums; -inf for none, the part itself for one."""
    if not parts:
        return float("-inf")
    if len(parts) == 1:
        return float(parts[0])
    return float(logsumexp(parts))


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
    return _logsumexp_parts([logsumexp(lw) for lw, _ in iter_blocks(model)])


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
                parts[k].append(float(logsumexp(lw[mask])))
    return [_logsumexp_parts(p) for p in parts]


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
        log_z = float(logsumexp(lw))
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
        return float(logsumexp(self.log_count + self.log_weight))

    def log_class_masses(self) -> np.ndarray:
        """Log probability of each class; a nan, infinite or zero total mass
        is an InvalidModelError, never a nan TV or tester answer."""
        t = self.log_count + self.log_weight
        log_Z = float(logsumexp(t))
        if not math.isfinite(log_Z):
            raise InvalidModelError(f"collapsed space has non-finite log Z = {log_Z!r}")
        return t - log_Z


def tv_collapsed(space_a: CollapsedSpace, space_b: CollapsedSpace) -> float:
    """TV distance between two models sharing a collapsed class structure."""
    if space_a.layout != space_b.layout:
        raise InvalidModelError("collapsed spaces have mismatched class layouts")
    if not np.array_equal(space_a.log_count, space_b.log_count):
        raise InvalidModelError("collapsed spaces have mismatched class counts")
    ma = np.exp(space_a.log_class_masses())
    mb = np.exp(space_b.log_class_masses())
    return 0.5 * float(np.sum(np.abs(ma - mb)))
