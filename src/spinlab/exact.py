"""Brute-force and symmetry-collapsed exact computation.

Partition functions, restricted sums, total-variation distance and a
reference sampler, all by full enumeration of the q^n configuration space
(guarded by a bit budget) with log-sum-exp accumulation.  Enumeration order
is lexicographic in base q with vertex 0 as the least significant digit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np
from scipy.special import logsumexp

from .errors import BudgetExceededError, InvalidModelError
from .model import Configuration, SpinSystem

DEFAULT_BUDGET_BITS = 26
_BLOCK_BITS = 20  # fixed block size so sums are reproducible


def check_budget(model: SpinSystem, budget_bits: float = DEFAULT_BUDGET_BITS) -> None:
    if model.log2_states() > budget_bits + 1e-9:
        raise BudgetExceededError(model.n, model.q, budget_bits)


def decode_spins(model: SpinSystem, indices: np.ndarray) -> np.ndarray:
    """Spins matrix (len(indices), n) for base-q state indices."""
    q, n = model.q, model.n
    # smallest signed integer dtype holding 0..q-1 (int8 up to q=128)
    out = np.empty((len(indices), n), dtype=np.min_scalar_type(-q))
    rem = indices.copy()
    for v in range(n):
        out[:, v] = rem % q
        rem //= q
    return out


def iter_state_blocks(model: SpinSystem) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (start_index, spins_matrix) blocks covering all q^n states."""
    total = model.q**model.n
    block = 1 << _BLOCK_BITS
    for start in range(0, total, block):
        idx = np.arange(start, min(start + block, total), dtype=np.int64)
        yield start, decode_spins(model, idx)


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


def partition_log(model: SpinSystem, budget_bits: float = DEFAULT_BUDGET_BITS) -> float:
    """log Z by full enumeration."""
    check_budget(model, budget_bits)
    parts = [logsumexp(block_log_weights(model, spins)) for _, spins in iter_state_blocks(model)]
    return float(logsumexp(parts))


def restricted_partition_log(
    model: SpinSystem,
    predicate: Callable,
    *,
    vectorized: bool = False,
    budget_bits: float = DEFAULT_BUDGET_BITS,
) -> float:
    """log of the weight sum over configurations satisfying ``predicate``.

    With ``vectorized=True`` the predicate receives a (block, n) spins matrix
    and must return a boolean mask; otherwise it is called per configuration
    with a Configuration instance.  Returns -inf when no state qualifies.
    """
    check_budget(model, budget_bits)
    parts: list[float] = []
    for _, spins in iter_state_blocks(model):
        if vectorized:
            mask = np.asarray(predicate(spins), dtype=bool)
        else:
            mask = np.fromiter(
                (bool(predicate(Configuration(tuple(int(s) for s in row)))) for row in spins),
                dtype=bool,
                count=len(spins),
            )
        if mask.any():
            parts.append(float(logsumexp(block_log_weights(model, spins)[mask])))
    if not parts:
        return float("-inf")
    return float(logsumexp(parts))


def restricted_partition_multi(
    model: SpinSystem,
    predicates: Sequence[Callable[[np.ndarray], np.ndarray]],
    budget_bits: float = DEFAULT_BUDGET_BITS,
) -> list[float]:
    """Several vectorized restricted sums in a single enumeration pass."""
    check_budget(model, budget_bits)
    parts: list[list[float]] = [[] for _ in predicates]
    for _, spins in iter_state_blocks(model):
        lw = block_log_weights(model, spins)
        for k, pred in enumerate(predicates):
            mask = np.asarray(pred(spins), dtype=bool)
            if mask.any():
                parts[k].append(float(logsumexp(lw[mask])))
    return [float(logsumexp(p)) if p else float("-inf") for p in parts]


def tv_exact(
    model_a: SpinSystem,
    model_b: SpinSystem,
    budget_bits: float = DEFAULT_BUDGET_BITS,
) -> float:
    """Total-variation distance between the two Gibbs distributions."""
    if model_a.n != model_b.n or model_a.q != model_b.q:
        raise InvalidModelError("tv_exact requires matching n and q")
    check_budget(model_a, budget_bits)
    log_za = partition_log(model_a, budget_bits)
    log_zb = partition_log(model_b, budget_bits)
    acc = 0.0
    for _, spins in iter_state_blocks(model_a):
        pa = np.exp(block_log_weights(model_a, spins) - log_za)
        pb = np.exp(block_log_weights(model_b, spins) - log_zb)
        acc += float(np.sum(np.abs(pa - pb)))
    return 0.5 * acc


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
        lw = np.concatenate(
            [block_log_weights(model, spins) for _, spins in iter_state_blocks(model)]
        )
        log_z = float(logsumexp(lw))
        return cls(model=model, log_Z=log_z, log_probs=lw - log_z)

    def configuration(self, index: int) -> Configuration:
        spins = decode_spins(self.model, np.asarray([index], dtype=np.int64))[0]
        return Configuration(tuple(int(s) for s in spins))


def sample_exact(
    dist: ExactDistribution, rng: np.random.Generator, size: Optional[int] = None
):
    """Draw from the exact distribution; one Configuration, or a list of them."""
    p = np.exp(dist.log_probs)
    p /= p.sum()
    if size is None:
        idx = int(rng.choice(len(p), p=p))
        return dist.configuration(idx)
    idx = rng.choice(len(p), size=size, p=p)
    return [Configuration(tuple(row)) for row in decode_spins(dist.model, idx).tolist()]


def sample_exact_indices(
    dist: ExactDistribution, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Vectorized index draws (state indices in enumeration order)."""
    p = np.exp(dist.log_probs)
    p /= p.sum()
    return rng.choice(len(p), size=size, p=p)


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
        t = self.log_count + self.log_weight
        return t - logsumexp(t)


def class_probs(log_count: np.ndarray, log_weight: np.ndarray) -> np.ndarray:
    """Normalised probabilities of classes with the given log counts and
    per-configuration log-weights, ready for ``rng.choice(p=...)``."""
    t = log_count + log_weight
    p = np.exp(t - logsumexp(t))
    return p / p.sum()


def tv_collapsed(space_a: CollapsedSpace, space_b: CollapsedSpace) -> float:
    """TV distance between two models sharing a collapsed class structure."""
    if space_a.layout != space_b.layout:
        raise InvalidModelError("collapsed spaces have mismatched class layouts")
    if not np.array_equal(space_a.log_count, space_b.log_count):
        raise InvalidModelError("collapsed spaces have mismatched class counts")
    ma = np.exp(space_a.log_class_masses())
    mb = np.exp(space_b.log_class_masses())
    return 0.5 * float(np.sum(np.abs(ma - mb)))
