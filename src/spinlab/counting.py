"""Decision counting, boosted deciders, bisection counting and testers.

Decision r-approximate counting: given an estimate Ẑ and a rate r > 1 with
the promise Z ≤ Ẑ/r or Z ≥ rẐ, answer which side holds with probability at
least 5/8.  A tester consumes a visible model plus L sample configurations
and answers Yes ("samples look like the visible model") or No; the generic
reduction turns any such tester into a decider by constructing a visible /
hidden instance pair whose total-variation distance encodes the comparison.

The reduction contract lives here: the two answers, the rate
:func:`testing_rate`, the guard :func:`check_guard` and the instance shape
:class:`ReductionInstance`.  An instance (``hubs.HubInstance``,
``potts.PottsInstance``) holds the base blocks (vertices 0..N-1) in which its
visible and hidden models differ, and supplies four things:

* ``assemble(block)`` — the full model around a base block, from the
  instance's own couplings, which builds ``visible`` and ``hidden`` on first
  read;

* ``collapsed(which)`` — the exact collapsed space of one model, built by
  ``level_space`` with classes numbered ``outer * n_levels + level``;
* ``outer_class(spins)`` — the outer part of that number for each
  configuration row (hub spins, or the rank of the clique's colour counts);
* ``hidden_class_table`` — the hidden model's classes as
  ``(descriptors, log_count, log_weight)``.

From these the base class derives the cached ``collapsed_pair``, the
vectorised ``class_index`` and ``sample_hidden_classes``, which draws from a
class table built once per instance; the testers and samplers read these.
Both base blocks' weights are constant on each of the cached ``levels``, so
TV over the collapsed classes is TV over states.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import GuardViolation, InvalidConfigurationError, InvalidModelError
from .exact import CollapsedSpace, IndexSampler, block_log_weights, logsumexp, state_table, tv_collapsed
from .model import Configuration, SpinSystem, classify_field, disjoint_union, FIELD_ZERO

ANSWER_LOW = "Z<=Zhat/r"
ANSWER_HIGH = "Z>=r*Zhat"

PROVENANCE_TESTER = "tester"
PROVENANCE_GUARD = "guard-bound"


@dataclass(frozen=True)
class DecisionQuery:
    log_Zhat: float
    r: float

    def __post_init__(self) -> None:
        if self.r <= 1.0:
            raise InvalidConfigurationError("decision rate r must exceed 1")


@dataclass(frozen=True)
class CountingOutcome:
    answer: str
    provenance: str

    def __post_init__(self) -> None:
        if self.answer not in (ANSWER_LOW, ANSWER_HIGH):
            raise InvalidConfigurationError(f"unknown answer {self.answer!r}")
        if self.provenance not in (PROVENANCE_TESTER, PROVENANCE_GUARD):
            raise InvalidConfigurationError(f"unknown provenance {self.provenance!r}")


# -- reduction contract -------------------------------------------------------------


def testing_rate(epsilon: float, L: int) -> float:
    """r = 96 * sqrt(epsilon*L + 1) / epsilon, for 0 < epsilon < 1 and L ≥ 1."""
    if not 0.0 < epsilon < 1.0:
        raise InvalidConfigurationError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    if L < 1:
        raise InvalidConfigurationError(f"the sample count L must be at least 1, got {L!r}")
    return 96.0 / epsilon * math.sqrt(epsilon * L + 1)


def check_finite_log_Zhat(log_Zhat: float) -> None:
    """Reject a nan or infinite log Ẑ, which no guard window or solver target
    can place."""
    if not math.isfinite(log_Zhat):
        raise InvalidConfigurationError(f"log Zhat must be finite, got {log_Zhat!r}")


def check_guard(log_Zhat: float, floor: float, ceiling: float) -> None:
    """Raise the GuardViolation carrying the certified answer when log Ẑ lies
    outside the certified window [floor, ceiling]."""
    check_finite_log_Zhat(log_Zhat)
    if log_Zhat < floor:
        raise GuardViolation("below", ANSWER_HIGH, f"log Zhat {log_Zhat:.4g} < floor {floor:.4g}")
    if log_Zhat > ceiling:
        raise GuardViolation("above", ANSWER_LOW, f"log Zhat {log_Zhat:.4g} > ceiling {ceiling:.4g}")


def colour_counts(spins: np.ndarray, q: int) -> np.ndarray:
    """(rows, q) number of each colour 0..q-1 in each row of ``spins``."""
    return np.stack([(spins == c).sum(axis=1) for c in range(q)], axis=1)


def count_code(digits: np.ndarray, radix: Sequence[int]) -> np.ndarray:
    """Mixed-radix code of each row of ``digits`` (digit i below radix[i], the
    first most significant): int64, or Python ints past int64's range."""
    places = [math.prod(radix[i + 1:]) for i in range(len(radix))]
    dtype = np.int64 if math.prod(radix) <= np.iinfo(np.int64).max else object
    return np.asarray(digits).astype(dtype) @ np.asarray(places, dtype=dtype)


@dataclass(frozen=True)
class ReductionInstance:
    """Shared shape of a visible/hidden reduction pair; see the module docstring."""

    visible_block: SpinSystem
    hidden_block: SpinSystem

    @property
    def N(self) -> int:
        return self.visible_block.n

    @property
    def q(self) -> int:
        return self.visible_block.q

    def assemble(self, block: SpinSystem) -> SpinSystem:
        raise NotImplementedError

    def collapsed(self, which: str) -> CollapsedSpace:
        raise NotImplementedError

    def outer_class(self, spins: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @cached_property
    def field_groups(self) -> tuple[np.ndarray, ...]:
        """Base vertices grouped by field: one group of all N by default."""
        return (np.arange(self.N),)

    def level_code(self, spins: np.ndarray) -> np.ndarray:
        """Each row's base colour counts per field group, then its number of
        equal-ended visible edges, as one :func:`count_code`."""
        base, (u, v, _) = spins[:, : self.N], self.visible_block.edge_arrays
        digits = [colour_counts(base[:, group], self.q) for group in self.field_groups]
        radix = [len(group) + 1 for group in self.field_groups for _ in range(self.q)]
        mono = (base[:, u] == base[:, v]).sum(axis=1)
        return count_code(np.column_stack(digits + [mono]), radix + [len(u) + 1])

    @cached_property
    def levels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, np.ndarray]]:
        """Per level, from one enumeration of the visible block: the sorted
        level codes, the log state count, one base row and each base block's
        log-weight by side.  An InvalidModelError unless both base blocks'
        weights are constant on every level within 1e-9 relative."""
        visible_lw, spins = state_table(self.visible_block)
        codes, first, inverse, count = np.unique(
            self.level_code(spins), return_index=True, return_inverse=True, return_counts=True
        )
        weights = {"visible": visible_lw, "hidden": block_log_weights(self.hidden_block, spins)}
        for which, lw in weights.items():
            if not (np.abs(lw[first][inverse] - lw) <= 1e-9 * np.abs(lw)).all():
                raise InvalidModelError(f"the {which} base block's weight is not constant on its levels")
        return codes, np.log(count), spins[first], {which: lw[first] for which, lw in weights.items()}

    def level_space(self, which: str, outer_count: np.ndarray, outer_weight: np.ndarray) -> CollapsedSpace:
        """One model's collapsed space over classes ``o * n_levels + l``: log
        count ``outer_count[o]`` plus level l's, log-weight
        ``outer_weight[o, l]`` plus level l's base-block weight; read-only."""
        self.base_block(which)  # rejects an unknown ``which``
        _, log_count, _, block_lw = self.levels
        log_weight = (outer_weight + block_lw[which]).ravel()
        log_count = (outer_count[:, None] + log_count).ravel()
        log_count.setflags(write=False)
        log_weight.setflags(write=False)
        return CollapsedSpace(log_count, log_weight)

    def model(self, which: str) -> SpinSystem:
        self.base_block(which)  # rejects an unknown ``which``
        return getattr(self, which)

    def base_block(self, which: str) -> SpinSystem:
        """The model's base block, vertices 0..N-1, as stored at build."""
        if which not in ("visible", "hidden"):
            raise InvalidModelError(f"which must be visible|hidden, got {which!r}")
        return getattr(self, which + "_block")

    @cached_property
    def visible(self) -> SpinSystem:
        """The full visible model, assembled on first read."""
        return self.assemble(self.visible_block)

    @cached_property
    def hidden(self) -> SpinSystem:
        """The full hidden model, assembled on first read."""
        return self.assemble(self.hidden_block)

    @cached_property
    def collapsed_pair(self) -> tuple[CollapsedSpace, CollapsedSpace]:
        """(visible, hidden) collapsed spaces, computed once per instance."""
        return self.collapsed("visible"), self.collapsed("hidden")

    def class_index(self, spins) -> np.ndarray:
        """Collapsed class index ``outer_class * n_levels + level`` of each
        configuration row; a spin outside 0..q-1 is an InvalidConfigurationError
        (any other base part lies on a level)."""
        spins = np.asarray(spins, dtype=np.int64)
        if spins.min() < 0 or spins.max() >= self.q:
            raise InvalidConfigurationError(f"configuration spins must lie in 0..{self.q - 1}")
        codes = self.levels[0]
        return self.outer_class(spins) * len(codes) + codes.searchsorted(self.level_code(spins))

    @cached_property
    def _hidden_class_sampler(self) -> IndexSampler:
        """Exact draws over the hidden_class_table classes, checked and
        accumulated once per instance (InvalidModelError for a non-finite
        table)."""
        _, log_count, log_weight = self.hidden_class_table
        t = log_count + log_weight
        return IndexSampler(np.exp(t - logsumexp(t)))

    def sample_hidden_classes(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Class indices (into hidden_class_table) of exact hidden-model draws;
        the same indices and generator stream as ``rng.choice(len(p), size,
        p=p)`` over the normalised class masses p."""
        return self._hidden_class_sampler.draw(rng, size)


# -- testers ----------------------------------------------------------------------


def _tester_threshold(epsilon: float, L: int) -> float:
    """Midpoint of the contract gap [1/(16L), 1-eps]; ε and L are checked as
    in :func:`testing_rate`."""
    testing_rate(epsilon, L)
    return 0.5 * (1.0 / (16.0 * L) + (1.0 - epsilon))


def oracle_tv_tester(epsilon: float, L: int) -> Callable:
    """Pipeline-validation tester: thresholds the exact collapsed TV between
    the instance's visible and hidden models at the midpoint of the
    contract gap [1/(16L), 1-eps].  Ignores the samples; deterministic;
    ties resolve to Yes."""
    threshold = _tester_threshold(epsilon, L)

    def tester(instance, samples: Sequence, rng=None) -> bool:
        vis, hid = instance.collapsed_pair
        return tv_collapsed(vis, hid) <= threshold

    tester.kind = "oracle-tv"
    tester.threshold = threshold
    return tester


def empirical_tester(epsilon: float, L: int) -> Callable:
    """Plug-in tester: estimates TV between the visible class distribution
    and the empirical class frequencies of the samples; thresholds at the
    same contract-gap midpoint.  Needs L large relative to the class count."""
    threshold = _tester_threshold(epsilon, L)

    def tester(instance, samples: Sequence, rng=None) -> bool:
        if not samples:
            raise InvalidConfigurationError("empirical tester needs samples")
        vis, _ = instance.collapsed_pair
        spins = [s.spins if isinstance(s, Configuration) else s for s in samples]
        counts = np.bincount(instance.class_index(spins), minlength=len(vis.log_weight))
        emp = counts / counts.sum()
        est = 0.5 * float(np.abs(emp - np.exp(vis.log_class_masses())).sum())
        return est <= threshold

    tester.kind = "empirical"
    tester.threshold = threshold
    return tester


# -- generic reduction --------------------------------------------------------------


def run_generic_reduction(
    G: SpinSystem,
    query: DecisionQuery,
    builder: Callable,
    hidden_sampler: Callable,
    tester: Callable,
    L: int,
    rng: np.random.Generator,
) -> CountingOutcome:
    """Decide Z ≤ Ẑ/r vs Z ≥ rẐ through an instance builder and a tester.

    ``builder(G, log_Zhat)`` returns a reduction instance (its solver is
    tuned so the visible/hidden TV is small exactly when Z ≤ Ẑ/r);
    ``hidden_sampler(instance, rng)`` draws one hidden-model sample.  A
    GuardViolation from the builder short-circuits to the certified answer.
    """
    try:
        instance = builder(G, query.log_Zhat)
    except GuardViolation as gv:
        return CountingOutcome(answer=gv.suggested_answer, provenance=PROVENANCE_GUARD)
    samples = [hidden_sampler(instance, rng) for _ in range(L)]
    yes = bool(tester(instance, samples, rng))
    answer = ANSWER_LOW if yes else ANSWER_HIGH
    return CountingOutcome(answer=answer, provenance=PROVENANCE_TESTER)


# -- boosting and bisection -----------------------------------------------------------


def boosted_copies(n: int, r: float, c1: float) -> int:
    """k = 80*ceil(log(8*log(4*c1*n^2 + 4*log r))) + 1 (odd by construction)."""
    inner = math.log(4.0 * c1 * n * n + 4.0 * math.log(r))
    k = 80 * math.ceil(math.log(8.0 * inner)) + 1
    return max(k, 1)


def boosted_decider(decider: Callable, n: int, r: float, c1: float) -> Callable:
    """Majority vote of k independent runs of a base decider with error ≤ 3/8.

    The base decider is called as decider(log_Zhat, rng) -> answer string.
    The boosted error is at most 1/(8*log(4*c1*n^2 + 4*log r)).
    """
    k = boosted_copies(n, r, c1)

    def boosted(log_Zhat: float, rng: np.random.Generator) -> str:
        high = sum(decider(log_Zhat, rng) == ANSWER_HIGH for _ in range(k))
        return ANSWER_HIGH if 2 * high > k else ANSWER_LOW

    boosted.copies = k
    return boosted


def bisection_counter(
    decider: Callable,
    n: int,
    c1: float,
    r: float,
    rng: np.random.Generator,
) -> float:
    """2r-approximate counting from a decision oracle; returns log ℓ with
    (1/r)ℓ < Z < 2rℓ (when the decider answers correctly throughout).

    Starts from the crude bracket [e^{-c1 n^2}/r, r e^{c1 n^2}], queries the
    decider at geometric midpoints, keeps the half certified by the answer,
    and stops once u/ℓ ≤ 2.  Degenerate case r > e^{c1 n^2}: every Z in the
    crude bracket satisfies (1/r)·1 < Z < 2r·1, so output 1.
    """
    if math.log(r) > c1 * n * n:
        return 0.0
    log_l = -math.log(r) - c1 * n * n
    log_u = math.log(r) + c1 * n * n
    while log_u - log_l > math.log(2.0):
        log_c = 0.5 * (log_l + log_u)
        if decider(log_c, rng) == ANSWER_HIGH:
            log_l = log_c
        else:
            log_u = log_c
    return log_l


def bisection_iteration_bound(n: int, c1: float, r: float) -> int:
    """Upper bound on the number of decider queries the bisection makes."""
    width = 2.0 * (c1 * n * n + math.log(r))
    if width <= math.log(2.0):
        return 0
    return math.ceil(math.log2(width / math.log(2.0)))


# -- crude bounds and amplification -------------------------------------------------------


def crude_bounds(model: SpinSystem) -> tuple[float, float]:
    """A certified bracket for log Z: the generic one-configuration /
    max-weight bound, tightened by the ferromagnetic or antiferromagnetic
    zero-field forms when the model qualifies."""
    n, q = model.n, model.q
    betas = [b for _, _, b in model.edges]
    h = model.field_array if model.field else np.zeros((n, q))
    abs_field = float(np.abs(h).max(axis=1).sum())
    pos_field = float(np.clip(h, 0.0, None).max(axis=1).sum())
    lo = n * math.log(q) - sum(abs(b) for b in betas) - abs_field
    hi = n * math.log(q) + sum(max(b, 0.0) for b in betas) + pos_field
    if classify_field(model) == FIELD_ZERO and betas:
        total = sum(betas)
        if all(b > 0 for b in betas):
            # q e^{beta |E|} <= Z <= q^n e^{beta |E|}
            lo = max(lo, math.log(q) + total)
            hi = min(hi, n * math.log(q) + total)
        elif all(b < 0 for b in betas):
            # q^n e^{sum beta} <= Z <= q^n
            lo = max(lo, n * math.log(q) + total)
            hi = min(hi, n * math.log(q))
    return lo, hi


def crude_exponent(model: SpinSystem) -> float:
    """The smallest c1 with e^{-c1 n^2} ≤ Z ≤ e^{c1 n^2} per crude_bounds, plus 1e-9 slack."""
    if model.n == 0:
        raise InvalidModelError("crude_exponent needs at least one vertex")
    lo, hi = crude_bounds(model)
    return (max(abs(lo), abs(hi)) + 1e-9) / float(model.n * model.n)


def amplify_copies(model: SpinSystem, c: float, rho: float) -> tuple[SpinSystem, int]:
    """Disjoint union of k copies, k the smallest integer ≥ c·ln(kn)/ρ."""
    if c <= 0 or rho <= 0:
        raise InvalidConfigurationError("amplification needs c, rho > 0")
    if model.n == 0:
        raise InvalidModelError("amplify_copies needs at least one vertex")
    k = 1
    while k < c * math.log(k * model.n) / rho:
        k += 1
    if k == 1:
        return model, 1
    return disjoint_union([model] * k), k


# -- trial harness ----------------------------------------------------------------------


def _build_once(builder: Callable) -> Callable:
    """A builder that runs ``builder`` on its first call and then replays the
    same instance, or re-raises the same GuardViolation, on every later call.
    Valid because builders are deterministic in (G, log_Zhat)."""
    built: list = []

    def once(G: SpinSystem, log_Zhat: float):
        if not built:
            try:
                built.append(builder(G, log_Zhat))
            except GuardViolation as gv:
                built.append(gv)
        if isinstance(built[0], GuardViolation):
            raise built[0].with_traceback(None)
        return built[0]

    return once


def run_reduction_trials(
    G: SpinSystem,
    builder: Callable,
    hidden_sampler: Callable,
    tester: Callable,
    L: int,
    branches: Sequence[tuple[str, float, str]],
    seeds: Sequence[int],
    r: float,
    *,
    timing: bool = False,
) -> list[dict]:
    """One reduction trial per (branch, seed); returns JSON-ready dicts.

    ``branches`` lists (branch name, log_Zhat, expected answer); each
    branch's instance is built once and shared by all its seeds.  Report
    keys: seed, branch, Zhat, r, tester, answer, correct, tv_exact when a
    collapsed space is available, and runtime_ms only when ``timing`` (the
    first seed of a branch also pays for the build).
    """
    reports = []
    for name, log_Zhat, expected in branches:
        query = DecisionQuery(log_Zhat=log_Zhat, r=r)
        branch_builder = _build_once(builder)
        for seed in seeds:
            rng = np.random.default_rng(seed)
            t0 = time.perf_counter()
            outcome = run_generic_reduction(
                G, query, branch_builder, hidden_sampler, tester, L, rng
            )
            elapsed_ms = 1000.0 * (time.perf_counter() - t0)
            report = {
                "seed": int(seed),
                "branch": name,
                "Zhat": math.exp(log_Zhat) if abs(log_Zhat) < 700 else None,
                "log_Zhat": log_Zhat,
                "r": r,
                "tester": getattr(tester, "kind", "custom"),
                "answer": outcome.answer,
                "provenance": outcome.provenance,
                "correct": outcome.answer == expected,
            }
            if outcome.provenance == PROVENANCE_TESTER:
                instance = branch_builder(G, log_Zhat)
                if hasattr(instance, "collapsed_pair"):
                    report["tv_exact"] = tv_collapsed(*instance.collapsed_pair)
            if timing:
                report["runtime_ms"] = elapsed_ms
            reports.append(report)
    return reports


def reports_to_jsonl(reports: Sequence[dict]) -> str:
    return "\n".join(json.dumps(rep, sort_keys=True) for rep in reports) + "\n"
