"""Op accounting and the statistics the benchmark reports."""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

PROVENANCE_TESTER = "tester"
PROVENANCE_GUARD = "guard-bound"


@dataclass(frozen=True)
class OpRecord:
    latency_s: float
    failure: Optional[str] = None  # None: the op ran and passed its checks
    trace: str = ""


def attempt(
    execute: Callable[[], object],
    check: Callable[[object], Optional[str]],
    clock: Callable[[], float] = time.perf_counter,
) -> OpRecord:
    """Time ``execute()`` and judge its output with ``check``.

    An op fails when it raises (a ``SpinLabError`` or anything else) or when
    ``check`` returns a reason.  Only ``execute`` is timed.
    """
    start = clock()
    try:
        output = execute()
    except Exception as exc:  # the run must go on and count the failure
        return OpRecord(clock() - start, f"raised {exc!r}", traceback.format_exc())
    latency = clock() - start
    try:
        failure = check(output)
    except Exception as exc:
        return OpRecord(latency, f"check raised {exc!r}", traceback.format_exc())
    return OpRecord(latency, failure)


def check_trial(report: dict, branch: str, tv_low_max: float, tv_high_min: float) -> Optional[str]:
    """Judge one ``run_reduction_trials`` report.

    A guard-decided answer is a valid answer.  A tester-decided one must carry
    the exact visible/hidden TV on the right side of the contract gap
    (criterion 6): at most ``tv_low_max`` on the low branch, at least
    ``tv_high_min`` on the high branch.
    """
    provenance = report.get("provenance")
    if provenance == PROVENANCE_GUARD:
        return None
    if provenance != PROVENANCE_TESTER:
        return f"unknown provenance {provenance!r}"
    tv = report.get("tv_exact")
    if tv is None:
        return "tester-decided report without tv_exact"
    if branch == "low" and not tv <= tv_low_max:
        return f"low branch tv_exact {tv:.6g} > {tv_low_max:.6g}"
    if branch == "high" and not tv >= tv_high_min:
        return f"high branch tv_exact {tv:.6g} < {tv_high_min:.6g}"
    return None


def accuracy_refuted(correct: int, trials: int, accuracy: float = 5 / 8,
                     level: float = 0.01) -> bool:
    """True when ``correct`` successes in ``trials`` are too few for a decider
    whose accuracy is at least ``accuracy``: P[Binomial(trials, accuracy) <=
    correct] < ``level``.  A plain ``correct / trials >= 5/8`` test fails a
    sound decider often when a run holds only a handful of trials."""
    p_tail = sum(
        math.comb(trials, k) * accuracy**k * (1.0 - accuracy) ** (trials - k)
        for k in range(correct + 1)
    )
    return p_tail < level


def tail_latency(samples: Sequence[float], beyond: int = 10) -> Optional[tuple[float, float]]:
    """(value, percentile) at the highest percentile that leaves at least
    ``beyond`` samples above it; None when there are too few samples."""
    ordered = sorted(samples)
    rank = len(ordered) - beyond  # 1-based rank of the reported sample
    if rank < 1:
        return None
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def class_tv(counts: Sequence[float], probs: Sequence[float]) -> float:
    """TV distance between the empirical law of ``counts`` and ``probs``."""
    n = float(sum(counts))
    return 0.5 * sum(abs(c / n - p) for c, p in zip(counts, probs))


def class_tv_bound(classes: int, draws: int, delta: float = 1e-6) -> float:
    """A bound the class TV of ``draws`` exact draws exceeds with probability
    at most ``delta``, for any sampler with the right law.

    E[TV] <= (1/2) sum_i sqrt(p_i / n) <= (1/2) sqrt(k / n) by Cauchy-Schwarz,
    and one draw moves TV by at most 1/n, so McDiarmid adds
    sqrt(ln(1/delta) / (2n)).
    """
    return 0.5 * math.sqrt(classes / draws) + math.sqrt(math.log(1.0 / delta) / (2.0 * draws))
