"""Ferromagnetic mean-field (complete-graph) Potts analyzer.

Signature enumeration, the majority/disordered/residual (M/D/S) phase split,
the coexistence point of the free-energy functional in closed form (the
coupling Bo, scaled so the per-edge coupling is Bo/m, and the majority
fraction alpha_hat), and a bisection solver hitting a target Z^M/Z^D ratio.

Window convention: the raw majority and disordered windows (half-width
m^{3/4}) overlap at small m, but the split must partition the signature
space.  A signature inside both windows is assigned to the nearest phase
center in Euclidean distance on count vectors (ties go to the disordered
phase), which is color-permutation symmetric and recovers the raw windows
once they separate.  The nearest majority center is that of the signature's
largest color count (the first such color).  No signature labelled M has two
nearest majority centers: one inside two majority windows is inside the D
window too, where a majority center wins only with more than m/2 of the
counts.  Centers and distances are exact integers after scaling the counts
by q(q-1), so every tie is decided exactly.

Everything that does not depend on the coupling (log-multinomials,
monochromatic edge counts, phase labels) is cached per key.  Each phase part
is also cached as its density of states, Z(beta) = sum_e g(e) exp(beta e)
over its distinct monochromatic-edge counts e, so a solver step sums over at
most C(m,2)+1 energy levels per part instead of over every signature.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .errors import BudgetExceededError, InvalidModelError, TargetUnreachableError
from .exact import logsumexp

PHASE_M, PHASE_D, PHASE_S = 0, 1, 2
WINDOW_EXPONENT = 0.75  # every phase window has half-width m^(3/4)
SIGNATURE_BUDGET = 5_000_000


@dataclass(frozen=True)
class CriticalPoint:
    Bo: float
    alpha_hat: float


def find_critical_Bo(q: int) -> CriticalPoint:
    """Scaled coexistence coupling Bo = 2(q-1)/(q-2) ln(q-1) and the majority
    fraction alpha_hat = (q-1)/q, where the mean-field free-energy functional
    H(alpha) + (Bo/2)*||alpha||_2^2, restricted to the ray (x, y, ..., y) with
    y = (1-x)/(q-1), has a majority-branch maximum equal to its value at the
    uniform point (Ellis & Wang 1990)."""
    if q < 3:
        raise InvalidModelError("phase coexistence requires q >= 3")
    return CriticalPoint(Bo=2.0 * (q - 1) / (q - 2) * math.log(q - 1), alpha_hat=(q - 1) / q)


# -- signature enumeration ---------------------------------------------------


@lru_cache(maxsize=64)
def enumerate_signatures(m: int, q: int) -> np.ndarray:
    """All color-count vectors (s_1..s_q) summing to m, lexicographic order.

    Stars and bars: the q-1 bar positions among m+q-1 slots, taken in
    lexicographic order, leave gaps s_1..s_q in lexicographic order too.
    The bars are held in the smallest signed dtype that fits m+q, so no
    temporary is larger than the int64 result.
    """
    count = math.comb(m + q - 1, q - 1)
    if count > SIGNATURE_BUDGET:
        raise BudgetExceededError(m, q, math.log2(SIGNATURE_BUDGET), math.log2(count))
    small = np.min_scalar_type(-(m + q))
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(m + q - 1), q - 1)),
        dtype=small,
        count=count * (q - 1),
    ).reshape(count, q - 1)
    gaps = np.diff(bars, axis=1, prepend=small.type(-1), append=small.type(m + q - 1))
    return _read_only((gaps - 1).astype(np.int64))


def _read_only(a: np.ndarray) -> np.ndarray:
    """Mark a cached array shared by every caller as read-only."""
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SignatureTable:
    """The beta-independent part of the signature weights of K_m.

    Row ``i`` describes signature ``sigs[i]`` (enumerate_signatures order):
    ``log_multi[i]`` is log multinomial(m; s) and ``mono_edges[i]`` the
    number sum C(s_i, 2) of monochromatic edges.
    """

    sigs: np.ndarray
    log_multi: np.ndarray
    mono_edges: np.ndarray


@lru_cache(maxsize=64)
def signature_table(m: int, q: int) -> SignatureTable:
    """Cached :class:`SignatureTable` of K_m with q colors (read-only arrays)."""
    sigs = enumerate_signatures(m, q)
    log_multi = gammaln(m + 1) - gammaln(sigs + 1).sum(axis=1)
    edge_dtype = np.int32 if m * (m - 1) // 2 <= np.iinfo(np.int32).max else np.int64
    mono_edges = (sigs * (sigs - 1) // 2).sum(axis=1).astype(edge_dtype)
    return SignatureTable(sigs, _read_only(log_multi), _read_only(mono_edges))


def classify_signatures(sigs: np.ndarray, m: int, q: int) -> np.ndarray:
    """Phase label (M/D/S) per signature, as int8.

    Majority branch j puts the coexistence fraction alpha_hat = (q-1)/q on
    color j; every window has half-width w = m^WINDOW_EXPONENT.  With counts
    scaled by k = q(q-1) every center is integral ((q-1)^2 m on the majority
    color, m elsewhere, (q-1)m for D), so squared distances are exact int64
    values, and an integer deviation is within k*w iff within floor(k*w).

    Only the branch of the largest count is measured: branch i is nearer than
    branch j iff s_i > s_j, and its window holds every signature that any
    branch window holds.
    """
    k = q * (q - 1)
    num, den = (float(m) ** WINDOW_EXPONENT).as_integer_ratio()
    half = num * k // den

    def window_and_d2(dev) -> tuple[np.ndarray, np.ndarray]:
        return np.abs(dev).max(axis=1) <= half, (dev * dev).sum(axis=1)

    dev = sigs * k - (q - 1) * m  # from the D center
    in_d, d2_d = window_and_d2(dev)
    # from the majority center of the largest count: m on every other color
    # and (q-1)^2 m = m + q(q-2)m on that one
    dev += (q - 2) * m
    dev[np.arange(len(sigs)), sigs.argmax(axis=1)] -= q * (q - 2) * m
    in_m, d2_m = window_and_d2(dev)

    labels = np.full(len(sigs), PHASE_S, dtype=np.int8)
    labels[in_d] = PHASE_D
    labels[in_m & (~in_d | (d2_m < d2_d))] = PHASE_M
    return labels


@dataclass(frozen=True)
class PhaseSplit:
    log_ZM: float
    log_ZD: float
    log_ZS: float

    @property
    def log_Z(self) -> float:
        return logsumexp([self.log_ZM, self.log_ZD, self.log_ZS])

    @property
    def gap(self) -> float:
        """log Z^S - min(log Z^M, log Z^D); -inf when the residual phase is
        empty (fully suppressed), even where Z^D is empty too."""
        if self.log_ZS == -math.inf:
            return -math.inf
        return self.log_ZS - min(self.log_ZM, self.log_ZD)


@dataclass(frozen=True)
class PhaseClasses:
    """Signature phase labels and the selections that read them:
    ``members[label]`` holds the signature indices of phase ``label`` in
    increasing order."""

    labels: np.ndarray
    members: tuple[np.ndarray, np.ndarray, np.ndarray]


@lru_cache(maxsize=64)
def phase_classes(m: int, q: int) -> PhaseClasses:
    """Cached :func:`classify_signatures` result in compact form (int8 labels,
    int32 indices, read-only arrays); none of it depends on beta_H.  Pass both
    arguments positionally so equal keys share one cache entry."""
    labels = classify_signatures(enumerate_signatures(m, q), m, q)
    members = tuple(
        _read_only(np.flatnonzero(labels == lab).astype(np.int32))
        for lab in (PHASE_M, PHASE_D, PHASE_S)
    )
    return PhaseClasses(_read_only(labels), members)


def check_clique_size(m: int) -> None:
    """Reject a complete graph K_m with no vertices (m < 1)."""
    if m < 1:
        raise InvalidModelError("m must be >= 1")


def _levels(mono_edges: np.ndarray, log_w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group log-weights by edge count: a stable sort by count, then per
    level the peak, the shifted exp sum and log(sum) + peak, in that order."""
    order = np.argsort(mono_edges, kind="stable")
    e, x = mono_edges[order], log_w[order]
    starts = np.flatnonzero(np.diff(e, prepend=-1))
    peak = np.maximum.reduceat(x, starts)
    s = np.add.reduceat(np.exp(x - np.repeat(peak, np.diff(starts, append=len(x)))), starts)
    return _read_only(e[starts].astype(float)), _read_only(np.log(s) + peak)


@lru_cache(maxsize=64)
def phase_levels(m: int, q: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Density of states of the M, D and S parts of K_m, the beta-free half
    of Z(beta) = sum_e g(e) * exp(beta * e); cached, read-only arrays.

    Each part is ``(e, log_g)``: the distinct monochromatic-edge counts ``e``
    (ascending, float64) of its signatures, at most C(m, 2) + 1 of them, and
    the log of the summed multinomial(m; s) at each count.
    """
    table = signature_table(m, q)
    return tuple(
        _levels(table.mono_edges[idx], table.log_multi[idx])
        for idx in phase_classes(m, q).members
    )


def _log_Z(level: tuple[np.ndarray, np.ndarray], beta_H: float) -> float:
    e, log_g = level
    return logsumexp(log_g + float(beta_H) * e)


def phase_split(m: int, q: int, beta_H: float) -> PhaseSplit:
    """Exact log partition values of the M/D/S phases of the complete graph K_m."""
    check_clique_size(m)
    return PhaseSplit(*(_log_Z(part, beta_H) for part in phase_levels(m, q)))


def log_ratio_g(m: int, q: int, beta_H: float) -> float:
    """g(beta_H) = log Z^M - log Z^D."""
    check_clique_size(m)
    parts = phase_levels(m, q)
    return _log_Z(parts[PHASE_M], beta_H) - _log_Z(parts[PHASE_D], beta_H)


def solve_beta_H(m: int, q: int, target_R: float, delta: float) -> float:
    """Find beta_H with (1-delta)*R <= Z^M/Z^D <= R by bisection on g.

    The bracket is Bo/m +- c' * m^{-3/2} with c' doubled adaptively from 1
    up to 64.
    """
    if not target_R > 0 or not 0 < delta < 1:
        raise InvalidModelError("need target_R > 0 and delta in (0,1)")
    check_clique_size(m)
    center = find_critical_Bo(q).Bo / m
    t_hi = math.log(target_R)
    t_lo = t_hi + math.log1p(-delta)
    t_mid = 0.5 * (t_lo + t_hi)

    c_prime = 1.0
    while True:
        half = c_prime * m**-1.5
        lo = max(center - half, 1e-12)
        hi = center + half
        g_lo = log_ratio_g(m, q, lo)
        g_hi = log_ratio_g(m, q, hi)
        if g_lo <= t_mid <= g_hi:
            break
        if c_prime >= 64.0:
            raise TargetUnreachableError(
                f"target ratio {target_R} unreachable within bracket cap; "
                f"achievable log-ratio range [{g_lo:.6g}, {g_hi:.6g}]",
                achieved_range=(g_lo, g_hi),
            )
        c_prime *= 2

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g_mid = log_ratio_g(m, q, mid)
        if t_lo <= g_mid <= t_hi:
            return mid
        if g_mid < t_mid:
            lo = mid
        else:
            hi = mid
    raise TargetUnreachableError("ratio bisection did not converge")


def metastability_report(m: int, q: int, beta_H: float) -> tuple[float, float]:
    """(log Z^S - min(log Z^M, log Z^D), sqrt(m)) for suppression trend checks."""
    split = phase_split(m, q, beta_H)
    return split.gap, math.sqrt(m)


def explicit_complete_graph(m: int, q: int, beta_H: float):
    """K_m as a SpinSystem (for brute-force cross-checks)."""
    from .model import SpinSystem

    edges = tuple((i, j, beta_H) for i in range(m) for j in range(i + 1, m))
    return SpinSystem(q=q, n=m, edges=edges)
