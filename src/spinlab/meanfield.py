"""Ferromagnetic mean-field (complete-graph) Potts analyzer.

Signature enumeration, the majority/disordered/residual (M/D/S) phase split,
the free-energy functional Phi, the coexistence coupling Bo (scaled so the
per-edge coupling is Bo/m), and a bisection solver hitting a target
Z^M/Z^D ratio.

Window convention: the raw majority and disordered windows (half-width
m^{3/4}) overlap at small m, but the split must partition the signature
space.  A signature inside both windows is assigned to the nearest phase
center in Euclidean distance on count vectors (ties go to the disordered
phase; a tie among majority branches splits the signature evenly between
them), which is color-permutation symmetric and recovers the raw windows
once they separate.

Everything that does not depend on the coupling (log-multinomials,
monochromatic edge counts, phase labels) is cached per key, so a solver
step costs a few array operations and two logsumexps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import gammaln

from .errors import BudgetExceededError, InvalidModelError, TargetUnreachableError
from .exact import logsumexp

PHASE_M, PHASE_D, PHASE_S = 0, 1, 2
WINDOW_EXPONENT = 0.75  # every phase window has half-width m^(3/4)
SIGNATURE_BUDGET = 5_000_000


def phi(alpha, beta_scaled: float) -> float:
    """Mean-field free-energy functional H(alpha) + (beta/2)*||alpha||_2^2."""
    a = np.asarray(alpha, dtype=float)
    if np.any(a < -1e-12) or abs(a.sum() - 1.0) > 1e-12:
        raise InvalidModelError(f"not a simplex point: {alpha!r}")
    a = np.clip(a, 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = -np.where(a > 0, a * np.log(np.where(a > 0, a, 1.0)), 0.0).sum()
    return float(ent + 0.5 * beta_scaled * np.dot(a, a))


def psi1(x: float, beta_scaled: float, q: int) -> float:
    """Phi restricted to the symmetric ray (x, y, ..., y), y=(1-x)/(q-1)."""
    y = (1.0 - x) / (q - 1)
    return phi([x] + [y] * (q - 1), beta_scaled)


@dataclass(frozen=True)
class CriticalPoint:
    Bo: float
    alpha_hat: float


def _psi1_grid(xs: np.ndarray, beta_scaled: float, q: int) -> np.ndarray:
    """psi1 at every point of ``xs`` in one array expression (same arithmetic
    as the scalar :func:`psi1`, without its simplex check)."""
    y = (1.0 - xs) / (q - 1)
    a = np.clip(np.column_stack([xs] + [y] * (q - 1)), 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = -np.where(a > 0, a * np.log(np.where(a > 0, a, 1.0)), 0.0).sum(axis=1)
    # row-wise a @ a through the same BLAS dot as phi's np.dot
    sq = np.matmul(a[:, None, :], a[:, :, None])[:, 0, 0]
    return ent + 0.5 * beta_scaled * sq


def _majority_argmax(beta: float, q: int) -> tuple[float, float]:
    """Argmax and value of psi1 over the majority branch (x well above 1/q)."""
    x_lo = 1.0 / q + 0.3 * (1.0 - 1.0 / q)
    xs = np.linspace(x_lo, 1.0 - 1e-12, 512)
    k = int(np.argmax(_psi1_grid(xs, beta, q)))
    lo = xs[max(0, k - 1)]
    hi = xs[min(len(xs) - 1, k + 1)]
    res = minimize_scalar(
        lambda x: -psi1(float(x), beta, q),
        bounds=(float(lo), float(hi)),
        method="bounded",
        options={"xatol": 1e-14},
    )
    return float(res.x), float(-res.fun)


@lru_cache(maxsize=None)
def find_critical_Bo(q: int) -> CriticalPoint:
    """Scaled coexistence coupling Bo: the majority-branch maximum of psi1
    equals its value at the uniform point, with the argmax strictly above 1/q."""
    if q < 3:
        raise InvalidModelError("phase coexistence requires q >= 3")

    def height(beta: float) -> float:
        _, val = _majority_argmax(beta, q)
        return val - psi1(1.0 / q, beta, q)

    lo, hi = 0.5, 4.0 * math.log(q) + 2.0
    if height(lo) > 0 or height(hi) < 0:
        raise TargetUnreachableError("coexistence bracket failed to enclose a root")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if height(mid) > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-11:
            break
    else:
        raise TargetUnreachableError("coexistence bisection did not converge")
    bo = 0.5 * (lo + hi)
    return CriticalPoint(Bo=bo, alpha_hat=_majority_argmax(bo, q)[0])


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


def signature_log_weights(m: int, q: int, beta_H: float) -> tuple[np.ndarray, np.ndarray]:
    """Signatures and log of multinomial(m; s) * exp(beta_H * sum C(s_i,2))."""
    table = signature_table(m, q)
    return table.sigs, table.log_multi + float(beta_H) * table.mono_edges


def classify_signatures(sigs: np.ndarray, m: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Phase label (M/D/S) per signature plus fractional branch weights.

    The majority centers put the coexistence fraction alpha_hat of
    :func:`find_critical_Bo` on one color; every window has half-width
    m^WINDOW_EXPONENT.  Returns ``(labels, branch_frac)`` where
    ``branch_frac`` has shape (n_sigs, q); for an M signature the row is a
    probability vector over majority branches (ties split evenly), else all
    zero.
    """
    alpha_hat = find_critical_Bo(q).alpha_hat
    w = float(m) ** WINDOW_EXPONENT
    minority = (1.0 - alpha_hat) * m / (q - 1)
    centers_m = np.full((q, q), minority)
    np.fill_diagonal(centers_m, alpha_hat * m)
    center_d = np.full(q, m / q)

    in_d = np.all(np.abs(sigs - center_d) <= w, axis=1)
    # in_m[:, j]: inside the window of majority branch j
    in_m = np.zeros((len(sigs), q), dtype=bool)
    for j in range(q):
        in_m[:, j] = np.all(np.abs(sigs - centers_m[j]) <= w, axis=1)
    any_m = in_m.any(axis=1)

    d2_d = ((sigs - center_d) ** 2).sum(axis=1).astype(float)
    d2_m = np.full((len(sigs), q), np.inf)
    for j in range(q):
        d2_m[in_m[:, j], j] = ((sigs[in_m[:, j]] - centers_m[j]) ** 2).sum(axis=1)
    best_m = d2_m.min(axis=1)

    labels = np.full(len(sigs), PHASE_S, dtype=np.int8)
    labels[in_d] = PHASE_D
    take_m = any_m & (~in_d | (best_m < d2_d))
    labels[take_m] = PHASE_M

    branch_frac = np.zeros((len(sigs), q), dtype=float)
    if take_m.any():
        tied = np.isclose(d2_m[take_m], best_m[take_m, None])
        branch_frac[take_m] = tied / tied.sum(axis=1, keepdims=True)
    return labels, branch_frac


@dataclass(frozen=True)
class PhaseSplit:
    log_ZM: float
    log_ZD: float
    log_ZS: float
    log_branches: tuple[float, ...]

    @property
    def log_Z(self) -> float:
        return logsumexp([self.log_ZM, self.log_ZD, self.log_ZS])

    @property
    def gap(self) -> float:
        return self.log_ZS - min(self.log_ZM, self.log_ZD)


@dataclass(frozen=True)
class PhaseClasses:
    """Signature phase labels and the selections that read them.

    ``members[label]`` holds the signature indices of phase ``label`` in
    increasing order; ``branches[j]`` is ``(indices, log_frac)`` for majority
    branch ``j``, where ``log_frac`` is the log of each signature's branch
    fraction (0 where the signature belongs to branch ``j`` alone).
    """

    labels: np.ndarray
    members: tuple[np.ndarray, np.ndarray, np.ndarray]
    branches: tuple[tuple[np.ndarray, np.ndarray], ...]


@lru_cache(maxsize=64)
def phase_classes(m: int, q: int) -> PhaseClasses:
    """Cached :func:`classify_signatures` result in compact form (int8 labels,
    int32 indices, read-only arrays); none of it depends on beta_H.  Pass both
    arguments positionally so equal keys share one cache entry."""
    labels, branch_frac = classify_signatures(enumerate_signatures(m, q), m, q)
    members = tuple(
        _read_only(np.flatnonzero(labels == lab).astype(np.int32))
        for lab in (PHASE_M, PHASE_D, PHASE_S)
    )
    branches = []
    for j in range(q):
        idx = np.flatnonzero(branch_frac[:, j] > 0)
        log_frac = _read_only(np.log(branch_frac[idx, j]))
        branches.append((_read_only(idx.astype(np.int32)), log_frac))
    return PhaseClasses(_read_only(labels), members, tuple(branches))


def phase_split(m: int, q: int, beta_H: float) -> PhaseSplit:
    """Exact log partition values of the M/D/S phases of the complete graph K_m."""
    if m < 1:
        raise InvalidModelError("m must be >= 1")
    _, logw = signature_log_weights(m, q, beta_H)
    classes = phase_classes(m, q)
    log_ZM, log_ZD, log_ZS = (logsumexp(logw[idx]) for idx in classes.members)
    return PhaseSplit(
        log_ZM=log_ZM,
        log_ZD=log_ZD,
        log_ZS=log_ZS,
        log_branches=tuple(
            logsumexp(logw[idx] + log_frac) for idx, log_frac in classes.branches
        ),
    )


def log_ratio_g(m: int, q: int, beta_H: float) -> float:
    """g(beta_H) = log Z^M - log Z^D."""
    if m < 1:
        raise InvalidModelError("m must be >= 1")
    table = signature_table(m, q)
    members = phase_classes(m, q).members
    log_ZM, log_ZD = (
        logsumexp(table.log_multi[idx] + float(beta_H) * table.mono_edges[idx])
        for idx in (members[PHASE_M], members[PHASE_D])
    )
    return log_ZM - log_ZD


def solve_beta_H(m: int, q: int, target_R: float, delta: float) -> float:
    """Find beta_H with (1-delta)*R <= Z^M/Z^D <= R by bisection on g.

    The bracket is Bo/m +- c' * m^{-3/2} with c' doubled adaptively from 1
    up to 64.
    """
    if target_R <= 0 or not 0 < delta < 1:
        raise InvalidModelError("need target_R > 0 and delta in (0,1)")
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
