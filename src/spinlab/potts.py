"""Potts testing-instance construction around a mean-field block.

The visible model F joins the input graph G to a complete graph H = K_m by a
complete bipartite graph K_{m,N}; the hidden model F* replaces G by the
complete graph K_N with coupling beta_K = beta_G + 4 ln q.  The mean-field
coupling beta_H is solved so that Z_H^D / Z_H^M hits a window proportional to
exp(alpha_0 * beta * N * m + beta_G |E_G|) / Zhat, which makes the
visible-vs-hidden total variation track the decision "Z_G vs Zhat".

Vertex layout: the N block vertices come first (ids 0..N-1), then the m
vertices of H (ids N..N+m-1).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import meanfield
# ANSWER_* are re-exported for callers that import them from here.
from .counting import ANSWER_HIGH, ANSWER_LOW, ReductionInstance
from .counting import check_finite_log_Zhat, check_guard, colour_counts, count_code, testing_rate
from .errors import InfeasibleParametersError, InvalidConfigurationError, InvalidModelError
from .exact import CollapsedSpace, logsumexp
from .model import Configuration, SpinSystem, classify_field, FIELD_ZERO

DEFAULT_DELTA = 0.1


@dataclass(frozen=True)
class PottsInstance(ReductionInstance):
    m: int
    beta_cross: float
    beta_H: float
    beta_K: float

    @cached_property
    def hidden_class_table(self) -> tuple[tuple, np.ndarray, np.ndarray]:
        """Joint (sig_H, sig_K) classes of the hidden model.

        Returns (descriptors, log_count, log_weight); the count is the number
        of configurations realizing the signature pair and the weight is the
        common per-configuration log-weight.  The descriptors are
        :func:`class_descriptors` of the instance's shape, shared by every
        instance of that shape.
        """
        th = meanfield.signature_table(self.m, self.q)
        tk = meanfield.signature_table(self.N, self.q)
        log_count = (th.log_multi[:, None] + tk.log_multi[None, :]).ravel()
        cross = th.sigs.astype(float) @ tk.sigs.T.astype(float)
        log_weight = (
            float(self.beta_H) * th.mono_edges[:, None]
            + float(self.beta_K) * tk.mono_edges[None, :]
            + self.beta_cross * cross
        ).ravel()
        return class_descriptors(self.m, self.N, self.q), log_count, log_weight

    @cached_property
    def _collapsed_spaces(self) -> dict[str, CollapsedSpace]:
        """:func:`collapsed_distribution_F`'s spaces, by side, once built."""
        return {}

    def assemble(self, block: SpinSystem) -> SpinSystem:
        """The base block joined to K_m (coupling beta_H) by K_{N,m}
        (coupling beta_cross)."""
        N, m = self.N, self.m
        edges = list(block.edges)
        edges += [(N + i, N + j, self.beta_H) for i in range(m) for j in range(i + 1, m)]
        edges += [(v, N + i, self.beta_cross) for v in range(N) for i in range(m)]
        return SpinSystem(q=self.q, n=N + m, edges=tuple(edges), field=block.field)

    def collapsed(self, which: str) -> CollapsedSpace:
        return collapsed_distribution_F(self, which)

    def outer_class(self, spins: np.ndarray) -> np.ndarray:
        """Rank of each row's sig(H) in the lexicographic
        :func:`meanfield.enumerate_signatures` order: a searchsorted of count
        codes.  A row of another length than N + m is an
        InvalidConfigurationError."""
        if spins.shape[1] != self.N + self.m:
            raise InvalidConfigurationError(f"configuration rows must hold {self.N + self.m} spins")
        radix = [self.m + 1] * self.q
        table = count_code(meanfield.enumerate_signatures(self.m, self.q), radix)
        return table.searchsorted(count_code(colour_counts(spins[:, self.N:], self.q), radix))


def make_potts_instance(G: SpinSystem, m: int, beta_cross: float, beta_H: float) -> PottsInstance:
    """Direct constructor with explicit couplings (no solver, no guard)."""
    beta_G = _check_base_graph(G)
    if not (math.isfinite(beta_cross) and math.isfinite(beta_H)):
        raise InvalidModelError(f"couplings must be finite, got {beta_cross!r} and {beta_H!r}")
    if m < 0:
        raise InvalidModelError(f"the clique size m must be nonnegative, got {m}")
    q, N = G.q, G.n
    beta_K = beta_G + 4.0 * math.log(q)
    k_edges = tuple((i, j, beta_K) for i in range(N) for j in range(i + 1, N))
    return PottsInstance(
        visible_block=SpinSystem(q=q, n=N, edges=G.edges),
        hidden_block=SpinSystem(q=q, n=N, edges=k_edges),
        m=m,
        beta_cross=beta_cross,
        beta_H=beta_H,
        beta_K=beta_K,
    )


def _check_base_graph(G: SpinSystem) -> float:
    """The uniform coupling beta_G of a zero-field ferromagnetic base graph
    (0 when it has no edges)."""
    if classify_field(G) != FIELD_ZERO:
        raise InvalidModelError("base graph must have zero field")
    betas = {b for _, _, b in G.edges}
    if len(betas) > 1:
        raise InvalidModelError("base graph must have uniform couplings")
    beta_G = betas.pop() if betas else 0.0
    if G.edges and beta_G <= 0:
        raise InvalidModelError("base graph must be ferromagnetic")
    return beta_G


def beta_interval(N: int, m: int, q: int) -> tuple[float, float]:
    """Admissible cross-coupling interval [c1*N/m, c2/(N*m^{3/4})] with
    c1 = 2 log q / α'' and c2 = δ/2, where α'' is the majority-minority
    margin of the coexistence fraction α̂ less the window slack 2*m^(-1/4)."""
    meanfield.check_clique_size(m)
    alpha_hat = meanfield.find_critical_Bo(q).alpha_hat
    alpha_p = alpha_hat - (1.0 - alpha_hat) / (q - 1)
    alpha_pp = alpha_p - 2.0 * m ** (meanfield.WINDOW_EXPONENT - 1.0)
    if alpha_pp <= 0:
        raise InfeasibleParametersError(
            f"m={m} too small: majority-minority margin {alpha_p:.4f} is "
            f"swallowed by the window slack 2*m^(-1/4)"
        )
    c1 = 2.0 * math.log(q) / alpha_pp
    c2 = DEFAULT_DELTA / 2.0
    return c1 * N / m, c2 / (N * m**meanfield.WINDOW_EXPONENT)


def guard_bounds(G: SpinSystem, r: float) -> tuple[float, float]:
    """Certified log-Zhat window [log(r q e^{bG|E|}), log(q^N e^{bG|E|} / r)]."""
    log_e = _check_base_graph(G) * len(G.edges)
    return math.log(r) + math.log(G.q) + log_e, G.n * math.log(G.q) + log_e - math.log(r)


def build_potts_instance(
    G: SpinSystem,
    m: int,
    epsilon: float,
    L: int,
    log_Zhat: float,
    *,
    enforce_guard: bool = True,
) -> PottsInstance:
    """Full construction: pick beta at the interval midpoint, solve beta_H."""
    beta_G = _check_base_graph(G)
    q, N = G.q, G.n
    r = testing_rate(epsilon, L)
    check_finite_log_Zhat(log_Zhat)
    if enforce_guard:
        check_guard(log_Zhat, *guard_bounds(G, r))
    lo, hi = beta_interval(N, m, q)
    if lo > hi:
        raise InfeasibleParametersError(
            f"empty cross-coupling interval [{lo:.4g}, {hi:.4g}] at N={N}, m={m}; "
            f"increase m"
        )
    beta_cross = 0.5 * (lo + hi)
    alpha_0 = meanfield.find_critical_Bo(q).alpha_hat - 1.0 / q
    # Window for Z_H^D/Z_H^M is [3/8, 3/4]/sqrt(eps L + 1) times
    # exp(alpha_0*beta*N*m + beta_G|E_G|)/Zhat, i.e. the inverse ratio
    # Z_H^M/Z_H^D must land in [(1/2)R, R] with:
    log_x = (
        math.log(3.0 / 4.0)
        - 0.5 * math.log(epsilon * L + 1)
        + alpha_0 * beta_cross * N * m
        + beta_G * len(G.edges)
        - log_Zhat
    )
    target_R = math.exp(-log_x)
    beta_H = meanfield.solve_beta_H(m, q, target_R, delta=0.5)
    return make_potts_instance(G, m, beta_cross, beta_H)


# -- collapsed spaces and sampling -------------------------------------------


def collapsed_distribution_F(inst: PottsInstance, which: str) -> CollapsedSpace:
    """Exact collapsed space over classes (sig(H), base level).

    Visible and hidden spaces share the classes, so tv_collapsed
    applies; :meth:`PottsInstance.class_index` gives the class order.  Each
    side's space is computed once per instance and kept on it, with
    read-only arrays, so every later call returns the same object.
    """
    spaces = inst._collapsed_spaces
    if which in spaces:
        return spaces[which]
    table = meanfield.signature_table(inst.m, inst.q)
    counts = colour_counts(inst.levels[2], inst.q).astype(float)
    # log-weight of class (s, level) beyond the level's block weight:
    #   beta_H * monoedges(s) + beta * <s, counts>
    cross = table.sigs.astype(float) @ counts.T
    outer = float(inst.beta_H) * table.mono_edges[:, None] + inst.beta_cross * cross
    spaces[which] = inst.level_space(which, table.log_multi, outer)
    return spaces[which]


def phase_partition_F(inst: PottsInstance, which: str) -> tuple[float, float, float]:
    """(log Z_F^M, log Z_F^D, log Z_F^S) by H-signature phase membership; -inf
    for an empty phase, and an InvalidModelError, as from
    :attr:`CollapsedSpace.log_Z`, when the space's total is not finite."""
    space = collapsed_distribution_F(inst, which)
    space.log_Z  # raises on a nan, infinite or zero total
    classes = meanfield.phase_classes(inst.m, inst.q)
    # rows: H signatures; columns: base levels
    t = (space.log_count + space.log_weight).reshape(len(classes.labels), -1)
    log_ZM, log_ZD, log_ZS = (logsumexp(t[idx].ravel()) for idx in classes.members)
    return log_ZM, log_ZD, log_ZS


def sample_hidden_potts(inst: PottsInstance, rng: np.random.Generator) -> Configuration:
    """An exact draw from the hidden Gibbs distribution mu_{F*}.

    Samples a class k of :attr:`PottsInstance.hidden_class_table` from its
    exact distribution.  Class k is the signature pair (sig_H, sig_K) with
    sig_H the (k // K)-th signature of m vertices and sig_K the (k % K)-th
    of N, K the number of N-signatures.  The pair is realized by uniformly
    random color placements: the cached sorted color row of sig_K
    (:func:`color_rows`) goes to a random permutation of vertices 0..N-1,
    then that of sig_H to one of N..N+m-1.
    """
    N, m = inst.N, inst.m
    rows_N, rows_m = color_rows(N, inst.q), color_rows(m, inst.q)
    row_h, row_k = divmod(int(inst.sample_hidden_classes(rng, 1)[0]), len(rows_N))
    out = np.empty(N + m, dtype=rows_N.dtype)
    out[rng.permutation(N)] = rows_N[row_k]
    out[N:][rng.permutation(m)] = rows_m[row_h]
    return Configuration(tuple(out.tolist()))


@lru_cache(maxsize=16)
def class_descriptors(m: int, N: int, q: int) -> tuple:
    """The hidden classes (sig_H, sig_K) of shape (m, N, q) as int tuples:
    ``itertools.product`` of the m- and N-vertex signatures, each in
    :func:`meanfield.enumerate_signatures` order, so class k is
    ``(sigs_m[k // K], sigs_N[k % K])`` with K the number of N-signatures.
    Cached and shared by every instance of the shape."""
    rows_h = [tuple(s) for s in meanfield.enumerate_signatures(m, q).tolist()]
    rows_k = [tuple(t) for t in meanfield.enumerate_signatures(N, q).tolist()]
    return tuple(itertools.product(rows_h, rows_k))


@lru_cache(maxsize=64)
def color_rows(n: int, q: int) -> np.ndarray:
    """Row i is ``np.repeat(arange(q), sig)`` for the i-th signature ``sig``
    of n vertices in :func:`meanfield.enumerate_signatures` order: its
    colors, sorted.  Cached, read-only, in the smallest dtype holding q-1."""
    sigs = meanfield.enumerate_signatures(n, q)
    colors = np.tile(np.arange(q, dtype=np.min_scalar_type(q - 1)), len(sigs))
    rows = np.repeat(colors, sigs.ravel()).reshape(len(sigs), n)
    rows.setflags(write=False)
    return rows
