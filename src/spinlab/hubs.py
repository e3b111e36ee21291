"""Two-hub Ising testing instances.

Two variants over a base Ising graph G on N vertices:

* ``antiferro``: zero field; every base vertex is joined to each hub s1, s2
  by ``n_uv`` disjoint 2-paths (both edges -beta1), and the hubs are joined
  by ``n_ss`` disjoint 3-paths (all three edges -beta2).  The hidden model
  replaces G by an independent set.
* ``ferro-field``: uniform coupling beta_hat > 0 and a per-vertex field that
  puts weight h_hat on exactly one of the two spins; hubs carry ``n_ss``
  pendant vertices each with edge weight beta2 and field (h,0) on s1's
  pendants, (0,h) on s2's, with h = beta2.  The hidden model replaces G by
  K_N with beta_K = beta_hat + 4 ln 2, fields preserved.

Defaults n_uv = N and n_ss = N^2 give the canonical n = 4N^2 + N + 2 vertex
count; both multiplicities are overridable for small exact cross-checks.

Vertex layout: base block 0..N-1, s1 = N, s2 = N+1, then u-vertices grouped
by (base vertex, hub), then the w-vertices.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.special import gammaln

from .counting import ReductionInstance, check_finite_log_Zhat, check_guard, testing_rate
from .errors import InvalidModelError, TargetUnreachableError
from .model import (
    Configuration,
    SpinSystem,
    classify_field,
    FIELD_ZERO,
)
from .exact import ClassLayout, CollapsedSpace, IndexSampler, logsumexp, partition_log, state_table

VARIANT_ANTIFERRO = "antiferro"
VARIANT_FERRO = "ferro-field"


def g_antiferro(x: float) -> float:
    """g(x) = (3 e^{-2x} + 1) / (e^{-3x} + 3 e^{-x}); increasing, g(0)=1."""
    return (3.0 * math.exp(-2.0 * x) + 1.0) / (math.exp(-3.0 * x) + 3.0 * math.exp(-x))


@dataclass(frozen=True)
class HubInstance(ReductionInstance):
    variant: str
    n_uv: int
    n_ss: int
    beta1: float
    beta2: float
    h: float
    h_hat: float
    beta_K: float
    field_spins: tuple[int, ...]  # ferro variant: per-base-vertex field spin

    @property
    def s1(self) -> int:
        return self.N

    @property
    def s2(self) -> int:
        return self.N + 1

    def assemble(self, block: SpinSystem) -> SpinSystem:
        """The base block joined to the hubs by n_uv 2-paths per (vertex,
        hub), plus the n_ss hub 3-paths (antiferro) or pendants (ferro)."""
        N, s1, s2 = self.N, self.s1, self.s2
        sign = -1.0 if self.variant == VARIANT_ANTIFERRO else 1.0
        edges, field = list(block.edges), list(block.field)
        ids = itertools.count(N + 2)  # auxiliary vertex ids, in layout order
        for v in range(N):
            for hub in (s1, s2):
                for u in itertools.islice(ids, self.n_uv):
                    edges += [(v, u, sign * self.beta1), (u, hub, sign * self.beta1)]
        if self.variant == VARIANT_ANTIFERRO:
            for _ in range(self.n_ss):
                w1, w2 = next(ids), next(ids)
                edges += [(s1, w1, -self.beta2), (w1, w2, -self.beta2), (w2, s2, -self.beta2)]
        else:
            for hub, spin in ((s1, 0), (s2, 1)):
                for w in itertools.islice(ids, self.n_ss):
                    edges.append((hub, w, self.beta2))
                    field.append((w, spin, self.h))
        return SpinSystem(q=2, n=next(ids), edges=tuple(edges), field=tuple(field))

    def collapsed(self, which: str) -> CollapsedSpace:
        return collapsed_distribution_hub(self, which)

    def outer_class(self, spins: np.ndarray) -> np.ndarray:
        """Hub spins as ``2*c1 + c2``."""
        return 2 * spins[:, self.N] + spins[:, self.N + 1]

    @cached_property
    def field_groups(self) -> tuple[np.ndarray, ...]:
        """Base vertices grouped by field spin: group g holds the vertices
        whose field sits on spin g.  Antiferro has one group of all N vertices;
        its h_hat is 0, so that group's field adds nothing."""
        if self.variant == VARIANT_ANTIFERRO:
            return (np.arange(self.N),)
        spins = np.asarray(self.field_spins)
        return tuple(np.flatnonzero(spins == g) for g in (0, 1))

    @cached_property
    def hidden_class_table(self) -> tuple[tuple, np.ndarray, np.ndarray]:
        """Type classes (c1, c2, *k) of the hidden model, k the number of
        spin-0 vertices in each field group: (descriptors, log_count,
        log_weight).  The hidden base block is K_N with coupling beta_K (0
        for antiferro, an independent set) and field h_hat."""
        N = self.N
        same_u, diff_u = _u_factors(self.variant, self.beta1, self.n_uv)
        sizes = [len(group) for group in self.field_groups]
        descriptors: list[tuple] = []
        log_count: list[float] = []
        log_weight: list[float] = []
        for c1, c2 in itertools.product((0, 1), repeat=2):
            wfac = self._w_log_factors[c1, c2]
            for ks in itertools.product(*(range(n + 1) for n in sizes)):
                k = sum(ks)
                agree = (k if c1 == 0 else N - k) + (k if c2 == 0 else N - k)
                mono = k * (k - 1) // 2 + (N - k) * (N - k - 1) // 2
                lc = fld = 0.0
                for g, (n, kg) in enumerate(zip(sizes, ks)):
                    lc = lc + gammaln(n + 1) - gammaln(kg + 1) - gammaln(n - kg + 1)
                    fld = fld + self.h_hat * (kg if g == 0 else n - kg)
                descriptors.append((c1, c2, *ks))
                log_count.append(float(lc))
                log_weight.append(
                    agree * same_u + (2 * N - agree) * diff_u + wfac + self.beta_K * mono + fld
                )
        return tuple(descriptors), np.asarray(log_count), np.asarray(log_weight)

    @cached_property
    def _w_log_factors(self) -> dict[tuple[int, int], float]:
        """n_ss times the log factor of one w-path (antiferro) or pendant pair
        (ferro), per hub spins (c1, c2)."""
        pairs = itertools.product((0, 1), repeat=2)
        if self.variant == VARIANT_ANTIFERRO:
            return {(c1, c2): self.n_ss * _w_factor_antiferro(self.beta2, same_hubs=(c1 == c2))
                    for c1, c2 in pairs}
        return {(c1, c2): self.n_ss * _w_factor_ferro(self.beta2, self.h, c1, c2) for c1, c2 in pairs}

    @cached_property
    def _draw_tables(self) -> dict[tuple[int, int], tuple]:
        """Exact conditionals of the auxiliary vertices given hub spins (c1, c2),
        shared by every draw: ``(u_rows, w)`` with ``u_rows[base spin]``
        P(u = 0) for one base vertex's 2*n_uv u-vertices (ordered by hub,
        copy), and ``w`` either an IndexSampler
        over one w-path's four options (antiferro; see ``_W_PATH_SPINS``) or
        P(pendant = 0) for each of the 2*n_ss pendants (ferro)."""
        sign = -1.0 if self.variant == VARIANT_ANTIFERRO else 1.0
        p0_u = np.empty((2, 2))  # [base spin, hub spin]
        for sv in (0, 1):
            for hub_spin in (0, 1):
                lw0 = sign * self.beta1 * ((0 == sv) + (0 == hub_spin))
                lw1 = sign * self.beta1 * ((1 == sv) + (1 == hub_spin))
                p0_u[sv, hub_spin] = 1.0 / (1.0 + math.exp(lw1 - lw0))
        tables = {}
        for c1, c2 in itertools.product((0, 1), repeat=2):
            u_rows = np.repeat(p0_u[:, [c1, c2]], self.n_uv, axis=1)
            if self.variant == VARIANT_ANTIFERRO:
                # options (w1, w2) = divmod(option, 2) of one s1-w1-w2-s2 path
                lws = np.array(
                    [-self.beta2 * ((a == c1) + (a == b) + (b == c2)) for a in (0, 1) for b in (0, 1)]
                )
                w = IndexSampler(np.exp(lws - lws.max()))
            else:
                p0_w = []
                for hub_spin, field_spin in ((c1, 0), (c2, 1)):
                    lw0 = self.beta2 * (0 == hub_spin) + (self.h if field_spin == 0 else 0.0)
                    lw1 = self.beta2 * (1 == hub_spin) + (self.h if field_spin == 1 else 0.0)
                    p0_w.append(1.0 / (1.0 + math.exp(lw1 - lw0)))
                w = np.repeat(p0_w, self.n_ss)
            tables[c1, c2] = (u_rows, w)
        return tables


# -- log helpers for the auxiliary-vertex factors ----------------------------


def _u_factors(variant: str, beta1: float, n_uv: int) -> tuple[float, float]:
    """Per-(vertex, hub) log factor from summing out the n_uv path vertices:
    (value when sigma(v) == sigma(hub), value when they differ)."""
    s = -1.0 if variant == VARIANT_ANTIFERRO else 1.0
    same = n_uv * float(np.logaddexp(2.0 * s * beta1, 0.0))
    diff = n_uv * (math.log(2.0) + s * beta1)
    return same, diff


def _w_factor_antiferro(beta2: float, same_hubs: bool) -> float:
    """Log factor of one s1-w1-w2-s2 path (all edges -beta2), hub spins fixed."""
    if same_hubs:
        return logsumexp([-3.0 * beta2, math.log(3.0) - beta2])
    return logsumexp([math.log(3.0) - 2.0 * beta2, 0.0])


def _w_factor_ferro(beta2: float, h: float, c1: int, c2: int) -> float:
    """Log of the product of the two hubs' single-pendant factors.

    A pendant sums exp(beta2*[spin = hub spin] + field) over its spin; s1's
    pendants have field on spin 0, s2's on spin 1.
    """
    return sum(
        float(np.logaddexp(beta2 + h, 0.0)) if hub == spin else float(np.logaddexp(beta2, h))
        for hub, spin in ((c1, 0), (c2, 1))
    )


# -- solvers ------------------------------------------------------------------


def _log_g(x: float) -> float:
    return math.log(g_antiferro(x))


def _log_cosh(x: float) -> float:
    return math.log(math.cosh(x))


def _solve_beta2(
    log_f, name: str, hi_x: float, beta1: float, n_ss: int, log_lo: float, log_hi: float
) -> float:
    """Bisect the increasing ``log_f`` on (0, hi_x) so that
    n_ss * (log_f(beta2) - log cosh(beta1)) lands mid-window [log_lo, log_hi]."""
    target = 0.5 * (log_lo + log_hi) / n_ss + _log_cosh(beta1)
    f_lo, f_hi = log_f(0.0), log_f(hi_x)
    if not f_lo <= target <= f_hi:
        raise TargetUnreachableError(
            f"beta2 target {name} = {target:.6g} outside achievable [{f_lo:.6g}, {f_hi:.6g}]",
            achieved_range=(f_lo, f_hi),
        )
    lo, hi = 0.0, hi_x
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if log_f(mid) < target:
            lo = mid
        else:
            hi = mid
    beta2 = 0.5 * (lo + hi)
    achieved = n_ss * (log_f(beta2) - _log_cosh(beta1))
    if not log_lo <= achieved <= log_hi:
        raise TargetUnreachableError(
            f"beta2 bisection landed outside the window: {achieved:.6g} "
            f"not in [{log_lo:.6g}, {log_hi:.6g}]"
        )
    return beta2


def solve_beta2_antiferro(
    beta1: float, n_ss: int, log_Zhat: float, log_Zmono: float, epsilon: float, L: int
) -> float:
    """Solve (g(beta2)/cosh(beta1))^{n_ss} into the window
    [1/2, 1] / sqrt(eps L + 1) * exp(log_Zmono) / Zhat; beta2 in (0, beta1+2).
    """
    log_hi = -0.5 * math.log(epsilon * L + 1) + log_Zmono - log_Zhat
    return _solve_beta2(_log_g, "log g", beta1 + 2.0, beta1, n_ss, log_hi - math.log(2.0), log_hi)


def solve_beta2_ferro(
    beta1: float, n_ss: int, log_Zhat: float, log_Zmono: float, epsilon: float, L: int
) -> float:
    """Solve (cosh(beta2)/cosh(beta1))^{n_ss} into the window
    [1/3, 1/2] / sqrt(eps L + 1) * Zmono / Zhat; beta2 in (0, beta1).
    """
    log_hi = -math.log(2.0) - 0.5 * math.log(epsilon * L + 1) + log_Zmono - log_Zhat
    return _solve_beta2(_log_cosh, "log cosh", beta1, beta1, n_ss, log_hi - math.log(1.5), log_hi)


# -- builder -------------------------------------------------------------------


def _base_params(G: SpinSystem, variant: str, strict_family: bool) -> tuple[float, float, tuple[int, ...]]:
    if G.q != 2:
        raise InvalidModelError("hub constructions require Ising base graphs (q=2)")
    betas = {b for _, _, b in G.edges}
    if len(betas) != 1:
        raise InvalidModelError("base graph must have uniform couplings")
    beta_G = next(iter(betas))
    if variant == VARIANT_ANTIFERRO:
        if classify_field(G) != FIELD_ZERO:
            raise InvalidModelError("antiferro variant requires a zero field")
        if beta_G >= 0:
            raise InvalidModelError("antiferro variant requires a negative coupling")
        if strict_family:
            if not np.all(G.degrees == 3):
                raise InvalidModelError("canonical antiferro family is 3-regular")
            if not math.isclose(beta_G, -0.6, abs_tol=1e-12):
                raise InvalidModelError("canonical antiferro family has beta_G = -0.6")
        return beta_G, 0.0, ()
    if variant == VARIANT_FERRO:
        if beta_G <= 0:
            raise InvalidModelError("ferro variant requires a positive coupling")
        h = G.field_array
        field_spins = []
        h_vals = set()
        for v in range(G.n):
            nz = np.flatnonzero(h[v])
            if len(nz) != 1 or h[v, nz[0]] <= 0:
                raise InvalidModelError(
                    "ferro variant requires exactly one positive field entry per vertex"
                )
            field_spins.append(int(nz[0]))
            h_vals.add(float(h[v, nz[0]]))
        if len(h_vals) != 1:
            raise InvalidModelError("ferro variant requires a uniform field magnitude")
        return beta_G, h_vals.pop(), tuple(field_spins)
    raise InvalidModelError(f"unknown variant {variant!r}")


def log_Zmono_of(G: SpinSystem) -> float:
    """Log of the summed weights of the two monochromatic base configurations."""
    log_e = sum(b for _, _, b in G.edges)
    h = G.field_array
    return logsumexp([log_e + h[:, 0].sum(), log_e + h[:, 1].sum()])


def build_hub_instance(
    G: SpinSystem,
    variant: str,
    epsilon: float,
    L: int,
    log_Zhat: float,
    *,
    beta1: Optional[float] = None,
    beta2: Optional[float] = None,
    n_uv: Optional[int] = None,
    n_ss: Optional[int] = None,
    enforce_guard: bool = True,
    strict_family: bool = True,
) -> HubInstance:
    beta_G, h_hat, field_spins = _base_params(G, variant, strict_family)
    N = G.n
    if n_uv is None:
        n_uv = N
    if n_ss is None:
        n_ss = N * N
    if min(n_uv, n_ss) < 0:
        raise InvalidModelError(f"n_uv and n_ss must be nonnegative, got {n_uv} and {n_ss}")
    r = testing_rate(epsilon, L)
    check_finite_log_Zhat(log_Zhat)
    # log_Zmono sets the guard window and the beta2 target.
    if variant == VARIANT_ANTIFERRO:
        # Ground-state exponent of the base family: e^{sum of couplings}
        # (= e^{-0.9N} for the canonical 3-regular beta_G = -0.6 family).
        log_Zmono = float(sum(b for _, _, b in G.edges))
        floor = math.log(r) + N * math.log(2.0) + log_Zmono
        ceiling = N * math.log(2.0) - math.log(r)
    else:
        # log of the two-color monochromatic weight sum
        log_Zmono = log_Zmono_of(G)
        floor = math.log(r) + log_Zmono
        ceiling = 0.5 * (beta_G + h_hat + 1.0) * N * N - math.log(r)
    if enforce_guard:
        check_guard(log_Zhat, floor, ceiling)

    if beta1 is None:
        beta1 = 3.0 if variant == VARIANT_ANTIFERRO else 0.5 * (beta_G + h_hat + 5.0)
    if beta2 is None:
        solve = solve_beta2_antiferro if variant == VARIANT_ANTIFERRO else solve_beta2_ferro
        beta2 = solve(beta1, n_ss, log_Zhat, log_Zmono, epsilon, L)
    if not (math.isfinite(beta1) and math.isfinite(beta2)):
        raise InvalidModelError(f"couplings must be finite, got {beta1!r} and {beta2!r}")
    if variant == VARIANT_ANTIFERRO:
        h, beta_K = 0.0, 0.0
        hidden_block = SpinSystem(q=2, n=N)
    else:
        h, beta_K = beta2, beta_G + 4.0 * math.log(2.0)
        k_edges = tuple((i, j, beta_K) for i in range(N) for j in range(i + 1, N))
        hidden_block = SpinSystem(q=2, n=N, edges=k_edges, field=G.field)
    return HubInstance(
        visible_block=SpinSystem(q=2, n=N, edges=G.edges, field=G.field),
        hidden_block=hidden_block,
        variant=variant,
        n_uv=n_uv,
        n_ss=n_ss,
        beta1=beta1,
        beta2=beta2,
        h=h,
        h_hat=h_hat,
        beta_K=beta_K,
        field_spins=field_spins,
    )


# -- closed forms ---------------------------------------------------------------


def closed_form_phase(inst: HubInstance, which: str) -> tuple[float, float]:
    """(log Z^D, log Z^{M0}) in closed form, one formula for both variants.

    Z^D sums over configurations with sigma(s1) != sigma(s2): the w-factor of
    each unequal hub pair (c1, c2), one agreeing and one disagreeing
    u-factor per base vertex whatever its spin, and the base-block partition
    function (exact, by ``partition_log``).  Z^{M0} sums over hubs equal and
    the whole base block in one colour c: the w-factor at (c, c), 2N
    agreeing u-factors and the block's log-weight with every vertex in c.
    """
    base = inst.base_block(which)
    same_u, diff_u = _u_factors(inst.variant, inst.beta1, 1)
    log_zd = (
        logsumexp([inst._w_log_factors[c, 1 - c] for c in (0, 1)])
        + inst.N * inst.n_uv * (same_u + diff_u)
        + partition_log(base)
    )
    log_e = sum(b for _, _, b in base.edges)
    log_zm0 = logsumexp([
        inst._w_log_factors[c, c] + 2 * inst.N * inst.n_uv * same_u
        + log_e + base.field_array[:, c].sum()
        for c in (0, 1)
    ])
    return log_zd, log_zm0


# -- collapsed spaces ------------------------------------------------------------


def collapsed_distribution_hub(inst: HubInstance, which: str) -> CollapsedSpace:
    """Exact collapsed space over (spin s1, spin s2, base-block configuration).

    The path, pendant and clique auxiliary vertices integrate out; their
    conditional law given the class is identical in the visible and hidden
    models, so tv_collapsed over these classes equals the full-model TV.
    """
    N = inst.N
    block_lw, spins = state_table(inst.base_block(which))
    same_u, diff_u = _u_factors(inst.variant, inst.beta1, inst.n_uv)

    # class (c1, c2, base block idx) sits at ((c1*2 + c2) << N) | idx
    parts = []
    for c1, c2 in itertools.product((0, 1), repeat=2):
        k1 = (spins == c1).sum(axis=1)
        k2 = (spins == c2).sum(axis=1)
        ufac = (k1 + k2) * same_u + (2 * N - k1 - k2) * diff_u
        parts.append(block_lw + ufac + inst._w_log_factors[c1, c2])
    return CollapsedSpace(ClassLayout(("hub", N), 4 << N), np.zeros(4 << N), np.concatenate(parts))


# -- exact hidden sampler -----------------------------------------------------------


_W_PATH_SPINS = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.int8)  # (w1, w2) per option


def sample_hidden_hub(inst: HubInstance, rng: np.random.Generator) -> Configuration:
    """Exact draw from the hidden Gibbs distribution.

    Samples the type class, places each field group's spin-0 vertices
    uniformly within the group, then draws every auxiliary vertex from its
    exact conditional given its neighbors: a u-vertex's law depends only on
    (base spin, hub spin), and every w-path or pendant of a hub shares one law.
    """
    descriptors, _, _ = inst.hidden_class_table
    c1, c2, *ks = descriptors[int(inst.sample_hidden_classes(rng, 1)[0])]
    block = np.ones(inst.N, dtype=np.int8)
    for group, k in zip(inst.field_groups, ks):
        block[rng.permutation(group)[:k]] = 0

    u_rows, w = inst._draw_tables[c1, c2]
    # u-vertices, ordered by (base vertex, hub, copy)
    u_spins = rng.random(2 * inst.n_uv * inst.N) >= u_rows[block].ravel()
    if inst.variant == VARIANT_ANTIFERRO:
        w_spins = _W_PATH_SPINS[w.draw(rng, inst.n_ss)].ravel()
    else:
        w_spins = rng.random(2 * inst.n_ss) >= w
    spins = np.concatenate([block, [c1, c2], u_spins, w_spins])
    return Configuration(tuple(spins.tolist()))
