"""Degree-reducing bipartite gadget and graph blow-up.

A gadget is a random bipartite graph on L ∪ R (|L| = |R| = b) built from
``d_in`` random perfect matchings L ↔ R plus ``d_out`` random perfect
matchings between the non-port vertices, then simplified.  A uniformly
random p-subset of each side is marked as ports; ports have degree at most
d_in and keep external capacity d_out.

The blow-up replaces every vertex of a base model G by a copy of one
sampled gadget, connects gadget copies across every base edge e through
exactly ℓ(e) = ⌈|β_G(e)|/β̂⌉ port-to-port edges per side-pair with weight
β_G(e)/(2ℓ(e)), and scales fields by 1/(2b).  The result is bipartite with
maximum degree at most d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (
    InfeasibleParametersError,
    InvalidConfigurationError,
    InvalidModelError,
)
from .exact import block_log_weights, partition_log
from .model import (
    Configuration,
    SpinSystem,
    classify_field,
    FIELD_UNRESTRICTED,
)


PORT_EXPONENT = 0.25  # the low-degree regime marks ⌊b^(1/4)⌋ ports per side


def theta(rho: float) -> float:
    """θ(ρ) = (300 + 0.75ρ) / (300 + ρ), the inner-matching fraction."""
    if not 0.0 < rho <= 1.0:
        raise InvalidConfigurationError("rho must lie in (0, 1]")
    return (300.0 + 0.75 * rho) / (300.0 + rho)


def theta_inequality_holds(rho: float, d: int) -> bool:
    """Check ρ⌊θd⌋/300 − (d − ⌊θd⌋) ≥ ρd/600 for the given degree."""
    t = theta(rho)
    d_in = math.floor(t * d)
    return rho * d_in / 300.0 - (d - d_in) >= rho * d / 600.0


@dataclass(frozen=True)
class GadgetParams:
    b: int
    p: int
    d_in: int
    d_out: int

    def __post_init__(self) -> None:
        if min(self.b, self.p, self.d_in) < 1 or self.d_out < 0:
            raise InvalidConfigurationError("b, p, d_in must be positive; d_out nonnegative")
        if self.d > self.b:
            raise InvalidConfigurationError(f"d = {self.d} exceeds b = {self.b}")
        if self.p > self.b:
            raise InvalidConfigurationError(f"p = {self.p} exceeds b = {self.b}")

    @property
    def d(self) -> int:
        return self.d_in + self.d_out

    @classmethod
    def low_degree(cls, b: int, d: int) -> "GadgetParams":
        """⌊b^PORT_EXPONENT⌋ ports on each side, d-1 inner matchings and one
        outer matching."""
        if d < 2:
            raise InvalidConfigurationError("low-degree regime needs d >= 2")
        return cls(
            b=b,
            p=int(math.floor(b**PORT_EXPONENT)),
            d_in=d - 1,
            d_out=1,
        )

    @classmethod
    def high_degree(cls, b: int, d: int, rho: float) -> "GadgetParams":
        d_in = math.floor(theta(rho) * d)
        return cls(
            b=b,
            p=b,
            d_in=d_in,
            d_out=d - d_in,
        )

    @classmethod
    def auto(cls, b: int, d: int, G: SpinSystem, beta_hat: float) -> "GadgetParams":
        """Pick the regime for blowing up ``G`` with cross weight ``beta_hat``:
        the port-subset construction when a proper port subset fits and its
        ⌊b^PORT_EXPONENT⌋ ports carry G's port demand, otherwise the all-port
        split at ρ = 0.5."""
        _check_beta_hat(beta_hat)
        if d < b and math.floor(b**PORT_EXPONENT) < b:
            low = cls.low_degree(b, d)
            if math.prod(_port_demand(G, beta_hat, low.d_out)) <= low.p:
                return low
        return cls.high_degree(b, d, 0.5)


@dataclass(frozen=True)
class Gadget:
    """One sampled bipartite gadget; L locals are 0..b-1, R locals b..2b-1."""

    params: GadgetParams
    ports_L: tuple[int, ...]
    ports_R: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]  # (L local, R local), simple

    @property
    def b(self) -> int:
        return self.params.b

    @cached_property
    def degrees(self) -> np.ndarray:
        deg = np.zeros(2 * self.b, dtype=np.int64)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    @cached_property
    def port_set(self) -> frozenset:
        return frozenset(self.ports_L) | frozenset(self.ports_R)


def sample_gadget(params: GadgetParams, rng: np.random.Generator) -> Gadget:
    b, p = params.b, params.p
    ports_L = tuple(sorted(int(v) for v in rng.choice(b, size=p, replace=False)))
    ports_R = tuple(
        sorted(int(v) + b for v in rng.choice(b, size=p, replace=False))
    )
    edges: set[tuple[int, int]] = set()
    for _ in range(params.d_in):
        perm = rng.permutation(b)
        edges.update((l, b + int(perm[l])) for l in range(b))
    non_L = [v for v in range(b) if v not in set(ports_L)]
    non_R = [v for v in range(b, 2 * b) if v not in set(ports_R)]
    for _ in range(params.d_out):
        if not non_L:
            break
        perm = rng.permutation(len(non_R))
        edges.update((non_L[i], non_R[int(perm[i])]) for i in range(len(non_L)))
    return Gadget(
        params=params,
        ports_L=ports_L,
        ports_R=ports_R,
        edges=tuple(sorted(edges)),
    )


def _cross_pattern(ell: int, d_out: int) -> list[tuple[int, int]]:
    """Exactly ``ell`` edges between two port lists, max degree ≤ d_out:
    ⌊ℓ/d_out²⌋ complete d_out×d_out blocks plus a row-major remainder."""
    pairs: list[tuple[int, int]] = []
    full = ell // (d_out * d_out)
    for blk in range(full):
        base = blk * d_out
        pairs.extend(
            (base + i, base + j) for i in range(d_out) for j in range(d_out)
        )
    rem = ell - full * d_out * d_out
    base = full * d_out
    for k in range(rem):
        pairs.append((base + k // d_out, base + k % d_out))
    return pairs


def _check_beta_hat(beta_hat: float) -> None:
    if not (math.isfinite(beta_hat) and beta_hat > 0):
        raise InvalidConfigurationError(f"beta_hat must be finite and positive, got {beta_hat}")


def _cross_edges(beta: float, beta_hat: float) -> int:
    """ℓ(e) = ⌈|β_G(e)|/β̂⌉, the cross edges per side-pair of a base edge."""
    return int(math.ceil(abs(beta) / beta_hat))


def _ports_per_side(ell: int, d_out: int) -> int:
    """Ports one gadget side spends on ``ell`` cross edges of degree ≤ d_out."""
    return d_out * math.ceil(ell / (d_out * d_out))


def _port_demand(G: SpinSystem, beta_hat: float, d_out: int) -> tuple[int, int]:
    """(max base degree, ports per edge of the heaviest base edge): a gadget
    side needs their product in ports to wire every base edge of ``G``."""
    need = max((_ports_per_side(_cross_edges(beta, beta_hat), d_out) for _, _, beta in G.edges),
               default=0)
    d_G = int(G.degrees.max()) if G.n and len(G.edges) else 0
    return d_G, need


@dataclass(frozen=True)
class BlowupInstance:
    base: SpinSystem
    params: GadgetParams
    gadget: Gadget
    model: SpinSystem

    @property
    def b(self) -> int:
        return self.params.b

    def gadget_map(self) -> dict:
        """vertex -> {base vertex, side, port flag} block for serialization."""
        out = {}
        ports = self.gadget.port_set
        for u in range(self.model.n):
            local = u % (2 * self.b)
            out[u] = {
                "base_vertex": u // (2 * self.b),
                "side": "L" if local < self.b else "R",
                "port": local in ports,
            }
        return out


def build_blowup(
    G: SpinSystem,
    params: GadgetParams,
    beta_hat: float,
    rng: np.random.Generator,
) -> BlowupInstance:
    """Blow up G through one sampled gadget replicated at every vertex."""
    _check_beta_hat(beta_hat)
    if classify_field(G) == FIELD_UNRESTRICTED:
        raise InvalidModelError(
            "blow-up requires an h-vertex-monochromatic field on the base model"
        )
    b, p, d_out = params.b, params.p, params.d_out
    ells = {(u, v): _cross_edges(beta, beta_hat) for u, v, beta in G.edges}
    if d_out > 0:
        d_G, need = _port_demand(G, beta_hat, d_out)
        if d_G * need > p:
            worst = max(ells, key=lambda e: ells[e]) if ells else None
            raise InfeasibleParametersError(
                f"port capacity exceeded: base degree {d_G} x {need} ports per "
                f"edge > p = {p} (worst edge {worst})"
            )
    elif ells:
        raise InfeasibleParametersError("d_out = 0 leaves no external capacity")

    gadget = sample_gadget(params, rng)
    two_b = 2 * b
    edges: list[tuple[int, int, float]] = []
    for v in range(G.n):
        off = v * two_b
        edges.extend((off + a, off + c, beta_hat) for a, c in gadget.edges)

    # Free ports: per base vertex, the still-unused ports on each side,
    # consumed in index order (ports on one side are interchangeable).
    free_L = {v: list(gadget.ports_L) for v in range(G.n)}
    free_R = {v: list(gadget.ports_R) for v in range(G.n)}
    for u, v, beta in G.edges:
        ell = ells[(u, v)]
        need = _ports_per_side(ell, d_out)
        w = beta / (2.0 * ell)
        pattern = _cross_pattern(ell, d_out)
        for side_a, side_b_, va, vb in (
            (free_L, free_R, u, v),  # L_u -- R_v
            (free_R, free_L, u, v),  # R_u -- L_v
        ):
            pa, pb = side_a[va][:need], side_b_[vb][:need]
            if len(pa) < need or len(pb) < need:
                raise InfeasibleParametersError(
                    f"ran out of free ports while wiring base edge ({u}, {v})"
                )
            del side_a[va][:need]
            del side_b_[vb][:need]
            ga = [va * two_b + x for x in pa]
            gb = [vb * two_b + x for x in pb]
            edges.extend((ga[i], gb[j], w) for i, j in pattern)

    field = []
    if G.field:
        for bv, spin, h in G.field:
            field.extend(
                (bv * two_b + local, spin, h / (2.0 * b)) for local in range(two_b)
            )
    left = tuple(
        v * two_b + local for v in range(G.n) for local in range(b)
    )
    model = SpinSystem(
        q=G.q,
        n=G.n * two_b,
        edges=tuple(edges),
        field=tuple(field),
        bipartition=(left, tuple(sorted(set(range(G.n * two_b)) - set(left)))),
    )
    if int(model.degrees.max(initial=0)) > params.d:
        raise InfeasibleParametersError("blow-up exceeded the degree bound d")
    return BlowupInstance(
        base=G,
        params=params,
        gadget=gadget,
        model=model,
    )


def project_good(inst: BlowupInstance, sigma) -> Optional[Configuration]:
    """Base configuration read off the gadget phases; None outside Ω_good."""
    spins = sigma.spins if isinstance(sigma, Configuration) else tuple(sigma)
    two_b = 2 * inst.b
    out = []
    for v in range(inst.base.n):
        block = spins[v * two_b : (v + 1) * two_b]
        if any(s != block[0] for s in block[1:]):
            return None
        out.append(block[0])
    return Configuration(tuple(out))


def lift_sample(inst: BlowupInstance, sigma_G) -> Configuration:
    """Phase-lift: every vertex of gadget B_v receives spin sigma_G(v)."""
    spins = sigma_G.spins if isinstance(sigma_G, Configuration) else tuple(sigma_G)
    two_b = 2 * inst.b
    return Configuration(tuple(spins[v] for v in range(inst.base.n) for _ in range(two_b)))


def omega_good_log_mass(inst: BlowupInstance) -> float:
    """log μ(Ω_good), the log-probability that every gadget block is
    monochromatic.

    Ω_good holds one configuration per base configuration, its lift, whose
    weight is the base weight times e^inner for the summed weight ``inner``
    of the within-block edges (the cross edges of a base edge sum to β_G(e)
    and the scaled fields of a vertex to h).  So log μ(Ω_good) =
    inner + log Z_G − log Z, clamped to ≤ 0 against rounding.
    """
    two_b = 2 * inst.b
    inner = sum(beta for u, v, beta in inst.model.edges if u // two_b == v // two_b)
    return min(inner + partition_log(inst.base) - partition_log(inst.model), 0.0)


def gadget_in_context(gadget: Gadget, q: int, beta_B: float, tau) -> SpinSystem:
    """The gadget model with boundary spins τ folded into per-port fields
    (its only fields).

    Each port is joined to ``d_out`` boundary vertices; conditioning on a
    boundary assignment τ (one spin per port-boundary slot, ports in sorted
    order, L side first) is equivalent to adding the cut-edge weight as a
    field on the port's matching spin.  The boundary weight is beta_B/2, the
    largest magnitude a blow-up cross edge can carry (a cross edge has weight
    β_G(e)/(2ℓ(e)) with ℓ(e) ≥ |β_G(e)|/β̂ and β_B = β̂).
    """
    if beta_B < 0:
        raise InvalidConfigurationError(f"beta_B must be nonnegative, got {beta_B}")
    params = gadget.params
    w = 0.5 * beta_B
    ports = list(gadget.ports_L) + list(gadget.ports_R)
    expected = len(ports) * params.d_out
    tau = tuple(int(t) for t in tau)
    if len(tau) != expected:
        raise InvalidConfigurationError(
            f"tau must assign {expected} boundary spins, got {len(tau)}"
        )
    field: dict[tuple[int, int], float] = {}
    for slot, spin in enumerate(tau):
        port = ports[slot // params.d_out]
        if not 0 <= spin < q:
            raise InvalidConfigurationError(f"boundary spin {spin} outside [0, {q})")
        field[(port, spin)] = field.get((port, spin), 0.0) + w
    edges = tuple((u, v, beta_B) for u, v in gadget.edges)
    return SpinSystem(
        q=q,
        n=2 * gadget.b,
        edges=edges,
        field=tuple((v, s, val) for (v, s), val in sorted(field.items())),
    )


def ground_state_mass(model: SpinSystem) -> float:
    """Exact probability mass of the q monochromatic configurations."""
    log_Z = partition_log(model)
    monochromatic = np.repeat(np.arange(model.q), model.n).reshape(model.q, model.n)
    total = 0.0
    for log_w in block_log_weights(model, monochromatic):
        total += math.exp(log_w - log_Z)
    return min(total, 1.0)
