"""Independent naive reference implementation for oracle tests.

Deliberately written with plain Python loops, dicts and itertools (no numpy,
no code shared with the package) so that agreement with the fast engine is
meaningful.  Two sections are exceptions.  The block-sum references apply
the out-of-place numpy expressions that ``tv_exact`` and
``restricted_partition_multi`` evaluated before they consumed enumeration
blocks in place, to blocks the package enumerates, so that a test can ask
for the same bits.  The hidden samplers are kept as they were before their
per-instance draw tables; they pin the generator stream and so have to call
numpy's ``Generator`` the way they did.  The
mean-field sums read the package's per-signature weights and phase labels
(each checked against brute force elsewhere) and sum them signature by
signature, where the package sums over energy levels.  The grouped sums add
per-state reference weights class by class, so a collapsed space over
levels can be compared with the per-state space it replaced.
"""

import itertools
import math

import numpy as np
from scipy.special import logsumexp

from spinlab import meanfield as mf


def naive_log_Z(q, n, edges, field):
    """log of the partition sum by direct iteration over q**n tuples."""
    logs = []
    for sigma in itertools.product(range(q), repeat=n):
        lw = 0.0
        for (u, v, beta) in edges:
            if sigma[u] == sigma[v]:
                lw += beta
        for (v, spin, h) in field:
            if sigma[v] == spin:
                lw += h
        logs.append(lw)
    shift = max(logs)
    return shift + math.log(math.fsum(math.exp(x - shift) for x in logs))


def naive_restricted_log(q, n, edges, field, keep):
    logs = []
    for sigma in itertools.product(range(q), repeat=n):
        if not keep(sigma):
            continue
        lw = 0.0
        for (u, v, beta) in edges:
            if sigma[u] == sigma[v]:
                lw += beta
        for (v, spin, h) in field:
            if sigma[v] == spin:
                lw += h
        logs.append(lw)
    if not logs:
        return float("-inf")
    shift = max(logs)
    return shift + math.log(math.fsum(math.exp(x - shift) for x in logs))


def naive_probs(q, n, edges, field):
    weights = {}
    for sigma in itertools.product(range(q), repeat=n):
        lw = 0.0
        for (u, v, beta) in edges:
            if sigma[u] == sigma[v]:
                lw += beta
        for (v, spin, h) in field:
            if sigma[v] == spin:
                lw += h
        weights[sigma] = lw
    shift = max(weights.values())
    total = math.fsum(math.exp(x - shift) for x in weights.values())
    return {s: math.exp(x - shift) / total for s, x in weights.items()}


def naive_tv(q, n, edges_a, field_a, edges_b, field_b):
    pa = naive_probs(q, n, edges_a, field_a)
    pb = naive_probs(q, n, edges_b, field_b)
    return 0.5 * math.fsum(abs(pa[s] - pb[s]) for s in pa)


def random_model(rng, n_max=12, q_choices=(2, 3), beta_range=(-2.0, 2.0), h_range=(-1.0, 1.0)):
    """A random small model as plain tuples: (q, n, edges, field)."""
    q = int(rng.choice(q_choices))
    n = int(rng.integers(2, (n_max if q == 2 else min(n_max, 8)) + 1))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.4:
                edges.append((u, v, float(rng.uniform(*beta_range))))
    field = []
    for v in range(n):
        for s in range(q):
            if rng.random() < 0.3:
                field.append((v, s, float(rng.uniform(*h_range))))
    return q, n, tuple(edges), tuple(field)


# -- reference block sums ------------------------------------------------------
# ``blocks`` are enumeration blocks (log_weights, spins); nothing here writes
# to them.


def reference_block_tv(blocks_a, blocks_b, log_za, log_zb):
    """Half the sum over block pairs of |exp(lwa - log_za) - exp(lwb - log_zb)|."""
    return 0.5 * sum(
        float(np.sum(np.abs(np.exp(lwa - log_za) - np.exp(lwb - log_zb))))
        for (lwa, _), (lwb, _) in zip(blocks_a, blocks_b)
    )


def reference_block_split(blocks, predicates):
    """Per predicate, the log-sum-exp over blocks of logsumexp(lw[mask])."""
    parts = [[] for _ in predicates]
    for lw, spins in blocks:
        for k, pred in enumerate(predicates):
            mask = np.asarray(pred(spins), dtype=bool)
            if mask.any():
                parts[k].append(float(logsumexp(lw[mask])))
    return [float(logsumexp(p)) if p else -math.inf for p in parts]


# -- reference hidden samplers -------------------------------------------------
# The pre-table samplers: the class probabilities, the auxiliary-vertex laws
# and the per-draw ``rng.choice`` calls are recomputed on every draw.


def reference_class_probs(inst):
    """Normalised probabilities of the hidden_class_table classes."""
    _, log_count, log_weight = inst.hidden_class_table
    t = log_count + log_weight
    p = np.exp(t - logsumexp(t))
    return p / p.sum()


def reference_sample_hidden_classes(inst, rng, size):
    p = reference_class_probs(inst)
    return rng.choice(len(p), size=size, p=p)


def reference_aux_laws(inst):
    """P(u = 0) indexed by ``2*(base spin) + hub spin``, and per hub spins
    (c1, c2) either the law of one w-path's four options (antiferro) or
    P(pendant = 0) for each of the 2*n_ss pendants (ferro)."""
    sign = -1.0 if inst.variant == "antiferro" else 1.0
    p0_u = np.empty(4)
    for sv in (0, 1):
        for hub_spin in (0, 1):
            lw0 = sign * inst.beta1 * ((0 == sv) + (0 == hub_spin))
            lw1 = sign * inst.beta1 * ((1 == sv) + (1 == hub_spin))
            p0_u[2 * sv + hub_spin] = 1.0 / (1.0 + math.exp(lw1 - lw0))
    w_law = {}
    for c1, c2 in itertools.product((0, 1), repeat=2):
        if inst.variant == "antiferro":
            # options (w1, w2) = divmod(option, 2) of one s1-w1-w2-s2 path
            lws = np.array(
                [-inst.beta2 * ((a == c1) + (a == b) + (b == c2)) for a in (0, 1) for b in (0, 1)]
            )
            probs = np.exp(lws - lws.max())
            probs /= probs.sum()
            w_law[c1, c2] = probs
        else:
            p0_w = []
            for hub_spin, field_spin in ((c1, 0), (c2, 1)):
                lw0 = inst.beta2 * (0 == hub_spin) + (inst.h if field_spin == 0 else 0.0)
                lw1 = inst.beta2 * (1 == hub_spin) + (inst.h if field_spin == 1 else 0.0)
                p0_w.append(1.0 / (1.0 + math.exp(lw1 - lw0)))
            w_law[c1, c2] = np.repeat(p0_w, inst.n_ss)
    return p0_u, w_law


def reference_sample_hidden_hub(inst, rng):
    """One exact hidden hub draw, as a tuple of spins."""
    descriptors, _, _ = inst.hidden_class_table
    c1, c2, *ks = descriptors[int(reference_sample_hidden_classes(inst, rng, 1)[0])]
    N = inst.N
    block = np.ones(N, dtype=np.int8)
    for group, k in zip(inst.field_groups, ks):
        block[rng.permutation(group)[:k]] = 0

    # u-vertices, ordered by (base vertex, hub, copy)
    p0_u, w_law = reference_aux_laws(inst)
    pair = 2 * np.repeat(block, 2 * inst.n_uv) + np.tile(np.repeat([c1, c2], inst.n_uv), N)
    u_spins = rng.random(len(pair)) >= p0_u[pair]
    if inst.variant == "antiferro":
        opts = rng.choice(4, size=inst.n_ss, p=w_law[c1, c2])
        w_spins = np.stack([opts >> 1, opts & 1], axis=1).ravel()
    else:
        w_spins = rng.random(2 * inst.n_ss) >= w_law[c1, c2]
    spins = np.concatenate([block, [c1, c2], u_spins, w_spins])
    return tuple(spins.tolist())


def reference_sample_hidden_potts(inst, rng):
    """One exact hidden Potts draw, as a tuple of spins."""
    descriptors, _, _ = inst.hidden_class_table
    k = int(reference_sample_hidden_classes(inst, rng, 1)[0])
    sig_h, sig_k = descriptors[k]
    block = _reference_place_colors(inst.N, sig_k, rng)
    hpart = _reference_place_colors(inst.m, sig_h, rng)
    return tuple(np.concatenate([block, hpart]).tolist())


def _reference_place_colors(n, sig, rng):
    out = np.empty(n, dtype=np.int64)
    out[rng.permutation(n)] = np.repeat(np.arange(len(sig)), sig)
    return out


# -- reference mean-field sums -------------------------------------------------
# Per-signature sums over K_m's color-count signatures: the solver's ratio the
# way it was summed before the energy-level tables, and an fsum phase split.


def reference_log_ratio_g(m, q, beta_H):
    """log Z^M - log Z^D, one logsumexp over the signatures of each phase."""
    table = mf.signature_table(m, q)
    labels = mf.phase_classes(m, q).labels
    log_w = table.log_multi + float(beta_H) * table.mono_edges
    return float(logsumexp(log_w[labels == mf.PHASE_M])) - float(
        logsumexp(log_w[labels == mf.PHASE_D])
    )


def _fsum_log(log_w):
    if not log_w:
        return float("-inf")
    shift = max(log_w)
    return shift + math.log(math.fsum(math.exp(x - shift) for x in log_w))


def reference_phase_split(m, q, beta_H):
    """(log Z^M, log Z^D, log Z^S) of K_m, each an fsum of
    multinomial(m; s) * exp(beta_H * e(s)) over the phase's signatures."""
    table = mf.signature_table(m, q)
    labels = mf.classify_signatures(table.sigs, m, q).tolist()
    log_w = (table.log_multi + float(beta_H) * table.mono_edges).tolist()
    return tuple(
        _fsum_log([w for w, lab in zip(log_w, labels) if lab == phase])
        for phase in (mf.PHASE_M, mf.PHASE_D, mf.PHASE_S)
    )


# -- mean-field free-energy functional -----------------------------------------


def phi(alpha, beta_scaled):
    """Mean-field free-energy functional H(alpha) + (beta/2)*||alpha||_2^2 at
    a simplex point alpha."""
    if min(alpha) < -1e-12 or abs(math.fsum(alpha) - 1.0) > 1e-12:
        raise ValueError(f"not a simplex point: {alpha!r}")
    a = [min(max(x, 0.0), 1.0) for x in alpha]
    entropy = -math.fsum(x * math.log(x) for x in a if x > 0)
    return entropy + 0.5 * beta_scaled * math.fsum(x * x for x in a)


def psi1(x, beta_scaled, q):
    """phi restricted to the symmetric ray (x, y, ..., y), y = (1-x)/(q-1)."""
    y = (1.0 - x) / (q - 1)
    return phi([x] + [y] * (q - 1), beta_scaled)


# -- grouped sums --------------------------------------------------------------


def grouped_log_sums(index, log_values):
    """log of the summed exp(log_values) over the entries of each index
    0..max(index), by index: one fsum per group.  An index that no entry
    carries is a KeyError."""
    groups = {}
    for k, x in zip(index.tolist(), log_values.tolist()):
        groups.setdefault(k, []).append(x)
    return [_fsum_log(groups[k]) for k in range(max(groups) + 1)]
