import math

import numpy as np
import pytest
from scipy.special import logsumexp

from spinlab import meanfield, potts
from spinlab.errors import GuardViolation, InfeasibleParametersError, InvalidModelError
from spinlab.exact import ExactDistribution, decode_spins, partition_log, tv_collapsed
from spinlab.model import SpinSystem


def base_graph(N=3, beta=0.5, q=3):
    edges = tuple((i, (i + 1) % N, beta) for i in range(N))
    return SpinSystem(q=q, n=N, edges=edges, field=())


class TestConstruction:
    def test_testing_rate(self):
        assert potts.testing_rate(0.9, 2) == pytest.approx(96 / 0.9 * math.sqrt(2.8))

    def test_hidden_replaces_base_with_clique(self):
        G = base_graph()
        inst = potts.make_potts_instance(G, m=4, beta_cross=0.1, beta_H=0.8)
        assert inst.beta_K == pytest.approx(0.5 + 4 * math.log(3))
        n_block_edges = sum(
            1 for u, v, _ in inst.hidden.edges if u < G.n and v < G.n
        )
        assert n_block_edges == G.n * (G.n - 1) // 2

    def test_vertex_count(self):
        inst = potts.make_potts_instance(base_graph(), m=4, beta_cross=0.1, beta_H=0.8)
        assert inst.visible.n == 3 + 4

    def test_cross_edges_complete(self):
        inst = potts.make_potts_instance(base_graph(), m=4, beta_cross=0.1, beta_H=0.8)
        cross = [e for e in inst.visible.edges if (e[0] < 3) != (e[1] < 3)]
        assert len(cross) == 3 * 4
        assert all(b == pytest.approx(0.1) for _, _, b in cross)

    def test_rejects_field_and_nonferro(self):
        with pytest.raises(InvalidModelError):
            potts.make_potts_instance(
                SpinSystem(q=3, n=2, edges=((0, 1, -1.0),), field=()),
                m=3,
                beta_cross=0.1,
                beta_H=0.5,
            )
        with pytest.raises(InvalidModelError):
            potts.make_potts_instance(
                SpinSystem(q=3, n=2, edges=(), field=((0, 0, 1.0),)),
                m=3,
                beta_cross=0.1,
                beta_H=0.5,
            )


class TestCollapsedSpaces:
    @pytest.mark.parametrize("which", ["visible", "hidden"])
    def test_log_Z_matches_brute_force(self, which):
        inst = potts.make_potts_instance(base_graph(), m=4, beta_cross=0.2, beta_H=0.9)
        space = potts.collapsed_distribution_F(inst, which)
        model = inst.visible if which == "visible" else inst.hidden
        assert space.log_Z == pytest.approx(partition_log(model), rel=1e-12)

    def test_class_index_sums_full_configurations(self):
        inst = potts.make_potts_instance(base_graph(), m=4, beta_cross=0.2, beta_H=0.9)
        for model, space in zip((inst.visible, inst.hidden), inst.collapsed_pair):
            dist = ExactDistribution.from_model(model)
            spins = decode_spins(model, np.arange(len(dist.log_probs)))
            mass = np.bincount(
                inst.class_index(spins), weights=np.exp(dist.log_probs),
                minlength=space.layout.size,
            )
            assert np.abs(mass - np.exp(space.log_class_masses())).max() < 1e-12

    def test_hidden_class_table_total(self):
        inst = potts.make_potts_instance(base_graph(), m=4, beta_cross=0.2, beta_H=0.9)
        _, lc, lw = inst.hidden_class_table
        assert logsumexp(lc + lw) == pytest.approx(
            partition_log(inst.hidden), rel=1e-12
        )

    def test_hidden_class_table_descriptors(self):
        inst = potts.make_potts_instance(base_graph(), m=5, beta_cross=0.2, beta_H=0.9)
        descriptors, _, _ = inst.hidden_class_table
        sigs_h = meanfield.enumerate_signatures(5, 3)
        sigs_k = meanfield.enumerate_signatures(3, 3)
        assert descriptors == tuple(
            (tuple(int(x) for x in s), tuple(int(x) for x in t))
            for s in sigs_h
            for t in sigs_k
        )
        assert all(type(x) is int for d in descriptors[:5] for part in d for x in part)

    @pytest.mark.parametrize("m", [6, 90])
    def test_phase_partition_equals_label_masks(self, m):
        # same inputs to each logsumexp as masking the repeated signature labels
        inst = potts.make_potts_instance(base_graph(), m=m, beta_cross=0.2, beta_H=0.9 / m)
        space = potts.collapsed_distribution_F(inst, "visible")
        labels, _ = meanfield.classify_signatures(meanfield.enumerate_signatures(m, 3), m, 3)
        full = np.repeat(labels, 3**3)
        t = space.log_count + space.log_weight
        expected = tuple(
            float(logsumexp(t[full == lab])) if np.any(full == lab) else -math.inf
            for lab in (meanfield.PHASE_M, meanfield.PHASE_D, meanfield.PHASE_S)
        )
        assert potts.phase_partition_F(inst, "visible") == expected

    def test_phase_partition_identity(self):
        inst = potts.make_potts_instance(base_graph(), m=6, beta_cross=0.2, beta_H=0.9)
        zm, zd, zs = potts.phase_partition_F(inst, "visible")
        parts = [p for p in (zm, zd, zs) if p > -math.inf]
        assert logsumexp(parts) == pytest.approx(
            partition_log(inst.visible), rel=1e-12
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_space_total_raises(self):
        # beta_H = 1e306 overflows the class weights of the q=3 4-cycle
        P = SpinSystem(q=3, n=4, edges=tuple((v, (v + 1) % 4, 0.5) for v in range(4)), field=())
        inst = potts.make_potts_instance(P, 30, 0.05, 1e306)
        for which, space in zip(("visible", "hidden"), inst.collapsed_pair):
            with pytest.raises(InvalidModelError, match="non-finite log Z"):
                space.log_Z
            with pytest.raises(InvalidModelError, match="non-finite log Z"):
                potts.phase_partition_F(inst, which)

    def test_tv_zero_when_base_is_clique(self):
        # if G is already K_N with beta_K, visible == hidden
        q, N = 3, 3
        beta_K = 0.5 + 4 * math.log(q)
        G = SpinSystem(
            q=q,
            n=N,
            edges=tuple((i, j, beta_K) for i in range(N) for j in range(i + 1, N)),
            field=(),
        )
        inst = potts.make_potts_instance(G, m=4, beta_cross=0.2, beta_H=0.9)
        # hidden uses beta_K + 4 ln q; rebuild with matched couplings instead
        vis = potts.collapsed_distribution_F(inst, "visible")
        hid = potts.collapsed_distribution_F(inst, "hidden")
        assert tv_collapsed(vis, vis) == pytest.approx(0.0)
        assert tv_collapsed(vis, hid) > 0.0


class TestIntervalAndGuard:
    def test_interval_formula(self):
        m = 10_000
        lo, hi = potts.beta_interval(4, m, 3)
        alpha_pp = 2 / 3 - (1 / 3) / 2 - 2 * m**-0.25
        assert lo == pytest.approx(2 * math.log(3) / alpha_pp * 4 / m)
        assert hi == pytest.approx(0.05 / (4 * m**0.75))

    def test_interval_rejects_small_m(self):
        with pytest.raises(InfeasibleParametersError):
            potts.beta_interval(4, 100, 3)

    def test_interval_empty_at_desk_scale(self):
        G = base_graph(N=3)
        with pytest.raises((InfeasibleParametersError, GuardViolation)):
            potts.build_potts_instance(
                G, m=40, epsilon=0.9, L=2, log_Zhat=5.0, enforce_guard=False
            )

    def test_guard_bounds(self):
        G = base_graph(N=3, beta=0.5)
        r = 10.0
        lo, hi = potts.guard_bounds(G, r)
        assert lo == pytest.approx(math.log(10) + math.log(3) + 1.5)
        assert hi == pytest.approx(3 * math.log(3) + 1.5 - math.log(10))

    def test_guard_violation_suggests_answer(self):
        G = base_graph()
        with pytest.raises(GuardViolation) as exc:
            potts.build_potts_instance(G, m=5, epsilon=0.9, L=2, log_Zhat=-100.0)
        assert exc.value.suggested_answer == potts.ANSWER_HIGH
        with pytest.raises(GuardViolation) as exc:
            potts.build_potts_instance(G, m=5, epsilon=0.9, L=2, log_Zhat=+100.0)
        assert exc.value.suggested_answer == potts.ANSWER_LOW


class TestHiddenSampler:
    def test_class_frequencies(self):
        inst = potts.make_potts_instance(base_graph(), m=5, beta_cross=0.3, beta_H=1.0)
        rng = np.random.default_rng(5)
        _, lc, lw = inst.hidden_class_table
        p = np.exp(lc + lw - logsumexp(lc + lw))
        p /= p.sum()
        idx = inst.sample_hidden_classes(rng, 100_000)
        emp = np.bincount(idx, minlength=len(p)) / len(idx)
        assert 0.5 * np.abs(emp - p).sum() < 0.02

    def test_full_configuration_consistent_with_class(self):
        inst = potts.make_potts_instance(base_graph(), m=5, beta_cross=0.3, beta_H=1.0)
        rng = np.random.default_rng(6)
        for _ in range(50):
            cfg = potts.sample_hidden_potts(inst, rng)
            assert len(cfg.spins) == inst.hidden.n
            assert all(0 <= s < inst.q for s in cfg.spins)

    def test_seeded_reproducibility(self):
        inst = potts.make_potts_instance(base_graph(), m=5, beta_cross=0.3, beta_H=1.0)
        a = potts.sample_hidden_potts(inst, np.random.default_rng(42))
        b = potts.sample_hidden_potts(inst, np.random.default_rng(42))
        assert a.spins == b.spins


def looped_collapsed_F(inst, which):
    """The Potts collapsed space with its own base-q decode and per-edge
    weight loop, kept as a reference for the shared block routine."""
    model = inst.visible if which == "visible" else inst.hidden
    q, N = inst.q, inst.N
    table = meanfield.signature_table(inst.m, q)
    rem = np.arange(q**N, dtype=np.int64)
    spins = np.empty((q**N, N), dtype=np.int64)
    for v in range(N):
        spins[:, v] = rem % q
        rem //= q
    block_lw = np.zeros(q**N, dtype=float)
    for w in range(N):
        # vertex-major: w's edges to lower block vertices in edge order
        term = 0.0
        for u, v, b in model.edges:
            if v == w:
                term = term + b * (spins[:, u] == spins[:, v])
        block_lw += term
    counts = np.stack([(spins == c).sum(axis=1) for c in range(q)], axis=1).astype(float)
    cross = table.sigs.astype(float) @ counts.T
    log_weight = (
        float(inst.beta_H) * table.mono_edges[:, None]
        + block_lw[None, :]
        + inst.beta_cross * cross
    ).ravel()
    return np.repeat(table.log_multi, q**N), log_weight


@pytest.mark.parametrize("q, N, m", [(3, 3, 4), (3, 4, 30), (4, 3, 5), (5, 3, 6)])
def test_collapsed_space_equals_looped_reference(q, N, m):
    inst = potts.make_potts_instance(base_graph(N=N, q=q), m=m, beta_cross=0.2, beta_H=0.9 / m)
    for which, space in zip(("visible", "hidden"), inst.collapsed_pair):
        log_count, log_weight = looped_collapsed_F(inst, which)
        assert np.array_equal(space.log_count, log_count)
        assert np.array_equal(space.log_weight, log_weight)
        assert space.layout.size == len(log_weight)
