import math

import networkx as nx
import numpy as np
import pytest
from scipy.special import logsumexp

from spinlab import counting, hubs
from spinlab.errors import InvalidModelError, TargetUnreachableError
from spinlab.exact import (
    ExactDistribution,
    decode_spins,
    partition_log,
    restricted_partition_multi,
    tv_collapsed,
    tv_exact,
)
from spinlab.model import SpinSystem
from spinlab.potts import testing_rate as _testing_rate
from naive_oracle import grouped_log_sums


def antiferro_base(N=2, beta=-0.6):
    if N == 2:
        edges = ((0, 1, beta),)
    else:
        g = nx.random_regular_graph(3, N, seed=0)
        edges = tuple((u, v, beta) for u, v in g.edges())
    return SpinSystem(q=2, n=N, edges=edges, field=())


def ferro_base(N=2, beta=0.8, h=0.5):
    edges = tuple((i, (i + 1) % N, beta) for i in range(N)) if N > 2 else ((0, 1, beta),)
    field = tuple((v, v % 2, h) for v in range(N))
    return SpinSystem(q=2, n=N, edges=edges, field=field)


def n_levels(inst):
    """The number of base levels; collapsed class k has outer class
    k // n_levels."""
    return len(inst.levels[0])


def small_instance(variant, n_uv=2, n_ss=4, beta1=1.1, beta2=0.7):
    G = antiferro_base() if variant == hubs.VARIANT_ANTIFERRO else ferro_base()
    return hubs.build_hub_instance(
        G,
        variant,
        epsilon=0.9,
        L=2,
        log_Zhat=0.0,
        beta1=beta1,
        beta2=beta2,
        n_uv=n_uv,
        n_ss=n_ss,
        enforce_guard=False,
        strict_family=False,
    )


class TestConstruction:
    def test_vertex_count_formula(self):
        # n = 4N^2 + N + 2 with the default multiplicities
        G = antiferro_base(N=4)
        inst = hubs.build_hub_instance(
            G, hubs.VARIANT_ANTIFERRO, 0.9, 2, math.log(2**4) ,
            beta1=3.0, beta2=1.0, enforce_guard=False, strict_family=False,
        )
        assert inst.visible.n == 4 * 16 + 4 + 2 == 70

    def test_antiferro_all_couplings_negative(self):
        inst = small_instance(hubs.VARIANT_ANTIFERRO)
        assert all(b < 0 for _, _, b in inst.visible.edges)

    def test_ferro_beta_K(self):
        inst = small_instance(hubs.VARIANT_FERRO)
        assert inst.beta_K == pytest.approx(0.8 + 4 * math.log(2))
        block = [b for u, v, b in inst.hidden.edges if u < 2 and v < 2]
        assert block == [pytest.approx(inst.beta_K)]

    def test_antiferro_hidden_block_is_independent_set(self):
        inst = small_instance(hubs.VARIANT_ANTIFERRO)
        assert not [e for e in inst.hidden.edges if e[0] < 2 and e[1] < 2]

    def test_ferro_h_equals_beta2(self):
        inst = small_instance(hubs.VARIANT_FERRO)
        assert inst.h == inst.beta2

    def test_strict_family_rejects_non_cubic(self):
        with pytest.raises(InvalidModelError):
            hubs.build_hub_instance(
                antiferro_base(N=2), hubs.VARIANT_ANTIFERRO, 0.9, 2, 0.0,
                beta1=3.0, beta2=1.0, enforce_guard=False, strict_family=True,
            )

    def test_variant_family_validation(self):
        with pytest.raises(InvalidModelError):
            hubs.build_hub_instance(
                ferro_base(), hubs.VARIANT_ANTIFERRO, 0.9, 2, 0.0,
                beta1=3.0, beta2=1.0, enforce_guard=False, strict_family=False,
            )
        with pytest.raises(InvalidModelError):
            hubs.build_hub_instance(
                antiferro_base(), hubs.VARIANT_FERRO, 0.9, 2, 0.0,
                beta1=3.0, beta2=1.0, enforce_guard=False, strict_family=False,
            )


class TestClosedForms:
    @pytest.mark.parametrize("variant", [hubs.VARIANT_ANTIFERRO, hubs.VARIANT_FERRO])
    @pytest.mark.parametrize("which", ["visible", "hidden"])
    def test_against_restricted_sums(self, variant, which):
        inst = small_instance(variant)
        model = inst.visible if which == "visible" else inst.hidden
        s1, s2, N = inst.s1, inst.s2, inst.N

        def pred_d(spins):
            return spins[:, s1] != spins[:, s2]

        def pred_m0(spins):
            eq = spins[:, s1] == spins[:, s2]
            mono = np.all(spins[:, :N] == spins[:, [s1]], axis=1)
            return eq & mono

        zd_bf, zm0_bf = restricted_partition_multi(model, [pred_d, pred_m0])
        zd, zm0 = hubs.closed_form_phase(inst, which)
        assert zd == pytest.approx(zd_bf, rel=1e-11)
        assert zm0 == pytest.approx(zm0_bf, rel=1e-11)

    @pytest.mark.parametrize("which", ["visible", "hidden"])
    def test_ferro_unequal_colour_field_sums(self, which):
        # field spins (0, 0, 1) put 2h on colour 0 and h on colour 1, so the
        # two monochromatic base weights of Z^{M0} differ
        G = SpinSystem(q=2, n=3, edges=((0, 1, 0.8), (1, 2, 0.8)),
                       field=((0, 0, 0.5), (1, 0, 0.5), (2, 1, 0.5)))
        inst = hubs.build_hub_instance(
            G, hubs.VARIANT_FERRO, 0.9, 2, 0.0, beta1=1.1, beta2=0.7, n_uv=1, n_ss=2,
            enforce_guard=False, strict_family=False,
        )
        model = inst.model(which)
        assert model.n == 15
        s1, s2, N = inst.s1, inst.s2, inst.N
        zd_bf, zm0_bf = restricted_partition_multi(model, [
            lambda spins: spins[:, s1] != spins[:, s2],
            lambda spins: (spins[:, s1] == spins[:, s2])
            & np.all(spins[:, :N] == spins[:, [s1]], axis=1),
        ])
        zd, zm0 = hubs.closed_form_phase(inst, which)
        assert zd == pytest.approx(zd_bf, rel=1e-11)
        assert zm0 == pytest.approx(zm0_bf, rel=1e-11)

    def test_hidden_ratio_identity_antiferro(self):
        # Z*^D / Z*^{M0} = (g(beta2)/cosh beta1)^{n_ss} * 2^N
        inst = small_instance(hubs.VARIANT_ANTIFERRO)
        zd, zm0 = hubs.closed_form_phase(inst, "hidden")
        expected = inst.n_ss * (
            math.log(hubs.g_antiferro(inst.beta2)) - math.log(math.cosh(inst.beta1))
        ) + inst.N * math.log(2.0)
        assert zd - zm0 == pytest.approx(expected, rel=1e-11)

    def test_g_function(self):
        assert hubs.g_antiferro(0.0) == pytest.approx(1.0)
        xs = np.linspace(0.0, 6.0, 30)
        vals = [hubs.g_antiferro(x) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestCollapsedSpaces:
    @pytest.mark.parametrize("variant", [hubs.VARIANT_ANTIFERRO, hubs.VARIANT_FERRO])
    def test_log_Z_matches_brute_force(self, variant):
        inst = small_instance(variant, n_uv=1, n_ss=1)
        for which in ("visible", "hidden"):
            model = inst.visible if which == "visible" else inst.hidden
            space = hubs.collapsed_distribution_hub(inst, which)
            assert space.log_Z == pytest.approx(partition_log(model), rel=1e-12)

    @pytest.mark.parametrize("variant", [hubs.VARIANT_ANTIFERRO, hubs.VARIANT_FERRO])
    def test_tv_collapsed_equals_tv_exact(self, variant):
        inst = small_instance(variant, n_uv=1, n_ss=1)
        tvc = tv_collapsed(
            hubs.collapsed_distribution_hub(inst, "visible"),
            hubs.collapsed_distribution_hub(inst, "hidden"),
        )
        assert tvc == pytest.approx(tv_exact(inst.visible, inst.hidden), abs=1e-12)

    @pytest.mark.parametrize("variant", [hubs.VARIANT_ANTIFERRO, hubs.VARIANT_FERRO])
    def test_class_index_sums_full_configurations(self, variant):
        inst = small_instance(variant, n_uv=1, n_ss=1)
        for model, space in zip((inst.visible, inst.hidden), inst.collapsed_pair):
            dist = ExactDistribution.from_model(model)
            spins = decode_spins(model, np.arange(len(dist.log_probs)))
            mass = np.bincount(
                inst.class_index(spins), weights=np.exp(dist.log_probs),
                minlength=len(space.log_weight),
            )
            assert np.abs(mass - np.exp(space.log_class_masses())).max() < 1e-12

    def test_partition_identity_ZM_plus_ZD(self):
        inst = small_instance(hubs.VARIANT_ANTIFERRO)
        space = hubs.collapsed_distribution_hub(inst, "visible")
        hubs_code = np.arange(len(space.log_weight)) // n_levels(inst)
        c1, c2 = hubs_code >> 1, hubs_code & 1
        lws = space.log_count + space.log_weight
        total = logsumexp([logsumexp(lws[c1 == c2]), logsumexp(lws[c1 != c2])])
        assert total == pytest.approx(space.log_Z, rel=1e-12)

    def test_claim_M0_approximates_M(self):
        # Z^{M0} >= (1 - e^{-2N}) Z^M at N=6, beta1=3
        G = antiferro_base(N=6)
        inst = hubs.build_hub_instance(
            G, hubs.VARIANT_ANTIFERRO, 0.9, 2, 6 * math.log(2) - 3.0,
            enforce_guard=False, strict_family=False,
        )
        space = hubs.collapsed_distribution_hub(inst, "visible")
        hubs_code = np.arange(len(space.log_weight)) // n_levels(inst)
        c1, c2 = hubs_code >> 1, hubs_code & 1
        lws = space.log_count + space.log_weight
        log_zm = logsumexp(lws[c1 == c2])
        _, log_zm0 = hubs.closed_form_phase(inst, "visible")
        assert log_zm0 >= math.log(1 - math.exp(-2 * 6)) + log_zm
        assert log_zm0 <= log_zm + 1e-12


class TestSolvers:
    def test_antiferro_window_and_bound(self):
        N, eps, L = 12, 0.9, 2
        r = _testing_rate(eps, L)
        log_Zhat = N * math.log(2) - math.log(r) - 1.0
        b2 = hubs.solve_beta2_antiferro(3.0, N * N, log_Zhat, -0.9 * N, eps, L)
        assert 0.0 < b2 < 3.0 + 2.0
        val = N * N * (math.log(hubs.g_antiferro(b2)) - math.log(math.cosh(3.0)))
        hi = -0.5 * math.log(eps * L + 1) - 0.9 * N - log_Zhat
        assert hi - math.log(2) <= val <= hi

    def test_ferro_window_and_bound(self):
        N, eps, L = 12, 0.9, 2
        G = ferro_base(N=N)
        log_mono = hubs.log_Zmono_of(G)
        beta1 = 0.5 * (0.8 + 0.5 + 5.0)
        log_Zhat = log_mono + 5.0
        b2 = hubs.solve_beta2_ferro(beta1, N * N, log_Zhat, log_mono, eps, L)
        assert 0.0 < b2 < beta1
        val = N * N * (math.log(math.cosh(b2)) - math.log(math.cosh(beta1)))
        hi = -math.log(2) - 0.5 * math.log(eps * L + 1) + log_mono - log_Zhat
        assert hi - math.log(1.5) <= val <= hi

    def test_unreachable_target(self):
        with pytest.raises(TargetUnreachableError):
            hubs.solve_beta2_antiferro(3.0, 4 * 4, -1000.0, -0.9 * 4, 0.9, 2)


class TestDichotomy:
    def test_tv_separation_at_N12(self):
        N, eps, L = 12, 0.9, 2
        r = _testing_rate(eps, L)
        G = antiferro_base(N=N)
        log_ZG = partition_log(G)
        for log_Zhat, check in (
            (math.log(r) + log_ZG + 1.0, lambda tv: tv <= 1.0 / (16 * L)),
            (log_ZG - math.log(r) - 1.0, lambda tv: tv >= 1.0 - eps),
        ):
            inst = hubs.build_hub_instance(
                G, hubs.VARIANT_ANTIFERRO, eps, L, log_Zhat, enforce_guard=False
            )
            tv = tv_collapsed(
                hubs.collapsed_distribution_hub(inst, "visible"),
                hubs.collapsed_distribution_hub(inst, "hidden"),
            )
            assert check(tv)


class TestHiddenSampler:
    @pytest.mark.parametrize("variant", [hubs.VARIANT_ANTIFERRO, hubs.VARIANT_FERRO])
    def test_class_frequencies(self, variant):
        inst = small_instance(variant)
        _, lc, lw = inst.hidden_class_table
        p = np.exp(lc + lw - logsumexp(lc + lw))
        p /= p.sum()
        idx = inst.sample_hidden_classes(np.random.default_rng(3), 100_000)
        emp = np.bincount(idx, minlength=len(p)) / len(idx)
        assert 0.5 * np.abs(emp - p).sum() < 0.02

    @pytest.mark.parametrize("variant", [hubs.VARIANT_ANTIFERRO, hubs.VARIANT_FERRO])
    def test_full_configuration_distribution(self, variant):
        # tiny instance: empirical full-configuration TV vs exact
        from spinlab.exact import ExactDistribution

        inst = small_instance(variant, n_uv=1, n_ss=1)
        dist = ExactDistribution.from_model(inst.hidden)
        p = np.exp(dist.log_probs)
        rng = np.random.default_rng(11)
        counts = np.zeros(len(p))
        draws = 60_000
        for _ in range(draws):
            cfg = hubs.sample_hidden_hub(inst, rng)
            idx = sum(s << i for i, s in enumerate(cfg.spins))
            counts[idx] += 1
        emp = counts / draws
        assert 0.5 * np.abs(emp - p).sum() < 0.05

    def test_seeded_reproducibility(self):
        inst = small_instance(hubs.VARIANT_ANTIFERRO)
        a = hubs.sample_hidden_hub(inst, np.random.default_rng(9))
        b = hubs.sample_hidden_hub(inst, np.random.default_rng(9))
        assert a.spins == b.spins


def looped_collapsed_hub(inst, which):
    """The hub collapsed space with one class per (c1, c2, base state), with
    its own bit decode and per-edge weight loop, kept as a reference for the
    level collapse."""
    base = inst.base_block(which)
    N = inst.N
    idx = np.arange(1 << N, dtype=np.int64)
    spins = ((idx[:, None] >> np.arange(N)[None, :]) & 1).astype(np.int8)
    block_lw = np.zeros(1 << N, dtype=float)
    for w in range(N):
        # vertex-major: w's field, then its edges to lower vertices in edge order
        term = base.field_array[w][spins[:, w]] if base.field else 0.0
        for u, v, b in base.edges:
            if v == w:
                term = term + b * (spins[:, u] == spins[:, v])
        block_lw += term
    same_u, diff_u = hubs._u_factors(inst.variant, inst.beta1, inst.n_uv)
    parts = []
    for c1 in (0, 1):
        for c2 in (0, 1):
            k1 = (spins == c1).sum(axis=1)
            k2 = (spins == c2).sum(axis=1)
            ufac = (k1 + k2) * same_u + (2 * N - k1 - k2) * diff_u
            if inst.variant == hubs.VARIANT_ANTIFERRO:
                wfac = inst.n_ss * hubs._w_factor_antiferro(inst.beta2, same_hubs=(c1 == c2))
            else:
                wfac = inst.n_ss * hubs._w_factor_ferro(inst.beta2, inst.h, c1, c2)
            parts.append(block_lw + ufac + wfac)
    return np.concatenate(parts)


@pytest.mark.parametrize("variant", [hubs.VARIANT_ANTIFERRO, hubs.VARIANT_FERRO])
@pytest.mark.parametrize("N", [2, 6, 12])
def test_collapsed_space_equals_looped_reference(variant, N):
    G = antiferro_base(N=N) if variant == hubs.VARIANT_ANTIFERRO else ferro_base(N=N)
    inst = hubs.build_hub_instance(
        G, variant, epsilon=0.9, L=2, log_Zhat=0.0, beta1=1.1, beta2=0.7,
        enforce_guard=False, strict_family=False,
    )
    # the reference's rows, in its (c1, c2, base state) order
    idx = np.arange(1 << N, dtype=np.int64)
    base = (idx[:, None] >> np.arange(N)[None, :]) & 1
    rows = np.concatenate([
        np.column_stack([base, np.full(1 << N, c1), np.full(1 << N, c2)])
        for c1 in (0, 1) for c2 in (0, 1)
    ])
    classes = inst.class_index(rows)
    assert len(inst.collapsed_pair[0].log_weight) == 4 * n_levels(inst)
    for which, space in zip(("visible", "hidden"), inst.collapsed_pair):
        ref_count = grouped_log_sums(classes, np.zeros(4 << N))
        ref_mass = grouped_log_sums(classes, looped_collapsed_hub(inst, which))
        assert np.abs(space.log_count - ref_count).max() <= 1e-12
        assert np.abs(space.log_count + space.log_weight - ref_mass).max() <= 1e-12


def test_oracle_reduction_at_N16():
    """Both branches of an oracle-TV reduction on a cubic N=16 base (4 * 2^16
    base states per side, collapsed onto levels) answer correctly."""
    N, eps, L = 16, 0.9, 2
    G = antiferro_base(N=N)
    r = _testing_rate(eps, L)
    log_ZG = partition_log(G)

    def build(G, log_Zhat):
        return hubs.build_hub_instance(G, hubs.VARIANT_ANTIFERRO, eps, L, log_Zhat,
                                       enforce_guard=False)

    reports = counting.run_reduction_trials(
        G, build, hubs.sample_hidden_hub, counting.oracle_tv_tester(eps, L), L,
        branches=[("low", math.log(r) + log_ZG + 1.0, counting.ANSWER_LOW),
                  ("high", log_ZG - math.log(r) - 1.0, counting.ANSWER_HIGH)],
        seeds=[0], r=r,
    )
    assert [rep["correct"] for rep in reports] == [True, True]
    assert reports[0]["tv_exact"] <= 1.0 / (16 * L)
    assert reports[1]["tv_exact"] >= 1.0 - eps
