import math

import numpy as np
import pytest
from scipy.special import logsumexp

from spinlab import gadget as gd
from spinlab.errors import (
    InfeasibleParametersError,
    InvalidConfigurationError,
    InvalidModelError,
)
from spinlab.exact import ExactDistribution, partition_log, restricted_partition_multi, tv_exact
from spinlab.model import Configuration, SpinSystem, log_weight


def square_gadget_params():
    # b=2, p=2, d_in=1, d_out=1: deterministic single matching, all ports
    return gd.GadgetParams(b=2, p=2, d_in=1, d_out=1)


def tiny_blowup(q=2, beta=1.0, field=((0, 0, 0.4), (1, 0, 0.4)), seed=5):
    G = SpinSystem(q=q, n=2, edges=((0, 1, beta),), field=tuple(field))
    return gd.build_blowup(
        G, square_gadget_params(), beta_hat=1.0, rng=np.random.default_rng(seed)
    )


class TestParams:
    def test_low_degree_construction(self):
        p = gd.GadgetParams.low_degree(4, 3)
        assert (p.d_in, p.d_out, p.p) == (2, 1, 1)
        assert p.d == 3

    def test_high_degree_construction(self):
        p = gd.GadgetParams.high_degree(100, 10, rho=0.5)
        assert p.p == 100
        assert p.d_in == math.floor(gd.theta(0.5) * 10)
        assert p.d_in + p.d_out == 10

    def test_d_exceeding_b_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            gd.GadgetParams(b=2, p=1, d_in=2, d_out=1)

    def test_p_exceeding_b_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            gd.GadgetParams(b=2, p=3, d_in=1, d_out=0)

    def test_alpha_range(self):
        with pytest.raises(InvalidConfigurationError):
            gd.GadgetParams.low_degree(4, 3, alpha=0.3)


class TestTheta:
    def test_value_at_one(self):
        assert gd.theta(1.0) == pytest.approx(300.75 / 301.0)

    def test_limit_toward_zero(self):
        assert gd.theta(1e-9) == pytest.approx(1.0, abs=1e-9)

    def test_induced_inequality(self):
        assert gd.theta_inequality_holds(0.5, 2404)


class TestSampleGadget:
    def test_port_and_vertex_degree_bounds(self):
        params = gd.GadgetParams.low_degree(4, 3)
        rng = np.random.default_rng(0)
        for _ in range(1000):
            g = g_ = gd.sample_gadget(params, rng)
            assert g.degrees.max() <= params.d
            assert all(g.degrees[v] <= params.d_in for v in g.port_set)

    def test_pure_matching(self):
        params = gd.GadgetParams(b=5, p=1, d_in=1, d_out=0)
        g = gd.sample_gadget(params, np.random.default_rng(1))
        assert len(g.edges) == 5
        assert g.degrees.max() == 1

    def test_simple_graph(self):
        params = gd.GadgetParams.low_degree(6, 4)
        g = gd.sample_gadget(params, np.random.default_rng(2))
        assert len(set(g.edges)) == len(g.edges)

    def test_port_counts(self):
        params = gd.GadgetParams.low_degree(16, 3)  # p = 2
        g = gd.sample_gadget(params, np.random.default_rng(3))
        assert len(g.ports_L) == len(g.ports_R) == 2
        assert all(v < 16 for v in g.ports_L)
        assert all(16 <= v < 32 for v in g.ports_R)


class TestBuildBlowup:
    def test_ell_arithmetic(self):
        # |beta| = 2.5, beta_hat = 1 -> 3 cross edges per side-pair
        params = gd.GadgetParams(b=4, p=4, d_in=1, d_out=2)
        G = SpinSystem(q=2, n=2, edges=((0, 1, 2.5),), field=())
        inst = gd.build_blowup(G, params, beta_hat=1.0, rng=np.random.default_rng(0))
        cross = [e for e in inst.model.edges if e[0] // 8 != e[1] // 8]
        assert len(cross) == 2 * 3
        assert all(b == pytest.approx(2.5 / 6.0) for _, _, b in cross)

    def test_field_scaling(self):
        params = gd.GadgetParams(b=5, p=5, d_in=1, d_out=1)
        G = SpinSystem(q=2, n=2, edges=((0, 1, 1.0),), field=((0, 1, 1.0),))
        inst = gd.build_blowup(G, params, beta_hat=1.0, rng=np.random.default_rng(0))
        entries = [(v, s, h) for v, s, h in inst.model.field]
        assert len(entries) == 10  # every vertex of gadget B_0
        assert all(v < 10 and s == 1 and h == pytest.approx(0.1) for v, s, h in entries)

    def test_bipartite_even_for_triangle_base(self):
        params = gd.GadgetParams(b=4, p=4, d_in=1, d_out=2)
        G = SpinSystem(
            q=2, n=3, edges=((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)), field=()
        )
        inst = gd.build_blowup(G, params, beta_hat=1.0, rng=np.random.default_rng(1))
        left, right = inst.model.bipartition
        left, right = set(left), set(right)
        for u, v, _ in inst.model.edges:
            assert (u in left) != (v in left)

    def test_degree_bound_and_ferromagnetism(self):
        params = gd.GadgetParams(b=4, p=4, d_in=1, d_out=2)
        G = SpinSystem(q=2, n=3, edges=((0, 1, 0.9), (1, 2, 0.4)), field=())
        inst = gd.build_blowup(G, params, beta_hat=1.0, rng=np.random.default_rng(2))
        assert inst.model.degrees.max() <= params.d
        assert all(b > 0 for _, _, b in inst.model.edges)

    def test_capacity_violation_reported(self):
        params = gd.GadgetParams(b=2, p=1, d_in=1, d_out=1)
        G = SpinSystem(q=2, n=3, edges=((0, 1, 1.0), (0, 2, 1.0)), field=())
        with pytest.raises(InfeasibleParametersError):
            gd.build_blowup(G, params, beta_hat=1.0, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("beta_hat", [0.0, -1.0, math.inf, math.nan])
    def test_bad_beta_hat_rejected(self, beta_hat):
        G = SpinSystem(q=2, n=2, edges=((0, 1, 1.0),), field=())
        with pytest.raises(InvalidConfigurationError):
            gd.GadgetParams.auto(4, 3, G, beta_hat)
        with pytest.raises(InvalidConfigurationError):
            gd.build_blowup(G, square_gadget_params(), beta_hat, np.random.default_rng(0))

    def test_unrestricted_field_rejected(self):
        params = square_gadget_params()
        G = SpinSystem(q=2, n=2, edges=((0, 1, 1.0),), field=((0, 0, 0.5), (0, 1, 0.2)))
        with pytest.raises(InvalidModelError):
            gd.build_blowup(G, params, beta_hat=1.0, rng=np.random.default_rng(0))

    def test_gadget_map(self):
        inst = tiny_blowup()
        gm = inst.gadget_map()
        assert len(gm) == inst.model.n
        assert gm[0]["base_vertex"] == 0 and gm[0]["side"] == "L"
        assert gm[inst.model.n - 1]["base_vertex"] == 1


class TestProjectLift:
    def test_round_trip(self):
        inst = tiny_blowup()
        for sg in ((0, 0), (0, 1), (1, 0), (1, 1)):
            assert gd.project_good(inst, gd.lift_sample(inst, sg)).spins == sg

    def test_all_ones(self):
        inst = tiny_blowup()
        sigma = (1,) * inst.model.n
        assert gd.project_good(inst, sigma).spins == (1, 1)

    def test_one_flip_rejected(self):
        inst = tiny_blowup()
        sigma = list(gd.lift_sample(inst, (0, 0)).spins)
        sigma[1] = 1
        assert gd.project_good(inst, tuple(sigma)) is None


class TestWeightAndConditionalIdentities:
    @pytest.mark.parametrize("q,beta", [(2, 1.0), (3, -0.7)])
    def test_weight_identity(self, q, beta):
        field = tuple((v, 0, 0.4) for v in range(2))
        G = SpinSystem(q=q, n=2, edges=((0, 1, beta),), field=field)
        inst = gd.build_blowup(
            G, square_gadget_params(), beta_hat=1.0, rng=np.random.default_rng(7)
        )
        ident = 1.0 * 1 * 2 * 2  # beta_B * d_in * b * n
        for sg in ((0, 0), (0, q - 1), (q - 1, 0)):
            lw_lift = log_weight(inst.model, gd.lift_sample(inst, sg))
            lw_base = log_weight(G, Configuration(sg))
            assert lw_lift == pytest.approx(lw_base + ident, rel=1e-12)

    @pytest.mark.parametrize("q,beta", [(2, 1.0), (3, -0.7)])
    def test_conditional_equality(self, q, beta):
        G = SpinSystem(q=q, n=2, edges=((0, 1, beta),), field=())
        inst = gd.build_blowup(
            G, square_gadget_params(), beta_hat=1.0, rng=np.random.default_rng(8)
        )
        dist = ExactDistribution.from_model(inst.model)
        probs = np.exp(dist.log_probs)
        mass = {}
        for idx in range(q**inst.model.n):
            sg = gd.project_good(inst, dist.configuration(idx))
            if sg is not None:
                mass[sg.spins] = mass.get(sg.spins, 0.0) + probs[idx]
        total = sum(mass.values())
        log_ZG = partition_log(G)
        for sg, m in mass.items():
            expected = math.exp(log_weight(G, Configuration(sg)) - log_ZG)
            assert m / total == pytest.approx(expected, rel=1e-10)

    def test_omega_good_mass_increases_with_beta_B(self):
        masses = []
        for beta_hat in (0.5, 1.0, 2.0):
            G = SpinSystem(q=2, n=2, edges=((0, 1, 0.4),), field=())
            inst = gd.build_blowup(
                G, square_gadget_params(), beta_hat=beta_hat,
                rng=np.random.default_rng(3),
            )
            masses.append(gd.omega_good_log_mass(inst))
        assert masses[0] < masses[1] < masses[2]

    def test_omega_good_mass_is_a_log_probability(self):
        # the identity is clamped against rounding: never above log 1
        instances = [tiny_blowup(), tiny_blowup(q=3, beta=-0.7, seed=8)]
        for beta_hat, seed in ((0.5, 3), (1.0, 3), (2.0, 3), (1.0, 4)):
            for beta in (0.4, 1.0, -0.8):
                G = SpinSystem(q=2, n=2, edges=((0, 1, beta),), field=())
                instances.append(gd.build_blowup(
                    G, square_gadget_params(), beta_hat=beta_hat,
                    rng=np.random.default_rng(seed),
                ))
        for inst in instances:
            assert gd.omega_good_log_mass(inst) <= 0.0

    def test_omega_good_identity_matches_enumeration(self):
        # the lift identity against the enumerated monochromatic-block sum
        def enumerated(inst):
            two_b = 2 * inst.b

            def good(spins):
                ok = np.ones(len(spins), dtype=bool)
                for v in range(inst.base.n):
                    block = spins[:, v * two_b : (v + 1) * two_b]
                    ok &= np.all(block == block[:, [0]], axis=1)
                return ok

            log_good, log_bad = restricted_partition_multi(
                inst.model, [good, lambda spins: ~good(spins)]
            )
            return log_good - float(logsumexp([log_good, log_bad]))

        instances = [tiny_blowup(), tiny_blowup(q=3, beta=-0.7, seed=8)]
        for beta_hat, seed in ((0.5, 3), (1.0, 3), (2.0, 3), (1.0, 4)):
            for beta in (0.4, 1.0, -0.8):
                G = SpinSystem(q=2, n=2, edges=((0, 1, beta),), field=())
                instances.append(gd.build_blowup(
                    G, square_gadget_params(), beta_hat=beta_hat,
                    rng=np.random.default_rng(seed),
                ))
        G = SpinSystem(q=2, n=2, edges=((0, 1, 1.3),), field=((1, 1, 0.3),))
        instances.append(gd.build_blowup(  # b=4, n=16
            G, gd.GadgetParams(b=4, p=4, d_in=1, d_out=2), beta_hat=1.0,
            rng=np.random.default_rng(6),
        ))
        assert instances[-1].model.n == 16
        for inst in instances:
            expected = enumerated(inst)
            assert abs(gd.omega_good_log_mass(inst) - expected) <= 1e-12 * abs(expected)

    def test_tv_sandwich(self):
        # |TV(blowup(G), blowup(G*)) - TV(G, G*)| <= 2 delta, delta exact
        params = square_gadget_params()
        G = SpinSystem(q=2, n=2, edges=((0, 1, 1.0),), field=())
        G_star = SpinSystem(q=2, n=2, edges=((0, 1, -0.8),), field=())
        inst = gd.build_blowup(G, params, beta_hat=1.0, rng=np.random.default_rng(4))
        inst_star = gd.build_blowup(
            G_star, params, beta_hat=1.0, rng=np.random.default_rng(4)
        )
        tv_base = tv_exact(G, G_star)
        tv_blown = tv_exact(inst.model, inst_star.model)
        delta = max(
            1.0 - math.exp(gd.omega_good_log_mass(inst)),
            1.0 - math.exp(gd.omega_good_log_mass(inst_star)),
        )
        assert abs(tv_blown - tv_base) <= 2.0 * delta + 1e-12


class TestGroundStateMass:
    def test_uniform_case(self):
        g = gd.sample_gadget(gd.GadgetParams.low_degree(4, 3), np.random.default_rng(9))
        model = gd.gadget_in_context(g, 2, beta_B=0.0, tau=(0, 0))
        assert gd.ground_state_mass(model) == pytest.approx(2.0 ** (1 - 8), rel=1e-12)

    def test_monotone_in_beta_B(self):
        g = gd.sample_gadget(gd.GadgetParams.low_degree(4, 3), np.random.default_rng(9))
        ms = [
            gd.ground_state_mass(gd.gadget_in_context(g, 2, beta_B=b, tau=(0, 1)))
            for b in (1.0, 2.0, 4.0)
        ]
        assert ms[0] < ms[1] < ms[2]

    @pytest.mark.parametrize("q", [2, 3])
    def test_matches_materialised_distribution(self, q):
        def via_distribution(model):
            dist = ExactDistribution.from_model(model)
            n = model.n
            total = sum(
                math.exp(dist.log_probs[c * (q**n - 1) // (q - 1)]) for c in range(q)
            )
            return min(total, 1.0)

        rng = np.random.default_rng(q)
        g = gd.sample_gadget(gd.GadgetParams.low_degree(4, 3), rng)
        tau = tuple(int(t) for t in rng.integers(q, size=2 * g.params.p * g.params.d_out))
        models = [gd.gadget_in_context(g, q, beta_B=b, tau=tau) for b in (0.3, 1.5)]
        models.append(SpinSystem(
            q=q, n=5,
            edges=tuple((i, (i + 1) % 5, float(rng.normal(0.5, 0.4))) for i in range(5)),
            field=((0, q - 1, 0.7), (3, 0, -0.2)),
        ))
        for model in models:
            assert abs(gd.ground_state_mass(model) - via_distribution(model)) <= 1e-12

    def test_negative_beta_B_rejected(self):
        g = gd.sample_gadget(gd.GadgetParams.low_degree(4, 3), np.random.default_rng(9))
        with pytest.raises(InvalidConfigurationError):
            gd.gadget_in_context(g, 2, beta_B=-1.0, tau=(0, 0))

    def test_tau_validation(self):
        g = gd.sample_gadget(gd.GadgetParams.low_degree(4, 3), np.random.default_rng(9))
        with pytest.raises(InvalidConfigurationError):
            gd.gadget_in_context(g, 2, beta_B=1.0, tau=(0,))
        with pytest.raises(InvalidConfigurationError):
            gd.gadget_in_context(g, 2, beta_B=1.0, tau=(0, 2))
