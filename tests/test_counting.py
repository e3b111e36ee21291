import hashlib
import math
import pickle

import networkx as nx
import numpy as np
import pytest
from scipy.special import logsumexp

from naive_oracle import (
    random_model,
    reference_class_probs,
    reference_sample_hidden_hub,
    reference_sample_hidden_potts,
)
from spinlab import counting as ct, hubs, meanfield, potts
from spinlab.errors import GuardViolation, InvalidConfigurationError, InvalidModelError
from spinlab.exact import ExactDistribution, IndexSampler, decode_spins, partition_log
from spinlab.model import Configuration, SpinSystem
from spinlab.potts import ANSWER_HIGH, ANSWER_LOW, testing_rate as _rate


def cubic_antiferro(N, seed):
    g = nx.random_regular_graph(3, N, seed=seed)
    return SpinSystem(q=2, n=N, edges=tuple((u, v, -0.6) for u, v in g.edges()), field=())


def exact_comparator(model):
    """Decider answering 'high' iff the true Z is at least the query value."""
    log_Z = partition_log(model)

    def decider(log_Zhat, rng):
        return ANSWER_HIGH if log_Z >= log_Zhat else ANSWER_LOW

    return decider, log_Z


class TestQueryAndOutcome:
    def test_rate_must_exceed_one(self):
        with pytest.raises(InvalidConfigurationError):
            ct.DecisionQuery(log_Zhat=0.0, r=1.0)

    def test_outcome_validation(self):
        with pytest.raises(InvalidConfigurationError):
            ct.CountingOutcome(answer="maybe", provenance=ct.PROVENANCE_TESTER)


class TestBoostedDecider:
    def test_copies_is_odd(self):
        for n, r, c1 in ((10, 10.0, 1.0), (50, 2.0, 3.0), (4, 1e6, 0.1)):
            assert ct.boosted_copies(n, r, c1) % 2 == 1

    def test_perfect_base_stays_perfect(self):
        boosted = ct.boosted_decider(lambda z, rng: ANSWER_HIGH, 10, 10.0, 1.0)
        assert boosted(0.0, np.random.default_rng(0)) == ANSWER_HIGH

    def test_error_three_eighths_base(self):
        # base decider wrong with probability exactly 3/8; boosted error must
        # fall below the Chernoff target 1/(8 ln(4 c1 n^2 + 4 ln r))
        n, r, c1 = 10, 10.0, 1.0
        target = 1.0 / (8.0 * math.log(4 * c1 * n * n + 4 * math.log(r)))
        rng = np.random.default_rng(123)

        def noisy(log_Zhat, rng_):
            return ANSWER_HIGH if rng_.random() >= 3.0 / 8.0 else ANSWER_LOW

        boosted = ct.boosted_decider(noisy, n, r, c1)
        trials = 2000
        wrong = sum(boosted(0.0, rng) != ANSWER_HIGH for _ in range(trials))
        assert wrong / trials <= target


class TestBisectionCounter:
    @pytest.mark.parametrize("seed", range(5))
    def test_two_r_approximation(self, seed):
        G = cubic_antiferro(10, seed)
        decider, log_Z = exact_comparator(G)
        c1 = ct.crude_exponent(G)
        r = 10.0
        est = ct.bisection_counter(decider, 10, c1, r, np.random.default_rng(0))
        assert est - math.log(r) < log_Z < est + math.log(2 * r)

    def test_degenerate_rate_outputs_one(self):
        assert ct.bisection_counter(None, 2, 0.1, math.e, np.random.default_rng(0)) == 0.0

    def test_iteration_bound(self):
        calls = []
        G = cubic_antiferro(10, 0)
        decider, _ = exact_comparator(G)

        def counting_decider(z, rng):
            calls.append(z)
            return decider(z, rng)

        c1 = ct.crude_exponent(G)
        ct.bisection_counter(counting_decider, 10, c1, 10.0, np.random.default_rng(0))
        assert len(calls) <= ct.bisection_iteration_bound(10, c1, 10.0)


class TestCrudeBounds:
    def test_edgeless_zero_field(self):
        m = SpinSystem(q=3, n=5, edges=(), field=())
        lo, hi = ct.crude_bounds(m)
        assert lo == pytest.approx(5 * math.log(3))
        assert hi == pytest.approx(5 * math.log(3))

    def test_contains_Z_random_models(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            q, n, edges, field = random_model(rng, n_max=8)
            m = SpinSystem(q=q, n=n, edges=edges, field=field)
            lo, hi = ct.crude_bounds(m)
            log_Z = partition_log(m)
            assert lo - 1e-9 <= log_Z <= hi + 1e-9

    def test_ferro_specialized_bracket(self):
        m = SpinSystem(q=3, n=6, edges=((0, 1, 0.5), (2, 3, 0.7)), field=())
        lo, hi = ct.crude_bounds(m)
        assert lo >= math.log(3) + 1.2 - 1e-12
        assert hi <= 6 * math.log(3) + 1.2 + 1e-12
        assert lo <= partition_log(m) <= hi

    @pytest.mark.parametrize("N", [8, 10, 12])
    def test_antiferro_specialized_bracket(self, N):
        m = cubic_antiferro(N, 0)
        lo, hi = ct.crude_bounds(m)
        # 2^N e^{-0.9N} <= Z <= 2^N for the canonical family
        assert lo == pytest.approx(N * math.log(2) - 0.9 * N)
        assert hi == pytest.approx(N * math.log(2))
        assert lo <= partition_log(m) <= hi


    def test_crude_exponent_rejects_empty_model(self):
        with pytest.raises(InvalidModelError):
            ct.crude_exponent(SpinSystem(q=2, n=0, edges=(), field=()))


class TestAmplifyCopies:
    def test_rejects_empty_model(self):
        with pytest.raises(InvalidModelError):
            ct.amplify_copies(SpinSystem(q=2, n=0, edges=(), field=()), c=1.0, rho=0.9)

    def test_identity_when_rho_large(self):
        m = SpinSystem(q=2, n=4, edges=((0, 1, 0.5),), field=())
        union, k = ct.amplify_copies(m, c=0.1, rho=100.0)
        assert k == 1 and union is m

    def test_partition_multiplies(self):
        m = SpinSystem(q=2, n=4, edges=((0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5)), field=())
        union, k = ct.amplify_copies(m, c=1.0, rho=0.9)
        assert k == 3
        assert partition_log(union) == pytest.approx(k * partition_log(m), rel=1e-12)

    def test_approximation_chain(self):
        # if (kn)^{-c} Z' < Zhat < (kn)^c Z' then Zhat^{1/k} is within e^{+-rho}
        m = SpinSystem(q=2, n=4, edges=((0, 1, 0.5),), field=())
        c, rho = 1.0, 0.9
        union, k = ct.amplify_copies(m, c, rho)
        log_Z = partition_log(m)
        log_Zp = k * log_Z
        for sign in (-1.0, 1.0):
            log_Zhat = log_Zp + sign * c * math.log(k * m.n) * 0.999
            assert abs(log_Zhat / k - log_Z) <= rho


class TestTesters:
    def _instance(self, log_Zhat_shift):
        G = cubic_antiferro(8, 2)
        log_ZG = partition_log(G)
        r = _rate(0.9, 2)
        return hubs.build_hub_instance(
            G, hubs.VARIANT_ANTIFERRO, 0.9, 2, log_ZG + log_Zhat_shift,
            enforce_guard=False,
        ), r

    def test_oracle_yes_on_near_zero_tv(self):
        inst, r = self._instance(math.log(_rate(0.9, 2)) + 1.0)
        tester = ct.oracle_tv_tester(0.9, 2)
        assert tester(inst, []) is True

    def test_oracle_no_on_large_tv(self):
        inst, r = self._instance(-math.log(_rate(0.9, 2)) - 1.0)
        tester = ct.oracle_tv_tester(0.9, 2)
        assert tester(inst, []) is False

    def test_empirical_tester_separates(self):
        # the plug-in TV estimate needs sample counts well beyond the class
        # count (4 hub classes times the base levels here), so draw many more
        # than the contract L
        rng = np.random.default_rng(0)
        G = cubic_antiferro(6, 2)
        log_ZG = partition_log(G)
        r = _rate(0.9, 2)
        for shift, expected in ((math.log(r) + 1.0, True), (-math.log(r) - 1.0, False)):
            inst = hubs.build_hub_instance(
                G, hubs.VARIANT_ANTIFERRO, 0.9, 2, log_ZG + shift,
                enforce_guard=False,
            )
            descriptors, _, _ = inst.hidden_class_table
            idx = inst.sample_hidden_classes(rng, 20_000)
            samples = []
            for i in idx:
                c1, c2, k = descriptors[i]
                block = np.ones(6, dtype=int)
                block[rng.permutation(6)[:k]] = 0
                # only the block and hub coordinates matter for the class map
                samples.append(tuple(block) + (c1, c2))
            tester = ct.empirical_tester(0.9, 2)
            assert tester(inst, samples, rng) is expected

    def test_empirical_tester_accepts_configurations_and_tuples(self):
        inst, _ = self._instance(math.log(_rate(0.9, 2)) + 1.0)
        rng = np.random.default_rng(5)
        draws = [hubs.sample_hidden_hub(inst, rng) for _ in range(50)]
        tester = ct.empirical_tester(0.9, 2)
        assert tester(inst, draws) == tester(inst, [d.spins for d in draws])


class TestGenericReduction:
    def test_guard_short_circuit(self):
        G = cubic_antiferro(8, 3)

        def builder(GG, lzh):
            return hubs.build_hub_instance(
                GG, hubs.VARIANT_ANTIFERRO, 0.9, 2, lzh, enforce_guard=True
            )

        outcome = ct.run_generic_reduction(
            G,
            ct.DecisionQuery(log_Zhat=-100.0, r=_rate(0.9, 2)),
            builder,
            lambda inst, rng: hubs.sample_hidden_hub(inst, rng),
            ct.oracle_tv_tester(0.9, 2),
            2,
            np.random.default_rng(0),
        )
        assert outcome.provenance == ct.PROVENANCE_GUARD
        assert outcome.answer == ANSWER_HIGH

    def test_both_branches_correct(self):
        G = cubic_antiferro(10, 4)
        log_ZG = partition_log(G)
        r = _rate(0.9, 2)

        def builder(GG, lzh):
            return hubs.build_hub_instance(
                GG, hubs.VARIANT_ANTIFERRO, 0.9, 2, lzh, enforce_guard=False
            )

        tester = ct.oracle_tv_tester(0.9, 2)
        sampler = lambda inst, rng: inst.sample_hidden_classes(rng, 1)[0]
        for lzh, expected in (
            (math.log(r) + log_ZG + 1.0, ANSWER_LOW),
            (log_ZG - math.log(r) - 1.0, ANSWER_HIGH),
        ):
            outcome = ct.run_generic_reduction(
                G, ct.DecisionQuery(lzh, r), builder, sampler, tester, 2,
                np.random.default_rng(0),
            )
            assert outcome.answer == expected
            assert outcome.provenance == ct.PROVENANCE_TESTER

    def test_trial_reports_shape(self):
        G = cubic_antiferro(8, 5)
        log_ZG = partition_log(G)
        r = _rate(0.9, 2)
        builder = lambda GG, lzh: hubs.build_hub_instance(
            GG, hubs.VARIANT_ANTIFERRO, 0.9, 2, lzh, enforce_guard=False
        )
        sampler = lambda inst, rng: inst.sample_hidden_classes(rng, 1)[0]
        reports = ct.run_reduction_trials(
            G, builder, sampler, ct.oracle_tv_tester(0.9, 2), 2,
            branches=[("low", math.log(r) + log_ZG + 1.0, ANSWER_LOW)],
            seeds=[0, 1],
            r=r,
        )
        assert len(reports) == 2
        for rep in reports:
            assert rep["correct"] is True
            assert "tv_exact" in rep
            assert "runtime_ms" not in rep
        lines = ct.reports_to_jsonl(reports).strip().splitlines()
        assert len(lines) == 2


class TestTrialHarness:
    def test_builder_runs_once_per_branch(self):
        G = cubic_antiferro(8, 5)
        log_ZG = partition_log(G)
        r = _rate(0.9, 2)
        calls = []

        def builder(GG, lzh):
            # at N=8 the guard window is empty: guard only the negative query
            calls.append(lzh)
            return hubs.build_hub_instance(
                GG, hubs.VARIANT_ANTIFERRO, 0.9, 2, lzh, enforce_guard=lzh < 0
            )

        sampler = lambda inst, rng: hubs.sample_hidden_hub(inst, rng)
        branches = [
            ("low", math.log(r) + log_ZG + 1.0, ANSWER_LOW),
            ("guarded", -100.0, ANSWER_HIGH),
        ]
        with pytest.raises(GuardViolation):
            builder(G, -100.0)
        calls.clear()
        reports = ct.run_reduction_trials(
            G, builder, sampler, ct.oracle_tv_tester(0.9, 2), 2,
            branches=branches, seeds=[0, 1, 2], r=r,
        )
        assert calls == [branches[0][1], branches[1][1]]
        assert [rep["provenance"] for rep in reports] == (
            [ct.PROVENANCE_TESTER] * 3 + [ct.PROVENANCE_GUARD] * 3
        )
        assert all(rep["correct"] for rep in reports)
        assert len({rep["tv_exact"] for rep in reports[:3]}) == 1


class TestReductionContract:
    @pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.5, float("nan")])
    def test_testing_rate_rejects_epsilon(self, epsilon):
        with pytest.raises(InvalidConfigurationError):
            ct.testing_rate(epsilon, 2)

    @pytest.mark.parametrize("L", [0, -3])
    def test_testing_rate_rejects_sample_count(self, L):
        with pytest.raises(InvalidConfigurationError):
            ct.testing_rate(0.9, L)

    @pytest.mark.parametrize("log_Zhat", [float("nan"), float("inf"), float("-inf")])
    def test_check_guard_rejects_non_finite(self, log_Zhat):
        with pytest.raises(InvalidConfigurationError):
            ct.check_guard(log_Zhat, -1.0, 1.0)

    def test_check_guard_answers(self):
        ct.check_guard(0.0, -1.0, 1.0)
        with pytest.raises(GuardViolation) as below:
            ct.check_guard(-2.0, -1.0, 1.0)
        with pytest.raises(GuardViolation) as above:
            ct.check_guard(2.0, -1.0, 1.0)
        assert below.value.suggested_answer == ANSWER_HIGH
        assert above.value.suggested_answer == ANSWER_LOW

    @pytest.mark.parametrize("factory", [ct.oracle_tv_tester, ct.empirical_tester])
    @pytest.mark.parametrize(
        "epsilon, L",
        [(e, 2) for e in (0.0, 1.0, 1.5, -0.5, float("nan"))] + [(0.9, 0), (0.9, -3)],
    )
    def test_testers_reject_epsilon_and_sample_count(self, factory, epsilon, L):
        with pytest.raises(InvalidConfigurationError):
            factory(epsilon, L)

    @pytest.mark.parametrize("log_Zhat", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("case", ["antiferro", "ferro-field", "potts"])
    def test_builders_reject_non_finite_log_Zhat_without_guard(self, case, log_Zhat):
        cycle = tuple((v, (v + 1) % 4) for v in range(4))
        with pytest.raises(InvalidConfigurationError):
            if case == "potts":
                G = SpinSystem(q=3, n=4, edges=tuple((u, v, 0.5) for u, v in cycle))
                potts.build_potts_instance(
                    G, 30, 0.9, 2, log_Zhat, enforce_guard=False
                )
            elif case == "antiferro":
                G = SpinSystem(q=2, n=4, edges=tuple((u, v, -0.6) for u, v in cycle))
                hubs.build_hub_instance(
                    G, case, 0.9, 2, log_Zhat, enforce_guard=False, strict_family=False
                )
            else:
                G = SpinSystem(q=2, n=4, edges=tuple((u, v, 0.8) for u, v in cycle),
                               field=tuple((v, v % 2, 0.5) for v in range(4)))
                hubs.build_hub_instance(G, case, 0.9, 2, log_Zhat, enforce_guard=False)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("case", ["antiferro", "ferro-field", "potts"])
def test_builders_reject_non_finite_couplings(case, bad):
    """Instances assemble their full models only when read, but a coupling
    that no model may carry is still an InvalidModelError at build."""
    cycle = tuple((v, (v + 1) % 4) for v in range(4))
    if case == "potts":
        P = SpinSystem(q=3, n=4, edges=tuple((u, v, 0.5) for u, v in cycle))
        for beta_cross, beta_H in ((bad, 1.0), (0.05, bad)):
            with pytest.raises(InvalidModelError):
                potts.make_potts_instance(P, 30, beta_cross, beta_H)
        return
    if case == "antiferro":
        G = SpinSystem(q=2, n=4, edges=tuple((u, v, -0.6) for u, v in cycle))
    else:
        G = SpinSystem(q=2, n=4, edges=tuple((u, v, 0.8) for u, v in cycle),
                       field=tuple((v, v % 2, 0.5) for v in range(4)))
    for beta1, beta2 in ((None, bad), (1.1, bad), (bad, 0.7)):
        with pytest.raises(InvalidModelError):
            hubs.build_hub_instance(G, case, 0.9, 2, 0.0, beta1=beta1, beta2=beta2,
                                    enforce_guard=False, strict_family=False)


def test_builders_reject_negative_sizes():
    """A negative clique size or path count is an InvalidModelError at build,
    not a model that is never assembled."""
    cycle = tuple((v, (v + 1) % 4) for v in range(4))
    P = SpinSystem(q=3, n=4, edges=tuple((u, v, 0.5) for u, v in cycle))
    with pytest.raises(InvalidModelError):
        potts.make_potts_instance(P, -1, 0.05, 1.0)
    G = SpinSystem(q=2, n=4, edges=tuple((u, v, -0.6) for u, v in cycle))
    for n_uv, n_ss in ((-1, 3), (2, -1)):
        with pytest.raises(InvalidModelError):
            hubs.build_hub_instance(G, hubs.VARIANT_ANTIFERRO, 0.9, 2, 0.0, beta1=1.1, beta2=0.7,
                                    n_uv=n_uv, n_ss=n_ss, enforce_guard=False, strict_family=False)


def pinned_instance(case):
    """Small hub and Potts instances whose hidden draws and class tables are
    pinned by digest below."""
    if case == "potts":
        G = SpinSystem(q=3, n=3, edges=tuple((i, (i + 1) % 3, 0.5) for i in range(3)), field=())
        return potts.make_potts_instance(G, m=5, beta_cross=0.3, beta_H=1.0), potts.sample_hidden_potts
    cycle = ((0, 1), (1, 2), (2, 3), (0, 3))
    if case == "antiferro":
        G = SpinSystem(q=2, n=4, edges=tuple((u, v, -0.6) for u, v in cycle))
    else:
        spins = [v % 2 for v in range(4)] if case == "ferro-alternating" else [0] * 4
        G = SpinSystem(q=2, n=4, edges=tuple((u, v, 0.8) for u, v in cycle),
                       field=tuple((v, s, 0.5) for v, s in enumerate(spins)))
    variant = hubs.VARIANT_ANTIFERRO if case == "antiferro" else hubs.VARIANT_FERRO
    inst = hubs.build_hub_instance(G, variant, 0.9, 2, 0.0, beta1=1.1, beta2=0.7, n_uv=2, n_ss=3,
                                   enforce_guard=False, strict_family=False)
    return inst, hubs.sample_hidden_hub


# sha256 of 50 hidden draws (seed 2024) and of the hidden class table bytes
PINNED_DIGESTS = {
    "antiferro": ("e844ef6a53bee23fe8a79f95c42953c8a28e8a6314da1036526f0aa203feffeb",
                  "fb8e39eea5ad5ce5f9e7968deda721080c1e9b8bac92a17b151f490cebdb0238"),
    "ferro-alternating": ("4a06719c7072f2253db4f4c3560a787f90707ce9c3a7f3794a4b6723b0bf73fb",
                          "81318650b6a82199295a25dd7fc1861c95340ea86bafae3d4513200392b91eed"),
    # every field spin 0: the spin-1 field group is empty
    "ferro-zero": ("a5f761bc74f64cb2befa4e3d6df0bdaa17b49c08c6196776af1329df52b15942",
                   "687e11e4dbb94d3c8d8412114219274e4fe0d94bb839929b29dd5aebeded1351"),
    "potts": ("b525938b877e3f501ad8746bea91e051adeae2b32a5b022f78f3ff2bc73f8acf",
              "653078a5a04a57f5b6b380f22dfe5044507212d647d0d4b262649effced5d4a8"),
}


@pytest.mark.parametrize("case", sorted(PINNED_DIGESTS))
def test_pinned_hidden_draws_and_class_tables(case):
    inst, sampler = pinned_instance(case)
    rng = np.random.default_rng(2024)
    draws = np.array([sampler(inst, rng).spins for _ in range(50)], dtype=np.int64)
    descriptors, log_count, log_weight = inst.hidden_class_table
    table = repr(descriptors).encode() + log_count.tobytes() + log_weight.tobytes()
    assert (hashlib.sha256(draws.tobytes()).hexdigest(),
            hashlib.sha256(table).hexdigest()) == PINNED_DIGESTS[case]
    if case != "potts":
        hidden_log_Z = inst.collapsed_pair[1].log_Z
        assert abs(float(logsumexp(log_count + log_weight)) - hidden_log_Z) <= 1e-12


def bench_scale_instance(case):
    """The instance sizes the benchmark samples from: the canonical antiferro
    hub (N=6, n_uv=N, n_ss=N^2), a ferro-field hub of the same size with both
    field groups non-empty, and the q=3, N=4, m=30 Potts instance."""
    eps, L = 0.9, 200
    if case == "potts":
        G = SpinSystem(q=3, n=4, edges=tuple((v, (v + 1) % 4, 0.5) for v in range(4)), field=())
        beta_H = meanfield.solve_beta_H(30, 3, math.exp(1.0), 0.5)
        inst = potts.make_potts_instance(G, 30, 0.05, beta_H)
        return inst, potts.sample_hidden_potts, reference_sample_hidden_potts
    if case == "antiferro":
        G, variant = cubic_antiferro(6, 3), hubs.VARIANT_ANTIFERRO
    else:
        edges = tuple((v, (v + 1) % 6, 0.8) for v in range(6))
        G = SpinSystem(q=2, n=6, edges=edges, field=tuple((v, v % 2, 0.5) for v in range(6)))
        variant = hubs.VARIANT_FERRO
    log_Zhat = partition_log(G) + math.log(_rate(eps, L)) + 1.0
    inst = hubs.build_hub_instance(G, variant, eps, L, log_Zhat, enforce_guard=False)
    assert (inst.n_uv, inst.n_ss) == (6, 36)
    assert all(len(group) for group in inst.field_groups)
    return inst, hubs.sample_hidden_hub, reference_sample_hidden_hub


BENCH_SCALE_CASES = ("antiferro", "ferro-field", "potts")


@pytest.mark.parametrize("case", BENCH_SCALE_CASES)
def test_hidden_draws_match_per_draw_reference(case):
    """200 draws equal those of the pre-table sampler (which re-derives the
    class probabilities and auxiliary laws and calls rng.choice per draw),
    spin for spin and type for type, and leave the generator in its state."""
    inst, sampler, reference = bench_scale_instance(case)
    rng, ref_rng = np.random.default_rng(20261017), np.random.default_rng(20261017)
    got = [sampler(inst, rng).spins for _ in range(200)]
    want = [reference(inst, ref_rng) for _ in range(200)]
    assert pickle.dumps(got) == pickle.dumps(want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("size", (0, 1, 7))
@pytest.mark.parametrize("case", BENCH_SCALE_CASES)
def test_sample_hidden_classes_is_rng_choice(case, size):
    inst, _, _ = bench_scale_instance(case)
    p = reference_class_probs(inst)
    for seed in range(5):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(inst.sample_hidden_classes(rng, size),
                              ref_rng.choice(len(p), size=size, p=p))
        assert rng.random() == ref_rng.random()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_hidden_table_raises_invalid_model():
    """A class table with nan or inf masses is an InvalidModelError on the
    first draw, not numpy's ValueError or a silently wrong draw."""
    P = SpinSystem(q=3, n=4, edges=tuple((v, (v + 1) % 4, 0.5) for v in range(4)), field=())
    inst = potts.make_potts_instance(P, 30, 0.05, 1e306)
    with pytest.raises(InvalidModelError):
        potts.sample_hidden_potts(inst, np.random.default_rng(0))
    _assert_testers_raise(inst)
    cycle = SpinSystem(q=2, n=4, edges=tuple((v, (v + 1) % 4, -0.6) for v in range(4)), field=())
    # beta1 = 1e308 overflows a u-factor to -inf (a nan class mass);
    # beta2 = -1e308 overflows the w-factors (and the w-path law) to +inf
    for beta1, beta2 in ((1e308, 0.7), (1.1, -1e308)):
        inst = hubs.build_hub_instance(cycle, hubs.VARIANT_ANTIFERRO, 0.9, 2, 0.0, beta1=beta1,
                                       beta2=beta2, n_uv=2, n_ss=3, enforce_guard=False,
                                       strict_family=False)
        with pytest.raises(InvalidModelError):
            hubs.sample_hidden_hub(inst, np.random.default_rng(0))
        _assert_testers_raise(inst)


def _assert_testers_raise(inst):
    """Both testers read the collapsed spaces, which overflow the same way:
    they raise instead of answering No on a nan TV."""
    samples = [Configuration((0,) * inst.visible.n)]
    for tester in (ct.oracle_tv_tester(0.9, 2), ct.empirical_tester(0.9, 2)):
        with pytest.raises(InvalidModelError):
            tester(inst, samples)


@pytest.mark.parametrize("case", ["antiferro", "ferro-alternating", "potts"])
def test_empirical_tester_rejects_rows_it_cannot_place(case):
    """A spin outside 0..q-1, at a base vertex, a hub or in the clique, and a
    Potts row of another length are InvalidConfigurationErrors, not a bare
    numpy error or a row counted in a wrong class."""
    inst, sampler = pinned_instance(case)
    draw = sampler(inst, np.random.default_rng(0)).spins
    tester = ct.empirical_tester(0.9, 2)
    assert tester(inst, [draw]) in (True, False)
    N, q = inst.N, inst.q
    bad = [draw[:0] + (q,) + draw[1:], draw[:N] + (-1,) + draw[N + 1:]]
    if case == "potts":
        bad += [draw[:-1], draw + (0,), draw[:-1] + (q,)]
    else:
        bad += [draw[:N + 1] + (2,) + draw[N + 2:]]
    for row in bad:
        with pytest.raises(InvalidConfigurationError):
            tester(inst, [row])


@pytest.mark.parametrize("side", ["visible", "hidden"])
def test_levels_reject_a_block_not_constant_on_them(side):
    """A base block whose weight differs between two states of one level (two
    couplings on the 4-cycle) is an InvalidModelError, not a space built from
    one representative's weight."""
    uniform = SpinSystem(q=3, n=4, edges=tuple((v, (v + 1) % 4, 0.5) for v in range(4)))
    mixed = SpinSystem(q=3, n=4, edges=tuple((v, (v + 1) % 4, 0.5 + 0.2 * (v == 0)) for v in range(4)))
    blocks = {"visible": uniform, "hidden": uniform, side: mixed}
    inst = potts.PottsInstance(visible_block=blocks["visible"], hidden_block=blocks["hidden"],
                               m=3, beta_cross=0.2, beta_H=0.9, beta_K=0.5)
    with pytest.raises(InvalidModelError, match=side):
        inst.collapsed_pair


def test_class_index_with_codes_past_int64():
    """q=40 signatures of m=2 clique vertices have count codes up to 3^40,
    past int64: they are Python ints, and the class index still sums the
    full configurations' probabilities onto the collapsed classes."""
    inst = potts.make_potts_instance(SpinSystem(q=40, n=1), m=2, beta_cross=0.2, beta_H=0.9)
    assert ct.count_code(meanfield.enumerate_signatures(2, 40), [3] * 40).dtype == object
    model, space = inst.visible, inst.collapsed_pair[0]
    dist = ExactDistribution.from_model(model)
    spins = decode_spins(model, np.arange(len(dist.log_probs)))
    mass = np.bincount(inst.class_index(spins), weights=np.exp(dist.log_probs),
                       minlength=len(space.log_weight))
    assert np.abs(mass - np.exp(space.log_class_masses())).max() < 1e-12


@pytest.mark.parametrize("weights", ([0.5, np.nan], [1.0, np.inf], [2.0, -1.0], [0.0, 0.0], []))
def test_index_sampler_rejects_what_rng_choice_rejects(weights):
    with np.errstate(invalid="ignore"), pytest.raises(InvalidModelError):
        IndexSampler(np.asarray(weights, dtype=float))
