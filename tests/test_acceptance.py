"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Each test prints exactly one line ``CRITERION <k>: PASS|FAIL — <summary>``
and then asserts, so ``pytest -v tests/test_acceptance.py`` doubles as the
release checklist.  Tolerances are pinned in each test body.
"""

import math
import time

import networkx as nx
import numpy as np
import pytest
from scipy.special import logsumexp

from naive_oracle import naive_log_Z, naive_restricted_log, naive_tv, random_model
from spinlab import counting as ct, gadget as gd, hubs, meanfield as mf, potts
from spinlab.exact import (
    ExactDistribution,
    partition_log,
    restricted_partition_log,
    restricted_partition_multi,
    sample_exact,
    tv_collapsed,
    tv_exact,
)
from spinlab.model import SpinSystem
from spinlab.potts import ANSWER_HIGH, ANSWER_LOW, testing_rate as _rate


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {number}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {number}: {detail}"


def _class_tv(probs: np.ndarray, indices: np.ndarray) -> float:
    emp = np.bincount(indices, minlength=len(probs)) / len(indices)
    return 0.5 * float(np.abs(emp - probs).sum())


def _table_probs(instance) -> np.ndarray:
    _, lc, lw = instance.hidden_class_table
    p = np.exp(lc + lw - logsumexp(lc + lw))
    return p / p.sum()


def cubic(N: int, beta: float, seed: int) -> SpinSystem:
    g = nx.random_regular_graph(3, N, seed=seed)
    return SpinSystem(q=2, n=N, edges=tuple((u, v, beta) for u, v in g.edges()), field=())


def test_criterion_01_oracle_equivalence():
    # 50 random models, n <= 12, q in {2,3}: partition_log, restricted sums
    # and tv_exact vs an independent naive enumerator, 1e-9 relative, < 30 s.
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        q, n, edges, field = random_model(rng, n_max=12)
        m = SpinSystem(q=q, n=n, edges=edges, field=field)
        lz = partition_log(m)
        worst = max(worst, abs(lz - naive_log_Z(q, n, edges, field)) / max(1.0, abs(lz)))

        pred = lambda spins: spins[:, 0] == 0
        rz = restricted_partition_log(m, pred)
        rz_naive = naive_restricted_log(q, n, edges, field, lambda s: s[0] == 0)
        worst = max(worst, abs(rz - rz_naive) / max(1.0, abs(rz)))

        q2, n2, edges2, field2 = random_model(rng, n_max=12)
        if (q2, n2) == (q, n):
            m2 = SpinSystem(q=q2, n=n2, edges=edges2, field=field2)
            tv = tv_exact(m, m2)
            worst = max(worst, abs(tv - naive_tv(q, n, edges, field, edges2, field2)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 30.0
    _report(1, ok, f"max relative error {worst:.2e} over 50 models in {elapsed:.1f}s")


def test_criterion_02_meanfield_exactness():
    # phase_split totals vs explicit K_m brute force (m=10, q=3, five beta_H
    # values, 1e-9 relative) and the bracket 1/(q|A|) <= Z^M/Z^D <= q|A|^2
    # at Bo/m for m in {12, 20, 40, 60}.  Runtime < 1 min.
    start = time.perf_counter()
    q = 3
    crit = mf.find_critical_Bo(q)
    worst = 0.0
    m = 10
    for mult in (0.5, 0.9, 1.0, 1.1, 2.0):
        beta_H = mult * crit.Bo / m
        split = mf.phase_split(m, q, beta_H)
        model = mf.explicit_complete_graph(m, q, beta_H)

        sigs = mf.enumerate_signatures(m, q)
        labels, _ = mf.classify_signatures(sigs, m, q, crit.alpha_hat)
        label_of = {tuple(sig): lab for sig, lab in zip(sigs.tolist(), labels)}

        def pred_for(target):
            def pred(spins):
                counts = np.stack([(spins == c).sum(axis=1) for c in range(q)], axis=1)
                return np.array(
                    [label_of[tuple(sorted(row, reverse=True))] == target
                     for row in counts.tolist()]
                )
            return pred

        brute = restricted_partition_multi(
            model, [pred_for(mf.PHASE_M), pred_for(mf.PHASE_D), pred_for(mf.PHASE_S)]
        )
        for got, want in zip((split.log_ZM, split.log_ZD, split.log_ZS), brute):
            if math.isinf(got) and math.isinf(want):
                continue
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
        worst = max(
            worst,
            abs(split.log_Z - partition_log(model)) / max(1.0, abs(split.log_Z)),
        )

    bracket_ok = True
    for mm in (12, 20, 40, 60):
        split = mf.phase_split(mm, q, crit.Bo / mm)
        n_sigs = len(mf.enumerate_signatures(mm, q))
        ratio = split.log_ZM - split.log_ZD
        bracket_ok &= -math.log(q * n_sigs) - 1e-12 <= ratio <= math.log(q * n_sigs**2) + 1e-12
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and bracket_ok and elapsed < 60.0
    _report(2, ok, f"max phase-sum error {worst:.2e}, bracket_ok={bracket_ok}, {elapsed:.1f}s")


def test_criterion_03_ratio_solver():
    # solve_beta_H(m=40, q=3, R in {0.1, 1, 10, 100}, delta=0.1): the
    # re-evaluated ratio must land in [(1-delta)R, R].  Runtime < 10 s.
    start = time.perf_counter()
    ok = True
    details = []
    for R in (0.1, 1.0, 10.0, 100.0):
        beta_H = mf.solve_beta_H(40, 3, R, 0.1)
        ratio = math.exp(mf.log_ratio_g(40, 3, beta_H))
        ok &= 0.9 * R <= ratio <= R
        details.append(f"R={R}:ratio={ratio:.4g}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _report(3, ok, f"{'; '.join(details)} in {elapsed:.1f}s")


def test_criterion_04_metastability_trend():
    # gap = log Z^S - min(log Z^M, log Z^D) at beta_H = Bo/m must be negative
    # and gap/sqrt(m) strictly decreasing over m in {30, 40, 60, 80}, q=3.
    start = time.perf_counter()
    crit = mf.find_critical_Bo(3)
    normalized = []
    for m in (30, 40, 60, 80):
        gap, root_m = mf.metastability_report(m, 3, None, crit.Bo / m)
        normalized.append(gap / root_m)
    negative = all(g < 0 for g in normalized)
    decreasing = all(a > b for a, b in zip(normalized, normalized[1:]))
    elapsed = time.perf_counter() - start
    ok = negative and decreasing and elapsed < 120.0
    _report(
        4,
        ok,
        f"gap/sqrt(m)={['%s' % g for g in normalized]}, negative={negative}, "
        f"decreasing={decreasing}, {elapsed:.1f}s",
    )


def test_criterion_05_hub_closed_forms():
    # N=2 hub instances with default multiplicities (4N^2 + N + 2 = 20
    # vertices): closed_form_phase vs exact restricted sums, 1e-9 relative,
    # both variants, both visible and hidden.  Runtime < 5 min.
    start = time.perf_counter()
    antiferro = SpinSystem(q=2, n=2, edges=((0, 1, -0.6),), field=())
    ferro = SpinSystem(
        q=2, n=2, edges=((0, 1, 0.8),), field=((0, 0, 0.5), (1, 1, 0.5))
    )
    worst = 0.0
    for variant, base in (
        (hubs.VARIANT_ANTIFERRO, antiferro),
        (hubs.VARIANT_FERRO, ferro),
    ):
        inst = hubs.build_hub_instance(
            base, variant, epsilon=0.9, L=2, log_Zhat=0.0,
            beta1=1.1, beta2=0.7, enforce_guard=False, strict_family=False,
        )
        assert inst.visible.n == 4 * 4 + 2 + 2 == 20
        s1, s2, N = inst.s1, inst.s2, inst.N
        for which in ("visible", "hidden"):
            model = inst.visible if which == "visible" else inst.hidden

            def pred_d(spins):
                return spins[:, s1] != spins[:, s2]

            def pred_m0(spins):
                eq = spins[:, s1] == spins[:, s2]
                mono = np.all(spins[:, :N] == spins[:, [s1]], axis=1)
                return eq & mono

            zd_bf, zm0_bf = restricted_partition_multi(model, [pred_d, pred_m0])
            zd, zm0 = hubs.closed_form_phase(inst, which)
            worst = max(worst, abs(zd - zd_bf) / max(1.0, abs(zd_bf)))
            worst = max(worst, abs(zm0 - zm0_bf) / max(1.0, abs(zm0_bf)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 300.0
    _report(5, ok, f"max relative error {worst:.2e} over 2^20 sums, {elapsed:.1f}s")


def test_criterion_06_dichotomy():
    # N=12, epsilon=0.9, L=2, r=96/eps*sqrt(eps*L+1): Zhat = r*Z_G*e gives
    # tv_collapsed <= 1/(16 L) = 0.03125; Zhat = Z_G/(r*e) gives
    # tv_collapsed >= 1 - eps = 0.1.  Z_G by brute force.  Runtime < 1 min.
    start = time.perf_counter()
    eps, L = 0.9, 2
    r = _rate(eps, L)
    G = cubic(12, -0.6, seed=0)
    log_ZG = partition_log(G)
    tvs = []
    for log_Zhat in (math.log(r) + log_ZG + 1.0, log_ZG - math.log(r) - 1.0):
        inst = hubs.build_hub_instance(
            G, hubs.VARIANT_ANTIFERRO, eps, L, log_Zhat, enforce_guard=False
        )
        tvs.append(
            tv_collapsed(
                hubs.collapsed_distribution_hub(inst, "visible"),
                hubs.collapsed_distribution_hub(inst, "hidden"),
            )
        )
    elapsed = time.perf_counter() - start
    ok = tvs[0] <= 1.0 / (16 * L) and tvs[1] >= 1.0 - eps and elapsed < 60.0
    _report(6, ok, f"tv_close={tvs[0]:.4g} (<=0.03125), tv_far={tvs[1]:.4g} (>=0.1), {elapsed:.1f}s")


def test_criterion_07_samplers():
    # Empirical-vs-exact class-distribution TV <= 0.01 at 1e6 draws for the
    # hidden samplers (clique replacement N=3,m=5,q=3; both hub variants at
    # N=3) and for sample_exact on an n=6 model.  Runtime < 3 min.
    start = time.perf_counter()
    draws = 1_000_000
    tvs = {}

    G3 = SpinSystem(q=3, n=3, edges=tuple((i, (i + 1) % 3, 0.5) for i in range(3)), field=())
    pinst = potts.make_potts_instance(G3, m=5, beta_cross=0.3, beta_H=1.0)
    idx = pinst.sample_hidden_classes(np.random.default_rng(1), draws)
    tvs["potts"] = _class_tv(_table_probs(pinst), idx)

    af = SpinSystem(q=2, n=3, edges=tuple((i, (i + 1) % 3, -0.6) for i in range(3)), field=())
    fe = SpinSystem(
        q=2, n=3,
        edges=tuple((i, (i + 1) % 3, 0.8) for i in range(3)),
        field=tuple((v, v % 2, 0.5) for v in range(3)),
    )
    for name, variant, base in (
        ("hub_antiferro", hubs.VARIANT_ANTIFERRO, af),
        ("hub_ferro", hubs.VARIANT_FERRO, fe),
    ):
        inst = hubs.build_hub_instance(
            base, variant, 0.9, 2, 0.0, beta1=1.1, beta2=0.7,
            enforce_guard=False, strict_family=False,
        )
        idx = inst.sample_hidden_classes(np.random.default_rng(2), draws)
        tvs[name] = _class_tv(_table_probs(inst), idx)

    model = SpinSystem(
        q=2, n=6,
        edges=((0, 1, 0.7), (2, 3, -0.5), (4, 5, 0.3), (0, 5, 0.2)),
        field=((0, 0, 0.2), (3, 1, -0.4)),
    )
    dist = ExactDistribution.from_model(model)
    cfgs = sample_exact(dist, np.random.default_rng(3), size=draws)
    states = np.array([sum(s << i for i, s in enumerate(c.spins)) for c in cfgs])
    p = np.exp(dist.log_probs)
    tvs["exact"] = _class_tv(p / p.sum(), states)

    elapsed = time.perf_counter() - start
    ok = all(tv <= 0.01 for tv in tvs.values()) and elapsed < 180.0
    _report(7, ok, ", ".join(f"{k}={v:.4g}" for k, v in tvs.items()) + f", {elapsed:.1f}s")


def test_criterion_08_blowup_identities():
    # Composites with n=2, b=2, q in {2,3}: the lifted weight identity
    # exp(beta_B * d_in * b * n) and the conditional equality
    # mu_blowup(.|Omega_good) = mu_base hold to 1e-9; the TV sandwich
    # |TV(blowups) - TV(bases)| <= 2*delta with exactly computed delta.
    start = time.perf_counter()
    from spinlab.model import Configuration, log_weight

    params = gd.GadgetParams(b=2, p=2, d_in=1, d_out=1)
    worst = 0.0
    for q, beta in ((2, 1.0), (3, -0.7)):
        field = tuple((v, 0, 0.4) for v in range(2))
        G = SpinSystem(q=q, n=2, edges=((0, 1, beta),), field=field)
        inst = gd.build_blowup(G, params, beta_hat=1.0, rng=np.random.default_rng(7))
        ident = 1.0 * 1 * 2 * 2  # beta_B * d_in * b * n
        for sg in ((0, 0), (0, q - 1), (q - 1, 0)):
            lw_lift = log_weight(inst.model, gd.lift_sample(inst, sg))
            lw_base = log_weight(G, Configuration(sg))
            worst = max(worst, abs(lw_lift - (lw_base + ident)) / max(1.0, abs(lw_lift)))

        dist = ExactDistribution.from_model(inst.model)
        probs = np.exp(dist.log_probs)
        mass = {}
        for idx in range(q ** inst.model.n):
            sg = gd.project_good(inst, dist.configuration(idx))
            if sg is not None:
                mass[sg.spins] = mass.get(sg.spins, 0.0) + probs[idx]
        total = sum(mass.values())
        log_ZG = partition_log(G)
        for sg, mass_sg in mass.items():
            expected = math.exp(log_weight(G, Configuration(sg)) - log_ZG)
            worst = max(worst, abs(mass_sg / total - expected))

    G = SpinSystem(q=2, n=2, edges=((0, 1, 1.0),), field=())
    G_star = SpinSystem(q=2, n=2, edges=((0, 1, -0.8),), field=())
    inst = gd.build_blowup(G, params, beta_hat=1.0, rng=np.random.default_rng(4))
    inst_star = gd.build_blowup(G_star, params, beta_hat=1.0, rng=np.random.default_rng(4))
    delta = max(
        1.0 - math.exp(gd.omega_good_log_mass(inst)),
        1.0 - math.exp(gd.omega_good_log_mass(inst_star)),
    )
    sandwich = abs(tv_exact(inst.model, inst_star.model) - tv_exact(G, G_star)) <= 2 * delta + 1e-12
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and sandwich and elapsed < 60.0
    _report(8, ok, f"max identity error {worst:.2e}, sandwich={sandwich}, {elapsed:.1f}s")


def test_criterion_09_gadget_dominance():
    # Sampled gadget b=4, d=3, q=2, beta_B=4, h=0: ground-state mass >= 0.99
    # for every boundary configuration, and monotone in beta_B over {1,2,4}.
    start = time.perf_counter()
    gadget = gd.sample_gadget(gd.GadgetParams.low_degree(4, 3), np.random.default_rng(2))
    masses = []
    for tau in ((0, 0), (0, 1), (1, 0), (1, 1)):
        masses.append(gd.ground_state_mass(gd.gadget_in_context(gadget, 2, 4.0, tau)))
    mono = [
        gd.ground_state_mass(gd.gadget_in_context(gadget, 2, b, (0, 1)))
        for b in (1.0, 2.0, 4.0)
    ]
    monotone = mono[0] < mono[1] < mono[2]
    elapsed = time.perf_counter() - start
    ok = min(masses) >= 0.99 and monotone and elapsed < 120.0
    _report(9, ok, f"min mass {min(masses):.4f} over 4 boundaries, monotone={monotone}, {elapsed:.1f}s")


def test_criterion_10_end_to_end_counting():
    # (a) bisection_counter with the exact comparator on 10 random 3-regular
    # graphs (N=10, beta=-0.6, r=10): (1/r) Zhat < Z < 2r Zhat for all 10.
    # (b) full reduction + oracle tester at N=12: per-branch accuracy >= 5/8
    # over 100 seeded trials.  Runtime < 10 min.
    start = time.perf_counter()
    r = 10.0
    approx_ok = 0
    for seed in range(10):
        G = cubic(10, -0.6, seed=seed)
        log_Z = partition_log(G)

        def decider(log_Zhat, rng, _log_Z=log_Z):
            return ANSWER_HIGH if _log_Z >= log_Zhat else ANSWER_LOW

        est = ct.bisection_counter(
            decider, 10, ct.crude_exponent(G), r, np.random.default_rng(seed)
        )
        if est - math.log(r) < log_Z < est + math.log(2 * r):
            approx_ok += 1

    eps, L = 0.9, 2
    rr = _rate(eps, L)
    G12 = cubic(12, -0.6, seed=0)
    log_ZG = partition_log(G12)

    def builder(GG, lzh):
        return hubs.build_hub_instance(
            GG, hubs.VARIANT_ANTIFERRO, eps, L, lzh, enforce_guard=False
        )

    reports = ct.run_reduction_trials(
        G12,
        builder,
        lambda inst, rng: hubs.sample_hidden_hub(inst, rng),
        ct.oracle_tv_tester(eps, L),
        L,
        branches=[
            ("low", math.log(rr) + log_ZG + 1.0, ANSWER_LOW),
            ("high", log_ZG - math.log(rr) - 1.0, ANSWER_HIGH),
        ],
        seeds=range(100),
        r=rr,
    )
    accuracy = {}
    for branch in ("low", "high"):
        rows = [rep for rep in reports if rep["branch"] == branch]
        accuracy[branch] = sum(rep["correct"] for rep in rows) / len(rows)
    elapsed = time.perf_counter() - start
    ok = approx_ok == 10 and all(a >= 5 / 8 for a in accuracy.values()) and elapsed < 600.0
    _report(
        10,
        ok,
        f"bisection 2r-approx {approx_ok}/10, branch accuracy {accuracy}, {elapsed:.1f}s",
    )
