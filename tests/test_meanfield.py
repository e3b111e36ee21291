import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from naive_oracle import psi1, reference_log_ratio_g, reference_phase_split

from spinlab import meanfield as mf
from spinlab.exact import partition_log, restricted_partition_log
from spinlab.errors import BudgetExceededError, InvalidModelError, TargetUnreachableError


class TestCriticalPoint:
    def test_q3_closed_form(self):
        crit = mf.find_critical_Bo(3)
        assert crit.Bo == pytest.approx(4 * math.log(2), abs=1e-9)
        assert crit.alpha_hat == pytest.approx(2.0 / 3.0, abs=1e-7)

    def test_q4_closed_form(self):
        crit = mf.find_critical_Bo(4)
        assert crit.Bo == pytest.approx(3 * math.log(3), abs=1e-9)
        assert crit.alpha_hat == pytest.approx(3.0 / 4.0, abs=1e-7)

    def test_general_closed_form(self):
        for q in (5, 6, 8):
            crit = mf.find_critical_Bo(q)
            expected = 2 * (q - 1) * math.log(q - 1) / (q - 2)
            assert crit.Bo == pytest.approx(expected, abs=1e-8)
            assert crit.alpha_hat == pytest.approx((q - 1) / q, abs=1e-6)

    def test_free_energy_balance_at_Bo(self):
        # at the critical coupling the two phases' functional values coincide
        crit = mf.find_critical_Bo(3)
        disordered = psi1(1.0 / 3.0, crit.Bo, 3)
        ordered = psi1(crit.alpha_hat, crit.Bo, 3)
        assert ordered == pytest.approx(disordered, abs=1e-9)

    @pytest.mark.parametrize(
        "q, Bo, alpha_hat",
        [
            (3, "2.772588722239781", "0.6666666666666666"),
            (4, "3.295836866004329", "0.75"),
            (5, "3.6967849629863747", "0.8"),
            (6, "4.023594781085251", "0.8333333333333334"),
        ],
        ids=["q3", "q4", "q5", "q6"],
    )
    def test_critical_point_pinned(self, q, Bo, alpha_hat):
        # closed-form values, to the last bit
        crit = mf.find_critical_Bo(q)
        assert repr(crit.Bo) == Bo
        assert repr(crit.alpha_hat) == alpha_hat

    def test_import_leaves_scipy_optimize_unloaded(self):
        # the closed form needs no optimiser and exact.log_factorials no
        # gammaln: neither the package nor the CLI loads any scipy module
        src = os.path.dirname(os.path.dirname(mf.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        for module in ("spinlab", "spinlab.cli"):
            code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
            out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
            assert out.stdout.strip() == "[]", (module, out.stdout, out.stderr)


class TestSignatures:
    def test_count(self):
        sigs = mf.enumerate_signatures(6, 3)
        assert len(sigs) == math.comb(6 + 2, 2)
        assert np.all(sigs.sum(axis=1) == 6)

    def test_weights_total(self):
        # multinomial expansion: total over signatures equals q^m at beta=0
        from scipy.special import logsumexp

        assert logsumexp(mf.signature_table(7, 3).log_multi) == pytest.approx(7 * math.log(3))

    def test_budget_error_reports_the_signature_count(self):
        # C(10003, 3) ~ 2^37.3 signatures against a cap of log2(5e6) ~ 22.25 bits
        with pytest.raises(BudgetExceededError) as info:
            mf.enumerate_signatures(10**4, 4)
        assert (info.value.n, info.value.q) == (10**4, 4)
        assert "37.3 bits > cap 22.25" in str(info.value)

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_rows_match_brute_force(self, q):
        # every vector in {0..m}^q summing to m, in lexicographic order
        for m in range(7):
            sigs = mf.enumerate_signatures(m, q)
            brute = [s for s in itertools.product(range(m + 1), repeat=q) if sum(s) == m]
            assert sigs.dtype == np.int64
            assert sigs.shape == (len(brute), q)
            assert [tuple(row) for row in sigs.tolist()] == brute
            assert not sigs.flags.writeable


def _reference_split(m, q, beta):
    """Uncached phase split: classify, then mask-and-logsumexp per part."""
    from scipy.special import logsumexp

    table = mf.signature_table(m, q)
    logw = table.log_multi + beta * table.mono_edges
    labels = mf.classify_signatures(table.sigs, m, q)

    def part(sel):
        return float(logsumexp(logw[sel])) if sel.any() else -math.inf

    return tuple(part(labels == lab) for lab in (mf.PHASE_M, mf.PHASE_D, mf.PHASE_S))


class TestCachedTables:
    CASES = [
        (8, 3, 0.6),
        (30, 3, 1.0),
        (90, 3, 1.1),
        (20, 4, 0.9),
        (12, 5, 1.3),
        (25, 3, 1.0),
        (16, 4, 0.8),
    ]

    @pytest.mark.parametrize("m, q, beta_mult", CASES)
    def test_phase_split_equals_uncached_reference(self, m, q, beta_mult):
        beta = beta_mult * mf.find_critical_Bo(q).Bo / m
        split = mf.phase_split(m, q, beta)
        assert (split.log_ZM, split.log_ZD, split.log_ZS) == _reference_split(m, q, beta)

    @pytest.mark.parametrize("m, q, beta_mult", CASES)
    def test_log_ratio_g_equals_uncached_reference(self, m, q, beta_mult):
        beta = beta_mult * mf.find_critical_Bo(q).Bo / m
        log_zm, log_zd, _ = _reference_split(m, q, beta)
        assert mf.log_ratio_g(m, q, beta) == log_zm - log_zd

    def test_shared_arrays_are_read_only(self):
        table = mf.signature_table(10, 3)
        classes = mf.phase_classes(10, 3)
        arrays = [mf.enumerate_signatures(10, 3), table.sigs, table.log_multi,
                  table.mono_edges, classes.labels, *classes.members]
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 0

    def test_compact_dtypes(self):
        table = mf.signature_table(40, 4)
        classes = mf.phase_classes(40, 4)
        assert table.mono_edges.dtype == np.int32
        assert classes.labels.dtype == np.int8
        assert all(idx.dtype == np.int32 for idx in classes.members)


def _level_cases():
    """TestCachedTables' cases plus a size grid under 2e5 signatures: empty
    residual and disordered phases and q=3 ties."""
    cases = list(TestCachedTables.CASES)
    for m, q in itertools.product((1, 2, 10, 40, 60, 81, 82, 120, 200, 400), (3, 4, 5)):
        if math.comb(m + q - 1, q - 1) < 2 * 10**5:
            cases += [(m, q, beta_mult) for beta_mult in (0.9, 1.0, 1.1)]
    return cases


class TestPhaseLevels:
    @pytest.mark.parametrize("m, q, beta_mult", _level_cases())
    def test_phase_split_within_4_ulp_of_fsum_reference(self, m, q, beta_mult):
        beta = beta_mult * mf.find_critical_Bo(q).Bo / m
        split = mf.phase_split(m, q, beta)
        got = (split.log_ZM, split.log_ZD, split.log_ZS)
        for value, ref in zip(got, reference_phase_split(m, q, beta), strict=True):
            if ref == -math.inf:
                assert value == -math.inf
            else:
                assert abs(value - ref) <= 4 * math.ulp(ref), (value, ref)

    @pytest.mark.parametrize("m, q", [(1, 3), (82, 3), (20, 4)])
    def test_levels_are_read_only_ascending_float64(self, m, q):
        levels = mf.phase_levels(m, q)
        assert len(levels) == 3
        for e, log_g in levels:
            assert e.dtype == log_g.dtype == np.float64
            assert e.shape == log_g.shape
            assert np.all(np.diff(e) > 0)
            assert not e.flags.writeable and not log_g.flags.writeable


class TestPhaseSplit:
    @pytest.mark.parametrize("beta_mult", [0.5, 0.9, 1.0, 1.1, 1.5])
    def test_total_matches_complete_graph(self, beta_mult):
        m, q = 9, 3
        beta = beta_mult * mf.find_critical_Bo(q).Bo / m
        split = mf.phase_split(m, q, beta)
        brute = partition_log(mf.explicit_complete_graph(m, q, beta))
        assert split.log_Z == pytest.approx(brute, rel=1e-11)

    def test_partition_identity(self):
        split = mf.phase_split(30, 3, mf.find_critical_Bo(3).Bo / 30)
        from scipy.special import logsumexp

        parts = [split.log_ZM, split.log_ZD, split.log_ZS]
        finite = [p for p in parts if p > -math.inf]
        assert logsumexp(finite) == pytest.approx(split.log_Z, rel=1e-12)

    @pytest.mark.parametrize("m, q", [(12, 3), (82, 3), (9, 4), (6, 6), (5, 7)])
    def test_labels_are_color_permutation_symmetric(self, m, q):
        # permuting a signature's colors keeps its phase label: every
        # signature is labelled as its descending rearrangement
        sigs = mf.enumerate_signatures(m, q)
        labels = mf.phase_classes(m, q).labels
        label_of = dict(zip(map(tuple, sigs.tolist()), labels.tolist()))
        assert len(set(labels.tolist())) > 1
        for s, lab in label_of.items():
            assert label_of[tuple(sorted(s, reverse=True))] == lab, s

    def test_matches_brute_force_by_label(self):
        m, q = 8, 3
        beta = 0.4
        split = mf.phase_split(m, q, beta)
        model = mf.explicit_complete_graph(m, q, beta)
        sigs = mf.enumerate_signatures(m, q)
        labels = mf.classify_signatures(sigs, m, q)
        # recompute Z^D via the exact engine over configurations
        d_sigs = {tuple(s) for s, lab in zip(sigs.tolist(), labels) if lab == mf.PHASE_D}

        def in_d(spins):
            counts = np.stack([(spins == c).sum(axis=1) for c in range(q)], axis=1)
            return np.fromiter(
                (tuple(row) in d_sigs for row in counts.tolist()),
                dtype=bool,
                count=len(counts),
            )

        brute_d = restricted_partition_log(model, in_d)
        assert split.log_ZD == pytest.approx(brute_d, rel=1e-11)

    def test_residual_empty_below_threshold(self):
        # at window exponent 3/4 the M and D windows cover everything for
        # small m; the residual class first becomes nonempty near m = 82
        for m in (30, 40, 60, 80):
            split = mf.phase_split(m, 3, mf.find_critical_Bo(3).Bo / m)
            assert split.log_ZS == -math.inf
        split90 = mf.phase_split(90, 3, mf.find_critical_Bo(3).Bo / 90)
        assert split90.log_ZS > -math.inf

    def test_residual_threshold_is_m82(self):
        # at q = 3 and beta_H = Bo/m the residual phase is empty up to m = 81
        # and first nonempty at m = 82
        bo = mf.find_critical_Bo(3).Bo
        assert mf.phase_split(81, 3, bo / 81).log_ZS == -math.inf
        assert math.isfinite(mf.phase_split(82, 3, bo / 82).log_ZS)
        assert len(mf.phase_classes(82, 3).members[mf.PHASE_S]) == 6

    @pytest.mark.parametrize("q", [3, 4, 5, 6])
    def test_gap_of_single_vertex_is_minus_inf(self, q):
        # at m=1 every signature is majority: Z^S and Z^D are both empty, and
        # an empty residual phase is fully suppressed (gap -inf, not nan)
        split = mf.phase_split(1, q, mf.find_critical_Bo(q).Bo)
        assert split.log_ZS == split.log_ZD == -math.inf
        assert split.gap == -math.inf

    def test_gap_is_strongly_negative_when_defined(self):
        # the residual phase is exponentially dominated: gap <= -0.7 sqrt(m)
        crit = mf.find_critical_Bo(3)
        for m in (90, 120, 200):
            gap, root_m = mf.metastability_report(m, 3, crit.Bo / m)
            assert gap < -0.7 * root_m


def _fraction_labels(m, q):
    """Labels from the documented rule in exact rationals over all q majority
    branches: centers m/q (D) and (q-1)m/q on one color, m/(q(q-1)) on the
    others (M), half-width the float m^(3/4) taken exactly, ties to D.  Also
    asserts that every M signature has exactly one nearest majority center."""
    w = Fraction(float(m) ** 0.75)
    center_d = [Fraction(m, q)] * q
    centers_m = [
        [Fraction((q - 1) * m, q) if i == j else Fraction(m, q * (q - 1)) for i in range(q)]
        for j in range(q)
    ]

    def inside(s, c):
        return all(abs(x - y) <= w for x, y in zip(s, c))

    def d2(s, c):
        return sum((x - y) ** 2 for x, y in zip(s, c))

    labels = []
    for s in mf.enumerate_signatures(m, q).tolist():
        near = [d2(s, c) for c in centers_m if inside(s, c)]
        if near and (not inside(s, center_d) or min(near) < d2(s, center_d)):
            assert near.count(min(near)) == 1, s
            labels.append(mf.PHASE_M)
        else:
            labels.append(mf.PHASE_D if inside(s, center_d) else mf.PHASE_S)
    return labels


class TestExactLabels:
    @pytest.mark.parametrize(
        "m, q",
        [(16, 3), (30, 3), (81, 3), (82, 3), (6, 4), (12, 4), (20, 4), (5, 5), (10, 5),
         (1, 2), (10, 2), (40, 2), (4, 6), (9, 6), (3, 7), (7, 7)],
    )
    def test_phase_classes_match_fraction_brute_force(self, m, q):
        labels = _fraction_labels(m, q)
        assert mf.phase_classes(m, q).labels.tolist() == labels
        if q == 2:
            # both majority centers coincide with D's, so ties leave M empty
            assert mf.PHASE_M not in labels


class TestFactA2Bracket:
    @pytest.mark.parametrize("m", [12, 20, 40, 60])
    def test_bracket_at_critical(self, m):
        q = 3
        crit = mf.find_critical_Bo(q)
        split = mf.phase_split(m, q, crit.Bo / m)
        log_ratio = split.log_ZM - split.log_ZD
        n_sigs = len(mf.enumerate_signatures(m, q))
        assert -math.log(q * n_sigs) <= log_ratio <= math.log(q * n_sigs * n_sigs)


class TestSolveBetaH:
    @pytest.mark.parametrize("R", [0.1, 1.0, 10.0, 100.0])
    def test_postcondition(self, R):
        delta = 0.1
        beta = mf.solve_beta_H(40, 3, R, delta)
        ratio = math.exp(mf.log_ratio_g(40, 3, beta))
        assert (1 - delta) * R <= ratio <= R

    def test_monotone_in_beta(self):
        # the majority/disordered log-ratio increases with the coupling
        m, q = 20, 3
        betas = np.linspace(0.8, 1.2, 5) * mf.find_critical_Bo(q).Bo / m
        vals = [mf.log_ratio_g(m, q, b) for b in betas]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("m", [0, -3])
    def test_empty_clique_is_an_error(self, m):
        with pytest.raises(InvalidModelError, match="m must be >= 1"):
            mf.solve_beta_H(m, 3, 1.0, 0.1)

    def test_unreachable_target_raises(self):
        with pytest.raises(TargetUnreachableError):
            mf.solve_beta_H(10, 3, 1e300, 0.1)

    def test_nan_target_is_an_error(self, monkeypatch):
        # rejected before any ratio evaluation
        calls = []
        monkeypatch.setattr(mf, "log_ratio_g", lambda *args: calls.append(args))
        with pytest.raises(InvalidModelError, match="target_R > 0"):
            mf.solve_beta_H(80, 4, math.nan, 0.5)
        assert calls == []

    @pytest.mark.parametrize("m, q", [(30, 3), (80, 4), (40, 3), (20, 4)])
    def test_solution_pinned_to_per_signature_reference(self, monkeypatch, m, q):
        # 75 seeded targets per size: level sums and per-signature sums must
        # take the same bisection steps to the same beta_H, bit for bit
        def solve(g, log_R):
            calls = []

            def counted(*args):
                calls.append(args)
                return g(*args)

            monkeypatch.setattr(mf, "log_ratio_g", counted)
            return mf.solve_beta_H(m, q, math.exp(log_R), 0.5), len(calls)

        level_g = mf.log_ratio_g
        for log_R in np.random.default_rng([m, q]).uniform(-0.5, 2.5, size=75):
            assert solve(level_g, log_R) == solve(reference_log_ratio_g, log_R), log_R
