import math

import numpy as np
import pytest

from spinlab import meanfield as mf
from spinlab.exact import partition_log, restricted_partition_log
from spinlab.errors import BudgetExceededError, TargetUnreachableError


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
        disordered = mf.psi1(1.0 / 3.0, crit.Bo, 3)
        ordered = mf.psi1(crit.alpha_hat, crit.Bo, 3)
        assert ordered == pytest.approx(disordered, abs=1e-9)


class TestCoexistenceGrid:
    @pytest.mark.parametrize("q", [3, 4, 5, 6])
    def test_grid_matches_scalar_psi1(self, q):
        x_lo = 1.0 / q + 0.3 * (1.0 - 1.0 / q)
        xs = np.linspace(x_lo, 1.0 - 1e-12, 512)
        for beta in (0.5, mf.find_critical_Bo(q).Bo, 4.0 * math.log(q) + 2.0):
            grid = mf._psi1_grid(xs, beta, q)
            scalar = np.array([mf.psi1(float(x), beta, q) for x in xs])
            assert np.max(np.abs(grid - scalar)) <= 1e-15

    @pytest.mark.parametrize(
        "q, Bo, alpha_hat",
        [
            (3, "2.772588722237109", "0.6666666646667371"),
            (4, "3.295836866004783", "0.7500000027351296"),
            (5, "3.6967849629858005", "0.8000000001316677"),
            (6, "4.023594781087528", "0.8333333296676538"),
        ],
    )
    def test_critical_point_pinned(self, q, Bo, alpha_hat):
        # values of the scalar-grid implementation, to the last bit
        crit = mf.find_critical_Bo(q)
        assert repr(crit.Bo) == Bo
        assert repr(crit.alpha_hat) == alpha_hat


class TestSignatures:
    def test_count(self):
        sigs = mf.enumerate_signatures(6, 3)
        assert len(sigs) == math.comb(6 + 2, 2)
        assert np.all(sigs.sum(axis=1) == 6)

    def test_weights_total(self):
        # multinomial expansion: total over signatures equals q^m at beta=0
        _, lws = mf.signature_log_weights(7, 3, 0.0)
        from scipy.special import logsumexp

        assert logsumexp(lws) == pytest.approx(7 * math.log(3))

    def test_budget_error_reports_the_signature_count(self):
        # C(10003, 3) ~ 2^37.3 signatures against a cap of log2(5e6) ~ 22.25 bits
        with pytest.raises(BudgetExceededError) as info:
            mf.enumerate_signatures(10**4, 4)
        assert (info.value.n, info.value.q) == (10**4, 4)
        assert "37.3 bits > cap 22.25" in str(info.value)


def _reference_split(m, q, beta, alpha_hat, window_exponent):
    """Uncached phase split: classify, then mask-and-logsumexp per part."""
    from scipy.special import logsumexp

    sigs, logw = mf.signature_log_weights(m, q, beta)
    labels, frac = mf.classify_signatures(sigs, m, q, alpha_hat, window_exponent)

    def part(sel, extra=0.0):
        return float(logsumexp(logw[sel] + extra)) if sel.any() else -math.inf

    parts = tuple(part(labels == lab) for lab in (mf.PHASE_M, mf.PHASE_D, mf.PHASE_S))
    branches = tuple(
        part(frac[:, j] > 0, np.log(frac[frac[:, j] > 0, j])) for j in range(q)
    )
    return parts, branches


class TestCachedTables:
    CASES = [
        (8, 3, 0.6, None, mf.DEFAULT_WINDOW_EXPONENT),
        (30, 3, 1.0, None, mf.DEFAULT_WINDOW_EXPONENT),
        (90, 3, 1.1, None, mf.DEFAULT_WINDOW_EXPONENT),
        (20, 4, 0.9, None, mf.DEFAULT_WINDOW_EXPONENT),
        (12, 5, 1.3, 0.7, mf.DEFAULT_WINDOW_EXPONENT),
        (25, 3, 1.0, 0.62, 0.6),
        (16, 4, 0.8, None, 0.65),
    ]

    @pytest.mark.parametrize("m, q, beta_mult, alpha_hat, w_exp", CASES)
    def test_phase_split_equals_uncached_reference(self, m, q, beta_mult, alpha_hat, w_exp):
        beta = beta_mult * mf.find_critical_Bo(q).Bo / m
        a_hat = mf.default_alpha_hat(q) if alpha_hat is None else alpha_hat
        parts, branches = _reference_split(m, q, beta, a_hat, w_exp)
        split = mf.phase_split(m, q, beta, alpha_hat, w_exp)
        assert (split.log_ZM, split.log_ZD, split.log_ZS) == parts
        assert split.log_branches == branches

    @pytest.mark.parametrize("m, q, beta_mult, alpha_hat", [c[:4] for c in CASES])
    def test_log_ratio_g_equals_uncached_reference(self, m, q, beta_mult, alpha_hat):
        beta = beta_mult * mf.find_critical_Bo(q).Bo / m
        a_hat = mf.default_alpha_hat(q) if alpha_hat is None else alpha_hat
        (log_zm, log_zd, _), _ = _reference_split(
            m, q, beta, a_hat, mf.DEFAULT_WINDOW_EXPONENT
        )
        assert mf.log_ratio_g(m, q, beta, alpha_hat) == log_zm - log_zd

    def test_shared_arrays_are_read_only(self):
        table = mf.signature_table(10, 3)
        classes = mf.phase_classes(10, 3, mf.default_alpha_hat(3), mf.DEFAULT_WINDOW_EXPONENT)
        arrays = [mf.enumerate_signatures(10, 3), table.sigs, table.log_multi,
                  table.mono_edges, classes.labels, *classes.members,
                  *(idx for idx, _ in classes.branches),
                  *(lf for _, lf in classes.branches if lf is not None)]
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 0

    def test_compact_dtypes(self):
        table = mf.signature_table(40, 4)
        classes = mf.phase_classes(40, 4, mf.default_alpha_hat(4), mf.DEFAULT_WINDOW_EXPONENT)
        assert table.mono_edges.dtype == np.int32
        assert classes.labels.dtype == np.int8
        assert all(idx.dtype == np.int32 for idx in classes.members)
        assert all(idx.dtype == np.int32 for idx, _ in classes.branches)


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

    def test_branch_symmetry(self):
        # the q majority branches carry identical mass
        split = mf.phase_split(12, 3, mf.find_critical_Bo(3).Bo / 12)
        branches = split.log_branches
        assert len(branches) == 3
        assert branches[0] == pytest.approx(branches[1], rel=1e-12)
        assert branches[0] == pytest.approx(branches[2], rel=1e-12)

    def test_matches_brute_force_by_label(self):
        m, q = 8, 3
        beta = 0.4
        split = mf.phase_split(m, q, beta)
        model = mf.explicit_complete_graph(m, q, beta)
        sigs = mf.enumerate_signatures(m, q)
        labels, _ = mf.classify_signatures(sigs, m, q, split.alpha_hat)
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

    def test_residual_threshold_is_m81(self):
        # at q = 3 and beta_H = Bo/m the residual phase is empty up to m = 80
        # and first nonempty at m = 81
        bo = mf.find_critical_Bo(3).Bo
        assert mf.phase_split(80, 3, bo / 80).log_ZS == -math.inf
        assert math.isfinite(mf.phase_split(81, 3, bo / 81).log_ZS)

    def test_gap_is_strongly_negative_when_defined(self):
        # the residual phase is exponentially dominated: gap <= -0.7 sqrt(m)
        crit = mf.find_critical_Bo(3)
        for m in (90, 120, 200):
            gap, root_m = mf.metastability_report(m, 3, None, crit.Bo / m)
            assert gap < -0.7 * root_m


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

    def test_unreachable_target_raises(self):
        with pytest.raises(TargetUnreachableError):
            mf.solve_beta_H(10, 3, 1e300, 0.1)
