"""Tests of the benchmark's own arithmetic: python -m pytest bench -q"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import metrics
import reference
from spinlab.errors import BudgetExceededError, GuardViolation
from tracing import Tracer, self_times


# -- tail percentile -------------------------------------------------------------


def test_tail_keeps_ten_samples_beyond():
    samples = [float(x) for x in range(100, 0, -1)]
    value, pct = metrics.tail_latency(samples)
    assert value == 90.0 and pct == 90.0
    assert sum(s > value for s in samples) == 10


def test_tail_with_eleven_samples_is_the_smallest():
    value, pct = metrics.tail_latency([5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0])
    assert value == 1.0 and pct == pytest.approx(100.0 / 11)


def test_tail_needs_more_than_ten_samples():
    assert metrics.tail_latency([1.0] * 10) is None
    assert metrics.tail_latency([]) is None


# -- self time -------------------------------------------------------------------------


def _clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_nested_children():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
    tracer = Tracer(clock=_clock([0, 1, 2, 3, 4, 5, 9, 10]))
    tracer.active = True
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("a1"):
                pass
        with tracer.span("b"):
            pass
    assert [s[0] for s in tracer.spans] == ["root", "a", "a1", "b"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 0]
    assert tracer.self_times() == [3, 2, 1, 4]


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 10.0, -1, 0], ["c1", 1.0, 6.0, 0, 0], ["c2", 4.0, 8.0, 0, 0]]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_wrapped_attribute_records_spans_and_restores():
    class Module:
        @staticmethod
        def work(x):
            return 2 * x

    tracer = Tracer()
    tracer.wrap(Module, "work", "m.work", lambda r, x: tracer.count("m.calls", x))
    original = Module.work
    tracer.install(op=7)
    assert Module.work(3) == 6
    tracer.uninstall()
    assert Module.work is original
    assert Module.work(5) == 10  # untraced: nothing recorded
    assert [(s[0], s[4]) for s in tracer.spans] == [("m.work", 7)]
    assert tracer.total("m.calls", range(7, 8)) == 3


# -- failure accounting --------------------------------------------------------------------


def _report(provenance, tv=None):
    rep = {"provenance": provenance, "answer": "Z<=Zhat/r", "correct": True}
    if tv is not None:
        rep["tv_exact"] = tv
    return rep


def test_guard_decided_answer_is_not_a_failure():
    rec = metrics.attempt(lambda: _report("guard-bound"),
                          lambda rep: metrics.check_trial(rep, "low", 0.03, 0.1))
    assert rec.failure is None


def test_tester_answer_is_held_to_the_contract_gap():
    check = metrics.check_trial
    assert check(_report("tester", 0.01), "low", 0.03, 0.1) is None
    assert check(_report("tester", 0.5), "high", 0.03, 0.1) is None
    assert check(_report("tester", 0.05), "low", 0.03, 0.1)
    assert check(_report("tester", 0.05), "high", 0.03, 0.1)
    assert check(_report("tester"), "low", 0.03, 0.1)


@pytest.mark.parametrize("error", [BudgetExceededError(30, 2, 26),
                                   GuardViolation("below", "Z>=r*Zhat")])
def test_raised_spinlab_error_is_a_failure(error):
    def execute():
        raise error

    rec = metrics.attempt(execute, lambda out: None)
    assert rec.failure and type(error).__name__ in rec.failure


def test_failed_check_is_a_failure_and_only_execute_is_timed():
    rec = metrics.attempt(lambda: 1, lambda out: "wrong", clock=_clock([10.0, 12.5]))
    assert rec.failure == "wrong" and rec.latency_s == 2.5


def test_branch_accuracy_is_a_binomial_test_against_five_eighths():
    assert not metrics.accuracy_refuted(10, 10)
    assert not metrics.accuracy_refuted(4, 7)  # 4/7 < 5/8, but likely for a sound decider
    assert metrics.accuracy_refuted(0, 10)
    assert metrics.accuracy_refuted(5, 20)
    assert not metrics.accuracy_refuted(0, 0)


# -- class TV bound ----------------------------------------------------------------------------


def test_class_tv_bound_holds_for_exact_draws():
    import numpy as np

    rng = np.random.default_rng(0)
    probs = rng.dirichlet(np.ones(28))
    for _ in range(20):
        counts = np.bincount(rng.choice(28, size=400, p=probs), minlength=28)
        assert metrics.class_tv(counts, probs) <= metrics.class_tv_bound(28, 400)
    skewed = np.bincount(rng.choice(28, size=4000, p=np.roll(probs, 1)), minlength=28)
    assert metrics.class_tv(skewed, probs) > metrics.class_tv_bound(28, 4000)


# -- reference scaling -------------------------------------------------------------------


def test_scale_divides_by_the_median_of_nearby_reference_passes():
    nominal = reference.NOMINAL_S
    refs = [nominal, nominal, 2 * nominal, 2 * nominal, 2 * nominal]
    # op 1 sees passes 0-3 (median 1.5 x nominal), op 2 sees passes 1-4 (2 x)
    assert reference.scale([1.0, 1.0, 1.0, 1.0], refs) == pytest.approx([1.0, 2 / 3, 0.5, 0.5])
    assert reference.scale([1.0, 3.0, 1.0, 2.0], refs) == pytest.approx([1.0, 2.0, 0.5, 1.0])
    # an op that slows as the square root of the kernel
    assert reference.scale([1.0, 1.0, 1.0, 1.0], refs, 0.5) == pytest.approx([1.0, (2 / 3) ** 0.5, 0.5**0.5, 0.5**0.5])


def test_scale_needs_one_pass_more_than_items():
    with pytest.raises(ValueError):
        reference.scale([1.0, 1.0], [0.05, 0.05])
