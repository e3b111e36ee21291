"""The benchmark's workloads and the per-layer instrumentation.

Every input is generated here from the workload seed; spinlab receives only
the generated models, targets and trial seeds.  Each workload splits an op
into ``prepare(i)`` (input generation, untimed), ``execute(inputs)`` (the
timed calls into spinlab) and ``check(inputs, output, record)`` (correctness,
untimed).  ``execute`` is a pure function of its inputs, so the traced run
can execute each op twice, once traced and once not.
"""

from __future__ import annotations

import json
import math
import zlib
from collections import defaultdict
from pathlib import Path
from typing import Optional

import networkx as nx
import numpy as np
from scipy.special import logsumexp

from spinlab import cli, counting, exact, gadget, hubs, meanfield, potts
from spinlab.model import SpinSystem, save_model
from spinlab.potts import ANSWER_HIGH, ANSWER_LOW

import metrics
from tracing import Tracer


def _rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng([seed, *keys])


def _tag(name: str) -> int:
    return zlib.crc32(name.encode("utf-8"))


def _seed31(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def _cubic_edges(n: int, graph_seed: int) -> list[tuple[int, int]]:
    return sorted(nx.random_regular_graph(3, n, seed=graph_seed).edges())


# -- hub reductions ----------------------------------------------------------------


class HubTrials:
    """Antiferro two-hub reductions on a seeded random cubic base graph.

    Trial ops alternate the low and high branches (Z_G below Zhat/r and above
    r*Zhat); with ``cli_every`` set, every ``cli_every``-th op is instead an
    in-process ``spinlab reduce`` call with log Zhat inside the guard window.
    """

    EPSILON = 0.9
    BETA_G = -0.6
    SPEED_EXPONENT = 1.0  # see reference.scale; measured 1.02-1.07 on hub-oracle
    # Outside the guard window the CLI answers from the guard in ~10 ms and
    # no tester runs; keep the CLI queries this far inside it.
    WINDOW_MARGIN = 0.05

    def __init__(self, name: str, seed: int, tracer: Tracer, outdir: Path,
                 *, N: int, L: int, tester: str, cli_every: int = 0):
        self.name, self.seed, self.tracer = name, seed, tracer
        self.N, self.L, self.tester, self.cli_every = N, L, tester, cli_every
        rng = _rng(seed, _tag(name))
        self.G = SpinSystem(q=2, n=N, field=(), edges=tuple(
            (u, v, self.BETA_G) for u, v in _cubic_edges(N, _seed31(rng))))
        self.rate = potts.testing_rate(self.EPSILON, L)
        log_ZG = exact.partition_log(self.G)
        self.branches = {
            "low": (math.log(self.rate) + log_ZG + 1.0, ANSWER_LOW),
            "high": (log_ZG - math.log(self.rate) - 1.0, ANSWER_HIGH),
        }
        # build_hub_instance's guard window for the antiferro variant
        log_zmono = self.BETA_G * len(self.G.edges)
        self.window = (
            math.log(self.rate) + N * math.log(2.0) + log_zmono,
            N * math.log(2.0) - math.log(self.rate),
        )
        self.model_path = outdir / f"{name}-{seed}-model.json"
        self.cli_out = outdir / f"{name}-{seed}-reduce.jsonl"
        if cli_every:
            save_model(self.G, str(self.model_path))
        self.correct: dict[str, list[tuple[int, bool]]] = {"low": [], "high": []}
        self.pool: dict[str, np.ndarray] = {}
        self.pool_probs: dict[str, np.ndarray] = {}
        self._draws: list = []
        self._instance = None

    def prepare(self, i: int) -> dict:
        rng = _rng(self.seed, _tag(self.name), i)
        if self.cli_every and i % self.cli_every == self.cli_every - 1:
            lo, hi = self.window
            m = self.WINDOW_MARGIN
            return {"i": i, "kind": "cli", "seed": _seed31(rng),
                    "log_zhat": float(rng.uniform(lo + m, hi - m))}
        trials_before = i - (i // self.cli_every if self.cli_every else 0)
        branch = ("low", "high")[trials_before % 2]
        return {"i": i, "kind": "trial", "seed": _seed31(rng), "branch": branch}

    def _build(self, G, log_Zhat):
        return hubs.build_hub_instance(
            G, hubs.VARIANT_ANTIFERRO, self.EPSILON, self.L, log_Zhat, enforce_guard=False
        )

    def _sample(self, inst, rng):
        sigma = hubs.sample_hidden_hub(inst, rng)
        self._instance = inst
        self._draws.append(sigma.spins)
        return sigma

    def execute(self, inp: dict):
        if inp["kind"] == "cli":
            self.cli_out.unlink(missing_ok=True)
            with self.tracer.span("cli.reduce"):
                cli.main(
                    ["reduce", str(self.model_path), "--variant", hubs.VARIANT_ANTIFERRO,
                     "--log-zhat", repr(inp["log_zhat"]), "--seed", str(inp["seed"]),
                     "--out", str(self.cli_out)],
                    standalone_mode=False,
                )
            return self.cli_out.read_text(encoding="utf-8")
        self._draws = []
        log_zhat, expected = self.branches[inp["branch"]]
        factory = getattr(counting, f"{self.tester}_tester")
        return counting.run_reduction_trials(
            self.G, self._build, self._sample, factory(self.EPSILON, self.L), self.L,
            branches=[(inp["branch"], log_zhat, expected)], seeds=[inp["seed"]], r=self.rate,
        )

    def check(self, inp: dict, out, record: bool) -> Optional[str]:
        if inp["kind"] == "cli":
            lines = out.splitlines()
            if len(lines) != 1:
                return f"reduce printed {len(lines)} report lines"
            report = json.loads(lines[0])
            if report.get("provenance") != metrics.PROVENANCE_TESTER:
                return f"reduce inside the guard window gave provenance {report.get('provenance')!r}"
            if report.get("answer") not in (ANSWER_LOW, ANSWER_HIGH):
                return f"reduce gave answer {report.get('answer')!r}"
            return None
        if len(out) != 1:
            return f"{len(out)} reports for one trial"
        report = out[0]
        branch = inp["branch"]
        failure = metrics.check_trial(report, branch, 1.0 / (16.0 * self.L), 1.0 - self.EPSILON)
        if failure is None and len(self._draws) != (self.L if report["provenance"] == "tester" else 0):
            failure = f"{len(self._draws)} hidden draws, expected {self.L}"
        if failure is None and record:
            self.correct[branch].append((inp["i"], bool(report["correct"])))
            if self._draws:
                failure = self._pool(branch)
        return failure

    def _pool(self, branch: str) -> Optional[str]:
        """Add the op's hidden draws to the branch's type-class histogram."""
        descriptors, log_count, log_weight = self._instance.hidden_class_table
        index = {d: k for k, d in enumerate(descriptors)}
        N, counts = self.N, np.zeros(len(descriptors))
        for spins in self._draws:
            counts[index[(spins[N], spins[N + 1], spins[:N].count(0))]] += 1
        t = log_count + log_weight
        probs = np.exp(t - logsumexp(t))
        if branch in self.pool:
            if not np.allclose(self.pool_probs[branch], probs, rtol=0, atol=1e-12):
                return f"{branch} branch hidden law changed between trials"
            self.pool[branch] += counts
        else:
            self.pool[branch], self.pool_probs[branch] = counts, probs
        return None

    def finish(self) -> list[str]:
        problems = []
        for branch, results in self.correct.items():
            right = sum(ok for _, ok in results)
            if metrics.accuracy_refuted(right, len(results)):
                problems.append(f"{branch} branch: {right} of {len(results)} trials correct "
                                f"refutes accuracy >= 5/8")
        for branch, counts in self.pool.items():
            draws = int(counts.sum())
            tv = metrics.class_tv(counts, self.pool_probs[branch])
            bound = metrics.class_tv_bound(len(counts), draws)
            if tv > bound:
                problems.append(f"{branch} branch pooled hidden-draw class TV {tv:.4f} > {bound:.4f} over {draws} draws")
        return problems

    def correct_frac(self, ops: range) -> float:
        judged = [ok for results in self.correct.values() for i, ok in results if i in ops]
        return sum(judged) / len(judged) if judged else 0.0

    def warm(self) -> None:
        """Nothing lazy to fill: the hub modules keep no module-level caches."""


# -- Potts clique replacement and mean-field solvers ------------------------------------


class PottsMeanfield:
    """One tuned clique-replacement instance per op (q=3, N=4 cycle, m=30)
    plus one meanfield-sweep point (q=4, m=80)."""

    name = "potts-meanfield"
    SPEED_EXPONENT = 1.0  # see reference.scale; measured 0.93
    Q, N, M = 3, 4, 30
    SWEEP_Q, SWEEP_M = 4, 80
    BETA_CROSS = 0.05  # build_potts_instance's interval is empty at this size
    DELTA = 0.5
    DRAWS = 200
    LOG_TARGET = (-0.5, 2.5)  # reachable at both sizes within the solver's bracket
    BETA_G = (0.2, 1.0)

    def __init__(self, seed: int, tracer: Tracer, outdir: Path):
        self.seed, self.tracer = seed, tracer
        self.pool_counts: dict[tuple, float] = defaultdict(float)
        self.pool_expect: dict[tuple, float] = defaultdict(float)

    def warm(self) -> None:
        with self.tracer.span("meanfield.critical"):
            meanfield.find_critical_Bo(self.Q)
            meanfield.find_critical_Bo(self.SWEEP_Q)
        meanfield.enumerate_signatures(self.M, self.Q)
        meanfield.enumerate_signatures(self.SWEEP_M, self.SWEEP_Q)

    def prepare(self, i: int) -> dict:
        rng = _rng(self.seed, _tag(self.name), i)
        beta_g = float(rng.uniform(*self.BETA_G))
        G = SpinSystem(q=self.Q, n=self.N,
                       edges=tuple((v, (v + 1) % self.N, beta_g) for v in range(self.N)), field=())
        return {"i": i, "G": G,
                "log_R": float(rng.uniform(*self.LOG_TARGET)),
                "log_R_sweep": float(rng.uniform(*self.LOG_TARGET)),
                "draw_seed": _seed31(rng)}

    def execute(self, inp: dict) -> dict:
        beta_H = meanfield.solve_beta_H(self.M, self.Q, math.exp(inp["log_R"]), self.DELTA)
        inst = potts.make_potts_instance(inp["G"], self.M, self.BETA_CROSS, beta_H)
        visible = potts.collapsed_distribution_F(inst, "visible")
        hidden = potts.collapsed_distribution_F(inst, "hidden")
        tv = exact.tv_collapsed(visible, hidden)
        phases = potts.phase_partition_F(inst, "visible")
        with self.tracer.span("potts.class_table"):
            table = inst.hidden_class_table
        rng = np.random.default_rng(inp["draw_seed"])
        draws = [potts.sample_hidden_potts(inst, rng).spins for _ in range(self.DRAWS)]
        beta_sweep = meanfield.solve_beta_H(
            self.SWEEP_M, self.SWEEP_Q, math.exp(inp["log_R_sweep"]), self.DELTA
        )
        return {"beta_H": beta_H, "visible_log_Z": visible.log_Z, "hidden_log_Z": hidden.log_Z,
                "tv": tv, "phases": phases, "table": table, "draws": draws,
                "beta_sweep": beta_sweep}

    def _window_failure(self, m: int, q: int, beta: float, log_R: float) -> Optional[str]:
        achieved = meanfield.log_ratio_g(m, q, beta)
        lo, hi = log_R + math.log1p(-self.DELTA), log_R
        if not lo <= achieved <= hi:
            return f"solve_beta_H(m={m}, q={q}) ratio {achieved:.6g} outside [{lo:.6g}, {hi:.6g}]"
        return None

    def check(self, inp: dict, out: dict, record: bool) -> Optional[str]:
        failure = (self._window_failure(self.M, self.Q, out["beta_H"], inp["log_R"])
                   or self._window_failure(self.SWEEP_M, self.SWEEP_Q, out["beta_sweep"],
                                           inp["log_R_sweep"]))
        if failure:
            return failure
        descriptors, log_count, log_weight = out["table"]
        t = log_count + log_weight
        table_log_Z = float(logsumexp(t))
        if abs(table_log_Z - out["hidden_log_Z"]) > 1e-9:
            return f"hidden class table log Z {table_log_Z!r} != collapsed {out['hidden_log_Z']!r}"
        phase_log_Z = float(logsumexp(out["phases"]))
        if abs(phase_log_Z - out["visible_log_Z"]) > 1e-9:
            return f"M/D/S parts sum to {phase_log_Z!r}, visible log Z is {out['visible_log_Z']!r}"
        if not 0.0 <= out["tv"] <= 1.0:
            return f"tv_collapsed {out['tv']!r} outside [0, 1]"
        if record:
            probs = np.exp(t - table_log_Z)
            for (sig_h, sig_k), p in zip(descriptors, probs):
                self.pool_expect[self._key(sig_h, sig_k)] += self.DRAWS * p
            for spins in out["draws"]:
                block, h_part = spins[: self.N], spins[self.N:]
                self.pool_counts[self._key(
                    tuple(h_part.count(c) for c in range(self.Q)),
                    tuple(block.count(c) for c in range(self.Q)),
                )] += 1
        return None

    @staticmethod
    def _key(sig_h, sig_k) -> tuple:
        """Coarse class of a hidden draw: block signature and H's majority color."""
        return sig_k, int(np.argmax(sig_h))

    def finish(self) -> list[str]:
        if not self.pool_counts:
            return []
        keys = sorted(self.pool_expect)
        counts = [self.pool_counts.get(k, 0.0) for k in keys]
        draws = int(sum(counts))
        if draws != int(sum(self.pool_counts.values())):
            return ["Potts draws fell outside the hidden class table"]
        tv = metrics.class_tv(counts, [self.pool_expect[k] / draws for k in keys])
        bound = metrics.class_tv_bound(len(keys), draws)
        if tv > bound:
            return [f"pooled Potts draw class TV {tv:.4f} > {bound:.4f} over {draws} draws"]
        return []

    def correct_frac(self, ops: range) -> float:
        return 0.0


# -- brute-force exact lab tasks ---------------------------------------------------------


class ExactEnum:
    """Brute-force lab tasks on seeded random cubic Ising models."""

    name = "exact-enum"
    # See reference.scale: brute-force enumeration slows only about half as
    # much as the kernel (measured 0.49-0.67; 0.59 against a kernel that
    # enumerates 2^18 states itself), and full scaling over-corrected it.
    SPEED_EXPONENT = 0.6
    N = 18
    R = 10.0
    GADGET = gadget.GadgetParams.low_degree(8, 7)
    BETA_B = 4.0
    SYMMETRY_EVERY = 4  # tv_exact(A, A) and tv_exact(B, A) cost two more passes

    def __init__(self, seed: int, tracer: Tracer, outdir: Path):
        self.seed, self.tracer = seed, tracer

    def warm(self) -> None:
        """Nothing lazy to fill: the exact engine keeps no caches."""

    def prepare(self, i: int) -> dict:
        rng = _rng(self.seed, _tag(self.name), i)
        n = self.N
        edges = tuple((u, v, float(rng.normal(0.0, 0.5))) for u, v in _cubic_edges(n, _seed31(rng)))
        field = tuple((v, int(rng.integers(2)), float(rng.normal(0.0, 0.3))) for v in range(n))
        A = SpinSystem(q=2, n=n, edges=edges, field=field)
        B = SpinSystem(q=2, n=n, field=field, edges=tuple(
            (u, v, b + float(rng.normal(0.0, 0.1))) for u, v, b in A.edges))
        tau = tuple(int(s) for s in rng.integers(2, size=2 * self.GADGET.p * self.GADGET.d_out))
        return {"i": i, "A": A, "B": B, "bisect_seed": _seed31(rng),
                "gadget_seed": _seed31(rng), "tau": tau}

    def execute(self, inp: dict) -> dict:
        A = inp["A"]
        log_Z = exact.partition_log(A)
        tracer = self.tracer

        def decider(log_zhat, rng):
            tracer.count("counting.bisection_steps")
            return ANSWER_HIGH if log_Z >= log_zhat else ANSWER_LOW

        estimate = counting.bisection_counter(
            decider, A.n, counting.crude_exponent(A), self.R,
            np.random.default_rng(inp["bisect_seed"]),
        )
        tv = exact.tv_exact(A, inp["B"])
        split = exact.restricted_partition_multi(
            A, [lambda s, c=c: s[:, 0] == c for c in range(A.q)]
        )
        gad = gadget.sample_gadget(self.GADGET, np.random.default_rng(inp["gadget_seed"]))
        mass = gadget.ground_state_mass(gadget.gadget_in_context(gad, 2, self.BETA_B, inp["tau"]))
        return {"log_Z": log_Z, "estimate": estimate, "tv": tv, "split": split, "mass": mass}

    def check(self, inp: dict, out: dict, record: bool) -> Optional[str]:
        log_Z, est = out["log_Z"], out["estimate"]
        if not est - math.log(self.R) < log_Z < est + math.log(2 * self.R):
            return f"bisection estimate {est:.6g} does not bracket log Z {log_Z:.6g}"
        split_log_Z = float(logsumexp(out["split"]))
        if abs(split_log_Z - log_Z) > 1e-9:
            return f"restricted split sums to {split_log_Z!r}, log Z is {log_Z!r}"
        if not 0.0 <= out["tv"] <= 1.0:
            return f"tv_exact {out['tv']!r} outside [0, 1]"
        if out["mass"] < 0.99:
            return f"gadget ground-state mass {out['mass']:.6g} < 0.99 at beta_B={self.BETA_B}"
        if inp["i"] % self.SYMMETRY_EVERY == 0:
            if exact.tv_exact(inp["A"], inp["A"]) != 0.0:
                return "tv_exact(A, A) != 0"
            back = exact.tv_exact(inp["B"], inp["A"])
            if abs(back - out["tv"]) > 1e-12:
                return f"tv_exact not symmetric: {out['tv']!r} vs {back!r}"
        return None

    def finish(self) -> list[str]:
        return []

    def correct_frac(self, ops: range) -> float:
        return 0.0


WORKLOADS = {
    "hub-oracle": lambda seed, tracer, outdir: HubTrials(
        "hub-oracle", seed, tracer, outdir, N=12, L=2, tester="oracle_tv", cli_every=4),
    "hub-sampling": lambda seed, tracer, outdir: HubTrials(
        "hub-sampling", seed, tracer, outdir, N=6, L=200, tester="empirical"),
    "potts-meanfield": PottsMeanfield,
    "exact-enum": ExactEnum,
}

# -- instrumentation ------------------------------------------------------------------------


def instrument(tracer: Tracer) -> None:
    """Register the wrappers behind the per-layer metrics."""

    def states(model) -> None:
        tracer.count("exact.states", float(model.q) ** model.n)
        tracer.count("exact.bytes_computed", float(model.q) ** model.n * (model.n + 8))

    def classes(layer):
        def after(space, *args, **kwargs):
            tracer.count(f"{layer}.collapse_calls")
            tracer.count(f"{layer}.collapse_classes", len(space.log_weight))
        return after

    def tester_factory(factory_attr: str) -> None:
        factory = getattr(counting, factory_attr)

        def wrapped_factory(*args, **kwargs):
            tester = factory(*args, **kwargs)

            def traced_tester(*a, **k):
                with tracer.span("counting.tester"):
                    return tester(*a, **k)

            traced_tester.kind = tester.kind
            traced_tester.threshold = tester.threshold
            return traced_tester

        tracer.patch(counting, factory_attr, wrapped_factory)

    def trial(outcome, *args, **kwargs):
        tracer.count("counting.trials")
        tracer.count("counting.guard", outcome.provenance == metrics.PROVENANCE_GUARD)

    tracer.wrap(hubs, "collapsed_distribution_hub", "hubs.collapse", classes("hubs"))
    tracer.wrap(hubs, "build_hub_instance", "hubs.build",
                lambda r, *a, **k: tracer.count("hubs.build_calls"))
    tracer.wrap(hubs, "sample_hidden_hub", "hubs.sample",
                lambda r, *a, **k: tracer.count("hubs.draws"))
    tester_factory("oracle_tv_tester")
    tester_factory("empirical_tester")
    tracer.wrap(counting, "run_generic_reduction", None, trial)
    for module in (exact, counting):
        tracer.wrap(module, "tv_collapsed", "exact.tv_collapsed",
                    lambda r, *a, **k: tracer.count("exact.tv_collapsed_calls"))
    tracer.wrap(exact, "partition_log", "exact.partition", lambda r, m, *a, **k: states(m))
    tracer.wrap(exact, "tv_exact", "exact.tv_exact", lambda r, m, *a, **k: states(m))
    tracer.wrap(exact, "restricted_partition_multi", "exact.restricted",
                lambda r, m, *a, **k: states(m))
    tracer.wrap(gadget, "ground_state_mass", "gadget.ground_state_mass",
                lambda r, m, *a, **k: states(m))
    tracer.wrap(potts, "collapsed_distribution_F", "potts.collapse", classes("potts"))
    tracer.wrap(potts, "phase_partition_F", "potts.phase_partition")
    tracer.wrap(potts, "sample_hidden_potts", "potts.sample",
                lambda r, *a, **k: tracer.count("potts.draws"))
    tracer.wrap(meanfield, "solve_beta_H", "meanfield.solve",
                lambda r, *a, **k: tracer.count("meanfield.solves"))
    tracer.wrap(meanfield, "log_ratio_g", None,
                lambda r, *a, **k: tracer.count("meanfield.ratio_evals"))


def layer_metrics(tracer: Tracer, workload, ops: range) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: ``*_ms`` is mean self time per call over the whole
    traced run; counts are per op over the fixed op range ``ops``, so they
    repeat exactly for a seed."""
    per_op = lambda name: tracer.total(name, ops) / len(ops)

    def ratio(num: str, den: str) -> float:
        d = tracer.total(den, ops)
        return tracer.total(num, ops) / d if d else 0.0

    ms = lambda span: (tracer.per_call_ms(span), "ms")
    return {
        "hubs.collapse_ms": ms("hubs.collapse"),
        "hubs.collapse_calls": (per_op("hubs.collapse_calls"), "count"),
        "hubs.collapse_classes": (ratio("hubs.collapse_classes", "hubs.collapse_calls"), "count"),
        "hubs.build_ms": ms("hubs.build"),
        "hubs.build_calls": (per_op("hubs.build_calls"), "count"),
        "hubs.sample_ms": ms("hubs.sample"),
        "hubs.draws": (per_op("hubs.draws"), "count"),
        "counting.tester_ms": ms("counting.tester"),
        "counting.trials": (per_op("counting.trials"), "count"),
        "counting.guard_frac": (ratio("counting.guard", "counting.trials"), "ratio"),
        "counting.correct_frac": (workload.correct_frac(ops), "ratio"),
        "counting.bisection_steps": (per_op("counting.bisection_steps"), "count"),
        "exact.tv_collapsed_ms": ms("exact.tv_collapsed"),
        "exact.tv_collapsed_calls": (per_op("exact.tv_collapsed_calls"), "count"),
        "exact.partition_ms": ms("exact.partition"),
        "exact.tv_exact_ms": ms("exact.tv_exact"),
        "exact.restricted_ms": ms("exact.restricted"),
        "exact.states": (per_op("exact.states"), "count"),
        "exact.bytes_computed": (per_op("exact.bytes_computed"), "B"),
        "gadget.ground_state_mass_ms": ms("gadget.ground_state_mass"),
        "potts.collapse_ms": ms("potts.collapse"),
        "potts.collapse_classes": (ratio("potts.collapse_classes", "potts.collapse_calls"), "count"),
        "potts.phase_partition_ms": ms("potts.phase_partition"),
        "potts.class_table_ms": ms("potts.class_table"),
        "potts.sample_ms": ms("potts.sample"),
        "potts.draws": (per_op("potts.draws"), "count"),
        "meanfield.solve_ms": ms("meanfield.solve"),
        "meanfield.ratio_evals": (ratio("meanfield.ratio_evals", "meanfield.solves"), "count"),
        "meanfield.critical_ms": ms("meanfield.critical"),
        "cli.reduce_ms": ms("cli.reduce"),
    }
