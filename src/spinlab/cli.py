"""Command-line driver.

Subcommands build instances, run solvers and sweeps, and emit reproducible
reports.  Every randomized subcommand requires --seed; identical inputs and
seed produce byte-identical reports (wall-clock timings are emitted only
behind --timing).  Exit codes: 0 ok, 2 usage (including a model file that is
not JSON or fails the schema), 3 guard violation, 4 budget exceeded.
"""

from __future__ import annotations

import csv
import io
import json
import sys

import click
from jsonschema import ValidationError

from . import counting, gadget as gadget_mod, hubs, meanfield
from .errors import (
    BudgetExceededError,
    GuardViolation,
    SpinLabError,
)
from .exact import DEFAULT_BUDGET_BITS, ExactDistribution, partition_log
from .model import load_model, model_to_dict
from .rng import named_rng

EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_BUDGET = 4


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _json_report(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True) + "\n"


def _load(model_path: str):
    try:
        return load_model(model_path)
    except json.JSONDecodeError as exc:
        raise click.UsageError(
            f"{model_path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValidationError as exc:
        raise click.UsageError(f"{model_path}: not a model document: {exc.message}") from exc


def _run(fn):
    try:
        fn()
    except GuardViolation as exc:
        click.echo(f"guard violation: {exc}", err=True)
        sys.exit(EXIT_GUARD)
    except BudgetExceededError as exc:
        click.echo(f"budget exceeded: {exc}", err=True)
        sys.exit(EXIT_BUDGET)
    except SpinLabError as exc:
        raise click.ClickException(str(exc)) from exc


@click.group()
def main() -> None:
    """Exact spin-system computations, mean-field sweeps and reductions."""


@main.command("exact")
@click.argument("model_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--budget-bits", type=float, default=DEFAULT_BUDGET_BITS, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--dump-distribution", type=click.Path(dir_okay=False), default=None,
              help="Also write the full exact distribution as CSV.")
def cmd_exact(model_path, budget_bits, out, fmt, dump_distribution) -> None:
    """Exact log partition function of a model file."""

    def body() -> None:
        model = _load(model_path)
        log_z = partition_log(model, budget_bits)
        doc = {"n": model.n, "q": model.q, "log_Z": log_z}
        if dump_distribution:
            from .exact import dump_distribution_csv

            dist = ExactDistribution.from_model(model, budget_bits)
            dump_distribution_csv(dist, dump_distribution)
            doc["distribution_csv"] = dump_distribution
        if fmt == "json":
            _emit(_json_report(doc), out)
        else:
            buf = io.StringIO()
            w = csv.writer(buf)
            w.writerow(sorted(doc))
            w.writerow([doc[k] for k in sorted(doc)])
            _emit(buf.getvalue(), out)

    _run(body)


@main.command("meanfield-sweep")
@click.option("--q", type=int, required=True)
@click.option("--m", "m_values", type=int, multiple=True, required=True)
@click.option("--target-ratio", type=float, default=None,
              help="Solve for the coupling hitting this majority/disordered ratio.")
@click.option("--delta", type=float, default=0.1, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="csv")
def cmd_meanfield_sweep(q, m_values, target_ratio, delta, out, fmt) -> None:
    """Phase-split sweep over complete-graph sizes."""

    def body() -> None:
        crit = meanfield.find_critical_Bo(q)
        rows = []
        for m in m_values:
            if target_ratio is not None:
                beta = meanfield.solve_beta_H(m, q, target_ratio, delta)
            else:
                beta = crit.Bo / m
            split = meanfield.phase_split(m, q, beta)
            rows.append(
                {
                    "m": m,
                    "q": q,
                    "beta_H": beta,
                    "log_ZM": split.log_ZM,
                    "log_ZD": split.log_ZD,
                    "log_ZS": split.log_ZS,
                    "gap": split.gap,
                }
            )
        if fmt == "json":
            _emit("".join(_json_report(r) for r in rows), out)
        else:
            buf = io.StringIO()
            cols = ["m", "q", "beta_H", "log_ZM", "log_ZD", "log_ZS", "gap"]
            w = csv.DictWriter(buf, fieldnames=cols)
            w.writeheader()
            w.writerows(rows)
            _emit(buf.getvalue(), out)

    _run(body)


@main.command("reduce")
@click.argument("model_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--variant", type=click.Choice([hubs.VARIANT_ANTIFERRO, hubs.VARIANT_FERRO]),
              required=True)
@click.option("--log-zhat", type=float, required=True)
@click.option("--epsilon", type=float, default=0.9, show_default=True)
@click.option("--num-samples", "l_samples", type=int, default=2, show_default=True)
@click.option("--tester", type=click.Choice(["oracle-tv", "empirical"]), default="oracle-tv")
@click.option("--seed", type=int, required=True)
@click.option("--strict-guard", is_flag=True,
              help="Exit with code 3 on guard violation instead of reporting the certified answer.")
@click.option("--timing", is_flag=True, help="Include runtime_ms in the report.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_reduce(model_path, variant, log_zhat, epsilon, l_samples, tester, seed,
               strict_guard, timing, out) -> None:
    """One counting-to-testing reduction trial; JSON-lines report."""

    def body() -> None:
        G = _load(model_path)
        rr = counting.testing_rate(epsilon, l_samples)

        def builder(GG, lzh):
            return hubs.build_hub_instance(
                GG, variant, epsilon, l_samples, lzh,
                enforce_guard=True, strict_family=False,
            )

        if strict_guard:
            checked = builder(G, log_zhat)  # raises GuardViolation -> exit 3
            builder = lambda GG, lzh: checked  # the trial reuses the checked instance

        def sampler(inst, rng):
            return hubs.sample_hidden_hub(inst, rng)

        tester_fn = (
            counting.oracle_tv_tester(epsilon, l_samples)
            if tester == "oracle-tv"
            else counting.empirical_tester(epsilon, l_samples)
        )
        reports = counting.run_reduction_trials(
            G,
            builder,
            sampler,
            tester_fn,
            l_samples,
            branches=[("query", log_zhat, counting.ANSWER_LOW)],
            seeds=[seed],
            r=rr,
            timing=timing,
        )
        rep = reports[0]
        del rep["correct"]  # the true side is unknown to the driver
        del rep["branch"]
        _emit(counting.reports_to_jsonl([rep]), out)

    _run(body)


@main.command("blowup")
@click.argument("model_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--b", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--rho", type=float, default=None,
              help="Force the all-port regime with this density parameter.")
@click.option("--beta-hat", type=float, required=True)
@click.option("--seed", type=int, required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_blowup(model_path, b, d, rho, beta_hat, seed, out) -> None:
    """Blow a model up through a sampled degree-reducing gadget."""

    def body() -> None:
        G = _load(model_path)
        if rho is not None:
            params = gadget_mod.GadgetParams.high_degree(b, d, rho)
        else:
            params = gadget_mod.GadgetParams.auto(b, d, G, beta_hat)
        inst = gadget_mod.build_blowup(G, params, beta_hat, named_rng(seed, "blowup"))
        doc = model_to_dict(inst.model)
        doc["gadget_map"] = {
            str(k): v for k, v in inst.gadget_map().items()
        }
        _emit(json.dumps(doc, sort_keys=True) + "\n", out)

    _run(body)


if __name__ == "__main__":
    main()
