import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile

import networkx as nx
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from naive_oracle import naive_log_Z, naive_restricted_log, naive_tv
from spinlab import hubs
from spinlab.cli import main
from spinlab.errors import InvalidModelError
from spinlab.exact import partition_log, restricted_partition_multi, tv_exact
from spinlab.model import SpinSystem, model_from_dict, save_model


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def k3_path(tmp_path):
    G = SpinSystem(q=3, n=3, edges=((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)), field=())
    path = tmp_path / "k3.json"
    save_model(G, str(path))
    return str(path)


@pytest.fixture
def cubic12_path(tmp_path):
    g = nx.random_regular_graph(3, 12, seed=1)
    G = SpinSystem(q=2, n=12, edges=tuple((u, v, -0.6) for u, v in g.edges()), field=())
    path = tmp_path / "g12.json"
    save_model(G, str(path))
    return str(path)


class TestExact:
    def test_edgeless(self, runner, tmp_path):
        path = tmp_path / "empty.json"
        save_model(SpinSystem(q=2, n=4, edges=(), field=()), str(path))
        result = runner.invoke(main, ["exact", str(path)])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["log_Z"] == pytest.approx(4 * math.log(2))

    def test_triangle(self, runner, k3_path):
        result = runner.invoke(main, ["exact", k3_path])
        assert result.exit_code == 0
        expected = math.log(3 * math.e**3 + 18 * math.e + 6)
        assert json.loads(result.output)["log_Z"] == pytest.approx(expected)

    def test_malformed_json(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        result = runner.invoke(main, ["exact", str(path)])
        assert result.exit_code == 2
        assert "line 1" in result.output

    @pytest.mark.parametrize("doc", [
        {"q": 2, "n": 2, "edges": [[0, 1, 0.5]]},  # no "field"
        {"q": 2, "n": 2, "edges": [[0.5, 1, 0.5]], "field": []},  # fractional vertex id
    ])
    def test_schema_invalid_model_is_a_usage_error(self, runner, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        for args in (["exact"], ["reduce", "--variant", "antiferro", "--log-zhat", "1", "--seed", "1"],
                     ["blowup", "--b", "4", "--d", "3", "--beta-hat", "1.0", "--seed", "3"]):
            result = runner.invoke(main, [args[0], str(path), *args[1:]])
            assert result.exit_code == 2
            assert "Error" in result.output and str(path) in result.output
            assert "Traceback" not in result.output
            assert isinstance(result.exception, SystemExit)

    def test_budget_exit_code(self, runner, tmp_path):
        path = tmp_path / "big.json"
        save_model(SpinSystem(q=2, n=30, edges=(), field=()), str(path))
        result = runner.invoke(main, ["exact", str(path)])
        assert result.exit_code == 4

    def test_nan_budget_is_an_error(self, runner, tmp_path):
        # a nan budget would compare false and switch the budget off
        path = tmp_path / "big.json"
        save_model(SpinSystem(q=2, n=30, edges=(), field=()), str(path))
        result = runner.invoke(main, ["exact", str(path), "--budget-bits", "nan"])
        assert result.exit_code == 1
        assert "Error:" in result.output
        assert isinstance(result.exception, SystemExit)

    def test_out_file(self, runner, k3_path, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["exact", k3_path, "--out", str(out)])
        assert result.exit_code == 0
        assert "log_Z" in json.loads(out.read_text())

    @pytest.mark.parametrize("doc", [
        # printed "log_Z": NaN with exit 0
        {"q": 2, "n": 3, "edges": [[0, 1, 1e308], [1, 2, 1e308]], "field": []},
        # printed "log_Z": Infinity with exit 0
        {"q": 2, "n": 2, "edges": [], "field": [[0, 0, 1e308], [1, 0, 1e308]]},
    ], ids=["nan", "infinity"])
    def test_overflowing_weights_are_an_error(self, runner, tmp_path, doc):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        for fmt in ("json", "csv"):
            result = runner.invoke(main, ["exact", str(path), "--format", fmt])
            assert result.exit_code == 1
            assert "Error: weights too large" in result.output
            assert "Traceback" not in result.output
            assert isinstance(result.exception, SystemExit)


def _finite_constant(name):
    raise ValueError(f"non-finite {name} in a report")


@st.composite
def weight_documents(draw):
    """Schema-valid model documents, q 2-4 and n 0-6, with couplings and
    fields drawn from moderate values and from the whole range +-1e308."""
    q = draw(st.integers(2, 4))
    n = draw(st.integers(0, 6))
    weights = st.one_of(st.floats(-5.0, 5.0), st.floats(-1e308, 1e308))
    edges = [[u, v, draw(weights)] for u in range(n) for v in range(u + 1, n) if draw(st.booleans())]
    keys = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, q - 1)), max_size=2 * n)) if n else ()
    field = [[v, s, draw(weights)] for v, s in sorted(keys)]
    return {"q": q, "n": n, "edges": edges, "field": field}


def _even(sigma):
    return sum(sigma) % 2 == 0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(weight_documents())
@example({"q": 2, "n": 3, "edges": [[0, 1, 1e308], [1, 2, 1e308]], "field": []})
@example({"q": 2, "n": 2, "edges": [], "field": [[0, 0, 1e308], [1, 0, 1e308]]})
@example({"q": 2, "n": 3, "edges": [[0, 1, 1e308], [1, 2, -1e308]], "field": []})
# log Z ~ 16385 and ~1e300: log Z's rounding mis-normalised p (TV 0.5 + 1.6e-12, 2.0)
@example({"q": 2, "n": 3, "edges": [], "field": [[0, 0, 16384.0]]})
@example({"q": 2, "n": 3, "edges": [], "field": [[0, 0, 1e300]]})
# ulp(h) = 1: the two summation orders round the state weights apart
@example({"q": 2, "n": 4, "edges": [[0, 1, 2.5], [0, 2, 1.0]], "field": [[0, 0, 4503599627370494.0]]})
def test_exact_never_reports_a_non_finite_value(doc):
    """Any schema-valid document exits 0 with finite values that agree with
    the naive oracle, or exits 1 with an Error: line; never NaN, Infinity or
    a traceback.  The engine sums a state's terms vertex by vertex and the
    oracle edges first, so besides 1e-12 relative the two may differ by the
    forward error of those sums, (|E| + n) eps B per side for the bound B =
    sum |beta| + sum_v max_s |h(v,s)|, and TVs by the factor that puts on p."""
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        reports = []
        for fmt in ("json", "csv"):
            result = runner.invoke(main, ["exact", path, "--format", fmt])
            assert result.exit_code in (0, 1), result.output
            assert "Traceback" not in result.output
            assert result.exception is None or isinstance(result.exception, SystemExit)
            if result.exit_code == 1:
                assert result.output.startswith("Error:")
                continue
            if fmt == "json":
                reports.append(json.loads(result.output, parse_constant=_finite_constant))
            else:
                header, row = csv.reader(io.StringIO(result.output))
                reports.append({k: json.loads(v, parse_constant=_finite_constant)
                                for k, v in zip(header, row)})
    model = model_from_dict(doc)
    flat = SpinSystem(q=model.q, n=model.n)
    bound = sum(abs(beta) for *_, beta in model.edges) + sum(abs(model.field_array).max(axis=1).tolist())
    # (|E| + n) eps B per side, doubled for slack; inf when the bound overflows
    order_error = 4.0 * (len(model.edges) + model.n) * sys.float_info.epsilon * bound
    engines = {
        "partition_log": (lambda: partition_log(model),
                          lambda: naive_log_Z(model.q, model.n, model.edges, model.field)),
        "tv_exact": (lambda: tv_exact(model, flat),
                     lambda: naive_tv(model.q, model.n, model.edges, model.field, (), ())),
        "restricted": (
            lambda: restricted_partition_multi(model, [lambda s: s.sum(axis=1) % 2 == 0])[0],
            lambda: naive_restricted_log(model.q, model.n, model.edges, model.field, _even)),
    }
    for name, (engine, oracle) in engines.items():
        try:
            got = engine()
        except InvalidModelError:
            assert not reports, name  # the CLI runs the same entry gate
            continue
        assert len(reports) == 2 and reports[0] == reports[1]
        assert math.isfinite(got), name
        if name == "tv_exact":
            assert 0.0 <= got <= 1.0
            tol = 1e-12 + math.expm1(min(2.0 * order_error, 700.0))
        else:
            tol = order_error
        assert math.isclose(got, oracle(), rel_tol=1e-12, abs_tol=tol), (name, got, oracle())
    if reports:
        assert reports[0]["log_Z"] == partition_log(model)


class TestMeanfieldSweep:
    def test_csv_rows(self, runner):
        result = runner.invoke(
            main, ["meanfield-sweep", "--q", "3", "--m", "8", "--m", "10"]
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0].startswith("m,q,beta_H")
        assert len(lines) == 3

    def test_target_ratio_mode(self, runner):
        result = runner.invoke(
            main,
            ["meanfield-sweep", "--q", "3", "--m", "40", "--target-ratio", "10",
             "--format", "json"],
        )
        assert result.exit_code == 0
        row = json.loads(result.output.strip().splitlines()[0])
        ratio = math.exp(row["log_ZM"] - row["log_ZD"])
        assert 0.9 * 10 <= ratio <= 10

    def test_single_vertex_gap_is_minus_inf(self, runner):
        result = runner.invoke(main, ["meanfield-sweep", "--q", "3", "--m", "1"])
        assert result.exit_code == 0
        assert "nan" not in result.output
        assert float(next(csv.DictReader(io.StringIO(result.output)))["gap"]) == -math.inf

    def test_nan_target_ratio_is_an_error(self, runner):
        result = runner.invoke(
            main, ["meanfield-sweep", "--q", "3", "--m", "8", "--target-ratio", "nan"]
        )
        assert result.exit_code == 1
        assert "Error: need target_R > 0" in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("m", ["0", "-2"])
    def test_empty_clique_is_an_error(self, runner, m):
        result = runner.invoke(main, ["meanfield-sweep", "--q", "3", "--m", m])
        assert result.exit_code == 1
        assert "Error: m must be >= 1" in result.output
        assert isinstance(result.exception, SystemExit)


class TestReduce:
    def test_report_and_determinism(self, runner, cubic12_path):
        args = [
            "reduce", cubic12_path, "--variant", "antiferro",
            "--log-zhat", "9.87", "--seed", "11",
        ]
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert a.exit_code == 0
        assert a.output == b.output
        doc = json.loads(a.output)
        assert doc["answer"] in ("Z<=Zhat/r", "Z>=r*Zhat")
        assert "runtime_ms" not in doc

    def test_timing_flag_adds_runtime(self, runner, cubic12_path):
        result = runner.invoke(
            main,
            ["reduce", cubic12_path, "--variant", "antiferro",
             "--log-zhat", "9.87", "--seed", "11", "--timing"],
        )
        assert result.exit_code == 0
        assert "runtime_ms" in json.loads(result.output)

    def test_strict_guard_exit(self, runner, cubic12_path):
        result = runner.invoke(
            main,
            ["reduce", cubic12_path, "--variant", "antiferro",
             "--log-zhat", "-50", "--seed", "1", "--strict-guard"],
        )
        assert result.exit_code == 3

    def test_strict_guard_builds_once(self, runner, cubic12_path, monkeypatch):
        calls = []
        build = hubs.build_hub_instance

        def counted(*args, **kwargs):
            calls.append(args[4])
            return build(*args, **kwargs)

        monkeypatch.setattr(hubs, "build_hub_instance", counted)
        args = ["reduce", cubic12_path, "--variant", "antiferro",
                "--log-zhat", "2.9", "--seed", "11"]
        plain = runner.invoke(main, args)
        assert plain.exit_code == 0
        assert json.loads(plain.output)["provenance"] == "tester"  # inside the window
        assert calls == [2.9]
        strict = runner.invoke(main, args + ["--strict-guard"])
        assert strict.exit_code == 0
        assert calls == [2.9, 2.9]
        assert strict.output == plain.output

    def test_unknown_variant_usage_error(self, runner, cubic12_path):
        result = runner.invoke(
            main,
            ["reduce", cubic12_path, "--variant", "bogus",
             "--log-zhat", "1", "--seed", "1"],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "extra",
        [
            ["--epsilon", "0"],
            ["--num-samples", "0"],
            ["--num-samples", "-3"],
            ["--epsilon", "1.5"],
            ["--log-zhat", "nan"],
            ["--log-zhat", "inf"],
        ],
    )
    def test_bad_reduction_input_is_an_error(self, runner, cubic12_path, extra):
        result = runner.invoke(
            main,
            ["reduce", cubic12_path, "--variant", "antiferro",
             "--log-zhat", "2", "--seed", "1", *extra],
        )
        assert result.exit_code == 1
        assert "Error:" in result.output
        assert isinstance(result.exception, SystemExit)

    def test_missing_seed_usage_error(self, runner, cubic12_path):
        result = runner.invoke(
            main,
            ["reduce", cubic12_path, "--variant", "antiferro", "--log-zhat", "1"],
        )
        assert result.exit_code == 2


class TestBlowup:
    def test_output_round_trips_schema(self, runner, tmp_path):
        G = SpinSystem(q=2, n=2, edges=((0, 1, 1.0),), field=((0, 0, 0.4), (1, 0, 0.4)))
        path = tmp_path / "g2.json"
        save_model(G, str(path))
        result = runner.invoke(
            main,
            ["blowup", str(path), "--b", "2", "--d", "2", "--rho", "0.5",
             "--beta-hat", "1.0", "--seed", "7"],
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        gadget_map = doc.pop("gadget_map")
        model = model_from_dict(doc)
        assert model.n == 2 * 4
        assert len(gadget_map) == model.n
        assert model.bipartition is not None

    def test_determinism(self, runner, tmp_path):
        G = SpinSystem(q=2, n=2, edges=((0, 1, 1.0),), field=())
        path = tmp_path / "g2.json"
        save_model(G, str(path))
        args = ["blowup", str(path), "--b", "4", "--d", "3",
                "--beta-hat", "1.0", "--seed", "3"]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output

    def test_readme_command_on_cubic_graph(self, runner, cubic12_path):
        # one port per side cannot carry base degree 3, so auto falls back to
        # the all-port regime at rho = 0.5
        args = ["blowup", cubic12_path, "--b", "4", "--d", "3", "--beta-hat", "1.0", "--seed", "3"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert result.output == runner.invoke(main, args + ["--rho", "0.5"]).output

    @pytest.mark.parametrize("graph, args, digest", [
        # README's example: the all-port regime, one port per base edge side
        ("cubic12", ["--b", "4", "--d", "3", "--beta-hat", "1.0", "--seed", "3"],
         "8dc9291216c99c651c238861a510ca685a80c73a350e72c5a9cf9116cf531249"),
        # all-port regime, three ports per base edge side
        ("cubic12", ["--b", "10", "--d", "4", "--beta-hat", "0.25", "--seed", "5"],
         "534247fe794055b6a83cc6e36731e3c61099d713965f3f39bb4abdad4c659e1b"),
        # port-subset regime (2 of 16 ports per side), with a field
        ("path3", ["--b", "16", "--d", "3", "--beta-hat", "1.0", "--seed", "7"],
         "b6aa4a155284114a1e0716baee91d0eff50a4085dfccfbbad13f30ee6a9f1901"),
        # q=3, two and four ports per base edge side on one vertex
        ("cycle4", ["--b", "81", "--d", "5", "--beta-hat", "0.3", "--seed", "2"],
         "64c8aed0631371b5fe71db51731a156ebcdcba9e766ebd0a4504d7ac1f30be9f"),
    ])
    def test_pinned_reports(self, runner, cubic12_path, tmp_path, graph, args, digest):
        """sha256 of whole blow-up reports: the port wiring may change only
        together with these digests."""
        bases = {
            "path3": SpinSystem(q=2, n=3, edges=((0, 1, 1.0), (1, 2, 1.0)),
                                field=((0, 0, 0.4), (1, 0, 0.4), (2, 1, 0.4))),
            "cycle4": SpinSystem(q=3, n=4, edges=((0, 1, 0.9), (1, 2, 0.5), (2, 3, 0.9), (0, 3, 0.5))),
        }
        path = cubic12_path
        if graph in bases:
            path = str(tmp_path / f"{graph}.json")
            save_model(bases[graph], path)
        result = runner.invoke(main, ["blowup", path, *args])
        assert result.exit_code == 0
        assert hashlib.sha256(result.output.encode()).hexdigest() == digest

    @pytest.mark.parametrize("beta_hat", ["0", "inf", "nan"])
    def test_bad_beta_hat_is_an_error(self, runner, cubic12_path, beta_hat):
        args = ["blowup", cubic12_path, "--b", "4", "--d", "3", "--beta-hat", beta_hat, "--seed", "3"]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert "Error:" in result.output
        assert isinstance(result.exception, SystemExit)
