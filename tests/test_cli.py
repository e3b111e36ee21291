import csv
import hashlib
import io
import json
import math

import networkx as nx
import pytest
from click.testing import CliRunner

from spinlab import hubs
from spinlab.cli import main
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
