import json
import subprocess
import sys
import time
from pathlib import Path

import qhurwitz.tau
from qhurwitz.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestChartable:
    def test_n2_json(self, capsys):
        code, out = run_cli(capsys, "chartable", "--n", "2")
        assert code == 0
        document = json.loads(out)
        assert document == {"n": 2, "labels": ["2", "1,1"], "matrix": [[1, 1], [-1, 1]]}

    def test_csv(self, capsys):
        code, out = run_cli(capsys, "chartable", "--n", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ['lambda,2,"1,1"', "2,1,1", '"1,1",-1,1']

    def test_capacity_exit_code(self, capsys):
        assert main(["chartable", "--n", "99"]) == 3


class TestCompute:
    def test_geometric_record(self, capsys):
        code, out = run_cli(
            capsys,
            "compute", "geometric",
            "--n", "2", "--mu", "1,1", "--nu", "2",
            "--species", "E:q=1/2", "--degrees", "1",
        )
        assert code == 0
        record = json.loads(out)
        assert record == {"n": 2, "mu": "1,1", "nu": "2", "degrees": [1], "value": "1/1"}

    def test_one_sheet_at_large_degree_is_zero(self, capsys):
        start = time.perf_counter()
        code, out = run_cli(
            capsys,
            "compute", "geometric", "--n", "1", "--mu", "1", "--nu", "1",
            "--species", "E:q=1/2", "--degrees", "60",
        )
        assert time.perf_counter() - start < 1
        assert code == 0
        assert json.loads(out)["value"] == "0/1"

    def test_huge_geometric_degree_is_capacity_error(self, capsys):
        start = time.perf_counter()
        code = main(["compute", "geometric", "--n", "2", "--mu", "2", "--nu", "2",
                     "--species", "E:q=1/2", "--degrees", "99999999999"])
        assert time.perf_counter() - start < 1
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "geometric sum costs about" in captured.err

    def test_combinatorial_agrees_with_geometric(self, capsys):
        args = [
            "--n", "3", "--mu", "2,1", "--nu", "3",
            "--species", "H:q=1/3", "--degrees", "2",
        ]
        _, out_geom = run_cli(capsys, "compute", "geometric", *args)
        _, out_comb = run_cli(capsys, "compute", "combinatorial", *args)
        assert json.loads(out_geom) == json.loads(out_comb)

    def test_tau_table_filtered(self, capsys):
        code, out = run_cli(
            capsys,
            "compute", "tau",
            "--n", "2", "--species", "E:q=1/2", "--maxdeg", "2",
            "--mu", "1,1", "--nu", "2",
        )
        assert code == 0
        records = json.loads(out)
        assert [r["degrees"] for r in records] == [[0], [1], [2]]
        assert [r["value"] for r in records] == ["0/1", "1/1", "0/1"]

    def test_tau_csv(self, capsys):
        code, out = run_cli(
            capsys,
            "compute", "tau",
            "--n", "2", "--species", "E:q=1/2", "--maxdeg", "1",
            "--mu", "2", "--nu", "2", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "degrees,mu,nu,value"
        assert lines[1] == "0,2,2,1/2"

    def test_two_species_degrees_blocks(self, capsys):
        code, out = run_cli(
            capsys,
            "compute", "geometric",
            "--n", "2", "--mu", "1,1", "--nu", "1,1",
            "--species", "E:q=1/2", "--species", "H:p=1/5",
            "--degrees", "1;1",
        )
        assert code == 0
        assert json.loads(out)["value"] == "5/4"

    def test_weight_mismatch_is_usage_error(self, capsys):
        code = main([
            "compute", "geometric",
            "--n", "2", "--mu", "3", "--nu", "1,1",
            "--species", "E:q=1/2", "--degrees", "1",
        ])
        assert code == 2

    def test_missing_species_is_usage_error(self, capsys):
        code = main([
            "compute", "geometric",
            "--n", "2", "--mu", "1,1", "--nu", "2", "--degrees", "1",
        ])
        assert code == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        code = main(["compute", "tau", "--n", "2", "--species", "E:q=1/2",
                     "--maxdeg", "1", "--frobnicate", "yes"])
        assert code == 2

    def test_determinism(self, capsys):
        argv = [
            "compute", "tau",
            "--n", "3", "--species", "E:q=1/2", "--species", "H:p=1/5",
            "--maxdeg", "1;1",
        ]
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second

    def test_deleted_flags_are_unknown(self, capsys):
        argv = ["compute", "tau", "--n", "2", "--species", "E:q=1/2", "--maxdeg", "1"]
        assert main(argv + ["--threads", "1"]) == 2
        assert main(argv + ["--K", "3"]) == 2


class TestVerify:
    def test_triangle_passes_at_desk_scale(self, capsys):
        code, out = run_cli(
            capsys,
            "verify", "triangle",
            "--n-max", "3", "--deg-max", "2",
            "--species", "E:q=1/2", "--species", "H:p=1/5",
        )
        assert code == 0
        document = json.loads(out)
        assert document["status"] == "ok"
        assert all(r["discrepancies"] == [] for r in document["reports"])

    def test_triangle_past_bound_is_capacity_error(self, capsys):
        for n_max, deg_max in (("6", "1"), ("2", "4")):
            code = main(["verify", "triangle", "--n-max", n_max, "--deg-max", deg_max,
                         "--species", "E:q=1/2"])
            assert code == 3
            assert "triangle verification is limited" in capsys.readouterr().err

    def test_triangle_bound_checked_before_any_work(self, capsys, monkeypatch):
        calls = []
        original = qhurwitz.tau.tau_coefficients

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(qhurwitz.tau, "tau_coefficients", counting)
        code, out = run_cli(
            capsys,
            "verify", "triangle", "--n-max", "6", "--deg-max", "3",
            "--species", "E:q=1/2", "--species", "H:p=1/5",
        )
        assert code == 3
        assert out == ""
        assert calls == []


class TestOracle:
    def test_paths_two_sheets(self, capsys):
        code, out = run_cli(
            capsys, "oracle", "paths", "--n", "2", "--d", "1", "--mu", "1,1", "--nu", "2"
        )
        assert code == 0
        document = json.loads(out)
        assert document["paths"] == [{"signature": "1", "m": "1/2", "m_tilde": "1/2"}]

    def test_capacity_exit_code(self, capsys):
        code = main(["oracle", "paths", "--n", "2", "--d", "9", "--mu", "2", "--nu", "2"])
        assert code == 3

    def test_negative_degree_is_usage_error(self, capsys):
        code = main(["oracle", "paths", "--n", "3", "--d", "-1", "--mu", "3", "--nu", "3"])
        assert code == 2
        assert capsys.readouterr().err == "error: d must be nonnegative\n"


class TestEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "qhurwitz", "chartable", "--n", "3"],
            capture_output=True,
            text=True,
            cwd=Path(__file__).resolve().parent.parent,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin:/usr/local/bin"},
        )
        assert result.returncode == 0
        document = json.loads(result.stdout)
        assert document["labels"] == ["3", "2,1", "1,1,1"]
