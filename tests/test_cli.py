import csv
import hashlib
import io
import json
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qhurwitz.cli
import qhurwitz.geometric
import qhurwitz.partitions
import qhurwitz.tau
from qhurwitz import WeightConfig, enumerate_partitions, format_partition, tau_coefficients
from qhurwitz.cli import _parse_degree_blocks, _parse_species_list, format_rational, main
from qhurwitz.qweights import multidegrees

ROOT = Path(__file__).resolve().parent.parent
PINS = json.loads((ROOT / "bench" / "pins.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def reference_tau_output(table, mu_filter, nu_filter, fmt):
    """The record-dict path the table writer replaced, kept as its reference.

    One scalar record per entry through json.dumps(indent=2, sort_keys=True),
    or the records rebuilt into CSV rows with the degrees joined by commas.
    """
    parts = enumerate_partitions(table.n)
    records = []
    for degrees in table.multidegrees():
        for mu in parts:
            if mu_filter is not None and mu != mu_filter:
                continue
            for nu in parts:
                if nu_filter is not None and nu != nu_filter:
                    continue
                records.append({
                    "n": table.n,
                    "mu": format_partition(mu),
                    "nu": format_partition(nu),
                    "degrees": list(degrees),
                    "value": format_rational(table.entry(degrees, mu, nu)),
                })
    if fmt == "json":
        return json.dumps(records, indent=2, sort_keys=True) + "\n"
    columns = ["degrees", "mu", "nu", "value"]
    rows = [{**r, "degrees": ",".join(str(d) for d in r["degrees"])} for r in records]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row[c] for c in columns])
    return buffer.getvalue()


#: Species flags and the --maxdeg string of one, two and three species.
TAU_SPECIES = (
    (("E:q=1/2",), "2"),
    (("E':q=-1/3", "H:p=1/5"), "1;2"),
    (("E:q=2/5", "E':p=1/3", "H:r=-1/2"), "1,1;1"),
)


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

    def test_one_sheet_at_degree_ten_to_the_twelve_is_zero(self, capsys):
        # The prefix-sum walk takes no step on one sheet, whatever the degree.
        start = time.perf_counter()
        code, out = run_cli(
            capsys,
            "compute", "geometric", "--n", "1", "--mu", "1", "--nu", "1",
            "--species", "H:q=1/2", "--degrees", str(10**12),
        )
        assert time.perf_counter() - start < 1
        assert code == 0
        assert json.loads(out)["value"] == "0/1"

    def test_high_bit_parameter_at_twelve_sheets(self, capsys):
        # One entry walks and reduces one Fraction: H(2^-240) at n = 12,
        # d = 12 answers; H(2^-1000), whose walk alone is over the limit, exits 3.
        args = ["compute", "geometric", "--n", "12", "--mu", "12", "--nu", "12", "--degrees", "12"]
        code, out = run_cli(capsys, *args, "--species", f"H:q=1/{2**240}")
        assert code == 0
        assert json.loads(out)["value"] != "0/1"
        code = main([*args, "--species", f"H:q=1/{2**1000}"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "geometric sum costs about" in captured.err

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


class TestTauWriter:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("flags,maxdeg", TAU_SPECIES)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_record_path(self, capsys, n, flags, maxdeg, fmt):
        species = _parse_species_list(list(flags))
        degrees = _parse_degree_blocks(maxdeg, species)
        parts = enumerate_partitions(n)
        middle = parts[len(parts) // 2]
        filters = [(None, None), (parts[-1], None), (None, parts[0]), (middle, middle)]
        base = ["compute", "tau", "--n", str(n), "--maxdeg", maxdeg, "--format", fmt]
        for flag in flags:
            base += ["--species", flag]
        for shift in (0, 2):
            table = tau_coefficients(WeightConfig(species, n), degrees, shift)
            for mu, nu in filters:
                argv = base + ["--N", str(shift)]
                argv += ["--mu", format_partition(mu)] if mu is not None else []
                argv += ["--nu", format_partition(nu)] if nu is not None else []
                code, out = run_cli(capsys, *argv)
                assert code == 0
                assert out == reference_tau_output(table, mu, nu, fmt)

    @pytest.mark.parametrize("flags,maxdeg", TAU_SPECIES)
    def test_entries_are_in_output_order(self, flags, maxdeg):
        species = _parse_species_list(list(flags))
        table = tau_coefficients(WeightConfig(species, 4), _parse_degree_blocks(maxdeg, species))
        parts = enumerate_partitions(4)
        assert list(table.entries) == [
            (degrees, mu, nu) for degrees in table.multidegrees() for mu in parts for nu in parts
        ]

    @pytest.mark.parametrize("key", sorted(PINS))
    def test_pinned_bytes(self, capsys, key):
        """Every request pinned in bench/pins.json: exit code and stdout SHA-256."""
        code, out = run_cli(capsys, *shlex.split(key))
        assert [code, hashlib.sha256(out.encode()).hexdigest()] == PINS[key]


class CountingStream:
    """A stdout stand-in that keeps each text written to it."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


#: One --maxdeg request of two species at n = 4, and its mu, nu and both filters.
FILTERED_TAU = ("compute", "tau", "--n", "4", "--species", "E:q=1/2", "--species", "H:p=1/5",
                "--maxdeg", "1;2")
TAU_FILTERS = (("--mu", "2,1,1"), ("--nu", "3,1"), ("--mu", "2,2", "--nu", "4"))

#: A request of every command, and the tau writer unfiltered and filtered in both formats.
ONE_WRITE_REQUESTS = (
    ("compute", "tau", "--n", "12", "--species", "H:q=1/2", "--maxdeg", "3"),
    ("compute", "tau", "--n", "10", "--species", "E:q=1/2", "--species", "H:p=1/5",
     "--maxdeg", "2;2", "--format", "csv"),
    *(FILTERED_TAU + f + fmt for f in TAU_FILTERS for fmt in ((), ("--format", "csv"))),
    ("chartable", "--n", "6"),
    ("chartable", "--n", "6", "--format", "csv"),
    ("compute", "geometric", "--n", "3", "--mu", "2,1", "--nu", "3", "--species", "H:q=1/3",
     "--degrees", "2"),
    ("verify", "triangle", "--n-max", "3", "--deg-max", "1", "--species", "E:q=1/2"),
    ("oracle", "paths", "--n", "3", "--d", "2", "--mu", "2,1", "--nu", "3"),
)


@pytest.mark.parametrize("argv", ONE_WRITE_REQUESTS, ids=" ".join)
def test_each_document_is_one_write(capsys, monkeypatch, argv):
    # Under unbuffered stdout every write is a syscall: a document written
    # row by row costs one per row.
    stream = CountingStream()
    monkeypatch.setattr(sys, "stdout", stream)
    assert main(list(argv)) == 0
    assert len(stream.writes) == 1
    monkeypatch.undo()
    assert run_cli(capsys, *argv) == (0, stream.writes[0])


class TestLargeValues:
    def test_value_past_int_string_limit_prints(self, capsys):
        limit = sys.get_int_max_str_digits()
        args = ["--n", "2", "--mu", "2", "--nu", "2", "--species", "E:q=1/2", "--degrees", "200"]
        code_geom, out_geom = run_cli(capsys, "compute", "geometric", *args)
        code_comb, out_comb = run_cli(capsys, "compute", "combinatorial", *args)
        assert code_geom == code_comb == 0
        assert out_geom == out_comb
        assert len(json.loads(out_geom)["value"].split("/")[1]) > 4300
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_tau_table_past_int_string_limit_prints(self, capsys, fmt):
        # E(1/2) weights have denominators past 2^(d(d-1)/2): at maxdeg 200,
        # 64 entries of the n = 2 table print through the decimal fallback.
        limit = sys.get_int_max_str_digits()
        table = tau_coefficients(WeightConfig(_parse_species_list(["E:q=1/2"]), 2), (200,))
        code, out = run_cli(
            capsys, "compute", "tau", "--n", "2", "--species", "E:q=1/2", "--maxdeg", "200",
            "--format", fmt,
        )
        assert code == 0
        assert out == reference_tau_output(table, None, None, fmt)
        assert max(v.denominator for v in table.entries.values()) > 10**limit
        assert sys.get_int_max_str_digits() == limit

    def test_huge_integer_argument_is_usage_error(self, capsys):
        code = main(["compute", "tau", "--n", "9" * 5000, "--species", "E:q=1/2", "--maxdeg", "1"])
        assert code == 2
        assert capsys.readouterr().out == ""

    def test_huge_exponent_is_usage_error_at_once(self, capsys):
        start = time.perf_counter()
        code = main(["compute", "tau", "--n", "2", "--species", "H:q=1e-30000000", "--maxdeg", "1"])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: invalid rational literal '1e-30000000'\n"


class TestSpectralAdmission:
    @pytest.mark.parametrize("argv", [
        ["compute", "tau", "--n", "12", "--species", "H:q=1/2", "--maxdeg", "40"],
        ["compute", "tau", "--n", "2", "--species", "H:q=1/2", "--maxdeg", "100000"],
        ["compute", "combinatorial", "--n", "2", "--mu", "2", "--nu", "2",
         "--species", "E:q=1/2", "--degrees", "5000"],
    ])
    def test_refused_fast(self, capsys, argv):
        start = time.perf_counter()
        code = main(argv)
        assert time.perf_counter() - start < 1
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "spectral sum costs about" in captured.err


class TestCharacterTableRefusal:
    """Past the character table's n every leg exits 3 before it lists a partition of n."""

    @pytest.mark.parametrize("argv", [
        "compute tau --n 50 --species H:q=1/2 --maxdeg 1",
        "compute tau --n 1000 --species H:q=1/2 --maxdeg 1",
        "compute tau --n 13 --species H:q=1/2 --maxdeg 0 --format csv",
        "compute combinatorial --n 50 --mu 50 --nu 50 --species H:q=1/2 --degrees 5",
        "compute geometric --n 50 --mu 50 --nu 50 --species H:q=1/2 --degrees 5",
        "compute geometric --n 50 --mu 50 --nu 50 --species H:q=1/2 --degrees 30",
        "compute geometric --n 45 --mu 45 --nu 45 --species H:q=1/2 --species H:p=1/3"
        " --degrees 20,20",
        "compute geometric --n 13 --mu 13 --nu 13 --species H:q=1/2 --degrees 0",
    ])
    def test_refused_before_any_partition_of_n(self, capsys, monkeypatch, argv):
        listed = []
        original = qhurwitz.partitions._partitions_desc

        def listing(n):
            listed.append(n)
            return original(n)

        monkeypatch.setattr(qhurwitz.partitions, "_partitions_desc", listing)
        start = time.perf_counter()
        code = main(argv.split())
        assert time.perf_counter() - start < 0.5
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: character tables are limited to n <= 12\n"
        assert all(n <= 12 for n in listed)


class TestVerify:
    def test_discrepancy_values_are_exact_fractions(self, capsys, monkeypatch):
        # A geometric leg that returns the integer 3 everywhere disagrees
        # with the other two legs on every entry.
        def threes(config, maxdeg):
            parts = enumerate_partitions(config.n)
            matrix = {(mu, nu): 3 for mu in parts for nu in parts}
            return {degrees: matrix for degrees in multidegrees(maxdeg)}

        monkeypatch.setattr(qhurwitz.tau, "multispecies_hurwitz_matrices", threes)
        code, out = run_cli(
            capsys, "verify", "triangle", "--n-max", "3", "--deg-max", "1",
            "--species", "H:q=1/2",
        )
        assert code == 1
        discrepancies = [d for r in json.loads(out)["reports"] for d in r["discrepancies"]]
        assert len(discrepancies) == (2 * 2 + 3 * 3) * 2
        assert {d["geometric"] for d in discrepancies} == {"3/1"}
        for d in discrepancies:
            for leg in ("combinatorial", "tau"):
                assert re.fullmatch(r"-?\d+/[1-9]\d*", d[leg]), d[leg]

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
        for n_max, deg_max, reason in (
            ("13", "1", "character tables are limited to n <= 12"),
            ("2", "178", "triangle suite costs at least"),
        ):
            code = main(["verify", "triangle", "--n-max", n_max, "--deg-max", deg_max,
                         "--species", "E:q=1/2"])
            assert code == 3
            assert reason in capsys.readouterr().err

    @pytest.mark.parametrize("n_max, deg_max", [(str(10**18), "1"), ("3", str(10**18))])
    def test_huge_suite_is_refused_at_once(self, capsys, n_max, deg_max):
        start = time.perf_counter()
        code = main(["verify", "triangle", "--n-max", n_max, "--deg-max", deg_max,
                     "--species", "H:q=1/2"])
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert capsys.readouterr().out == ""

    def test_triangle_bound_checked_before_any_work(self, capsys, monkeypatch):
        calls = []
        original = qhurwitz.tau.tau_coefficients

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(qhurwitz.tau, "tau_coefficients", counting)
        code, out = run_cli(
            capsys,
            "verify", "triangle", "--n-max", "13", "--deg-max", "3",
            "--species", "E:q=1/2", "--species", "H:p=1/5",
        )
        assert code == 3
        assert out == ""
        assert calls == []

    @pytest.mark.parametrize("species, deg_max", [
        # At slot degree 6 the five species put n = 5 alone past both limits.
        (("E:q=1/2", "E:q=1/3", "H:q=1/5", "H:q=1/7", "H:q=1/11"), "6"),
        # At slot degree 5 each n alone is admitted; n = 2..5 together pass
        # the geometric limit.
        (("E:q=1/2", "E:q=1/3", "H:q=1/5", "H:q=1/7", "H:q=1/11"), "5"),
    ])
    def test_suite_cost_checked_before_any_work(self, capsys, monkeypatch, species, deg_max):
        def refuse(*args, **kwargs):
            raise AssertionError("verify_triangle called for a refused suite")

        monkeypatch.setattr(qhurwitz.cli, "verify_triangle", refuse)
        argv = ["verify", "triangle", "--n-max", "5", "--deg-max", deg_max]
        for text in species:
            argv += ["--species", text]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: triangle suite costs at least")


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
            cwd=ROOT,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin:/usr/local/bin"},
        )
        assert result.returncode == 0
        document = json.loads(result.stdout)
        assert document["labels"] == ["3", "2,1", "1,1,1"]
