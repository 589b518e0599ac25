import json
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from abelian3 import oracle, rank3
from abelian3.cli import cli, run_lattice_verification
from abelian3.config import ELEMENT_BOUND_ENV
from abelian3.rank3 import DerivedParams, count_by_order

DATA = Path(__file__).parent / "data"


@pytest.fixture()
def runner():
    return CliRunner()


def run_cli(args):
    """The CLI in a real subprocess, for byte-exact stdout checks."""
    return subprocess.run(
        [sys.executable, "-m", "abelian3.cli", *args],
        capture_output=True,
        timeout=120,
    )


class TestCount:
    def test_total(self, runner):
        result = runner.invoke(cli, ["count", "4", "6", "8"])
        assert result.exit_code == 0
        assert result.stdout == "162\n"

    def test_by_order(self, runner):
        result = runner.invoke(cli, ["count", "2", "2", "2", "--order", "2"])
        assert result.exit_code == 0
        assert result.stdout == "7\n"

    def test_cyclic(self, runner):
        result = runner.invoke(cli, ["count", "3", "3", "1", "--cyclic"])
        assert result.exit_code == 0
        assert result.stdout == "5\n"

    def test_json_record(self, runner):
        result = runner.invoke(cli, ["--format", "json", "count", "4", "6", "8"])
        assert result.exit_code == 0
        assert json.loads(result.stdout) == {
            "m": 4, "n": 6, "r": 8, "kind": "total", "order": None, "count": 162,
        }
        # one compact line, no padding spaces
        assert result.stdout.count("\n") == 1
        assert ", " not in result.stdout and ": " not in result.stdout

    def test_csv_record(self, runner):
        result = runner.invoke(cli, ["--format", "csv", "count", "2", "2", "2"])
        assert result.exit_code == 0
        assert result.stdout.splitlines() == ["m,n,r,kind,order,count", "2,2,2,total,,16"]

    def test_order_and_cyclic_conflict(self, runner):
        result = runner.invoke(cli, ["count", "2", "2", "2", "--order", "2", "--cyclic"])
        assert result.exit_code == 2

    def test_non_divisor_order(self, runner):
        result = runner.invoke(cli, ["count", "2", "2", "2", "--order", "5"])
        assert result.exit_code == 2
        assert "does not divide" in result.stderr

    def test_rejects_nonpositive_modulus(self, runner):
        result = runner.invoke(cli, ["count", "0", "1", "1"])
        assert result.exit_code == 2


class TestEnumerate:
    def test_text_lines(self, runner):
        result = runner.invoke(cli, ["-q", "enumerate", "2", "2", "2"])
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert len(lines) == 16
        assert lines[0] == (
            "a=1 b=1 c=1 t=0 w=0 z=0 | basis (1,0,0) (0,1,0) (0,0,1) | order 8"
        )

    def test_header_note(self, runner):
        result = runner.invoke(cli, ["enumerate", "2", "2", "2"])
        assert result.stdout.splitlines()[0] == "# 16 subgroups of Z_2 x Z_2 x Z_2"
        assert len(result.stdout.splitlines()) == 17

    def test_json_stream(self, runner):
        result = runner.invoke(cli, ["-q", "--format", "json", "enumerate", "4", "3", "2"])
        assert result.exit_code == 0
        records = [json.loads(line) for line in result.stdout.splitlines()]
        assert len(records) == rank3.count_total((4, 3, 2))
        histogram: dict[int, int] = {}
        for rec in records:
            histogram[rec["order"]] = histogram.get(rec["order"], 0) + 1
        for order, count in histogram.items():
            assert count == count_by_order((4, 3, 2), order)

    def test_json_elements(self, runner):
        result = runner.invoke(
            cli, ["-q", "--format", "json", "enumerate", "2", "2", "2", "--elements"]
        )
        assert result.exit_code == 0
        for line in result.stdout.splitlines():
            rec = json.loads(line)
            elems = [tuple(e) for e in rec["elements"]]
            assert len(elems) == rec["order"]
            assert sorted(elems) == elems

    def test_csv_elements_column(self, runner):
        result = runner.invoke(
            cli, ["-q", "--format", "csv", "enumerate", "2", "1", "1", "--elements"]
        )
        lines = result.stdout.splitlines()
        assert lines[0].endswith(",elements")
        assert any('"0,0,0 1,0,0"' in line for line in lines[1:])

    def test_element_bound_is_usage_error(self, runner, monkeypatch):
        monkeypatch.delenv(ELEMENT_BOUND_ENV, raising=False)
        result = runner.invoke(cli, ["-q", "enumerate", "64", "64", "2", "--elements"])
        assert result.exit_code == 2
        assert ELEMENT_BOUND_ENV in result.stderr

    def test_element_bound_env_override(self, runner, monkeypatch):
        monkeypatch.setenv(ELEMENT_BOUND_ENV, "8192")
        result = runner.invoke(cli, ["-q", "enumerate", "64", "64", "2", "--elements"])
        assert result.exit_code == 0

    def test_without_elements_no_bound(self, runner, monkeypatch):
        monkeypatch.delenv(ELEMENT_BOUND_ENV, raising=False)
        result = runner.invoke(cli, ["-q", "--format", "json", "enumerate", "64", "64", "2"])
        assert result.exit_code == 0
        assert len(result.stdout.splitlines()) == rank3.count_total((64, 64, 2))


class TestTable:
    @pytest.mark.parametrize("which", ["1", "2", "3"])
    def test_csv_matches_fixture_bytes(self, which):
        proc = run_cli(["-q", "--format", "csv", "table", which])
        assert proc.returncode == 0
        fixture = (DATA / f"table{which}.csv").read_bytes()
        assert proc.stdout == fixture

    def test_text_with_limit(self, runner):
        result = runner.invoke(cli, ["-q", "table", "1", "--limit", "5"])
        assert result.stdout.splitlines() == ["1\t1", "2\t16", "3\t28", "4\t129", "5\t64"]

    def test_json_coefficients(self, runner):
        result = runner.invoke(cli, ["-q", "--format", "json", "table", "2", "--limit", "2"])
        lines = result.stdout.splitlines()
        assert json.loads(lines[0]) == {"nu": 1, "coefficients": [4, 2, 2]}
        assert json.loads(lines[1]) == {"nu": 2, "coefficients": [7, 5, 8, 4, 3]}

    def test_mixed_table_nesting(self, runner):
        result = runner.invoke(cli, ["-q", "--format", "json", "table", "3", "--limit", "2"])
        triples = [
            (rec["nu1"], rec["nu2"], rec["nu3"])
            for rec in map(json.loads, result.stdout.splitlines())
        ]
        assert triples == [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)]

    def test_unknown_table(self, runner):
        assert runner.invoke(cli, ["table", "4"]).exit_code == 2


class TestPoly:
    def test_single_exponent(self, runner):
        result = runner.invoke(cli, ["-q", "poly", "2"])
        assert result.exit_code == 0
        assert result.stdout == "7+5 p+8 p^2+4 p^3+3 p^4\n"

    def test_three_exponents_with_eval(self, runner):
        result = runner.invoke(cli, ["-q", "poly", "2", "3", "4", "--eval", "5"])
        assert result.exit_code == 0
        assert result.stdout.splitlines()[1] == "at p=5: 27900"

    def test_closed_form_matches_default(self, runner):
        direct = runner.invoke(cli, ["-q", "poly", "3"])
        closed = runner.invoke(cli, ["-q", "poly", "3", "3", "3", "--closed-form"])
        assert direct.stdout == closed.stdout

    def test_closed_form_needs_equal_exponents(self, runner):
        result = runner.invoke(cli, ["poly", "1", "2", "3", "--closed-form"])
        assert result.exit_code == 2

    def test_two_exponents_rejected(self, runner):
        assert runner.invoke(cli, ["poly", "1", "2"]).exit_code == 2

    def test_json_output(self, runner):
        result = runner.invoke(cli, ["--format", "json", "poly", "1", "--eval", "3"])
        assert json.loads(result.stdout) == {
            "nu1": 1, "nu2": 1, "nu3": 1, "coefficients": [4, 2, 2], "p": 3, "value": 28,
        }

    def test_csv_output(self, runner):
        result = runner.invoke(cli, ["--format", "csv", "poly", "2", "3", "4", "--eval", "5"])
        lines = result.stdout.splitlines()
        assert lines[0] == "nu1,nu2,nu3,s_poly,p,value"
        assert lines[1].endswith(",5,27900")


class TestTypeCount:
    def test_text(self, runner):
        result = runner.invoke(cli, ["-q", "type-count", "2,1", "1"])
        assert result.exit_code == 0
        assert result.stdout == "1+p\n"

    def test_eval(self, runner):
        result = runner.invoke(cli, ["-q", "type-count", "2,1", "1", "--eval", "3"])
        assert result.stdout.splitlines() == ["1+p", "at p=3: 4"]

    def test_empty_mu(self, runner):
        result = runner.invoke(cli, ["-q", "type-count", "2,1", "0"])
        assert result.stdout == "1\n"

    def test_json(self, runner):
        result = runner.invoke(cli, ["--format", "json", "type-count", "1,1,1", "1,1"])
        assert json.loads(result.stdout) == {
            "lam": [1, 1, 1], "mu": [1, 1], "coefficients": [1, 1, 1],
        }

    def test_uncontained_type(self, runner):
        result = runner.invoke(cli, ["type-count", "1", "2"])
        assert result.exit_code == 2

    def test_bad_partition_text(self, runner):
        assert runner.invoke(cli, ["type-count", "1,x", "1"]).exit_code == 2
        assert runner.invoke(cli, ["type-count", "1,2", "1"]).exit_code == 2


class TestVerify:
    def test_small_pass(self, runner):
        result = runner.invoke(cli, ["-q", "verify", "--max-order", "12"])
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert lines[-1] == "result: PASS"
        assert any(line.startswith("rank-3 groups checked:") for line in lines)

    def test_json_report(self, runner):
        result = runner.invoke(cli, ["-q", "--format", "json", "verify", "--max-order", "10"])
        assert result.exit_code == 0
        rec = json.loads(result.stdout)
        assert rec["ok"] is True
        assert rec["failures"] == []
        assert rec["rank3_shapes"] > rec["rank2_shapes"] > 0

    def test_progress_goes_to_stderr(self, runner):
        result = runner.invoke(cli, ["verify", "--max-order", "10"])
        assert "checked m <= 10" in result.stderr
        assert "checked m <=" not in result.stdout

    def test_progress_follows_the_shapes_it_names(self, monkeypatch):
        checked = []
        original = oracle.all_subgroups

        def recording(orders):
            checked.append(tuple(orders))
            return original(orders)

        monkeypatch.setattr(oracle, "all_subgroups", recording)
        checked_at_line = {}
        run_lattice_verification(20, progress=lambda msg: checked_at_line.setdefault(msg, set(checked)))
        assert list(checked_at_line) == ["checked m <= 10", "checked m <= 20"]
        want = {(m, n, r) for m in range(1, 11) for n in range(1, 21) for r in range(1, 21) if m * n * r <= 20}
        assert (10, 2, 1) in want
        assert want <= checked_at_line["checked m <= 10"]

    def test_detects_corrupted_parameters(self, runner, monkeypatch):
        # force the two-gcd correction factor to 1 and make sure the
        # cross-check actually catches the now-wrong enumeration
        original = rank3.derived_params

        def corrupted(a, b, c, group):
            dp = original(a, b, c, group)
            return DerivedParams(A=dp.A, B=dp.B, C=dp.C, X=1)

        monkeypatch.setattr(rank3, "derived_params", corrupted)
        result = runner.invoke(cli, ["-q", "verify", "--max-order", "16"])
        assert result.exit_code == 1
        assert "result: FAIL" in result.stdout
        assert "(2, 4, 2)" in result.stdout

    def test_corruption_report_names_shapes(self, monkeypatch):
        original = rank3.derived_params

        def corrupted(a, b, c, group):
            dp = original(a, b, c, group)
            return DerivedParams(A=dp.A, B=dp.B, C=dp.C, X=1)

        monkeypatch.setattr(rank3, "derived_params", corrupted)
        report = run_lattice_verification(16)
        assert not report.ok
        assert any("(2, 4, 2)" in failure for failure in report.failures)


class TestAsymptotic:
    ARGS = ["--x-values", "100,1000", "--prime-limit", "1000", "--tail-terms", "20000"]

    def test_json_stream(self, runner):
        result = runner.invoke(cli, ["-q", "--format", "json", "asymptotic", *self.ARGS])
        assert result.exit_code == 0
        records = [json.loads(line) for line in result.stdout.splitlines()]
        assert records[0]["kind"] == "constants"
        assert abs(records[0]["h3"] - 4.0978) < 1e-3
        reports = [rec for rec in records[1:] if rec["kind"] == "report"]
        assert [rec["x"] for rec in reports] == [100, 1000]
        assert reports[1]["relative_error"] < 0.005

    def test_text_rows(self, runner):
        result = runner.invoke(cli, ["-q", "asymptotic", *self.ARGS])
        assert result.exit_code == 0
        rows = result.stdout.splitlines()
        assert len(rows) == 2
        assert rows[0].split("\t")[0] == "100"

    def test_csv_header_only_data_on_stdout(self, runner):
        result = runner.invoke(cli, ["--format", "csv", "asymptotic", *self.ARGS])
        lines = result.stdout.splitlines()
        assert lines[0] == "x,exact_sum,main_term,relative_error,error_exponent_estimate"
        assert len(lines) == 3
        assert "h3=" not in result.stdout
        assert "h3=" in result.stderr

    def test_rejects_tiny_x(self, runner):
        result = runner.invoke(cli, ["asymptotic", "--x-values", "1,10"])
        assert result.exit_code == 2

    def test_rejects_malformed_x(self, runner):
        assert runner.invoke(cli, ["asymptotic", "--x-values", "abc"]).exit_code == 2
        assert runner.invoke(cli, ["asymptotic", "--x-values", ","]).exit_code == 2


class TestDeterminism:
    def test_enumerate_byte_identical(self):
        args = ["-q", "--format", "json", "enumerate", "4", "6", "8"]
        first = run_cli(args)
        second = run_cli(args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_asymptotic_byte_identical(self):
        args = [
            "-q", "--format", "json", "asymptotic",
            "--x-values", "100,500", "--prime-limit", "1000", "--tail-terms", "20000",
        ]
        first = run_cli(args)
        second = run_cli(args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


class TestTopLevel:
    def test_help_lists_commands(self, runner):
        result = runner.invoke(cli, ["--help"])
        assert result.exit_code == 0
        for name in ("count", "enumerate", "table", "poly", "type-count", "verify", "asymptotic"):
            assert name in result.stdout

    def test_unknown_format(self, runner):
        assert runner.invoke(cli, ["--format", "yaml", "count", "1", "1", "1"]).exit_code == 2
