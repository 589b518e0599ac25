import ast
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from abelian3 import arith, cli as cli_module, oracle, rank3, verify
from abelian3.cli import MAX_CLOSED_FORM_EXPONENT, MAX_ENTRY_DIGITS, MAX_EVAL_DIGITS, MAX_EXPONENT, MAX_EXPONENT_TRIPLES, MAX_PARTIAL_SUM_X, MAX_PARTITION_SIZE, MAX_SIEVE, MAX_VERIFY_ORDER, _TABLE_LIMITS, Column, OutputConfig, _render_rows, main, run_lattice_verification
from abelian3.config import ELEMENT_BOUND
from abelian3.rank3 import DerivedParams, count_by_order
from abelian3.render import _CHUNK_CHARS, _csv_record
from abelian3.typecounts import general_form
from conftest import CliRunner

DATA = Path(__file__).parent / "data"
# The primes up to 73 to the 78th power have one exponent pattern, inside the
# triple bound, and a subgroup count of more than 4,300 digits.
PRIMORIAL_73 = math.prod(arith.primes_up_to(73))


@pytest.fixture()
def runner():
    return CliRunner()


def run_cli(args, timeout=120):
    """The CLI in a real subprocess, for byte-exact stdout checks."""
    return subprocess.run(
        [sys.executable, "-m", "abelian3.cli", *args],
        capture_output=True,
        timeout=timeout,
    )


def first_line(args):
    """The CLI's first stdout line (b"" if none), exit code and stderr, the pipe closed
    after that line, so that no stream, however long, is read to its end."""
    proc = subprocess.Popen([sys.executable, "-m", "abelian3.cli", *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    line = proc.stdout.readline()
    proc.stdout.close()
    code = proc.wait(timeout=120)
    with proc.stderr:
        return line, code, proc.stderr.read()


@pytest.fixture(scope="module")
def thousand_digit_semiprime():
    sympy = pytest.importorskip("sympy")
    return str(sympy.nextprime(3 * 10**499) * sympy.nextprime(7 * 10**499))


class TestCount:
    def test_total(self, runner):
        result = runner.invoke(main, ["count", "4", "6", "8"])
        assert result.exit_code == 0
        assert result.stdout == "162\n"

    def test_by_order(self, runner):
        result = runner.invoke(main, ["count", "2", "2", "2", "--order", "2"])
        assert result.exit_code == 0
        assert result.stdout == "7\n"

    def test_cyclic(self, runner):
        result = runner.invoke(main, ["count", "3", "3", "1", "--cyclic"])
        assert result.exit_code == 0
        assert result.stdout == "5\n"

    def test_cyclic_large_exponents_finish_fast(self):
        # Z_{p^e}^3 has 1 + (p^2 + p + 1)(p^(2e) - 1)/(p^2 - 1) cyclic subgroups
        x = str(2**300)
        start = time.perf_counter()
        result = run_cli(["count", x, x, x, "--cyclic"])
        assert time.perf_counter() - start < 1.0
        assert result.returncode == 0
        assert result.stdout == b"%d\n" % (1 + 7 * (4**300 - 1) // 3)

    @pytest.mark.parametrize(
        "args",
        # 1 + 7 (4^7200 - 1) / 3 cyclic subgroups, 4,336 digits, in each format; then a total past 10^4300
        [*[["--format", fmt, "count", *[str(2**7200)] * 3, "--cyclic"] for fmt in ("text", "json", "csv")], ["count", *[str(PRIMORIAL_73**78)] * 3]],
        ids=["cyclic-text", "cyclic-json", "cyclic-csv", "total"],
    )
    def test_a_count_past_the_digit_bound_is_refused(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"count would have more than {MAX_EVAL_DIGITS} digits" in result.stderr

    def test_a_count_inside_the_digit_bound_prints(self, runner):
        x = str(2**7100)  # 1 + 7 (4^7100 - 1) / 3 cyclic subgroups: 4,275 digits
        result = runner.invoke(main, ["count", x, x, x, "--cyclic"])
        assert result.exit_code == 0
        assert result.stdout == "%d\n" % (1 + 7 * (4**7100 - 1) // 3)

    @pytest.mark.parametrize("options", [[], ["--order", "2"]], ids=["total", "by-order"])
    def test_exponent_triples_at_the_bound(self, options):
        # (2^e)^3 has (e + 1)^3 exponent triples: e = 78 is the largest accepted
        assert 79**3 <= MAX_EXPONENT_TRIPLES < 80**3
        x = str(2**78)
        result = run_cli(["count", x, x, x, *options])
        assert result.returncode == 0
        # the closed form for equal exponents; the order-2 subgroups are the 7 elements of order 2
        assert result.stdout == (b"7\n" if options else b"%d\n" % general_form(78)(2))
        for e in (79, 300):
            x = str(2**e)
            start = time.perf_counter()
            result = run_cli(["count", x, x, x, *options])
            assert time.perf_counter() - start < 1.0
            assert result.returncode == 2
            assert b"give %d exponent triples" % (e + 1) ** 3 in result.stderr

    def test_exponent_triples_summed_over_distinct_patterns(self, runner):
        # 2^70 3^69: 71^3 + 70^3 triples; 6^70: both primes share the exponents (70, 70, 70)
        x = str(2**70 * 3**69)
        result = runner.invoke(main, ["count", x, x, x])
        assert result.exit_code == 2
        assert f"give {71**3 + 70**3} exponent triples" in result.stderr
        x = str(6**70)
        result = runner.invoke(main, ["count", x, x, x, "--order", "6"])
        assert result.exit_code == 0
        assert result.stdout == "91\n"  # 7 subgroups of order 2 times (3^3 - 1) / 2 of order 3

    def test_json_record(self, runner):
        result = runner.invoke(main, ["--format", "json", "count", "4", "6", "8"])
        assert result.exit_code == 0
        assert json.loads(result.stdout) == {
            "m": 4, "n": 6, "r": 8, "kind": "total", "order": None, "count": 162,
        }
        # one compact line, no padding spaces
        assert result.stdout.count("\n") == 1
        assert ", " not in result.stdout and ": " not in result.stdout

    def test_csv_record(self, runner):
        result = runner.invoke(main, ["--format", "csv", "count", "2", "2", "2"])
        assert result.exit_code == 0
        assert result.stdout.splitlines() == ["m,n,r,kind,order,count", "2,2,2,total,,16"]

    def test_order_and_cyclic_conflict(self, runner):
        result = runner.invoke(main, ["count", "2", "2", "2", "--order", "2", "--cyclic"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "argument --cyclic: not allowed with argument --order" in result.stderr

    def test_non_divisor_order(self, runner):
        result = runner.invoke(main, ["count", "2", "2", "2", "--order", "5"])
        assert result.exit_code == 2
        assert "does not divide" in result.stderr

    def test_rejects_nonpositive_modulus(self, runner):
        result = runner.invoke(main, ["count", "0", "1", "1"])
        assert result.exit_code == 2

    def test_unfactorable_entry_fails_fast(self):
        n = str(999999999999947 * 999999999999989)  # two 15-digit primes: beyond the rho budget
        start = time.perf_counter()
        result = run_cli(["count", n, "1", "1"])
        assert time.perf_counter() - start < 5.0
        assert result.returncode == 2
        assert n in result.stderr.decode()

    @pytest.mark.parametrize("position", range(3))
    @pytest.mark.parametrize("options", [["count"], ["count", "--cyclic"], ["count", "--order", "1"], ["enumerate"]], ids=" ".join)
    def test_entry_past_the_digit_cap_is_refused_fast(self, options, position):
        # without the cap, is_prime and rho would spend seconds on the cofactor of 10^cap + 1 past its small primes
        entries = ["1"] * 3
        entries[position] = str(10**MAX_ENTRY_DIGITS + 1)
        start = time.perf_counter()
        result = run_cli([options[0], *entries, *options[1:]])
        assert time.perf_counter() - start < 1.0
        assert result.returncode == 2
        assert result.stdout == b""
        assert b"at most %d digits" % MAX_ENTRY_DIGITS in result.stderr
        assert str(10**MAX_ENTRY_DIGITS).encode() not in result.stderr

    def test_entry_at_the_digit_cap_is_counted(self, runner):
        x = str(10 ** (MAX_ENTRY_DIGITS - 1))  # 2^(cap-1) 5^(cap-1): cap^2 subgroups, all cyclic
        for options in ([], ["--cyclic"]):
            result = runner.invoke(main, ["count", x, "1", "1", *options])
            assert result.exit_code == 0
            assert result.stdout == f"{MAX_ENTRY_DIGITS**2}\n"

    @pytest.mark.parametrize("entries", ["N 1 1", "N N 1"])
    def test_thousand_digit_semiprime_is_refused_fast(self, thousand_digit_semiprime, entries):
        # rho charges each step by the cofactor's size, so a long entry spends its budget in few steps
        n = thousand_digit_semiprime
        start = time.perf_counter()
        result = run_cli(["count", *entries.replace("N", n).split()], timeout=30)
        assert time.perf_counter() - start < 5.0
        assert result.returncode == 2
        assert result.stdout == b""
        assert f"cannot factor {n}" in result.stderr.decode()

    @pytest.mark.parametrize("n", ["318665857834031151167461", "3317044064679887385961981"], ids=["psi12", "psi13"])
    def test_strong_pseudoprime_entry_is_factored(self, runner, n):
        # a product of two primes, which Miller-Rabin to the first 12 primes calls prime
        result = runner.invoke(main, ["count", n, "1", "1"])
        assert result.exit_code == 0
        assert result.stdout == "4\n"

    @pytest.mark.parametrize("entries", ["n 1 1", "n n 1"])
    def test_lucas_pseudoprime_entry_is_refused(self, runner, monkeypatch, entries):
        # n = p1 p2 p3 passes Miller-Rabin to all 14 bases (Arnault's construction);
        # the extra strong Lucas step rejects it, so rho is asked to split it and gives up
        p1 = 50132292363566260677523
        n = str(p1 * (53 * (p1 - 1) + 1) * (61 * (p1 - 1) + 1))
        monkeypatch.setattr(arith, "_RHO_BUDGET", 1 << 12)
        result = runner.invoke(main, ["count", *entries.replace("n", n).split()])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"cannot factor {n}" in result.stderr

    @pytest.mark.parametrize(
        "command, options", [("count", ["--cyclic"]), ("count", ["--order", "1"]), ("enumerate", [])]
    )
    def test_factoring_failure_is_usage_error(self, runner, monkeypatch, command, options):
        monkeypatch.setattr(arith, "_RHO_BUDGET", 1 << 12)
        n = str(999999999999947 * 999999999999989)
        result = runner.invoke(main, [command, "1", n, "1", *options])
        assert result.exit_code == 2
        assert f"cannot factor {n}" in result.stderr


class TestEnumerate:
    def test_text_lines(self, runner):
        result = runner.invoke(main, ["-q", "enumerate", "2", "2", "2"])
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert len(lines) == 16
        assert lines[0] == (
            "a=1 b=1 c=1 t=0 w=0 z=0 | basis (1,0,0) (0,1,0) (0,0,1) | order 8"
        )

    def test_header_note(self, runner):
        result = runner.invoke(main, ["enumerate", "2", "2", "2"])
        assert result.stdout.splitlines()[0] == "# 16 subgroups of Z_2 x Z_2 x Z_2"
        assert len(result.stdout.splitlines()) == 17

    def test_json_stream(self, runner):
        result = runner.invoke(main, ["-q", "--format", "json", "enumerate", "4", "3", "2"])
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
            main, ["-q", "--format", "json", "enumerate", "2", "2", "2", "--elements"]
        )
        assert result.exit_code == 0
        for line in result.stdout.splitlines():
            rec = json.loads(line)
            elems = [tuple(e) for e in rec["elements"]]
            assert len(elems) == rec["order"]
            assert sorted(elems) == elems

    def test_csv_elements_column(self, runner):
        result = runner.invoke(
            main, ["-q", "--format", "csv", "enumerate", "2", "1", "1", "--elements"]
        )
        lines = result.stdout.splitlines()
        assert lines[0].endswith(",elements")
        assert any('"0,0,0 1,0,0"' in line for line in lines[1:])

    def test_reader_closing_the_pipe_ends_without_traceback(self):
        # as in `abelian3 enumerate 60 60 60 | head -1`
        proc = subprocess.Popen(
            [sys.executable, "-m", "abelian3.cli", "enumerate", "60", "60", "60"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline().startswith(b"# ")
        proc.stdout.close()
        assert proc.wait(timeout=120) == 1
        assert b"Traceback" not in proc.stderr.read()
        proc.stderr.close()

    # the streams of these groups are astronomically long: first_line reads one line at most
    def test_exponent_triples_past_the_bound_are_refused(self):
        x = str(2**79)
        line, code, err = first_line(["enumerate", x, x, x])
        assert (line, code) == (b"", 2)
        assert b"give %d exponent triples" % 80**3 in err

    def test_exponent_triples_at_the_bound_reach_the_header(self):
        x = str(2**78)
        line, code, err = first_line(["enumerate", x, x, x])
        assert line == f"# {general_form(78)(2)} subgroups of Z_{x} x Z_{x} x Z_{x}\n".encode()
        assert code == 1  # the reader closed the pipe
        assert b"Traceback" not in err

    def test_a_total_past_the_digit_bound_is_refused(self):
        x = str(PRIMORIAL_73**78)
        line, code, err = first_line(["enumerate", x, x, x])
        assert (line, code) == (b"", 2)
        assert b"the total count would have more than %d digits" % MAX_EVAL_DIGITS in err

    def test_each_entry_is_factored_once(self, runner, monkeypatch):
        # the header's count_total and the walk's divisor lists share one factorization per entry
        n = 1000003 * 1000033  # past trial division, so factorize runs rho
        rho, rho_calls = arith._rho_divisor, []
        monkeypatch.setattr(arith, "_rho_divisor", lambda *args: rho_calls.append(args) or rho(*args))
        arith.factorize.cache_clear()
        result = runner.invoke(main, ["-q", "enumerate", str(n), "1", "1"])
        assert result.exit_code == 0
        assert len(result.stdout.splitlines()) == rank3.count_total((n, 1, 1)) == 4
        assert arith.factorize.cache_info().misses == 2  # n and 1
        assert len(rho_calls) == 1

    def test_element_bound_is_usage_error(self, runner):
        result = runner.invoke(main, ["-q", "enumerate", "64", "64", "2", "--elements"])
        assert result.exit_code == 2
        assert "group order 8192 exceeds the element bound 4096" in result.stderr

    @pytest.mark.parametrize("group", [("64", "64", "2"), ("1000", "1000", "1000")], ids=["oversized", "a-billion"])
    def test_element_bound_checked_before_any_output(self, group):
        # the bound is a constant: no environment variable raises it
        env = dict(os.environ, ABELIAN3_ELEMENT_BOUND="1000000000")
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "abelian3.cli", "enumerate", *group, "--elements"],
            capture_output=True,
            timeout=120,
            env=env,
        )
        assert time.perf_counter() - start < 5.0
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert b"Traceback" not in proc.stderr
        assert b"exceeds the element bound 4096" in proc.stderr

    @pytest.mark.parametrize("with_elements", [False, True])
    def test_csv_header_is_the_record_fields(self, runner, with_elements):
        args = ["-q", "--format", "csv", "enumerate", "2", "2", "2", *["--elements"] * with_elements]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        header = ",".join(rank3.Subgroup._fields) + ",elements" * with_elements
        assert result.stdout_bytes.split(b"\r\n")[0] == header.encode()

    def test_without_elements_no_bound(self, runner):
        result = runner.invoke(main, ["-q", "--format", "json", "enumerate", "64", "64", "2"])
        assert result.exit_code == 0
        assert len(result.stdout.splitlines()) == rank3.count_total((64, 64, 2))


def reference_lines(group, fmt, with_elements=False):
    """enumerate's stdout one line at a time, each basis solved by materialize."""
    m, n, r = group
    columns = ["m", "n", "r", "a", "b", "c", "t", "w", "z", "s", "u", "v", "order"]
    lines = [",".join(columns + ["elements"] * with_elements) + "\r\n"] if fmt == "csv" else []
    for sx in rank3.enumerate_sextuples(group):
        basis = rank3.materialize(sx, group)
        mask = rank3.subgroup_elements(basis) if with_elements else 0  # a subgroup's mask has bit 0 set
        elements = [(x, y, z) for x in range(m) for y in range(n) for z in range(r) if mask >> ((x * n + y) * r + z) & 1] if mask else []
        rec = {
            "m": m, "n": n, "r": r, "a": sx.a, "b": sx.b, "c": sx.c, "t": sx.t, "w": sx.w, "z": sx.z,
            "s": basis.s, "u": basis.u, "v": basis.v, "order": basis.order,
        }
        if fmt == "text":
            line = (
                f"a={sx.a} b={sx.b} c={sx.c} t={sx.t} w={sx.w} z={sx.z} | basis ({sx.a},0,0) "
                f"({basis.s},{sx.b},0) ({basis.u},{basis.v},{sx.c}) | order {basis.order}"
            )
            if with_elements:
                line += " | elements " + " ".join(f"({x},{y},{z})" for x, y, z in elements)
            lines.append(line + "\n")
        elif fmt == "json":
            if with_elements:
                rec["elements"] = [list(e) for e in elements]
            lines.append(json.dumps(rec, separators=(",", ":")) + "\n")
        else:
            fields = [str(value) for value in rec.values()]
            if with_elements:  # every element has commas, so the field is quoted
                fields.append('"' + " ".join(f"{x},{y},{z}" for x, y, z in elements) + '"')
            lines.append(",".join(fields) + "\r\n")
    return lines


def assert_write_policy(writes):
    """Each write but the last ends with the line that brings it to _CHUNK_CHARS; the last is shorter."""
    *full, last = writes
    for chunk in full:
        assert chunk.endswith("\n")
        assert len(chunk) >= _CHUNK_CHARS
        assert chunk.rfind("\n", 0, -1) + 1 < _CHUNK_CHARS  # the chunk without its last line
    assert len(last) < _CHUNK_CHARS


class TestChunkedOutput:
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_several_chunks_match_line_by_line_rendering(self, runner, fmt):
        group = (12, 12, 12)
        result = runner.invoke(main, ["--format", fmt, "enumerate", "12", "12", "12"])
        assert result.exit_code == 0
        header = f"# {rank3.count_total(group)} subgroups of Z_12 x Z_12 x Z_12\n" if fmt == "text" else ""
        want = header + "".join(reference_lines(group, fmt))
        assert len(want) > _CHUNK_CHARS
        assert result.stdout_bytes == want.encode()

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_line_longer_than_a_chunk_is_written_whole(self, runner, fmt):
        result = runner.invoke(main, ["-q", "--format", fmt, "enumerate", str(ELEMENT_BOUND), "1", "1", "--elements"])
        assert result.exit_code == 0
        want = reference_lines((ELEMENT_BOUND, 1, 1), fmt, with_elements=True)
        assert len(want[fmt == "csv"]) > _CHUNK_CHARS
        assert result.stdout_bytes == "".join(want).encode()

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_a_write_ends_with_the_line_that_fills_a_chunk(self, monkeypatch, fmt):
        writes = []
        monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append, flush=lambda: None))
        monkeypatch.setattr(sys, "argv", ["abelian3", "-q", "--format", fmt, "enumerate", "12", "12", "12"])
        main()
        assert "".join(writes) == "".join(reference_lines((12, 12, 12), fmt))
        assert len(writes) > 2
        assert_write_policy(writes)

    def test_a_line_that_reaches_the_chunk_size_exactly_ends_the_write(self, monkeypatch):
        writes = []
        monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append, flush=lambda: None))
        _render_rows(OutputConfig(fmt="text", quiet=True), ((i,) for i in range(5000)), [Column("row")], lambda row: f"{row[0]:07d}")
        assert _CHUNK_CHARS % 8 == 0
        assert list(map(len, writes)) == [_CHUNK_CHARS, _CHUNK_CHARS, 5000 * 8 - 2 * _CHUNK_CHARS]

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_chunks_fit_half_a_pipe(self, monkeypatch, fmt):
        # A write larger than the pipe's free space waits for the reader; Linux
        # pipes hold 64 KiB by default.
        sizes = []

        class Recorder:
            def write(self, data):
                sizes.append(len(data))

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", Recorder())
        rows = ((i,) for i in range(50_000))
        _render_rows(OutputConfig(fmt=fmt, quiet=True), rows, [Column("row")], lambda row: str(row[0]))
        assert len(sizes) > 10
        assert max(sizes) <= 32 * 1024

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_rows_before_an_error_reach_stdout(self, runner, monkeypatch, fmt):
        walk = rank3.subgroup_runs
        lengths = [length for _, length, _ in walk((12, 12, 12))]
        runs = [length > 1 for length in lengths].index(True) + 2  # past the first run of several rows
        rows = sum(lengths[:runs])
        want = reference_lines((12, 12, 12), fmt)[: rows + (fmt == "csv")]

        def failing(group):
            yield from islice(walk(group), runs)
            raise RuntimeError("walk failed")

        monkeypatch.setattr(rank3, "subgroup_runs", failing)
        result = runner.invoke(main, ["-q", "--format", fmt, "enumerate", "12", "12", "12"])
        assert isinstance(result.exception, RuntimeError)
        assert result.stdout_bytes == "".join(want).encode()


class TestJsonRows:
    @given(
        names=st.lists(st.text(max_size=4), min_size=1, max_size=4, unique=True),
        rows=st.lists(
            st.lists(
                st.one_of(
                    st.integers(min_value=-(2**80), max_value=2**80),
                    st.booleans(),
                    st.none(),
                    st.floats(),
                    st.lists(st.integers(), max_size=2),
                ),
                min_size=4,
                max_size=4,
            )
            | st.lists(st.integers(min_value=-(2**70), max_value=2**70), min_size=4, max_size=4),
            max_size=8,
        ),
    )
    @example(names=["%", "a%d", "{0}"], rows=[[1, 2, 3, 4]])
    def test_lines_equal_json_dumps(self, names, rows):
        # rows given with a text callable take the encoder, rows of ints given with a
        # line template take a %d template; both must match json.dumps
        rows = [tuple(row[: len(names)]) for row in rows]
        columns = [Column(name) for name in names]
        want = "".join(json.dumps(dict(zip(names, row)), separators=(",", ":")) + "\n" for row in rows)
        assert rendered("json", rows, columns, str) == want
        if all(type(cell) is int for row in rows for cell in row):
            assert rendered("json", rows, columns, " ".join(f"{{{k}}}" for k in range(len(names)))) == want

    @pytest.mark.parametrize("args", [["count", "4", "6", "8"], ["verify", "--max-order", "6"], ["type-count", "2,1", "1", "--eval", "3"]])
    def test_lines_without_the_c_encoder(self, runner, monkeypatch, args):
        # json.encoder.c_make_encoder is None on an interpreter without the _json accelerator
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        result = runner.invoke(main, ["-q", "--format", "json", *args])
        assert result.exit_code == 0, result.exception
        lines = result.stdout.splitlines()
        assert lines and lines == [json.dumps(json.loads(line), separators=(",", ":")) for line in lines]


class TestCsvRecords:
    @given(
        st.lists(
            st.none()
            | st.integers(min_value=-(2**80), max_value=2**80)
            | st.floats()
            | st.booleans()
            | st.text(alphabet=st.sampled_from(',"\r\n') | st.characters(), max_size=6),
            min_size=2,
            max_size=6,
        )
    )
    @example(["", None])
    @example(['a,"b"', "\r\n"])
    def test_a_record_equals_the_csv_module(self, cells):
        # every command writes two or more cells a row; for one empty cell the csv module writes ""
        out = io.StringIO()
        csv.writer(out, lineterminator="\r\n").writerow(cells)
        assert _csv_record(cells) == out.getvalue()


class TestLineTemplates:
    # a template names each cell once in column order; with run = (i, j) it names
    # cells i and j once each, i first, and the other cells as often as it likes;
    # a field that is no cell ({2} of two, or a name), a field with a format spec
    # or a conversion, or a stray brace breaks it
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize(
        "template, run",
        [("{1} is s, {0} is n", None), ("{0} {0} {1}", None), ("{0}", None), ("{0} {1} {2}", None), ("{0}{{1}}", None), ("{1} {0}", (0, 1)), ("{0} {1} {1}", (0, 1)), ("{0} {0} {1}", (0, 1)), ("{1}", (0, 1)),
         ("{0} {1} {2}", (0, 1)), ("{0} {x} {1}", (0, 1)), ("{0} {1} {", (0, 1)), ("{0:>5} {1}", None), ("{0:5} {1}", None), ("{0!s} {1}", None)],
    )
    def test_a_broken_template_raises_before_any_output(self, fmt, template, run):
        rows = [((1, 2), 3, 1)] if run else [(1, 2)]
        header = ([Column("head")], (0,), "# head")
        with contextlib.redirect_stdout(io.StringIO()) as out, pytest.raises(ValueError, match=re.escape(repr(template))):
            _render_rows(OutputConfig(fmt=fmt, quiet=False), rows, [Column("n"), Column("s")], template, header=header, run=run)
        assert out.getvalue() == ""


def rendered(fmt, rows, columns, text, run=None):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        _render_rows(OutputConfig(fmt=fmt, quiet=True), rows, columns, text, run=run)
    return out.getvalue()


def expand(runs, i, j):
    """The rows a run (row, length, step) stands for: row[i] + k and row[j] + step k."""
    return [
        (*row[:i], row[i] + k, *row[i + 1 : j], row[j] + step * k, *row[j + 1 :])
        for row, length, step in runs
        for k in range(length)
    ]


@st.composite
def named_runs(draw):
    """Column names (with %, braces and quotes), the run columns (i, j) and runs of nonnegative ints."""
    names = draw(st.lists(st.text(alphabet='ab%{}",\\ \n', max_size=4), min_size=2, max_size=5, unique=True))
    i, j = sorted(draw(st.lists(st.integers(0, len(names) - 1), min_size=2, max_size=2, unique=True)))
    row = st.tuples(*[st.integers(min_value=0, max_value=2**70)] * len(names))
    return names, (i, j), draw(st.lists(st.tuples(row, st.integers(1, 30), st.integers(1, 2**40)), max_size=6))


class TestRuns:
    @given(fmt=st.sampled_from(["text", "json", "csv"]), case=named_runs())
    @example(fmt="json", case=(["%", "a%d", "{0}"], (0, 2), [((0, 5, 7), 3, 2), ((1, 0, 9), 1, 1)]))
    @example(fmt="text", case=(["%", "{"], (0, 1), [((0, 5), 3, 2), ((7, 0), 1, 1)]))  # a run with no other cell
    @example(fmt="csv", case=(["%", "{"], (0, 1), [((0, 5), 3, 2), ((7, 0), 1, 1)]))
    def test_a_run_renders_as_its_rows(self, fmt, case):
        # runs, and their rows one by one, through the line template match the
        # rows through a text callable, csv.writer and the JSON encoder
        names, run, runs = case
        columns = [Column(name) for name in names]
        # the text lines hold the names and more %, braces and quotes around every cell
        line = "|".join(name.replace("{", "{{").replace("}", "}}") + f"{{{{%d}}}}{{{k}}}" for k, name in enumerate(names))
        want = rendered(fmt, expand(runs, *run), columns, lambda row: line.format(*row))
        assert rendered(fmt, runs, columns, line, run=run) == want
        assert rendered(fmt, expand(runs, *run), columns, line) == want

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_a_run_longer_than_a_chunk_is_written_in_pieces(self, monkeypatch, fmt):
        writes = []
        columns = [Column(name) for name in rank3.Subgroup._fields]
        run = (rank3.Subgroup._fields.index("z"), rank3.Subgroup._fields.index("u"))
        runs = [(rank3.Subgroup(1024, 1, 1024, 1024, 1, 1, 0, 0, 0, 0, 0, 0, 1024), 20_000, 1)]
        line = " ".join(f"{{{k}}}" for k in range(len(columns)))
        want = rendered(fmt, expand(runs, *run), columns, lambda row: line.format(*row))
        monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append, flush=lambda: None))
        _render_rows(OutputConfig(fmt=fmt, quiet=True), runs, columns, line, run=run)
        assert "".join(writes) == want
        assert len(want) > 10 * _CHUNK_CHARS
        assert max(map(len, writes)) <= 32 * 1024
        assert_write_policy(writes)


class TestTable:
    @pytest.mark.parametrize("which", ["1", "2", "3"])
    def test_csv_matches_fixture_bytes(self, which):
        proc = run_cli(["-q", "--format", "csv", "table", which])
        assert proc.returncode == 0
        fixture = (DATA / f"table{which}.csv").read_bytes()
        assert proc.stdout == fixture

    def test_text_with_limit(self, runner):
        result = runner.invoke(main, ["-q", "table", "1", "--limit", "5"])
        assert result.stdout.splitlines() == ["1\t1", "2\t16", "3\t28", "4\t129", "5\t64"]

    def test_json_coefficients(self, runner):
        result = runner.invoke(main, ["-q", "--format", "json", "table", "2", "--limit", "2"])
        lines = result.stdout.splitlines()
        assert json.loads(lines[0]) == {"nu": 1, "coefficients": [4, 2, 2]}
        assert json.loads(lines[1]) == {"nu": 2, "coefficients": [7, 5, 8, 4, 3]}

    def test_mixed_table_nesting(self, runner):
        result = runner.invoke(main, ["-q", "--format", "json", "table", "3", "--limit", "2"])
        triples = [
            (rec["nu1"], rec["nu2"], rec["nu3"])
            for rec in map(json.loads, result.stdout.splitlines())
        ]
        assert triples == [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)]

    def test_unknown_table(self, runner):
        assert runner.invoke(main, ["table", "4"]).exit_code == 2


class TestPoly:
    def test_single_exponent(self, runner):
        result = runner.invoke(main, ["-q", "poly", "2"])
        assert result.exit_code == 0
        assert result.stdout == "7+5 p+8 p^2+4 p^3+3 p^4\n"

    def test_three_exponents_with_eval(self, runner):
        result = runner.invoke(main, ["-q", "poly", "2", "3", "4", "--eval", "5"])
        assert result.exit_code == 0
        assert result.stdout.splitlines()[1] == "at p=5: 27900"

    def test_closed_form_matches_default(self, runner):
        direct = runner.invoke(main, ["-q", "poly", "3"])
        closed = runner.invoke(main, ["-q", "poly", "3", "3", "3", "--closed-form"])
        assert direct.stdout == closed.stdout

    def test_closed_form_needs_equal_exponents(self, runner):
        result = runner.invoke(main, ["poly", "1", "2", "3", "--closed-form"])
        assert result.exit_code == 2

    def test_two_exponents_rejected(self, runner):
        assert runner.invoke(main, ["poly", "1", "2"]).exit_code == 2

    def test_json_output(self, runner):
        result = runner.invoke(main, ["--format", "json", "poly", "1", "--eval", "3"])
        assert json.loads(result.stdout) == {
            "nu1": 1, "nu2": 1, "nu3": 1, "coefficients": [4, 2, 2], "p": 3, "value": 28,
        }

    def test_csv_output(self, runner):
        result = runner.invoke(main, ["--format", "csv", "poly", "2", "3", "4", "--eval", "5"])
        lines = result.stdout.splitlines()
        assert lines[0] == "nu1,nu2,nu3,s_poly,p,value"
        assert lines[1].endswith(",5,27900")


class TestTypeCount:
    def test_text(self, runner):
        result = runner.invoke(main, ["-q", "type-count", "2,1", "1"])
        assert result.exit_code == 0
        assert result.stdout == "1+p\n"

    def test_eval(self, runner):
        result = runner.invoke(main, ["-q", "type-count", "2,1", "1", "--eval", "3"])
        assert result.stdout.splitlines() == ["1+p", "at p=3: 4"]

    def test_empty_mu(self, runner):
        result = runner.invoke(main, ["-q", "type-count", "2,1", "0"])
        assert result.stdout == "1\n"

    def test_json(self, runner):
        result = runner.invoke(main, ["--format", "json", "type-count", "1,1,1", "1,1"])
        assert json.loads(result.stdout) == {
            "lam": [1, 1, 1], "mu": [1, 1], "coefficients": [1, 1, 1],
        }

    def test_uncontained_type(self, runner):
        result = runner.invoke(main, ["type-count", "1", "2"])
        assert result.exit_code == 2

    def test_uncontained_type_names_the_partitions_as_given(self, runner):
        result = runner.invoke(main, ["type-count", "3,1", "2,2"])
        assert result.exit_code == 2
        assert result.stderr.endswith("error: 2,2 is not contained in 3,1\n")

    def test_bad_partition_text(self, runner):
        assert runner.invoke(main, ["type-count", "1,x", "1"]).exit_code == 2
        assert runner.invoke(main, ["type-count", "1,2", "1"]).exit_code == 2


class TestVerify:
    def test_small_pass(self, runner):
        result = runner.invoke(main, ["-q", "verify", "--max-order", "12"])
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert lines[-1] == "result: PASS"
        assert any(line.startswith("rank-3 groups checked:") for line in lines)

    def test_json_report(self, runner):
        result = runner.invoke(main, ["-q", "--format", "json", "verify", "--max-order", "10"])
        assert result.exit_code == 0
        rec = json.loads(result.stdout)
        assert rec["ok"] is True
        assert rec["failures"] == []
        assert rec["rank3_shapes"] > rec["rank2_shapes"] > 0

    def test_progress_goes_to_stderr(self, runner):
        result = runner.invoke(main, ["verify", "--max-order", "10"])
        assert "checked m <= 10" in result.stderr
        assert "checked m <=" not in result.stdout

    def test_progress_follows_the_shapes_it_names(self, monkeypatch):
        checked = []
        original = rank3.subgroup_stream

        def recording(group):
            checked.append(tuple(group))
            return original(group)

        monkeypatch.setattr(rank3, "subgroup_stream", recording)
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
        result = runner.invoke(main, ["-q", "verify", "--max-order", "16"])
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

    def test_rank2_gcd_sum_is_checked_on_the_r1_shapes(self, monkeypatch):
        original = verify.count_rank2
        monkeypatch.setattr(verify, "count_rank2", lambda m, n: original(m, n) + 1)
        report = run_lattice_verification(6)
        assert not report.ok
        assert any("(2, 2, 1)" in failure and "rank-2 gcd sum" in failure for failure in report.failures)
        rank2_groups = [(m, n, 1) for m in range(1, 7) for n in range(1, 6 // m + 1)]
        assert [failure.split(":")[0] for failure in report.failures] == [str(group) for group in rank2_groups]
        assert report.rank2_shapes == len(rank2_groups)

    @pytest.mark.parametrize(("route", "name"), [("count_total_divisor_sum", "divisor sum"), ("count_total", "per prime")])
    def test_each_count_route_is_checked_on_every_shape(self, monkeypatch, route, name):
        # one route off by one: every shape fails, with that route's formula one
        # above the stream and every other route equal to it
        original = getattr(rank3, route)
        monkeypatch.setattr(rank3, route, lambda group: original(group) + 1)
        report = run_lattice_verification(6)
        groups = [(m, n, r) for m in range(1, 7) for n in range(1, 6 // m + 1) for r in range(1, 6 // (m * n) + 1)]
        assert [failure.split(":")[0] for failure in report.failures] == [str(group) for group in groups]
        for failure in report.failures:
            stream, values, names = re.fullmatch(r".*: stream (\d+) != formulas \(([\d, ]+?),?\) \((.*)\)", failure).groups()
            formulas = dict(zip(names.split(", "), map(int, values.split(", "))))
            assert formulas.pop(name) == int(stream) + 1, failure
            assert set(formulas.values()) == {int(stream)}, failure

    def test_difference_notes_show_element_tuples(self, monkeypatch):
        # Z_2 x Z_2 has five subgroups; the oracle loses <(1, 1)> (code 3),
        # then also reports a set that is no subgroup in its place. The shapes
        # (1, 2, 2), (2, 1, 2) and (2, 2, 1) share that lattice, and each
        # names the sets in its own coordinates
        original = oracle.all_subgroups
        extra = set()

        def corrupted(orders):
            found = original(orders)
            return (found - {1 | 1 << 3}) | extra if tuple(orders) == (2, 2) else found

        monkeypatch.setattr(oracle, "all_subgroups", corrupted)
        report = run_lattice_verification(6)
        assert report.failures == [
            "(1, 2, 2): 1 unexpected sets (first: [(0, 0, 0), (0, 1, 1)])",
            "(2, 1, 2): 1 unexpected sets (first: [(0, 0, 0), (1, 0, 1)])",
            "(2, 2, 1): 1 unexpected sets (first: [(0, 0, 0), (1, 1, 0)])",
        ]
        extra.add(1 | 1 << 1 | 1 << 2)
        report = run_lattice_verification(6)
        assert report.failures == [
            "(1, 2, 2): 1 unexpected sets (first: [(0, 0, 0), (0, 1, 1)]), 1 missing sets (first: [(0, 0, 0), (0, 0, 1), (0, 1, 0)])",
            "(2, 1, 2): 1 unexpected sets (first: [(0, 0, 0), (1, 0, 1)]), 1 missing sets (first: [(0, 0, 0), (0, 0, 1), (1, 0, 0)])",
            "(2, 2, 1): 1 unexpected sets (first: [(0, 0, 0), (1, 1, 0)]), 1 missing sets (first: [(0, 0, 0), (0, 1, 0), (1, 0, 0)])",
        ]
        # without the order-4 subgroups of Z_2 x Z_4: (4, 2, 1) builds its masks
        # in the codes of (2, 4), which list its elements out of ascending order
        monkeypatch.setattr(oracle, "all_subgroups", lambda orders: {sub for sub in original(orders) if tuple(orders) != (2, 4) or sub.bit_count() != 4})
        assert (
            "(4, 2, 1): 3 unexpected sets (first: [(0, 0, 0), (0, 1, 0), (2, 0, 0), (2, 1, 0)]; "
            "[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)]; [(0, 0, 0), (1, 1, 0), (2, 0, 0), (3, 1, 0)])"
        ) in run_lattice_verification(8).failures

    def test_one_wrong_mask_fails_only_its_shape(self, monkeypatch):
        # (4, 2, 1) builds its masks in the codes of (2, 4), where x has stride 1;
        # <(2, 0, 0)> is replaced by {(0, 0, 0), (3, 0, 0)}, which is no subgroup
        original = rank3.subgroup_elements

        def corrupted(sub, strides=None):
            mask = original(sub, strides)
            return 1 | 1 << 3 if sub.group == (4, 2, 1) and mask == 1 | 1 << 2 else mask

        monkeypatch.setattr(rank3, "subgroup_elements", corrupted)
        report = run_lattice_verification(8)
        assert report.failures == ["(4, 2, 1): 1 unexpected sets (first: [(0, 0, 0), (3, 0, 0)]), 1 missing sets (first: [(0, 0, 0), (2, 0, 0)])"]

    def test_a_repeated_subgroup_is_a_duplicate_set(self, runner, monkeypatch):
        # (2, 2, 1)'s stream yields its first subgroup again in place of its
        # second: the length still matches every count route, the sets do not
        original = rank3.subgroup_stream

        def repeating(group):
            subs = list(original(group))
            if tuple(group) == (2, 2, 1):
                subs[1] = subs[0]
            return iter(subs)

        monkeypatch.setattr(rank3, "subgroup_stream", repeating)
        result = runner.invoke(main, ["-q", "verify", "--max-order", "4"])
        assert result.exit_code == 1
        assert result.stdout.splitlines()[-2:] == ["FAIL (2, 2, 1): 1 duplicate element sets", "result: FAIL"]

    def test_max_order_below_one_is_refused(self):
        with pytest.raises(ValueError, match="max_order must be positive, got 0"):
            run_lattice_verification(0)

    def test_a_raising_shape_gives_one_failure(self, monkeypatch):
        original = rank3.subgroup_stream

        def raising(group):
            if tuple(group) == (2, 3, 1):
                raise RuntimeError("stream down")
            return original(group)

        monkeypatch.setattr(rank3, "subgroup_stream", raising)
        report = run_lattice_verification(6)
        assert report.failures == ["(2, 3, 1): RuntimeError: stream down"]

    def test_a_raising_lattice_fails_each_shape_that_shares_it(self, monkeypatch):
        original = oracle.all_subgroups

        def raising(orders):
            if tuple(orders) == (2, 3):
                raise RuntimeError("oracle down")
            return original(orders)

        monkeypatch.setattr(oracle, "all_subgroups", raising)
        report = run_lattice_verification(6)
        shapes = [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
        assert report.failures == [f"{shape}: RuntimeError: oracle down" for shape in shapes]

    def test_one_oracle_walk_per_distinct_lattice(self, monkeypatch):
        walked = []
        original = oracle.all_subgroups

        def recording(orders):
            walked.append(tuple(orders))
            return original(orders)

        monkeypatch.setattr(oracle, "all_subgroups", recording)
        assert run_lattice_verification(60).ok
        assert len(walked) == len(set(walked)) == 168
        assert all(list(orders) == sorted(orders) and 1 not in orders for orders in walked if orders != (1,))


class TestAsymptotic:
    ARGS = ["--x-values", "100,1000"]

    def test_json_stream(self, runner):
        result = runner.invoke(main, ["-q", "--format", "json", "asymptotic", *self.ARGS])
        assert result.exit_code == 0
        records = [json.loads(line) for line in result.stdout.splitlines()]
        assert records[0]["kind"] == "constants"
        assert abs(records[0]["h3"] - 4.0978) < 1e-3
        reports = [rec for rec in records[1:] if rec["kind"] == "report"]
        assert [rec["x"] for rec in reports] == [100, 1000]
        assert reports[1]["relative_error"] < 0.005

    def test_text_rows(self, runner):
        result = runner.invoke(main, ["-q", "asymptotic", *self.ARGS])
        assert result.exit_code == 0
        rows = result.stdout.splitlines()
        assert len(rows) == 2
        assert rows[0].split("\t")[0] == "100"

    def test_csv_header_only_data_on_stdout(self, runner):
        result = runner.invoke(main, ["--format", "csv", "asymptotic", *self.ARGS])
        lines = result.stdout.splitlines()
        assert lines[0] == "x,exact_sum,main_term,relative_error,error_exponent_estimate"
        assert len(lines) == 3
        assert "h3=" not in result.stdout
        assert "h3=" in result.stderr

    def test_rejects_tiny_x(self, runner):
        result = runner.invoke(main, ["asymptotic", "--x-values", "1,10"])
        assert result.exit_code == 2

    def test_rejects_malformed_x(self, runner):
        assert runner.invoke(main, ["asymptotic", "--x-values", "abc"]).exit_code == 2
        assert runner.invoke(main, ["asymptotic", "--x-values", ","]).exit_code == 2


class TestDeterminism:
    def test_enumerate_byte_identical(self):
        args = ["-q", "--format", "json", "enumerate", "4", "6", "8"]
        first = run_cli(args)
        second = run_cli(args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_asymptotic_byte_identical(self):
        args = ["-q", "--format", "json", "asymptotic", "--x-values", "100,500"]
        first = run_cli(args)
        second = run_cli(args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


class TestInputBounds:
    @pytest.mark.parametrize(
        "args",
        [
            ["table", "1", "--limit", "100000000"],
            ["asymptotic", "--x-values", "100,100000000000"],
            ["asymptotic", "--x-values", str(MAX_PARTIAL_SUM_X + 1)],
            ["asymptotic", "--x-values", ",".join(str(MAX_PARTIAL_SUM_X - k) for k in range(3))],
        ],
    )
    def test_sieve_sizes_past_the_bound_fail_fast(self, runner, args):
        start = time.perf_counter()
        result = runner.invoke(main, args)
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        bound = MAX_PARTIAL_SUM_X if args[1] == "--x-values" else MAX_SIEVE
        assert str(bound) in result.stderr

    @pytest.mark.parametrize("option", ["--prime-limit", "--tail-terms"])
    def test_asymptotic_has_no_truncation_options(self, runner, option):
        # asymptotic runs the library's default truncations only
        result = runner.invoke(main, ["asymptotic", option, "1000"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert option in result.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ["poly", str(MAX_EXPONENT + 1)],
            ["poly", "1", "1", "3000"],
            ["poly", str(MAX_CLOSED_FORM_EXPONENT + 1), "--closed-form"],
            ["table", "2", "--limit", "400"],
            ["table", "3", "--limit", "40"],
            ["type-count", ",".join(["1"] * (MAX_PARTITION_SIZE + 1)), ",".join(["1"] * 55)],
            ["type-count", str(10**9), "1"],
            *[["table", which, "--limit", str(_TABLE_LIMITS[which] + 1)] for which in ("1", "2", "3")],
        ],
    )
    def test_exponents_past_the_bound_fail_fast(self, runner, args):
        start = time.perf_counter()
        result = runner.invoke(main, args)
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2

    def test_largest_type_count_finishes_fast(self, runner):
        # all ones over half as many ones is the slowest LAM of its size: [110, 55]_p
        start = time.perf_counter()
        result = runner.invoke(main, ["-q", "type-count", ",".join(["1"] * MAX_PARTITION_SIZE), ",".join(["1"] * 55)])
        assert time.perf_counter() - start < 1.5
        assert result.exit_code == 0

    @pytest.mark.parametrize(
        "args",
        [
            ["poly", "120", "--eval", str(10**40)],
            ["poly", "20000", "--closed-form", "--eval", "1000000"],
            ["type-count", ",".join(["1"] * 100), ",".join(["1"] * 50), "--eval", str(10**20)],
            # the slowest build a refusal waits for: the value is refused once the polynomial is built
            ["type-count", ",".join(["1"] * MAX_PARTITION_SIZE), ",".join(["1"] * (MAX_PARTITION_SIZE // 2)), "--eval", "10000000000"],
        ],
    )
    def test_oversized_values_fail_fast(self, runner, args):
        start = time.perf_counter()
        result = runner.invoke(main, args)
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        assert f"more than {MAX_EVAL_DIGITS} digits" in result.stderr

    def test_eval_under_a_lowered_int_string_limit(self):
        # the interpreter refuses to print ints of more than 640 digits here;
        # the value must be refused as too long, not crash when printed
        src = str(Path(cli_module.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONINTMAXSTRDIGITS="640", PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run(
            [sys.executable, "-m", "abelian3.cli", "poly", "120", "--eval", "10000000000"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "more than 640 digits" in result.stderr

    def test_verify_stays_below_the_element_bound(self):
        # verify builds the element set of every group it checks and has no
        # bound check of its own: argparse's --max-order cap keeps it inside
        assert MAX_VERIFY_ORDER <= ELEMENT_BOUND

    def test_verify_order_past_the_bound_fails_fast(self, runner):
        start = time.perf_counter()
        result = runner.invoke(main, ["verify", "--max-order", str(MAX_VERIFY_ORDER + 1)])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        assert str(MAX_VERIFY_ORDER) in result.stderr

    def test_value_just_past_the_digit_bound(self, runner):
        # p^4 has 4300 digits and passes the check before evaluation; the
        # value, 3 p^4 + ..., has one more
        p = 8 * 10**1074
        assert p**4 < 10**MAX_EVAL_DIGITS <= general_form(2)(p)
        result = runner.invoke(main, ["poly", "2", "--eval", str(p)])
        assert result.exit_code == 2
        assert f"more than {MAX_EVAL_DIGITS} digits" in result.stderr

    def test_bounds_are_inclusive(self, runner):
        assert runner.invoke(main, ["-q", "poly", "1", "1", str(MAX_EXPONENT)]).exit_code == 0
        # general_form is linear in the exponent; only symbolic_count needs MAX_EXPONENT.
        assert runner.invoke(main, ["-q", "poly", "3000", "--closed-form"]).exit_code == 0
        assert runner.invoke(main, ["-q", "asymptotic", "--x-values", "2"]).exit_code == 0
        assert runner.invoke(main, ["-q", "type-count", str(MAX_PARTITION_SIZE), "1"]).exit_code == 0
        result = runner.invoke(main, ["-q", "poly", "2", "--eval", str(7 * 10**1074)])
        assert result.exit_code == 0
        assert len(result.stdout.splitlines()[-1].split(": ")[1]) == MAX_EVAL_DIGITS


class TestFormatKnowledge:
    def test_only_the_renderer_reads_the_format(self):
        # The output format is known in render's _render_rows and _note only;
        # every command hands them rows and a column spec.
        readers = {
            (path.name, getattr(node, "name", type(node).__name__))
            for path in sorted(Path(cli_module.__file__).parent.glob("*.py"))
            for node in ast.parse(path.read_text()).body
            for inner in ast.walk(node)
            if isinstance(inner, ast.Attribute) and inner.attr == "fmt"
        }
        assert readers == {("render.py", "_render_rows"), ("render.py", "_note")}


class TestImports:
    @pytest.mark.parametrize(
        ("args", "modules", "optional", "first_line"),
        [
            ("count 1 1 1", "arith cli config rank3 render typecounts", "", "1"),
            ("--format json count 1 1 1", "arith cli config rank3 render typecounts", "json", '{"m":1,"n":1,"r":1,"kind":"total","order":null,"count":1}'),
            ("--format csv count 1 1 1", "arith cli config rank3 render typecounts", "", "m,n,r,kind,order,count"),
            ("poly 2", "cli config render typecounts", "", "7+5 p+8 p^2+4 p^3+3 p^4"),
            ("type-count 2,1 1", "cli config render typecounts", "", "1+p"),
            ("table 2", "cli config render typecounts", "", "# nu  s(p^nu x p^nu x p^nu)"),
            ("enumerate 2 2 2", "arith cli config rank3 render typecounts", "", "# 16 subgroups of Z_2 x Z_2 x Z_2"),
            ("enumerate 2 2 2 --elements", "arith cli config oracle rank3 render typecounts", "", "# 16 subgroups of Z_2 x Z_2 x Z_2"),
            ("table 1 --limit 5", "arith asymptotics cli config render typecounts", "array", "# n  s(n)"),
            ("-q asymptotic --x-values 100", "arith asymptotics cli config render typecounts", "array", "100\t5847260\t5598747.424743595\t4.438717e-02\t2.6977"),
            ("-q verify --max-order 6", "arith cli config oracle rank3 render typecounts verify", "", "rank-3 groups checked: 25"),
        ],
        ids=["count", "count-json", "count-csv", "poly", "type-count", "table", "enumerate", "enumerate-elements", "table-1", "asymptotic", "verify"],
    )
    def test_count_loads_only_its_modules(self, args, modules, optional, first_line):
        # optional: the output-format modules and the sieve's array module that
        # this command needs; nothing sieves at import, so count loads no array
        code = (
            "import sys\n"
            "from abelian3 import cli\n"
            f"sys.argv = ['abelian3', *{args.split()!r}]\n"
            "cli.main()\n"
            "print(*sorted(sys.modules), file=sys.stderr)\n"
        )
        src = str(Path(cli_module.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[0] == first_line
        loaded = set(result.stderr.splitlines()[-1].split())
        assert sorted(name for name in loaded if name.startswith("abelian3.")) == [f"abelian3.{name}" for name in modules.split()]
        assert sorted(loaded & {"array", "json", "csv"}) == optional.split()
        heavy = loaded & {"click", "dataclasses", "inspect", "fractions", "decimal", "numpy", "mpmath", "string"}
        assert not heavy, heavy

    def test_no_module_imports_numpy_or_mpmath(self):
        package = Path(cli_module.__file__).parent
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    assert name.split(".")[0] not in ("numpy", "mpmath"), f"{path.name} imports {name}"


class TestTopLevel:
    def test_help_lists_commands(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for name in ("count", "enumerate", "table", "poly", "type-count", "verify", "asymptotic"):
            assert name in result.stdout

    def test_unknown_format(self, runner):
        assert runner.invoke(main, ["--format", "yaml", "count", "1", "1", "1"]).exit_code == 2
