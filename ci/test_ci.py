"""Each command at the CLI's input caps: `PYTHONPATH=src python -m pytest ci -q`. A row is a command line (`python` is
this interpreter), its timeout in s, its peak-RSS cap in MB (None: no cap), its exit code and whether stdout must be empty."""

import os
import shlex
import shutil
import subprocess
import sys

import pytest

ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(os.path.join(os.path.dirname(__file__), os.pardir, d) for d in ("src", "tests"))}
# Runs argv[2:] under the timeout argv[1], then ends stderr with its children's peak RSS in MB. It is a fresh small process,
# as a child starts at the peak of the process it is forked from, which BALLAST makes 200 MB larger than pytest alone.
PEAK = """import resource, subprocess, sys
code = subprocess.run(sys.argv[2:], timeout=float(sys.argv[1])).returncode
print(f"\\n{resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024}", file=sys.stderr)
sys.exit(code)"""
BALLAST = b"x" * (200 << 20)
CLI, BIG, LAM, MU = "python -m abelian3.cli", 2**78, ",".join("1" * 110), ",".join("1" * 55)
# Three primes whose product passes Miller-Rabin to the first 14 prime bases; the strong Lucas step refuses it.
PSEUDOPRIME = 407341253811510685885345669162000633748086864015893411748503619933369963
CONSOLE = pytest.mark.skipif(shutil.which("abelian3") is None, reason="no abelian3 console script on PATH (pip install -e .)")
ROWS = [
    ("python -c pass", 10, 40, 0, False),  # the helper does not count BALLAST
    pytest.param("abelian3 --help", 10, None, 0, False, marks=CONSOLE),
    pytest.param("abelian3 count 0 1 1", 10, None, 2, False, marks=CONSOLE),
    *[(f"{CLI} -q {fmt}table 1 --limit 10000000", 60, 80, 0, False) for fmt in ("", "--format csv ", "--format json ")],
    (f"{CLI} asymptotic --x-values 1000000000", 120, 32, 0, False),
    *[(f"{CLI} {fmt}verify --max-order 200", 60, None, 0, False) for fmt in ("", "-q --format json ", "-q --format csv ")],
    ("python -c 'from reference import certify_stream; print(certify_stream((210, 420, 840)))'", 120, None, 0, False),
    *[(f"{CLI} -q {fmt}enumerate 16 16 16 --elements", 60, None, 0, False) for fmt in ("", "--format json ", "--format csv ")],
    *[(f"{CLI} -q {command}", 10, None, 0, False)
      for command in ("poly 120", "poly 1000000 --closed-form", "table 2 --limit 50", "table 3 --limit 18", f"count {BIG} {BIG} {BIG}")],
    *[(f"{CLI} -q --format {fmt} {command} --eval 2", 10, None, 0, False) for fmt in ("json", "csv") for command in ("poly 120", f"type-count {LAM} {MU}")],
    *[(f"{CLI} -q --format {fmt} poly 1000000 --closed-form --eval 2", 10, None, 2, True) for fmt in ("json", "csv")],
    (f"{CLI} count {PSEUDOPRIME} 1 1", 60, None, 2, True),
]


@pytest.mark.parametrize(("command", "timeout", "cap_mb", "code", "empty"), ROWS)
def test_row(command, timeout, cap_mb, code, empty):
    argv = [sys.executable if word == "python" else word for word in shlex.split(command)]
    out = subprocess.PIPE if empty else subprocess.DEVNULL
    done = subprocess.run([sys.executable, "-c", PEAK, str(timeout), *argv], stdout=out, stderr=subprocess.PIPE, env=ENV, text=True)
    assert done.returncode == code, done.stderr[-2000:]
    assert not (empty and done.stdout), done.stdout[:2000]
    peak = float(done.stderr.split()[-1])
    assert cap_mb is None or peak <= cap_mb, f"peak {peak:.1f} MB, cap {cap_mb} MB"
