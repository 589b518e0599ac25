"""Each command at the CLI's input caps: `PYTHONPATH=src python -m pytest ci -q`. A row is a command line (`python` is
this interpreter), its timeout in s, its peak-RSS cap in MB (None: no cap), its exit code and whether stdout must be empty."""

import math
import os
import shlex
import shutil
import subprocess
import sys
from itertools import count

import pytest

from abelian3.arith import primes_up_to
from abelian3.cli import MAX_CLOSED_FORM_EXPONENT, MAX_EXPONENT, MAX_EXPONENT_TRIPLES, MAX_PARTIAL_SUM_X, MAX_PARTITION_SIZE, MAX_SIEVE, MAX_VERIFY_ORDER, _TABLE_LIMITS
from abelian3.config import ELEMENT_BOUND

ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(os.path.join(os.path.dirname(__file__), os.pardir, d) for d in ("src", "tests"))}
# Runs argv[2:] under the timeout argv[1], then ends stderr with its children's peak RSS in MB. It is a fresh small process,
# as a child starts at the peak of the process it is forked from, which `ballast` makes 200 MB larger than pytest alone.
PEAK = """import resource, subprocess, sys
code = subprocess.run(sys.argv[2:], timeout=float(sys.argv[1])).returncode
print(f"\\n{resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024}", file=sys.stderr)
sys.exit(code)"""
CLI = "python -m abelian3.cli"
# Each cap row runs the largest input its constant accepts. count takes three copies of 2^e for the largest e with
# (e+1)^3 exponent triples at most the cap; enumerate --elements takes the cube whose order is the element bound.
BIG = 2 ** next(e for e in count() if (e + 2) ** 3 > MAX_EXPONENT_TRIPLES)
SIDE = next(side for side in count(1) if side**3 >= ELEMENT_BOUND)
assert SIDE**3 == ELEMENT_BOUND, f"the element bound {ELEMENT_BOUND} is not a cube"
LAM, MU = ",".join("1" * MAX_PARTITION_SIZE), ",".join("1" * (MAX_PARTITION_SIZE // 2))
# Three primes whose product passes Miller-Rabin to every prime base up to 43, among them base 2, the one arith.is_prime
# uses above psi_13 = 3317044064679887385961981; the extra strong Lucas step refuses it.
PSEUDOPRIME = 407341253811510685885345669162000633748086864015893411748503619933369963
# 6569# - 1, a 2,811-digit primorial prime: n + 1 = 2 times an odd number, so the Lucas step runs its full-length V chain
PRIMORIAL_PRIME = math.prod(primes_up_to(6569)) - 1
CONSOLE = pytest.mark.skipif(shutil.which("abelian3") is None, reason="no abelian3 console script on PATH (pip install -e .)")
ROWS = [
    ("python -c pass", 10, 40, 0, False),  # the helper does not count the ballast
    pytest.param("abelian3 --help", 10, None, 0, False, marks=CONSOLE),
    pytest.param("abelian3 count 0 1 1", 10, None, 2, False, marks=CONSOLE),
    *[(f"{CLI} -q {fmt}table 1 --limit {MAX_SIEVE}", 60, 80, 0, False) for fmt in ("", "--format csv ", "--format json ")],
    (f"{CLI} asymptotic --x-values {MAX_PARTIAL_SUM_X}", 120, 32, 0, False),
    *[(f"{CLI} {fmt}verify --max-order {MAX_VERIFY_ORDER}", 60, None, 0, False) for fmt in ("", "-q --format json ", "-q --format csv ")],
    ("python -c 'from reference import certify_stream; print(certify_stream((210, 420, 840)))'", 120, None, 0, False),
    *[(f"{CLI} -q {fmt}enumerate {SIDE} {SIDE} {SIDE} --elements", 60, None, 0, False) for fmt in ("", "--format json ", "--format csv ")],
    *[(f"{CLI} -q {command}", 10, None, 0, False)
      for command in (f"poly {MAX_EXPONENT}", f"poly {MAX_CLOSED_FORM_EXPONENT} --closed-form", f"table 2 --limit {_TABLE_LIMITS['2']}", f"table 3 --limit {_TABLE_LIMITS['3']}", f"count {BIG} {BIG} {BIG}")],
    # JSON shows the coefficients only, so the polynomial's text (about 180 MB more at the cap) is never built
    (f"{CLI} -q --format json poly {MAX_CLOSED_FORM_EXPONENT} --closed-form", 10, 200, 0, False),
    # CSV writes the text as one record, at the text's peak (302 MB): no record buffer of 4 bytes a character
    (f"{CLI} -q --format csv poly {MAX_CLOSED_FORM_EXPONENT} --closed-form", 10, 340, 0, False),
    *[(f"{CLI} -q --format {fmt} {command} --eval 2", 10, None, 0, False) for fmt in ("json", "csv") for command in (f"poly {MAX_EXPONENT}", f"type-count {LAM} {MU}")],
    # refused once the polynomial is built, but before it is evaluated
    *[(f"{CLI} -q --format {fmt} poly {MAX_CLOSED_FORM_EXPONENT} --closed-form --eval 2", 10, 160, 2, True) for fmt in ("json", "csv")],
    *[(f"{CLI} -q --format {fmt} type-count {LAM} {MU} --eval 10000000000", 10, None, 2, True) for fmt in ("json", "csv")],
    (f"{CLI} count {PSEUDOPRIME} 1 1", 60, None, 2, True),
    # a 2,917-digit prime entry: is_prime runs Miller-Rabin to base 2 and the extra strong Lucas test on it, nothing more;
    # n + 1 = 2^9689, so the Lucas step squares only
    (f"{CLI} count {2**9689 - 1} 1 1", 10, None, 0, False),
    (f"{CLI} count {PRIMORIAL_PRIME} 1 1", 10, None, 0, False),
]


@pytest.fixture(autouse=True, scope="module")
def ballast():
    """200 MB held while the rows run; built here, not on import, so that the README's tests can read ROWS."""
    yield b"x" * (200 << 20)


@pytest.mark.parametrize(("command", "timeout", "cap_mb", "code", "empty"), ROWS)
def test_row(command, timeout, cap_mb, code, empty):
    argv = [sys.executable if word == "python" else word for word in shlex.split(command)]
    out = subprocess.PIPE if empty else subprocess.DEVNULL
    done = subprocess.run([sys.executable, "-c", PEAK, str(timeout), *argv], stdout=out, stderr=subprocess.PIPE, env=ENV, text=True)
    assert done.returncode == code, done.stderr[-2000:]
    assert not (empty and done.stdout), done.stdout[:2000]
    peak = float(done.stderr.split()[-1])
    assert cap_mb is None or peak <= cap_mb, f"peak {peak:.1f} MB, cap {cap_mb} MB"
