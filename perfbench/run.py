"""Benchmark of the abelian3 command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is taken from ``src/`` as it
stands (``PYTHONPATH=src``, nothing is installed).

``--trace 0`` measures end to end. One client runs the workload's commands
one after another (a closed loop), each as ``python -m abelian3.cli ...`` in a
fresh interpreter, draining stdout through a pipe. A pass is one run of the
workload's command list; a run makes ``max(2, round(S / nominal pass))``
passes, so every command runs at least twice and its stdout digests can be
compared (the CLI promises byte-deterministic stdout), and the number of
latency samples does not depend on timing noise. (Only on a machine so slow
that the next pass would end past 1.1 S does it stop early, after at least
two passes.)
Set-up time is the median of several fresh ``count 1 1 1`` runs made first.

``--trace 1`` measures per layer. Each pass runs in a fresh interpreter
(``perfbench/trace_child.py``) through the click entry point, with the
library's functions wrapped where their callers look them up. Untraced and
traced passes alternate for S seconds; their wall times give the tracing
overhead. Import costs come from ``python -X importtime``.

Every output is checked against references computed before timing starts
(see ``workloads.py``). The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is a JSON record with the environment and the raw samples. The exit code
is 0 only when every output passed its check.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

SETUP_REPEATS = 5
IMPORT_REPEATS = 3
SETUP_COMMAND = ("count", "1", "1", "1")
OVERRUN = 1.1  # after two passes, no pass starts that would end past OVERRUN * S
TAIL_BEYOND = 10  # cmd_tail_s is the highest percentile with this many samples above it
DRAIN_PAUSE_S = 0.001  # a 64 KiB pipe holds far more than the CLI writes in this time
# ``python -m abelian3.cli ARGS``, spelled out so the child can report its own
# peak RSS (VmHWM) on an extra pipe just before it exits. A child's rusage
# cannot be used for this: Linux carries the forking parent's RSS peak across
# exec, and this process holds whole output streams.
_RUN_CLI = """
import os, runpy, sys
fd = int(os.environ.pop("PERFBENCH_RSS_FD"))
try:
    runpy.run_module("abelian3.cli", run_name="__main__", alter_sys=True)
finally:
    try:
        with open("/proc/self/status") as status:
            peak = next((line.split()[1] for line in status if line.startswith("VmHWM:")), "0")
    except OSError:
        peak = "0"
    os.write(fd, peak.encode())
"""
CLI = (sys.executable, "-c", _RUN_CLI)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("ABELIAN3_ELEMENT_BOUND", None)  # the default element bound applies
    return env


@dataclass
class Finished:
    seconds: float
    stdout: bytes
    stderr: bytes
    code: int
    peak_rss_mb: float


def run_process(argv: Sequence[str]) -> Finished:
    """Run argv to completion, draining stdout and stderr through pipes.

    The time runs from spawn to reap. Peak RSS is what the child writes to
    the fd named by PERFBENCH_RSS_FD (in KiB), or 0 if it writes nothing.
    """
    rss_read, rss_write = os.pipe()
    env = child_env()
    env["PERFBENCH_RSS_FD"] = str(rss_write)
    start = time.perf_counter()
    try:
        proc = subprocess.Popen(
            argv,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            cwd=ROOT,
            pass_fds=(rss_write,),
        )
    finally:
        os.close(rss_write)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks: dict[int, list[bytes]] = {out_fd: [], err_fd: []}
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            sel.register(proc.stderr, selectors.EVENT_READ)
            while sel.get_map():
                got_data = False
                for key, _ in sel.select():
                    chunk = os.read(key.fd, 1 << 20)
                    if chunk:
                        chunks[key.fd].append(chunk)
                        got_data = True
                    else:
                        sel.unregister(key.fileobj)
                if got_data:
                    # Let output collect: the CLI writes one line per call, and
                    # waking for each would spend a core on this reader.
                    time.sleep(DRAIN_PAUSE_S)
        proc.wait()
        elapsed = time.perf_counter() - start
        peak_kib = os.read(rss_read, 64)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
        os.close(rss_read)
    return Finished(
        seconds=elapsed,
        stdout=b"".join(chunks[out_fd]),
        stderr=b"".join(chunks[err_fd]),
        code=proc.returncode,
        peak_rss_mb=int(peak_kib or 0) / 1024,
    )


def tail(latencies: Sequence[Sequence[float]]) -> tuple[float, float | None, int]:
    """(value, percentile, samples beyond) for the latency tail of one run.

    latencies[p][i] is command i in pass p. The tail is the highest order
    statistic of the pooled samples with TAIL_BEYOND samples above it. With
    fewer than 4 * TAIL_BEYOND samples that statistic would sit below the
    75th percentile, near the median, so the tail is then the slowest
    command's median over the passes (percentile None).
    """
    pooled = sorted(t for row in latencies for t in row)
    n = len(pooled)
    if n < 4 * TAIL_BEYOND:
        return max(statistics.median(column) for column in zip(*latencies)), None, 0
    rank = n - TAIL_BEYOND
    return pooled[rank - 1], 100.0 * rank / n, TAIL_BEYOND


@dataclass
class Outcome:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, label: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{label}: {error}")


def _command_error(done: Finished) -> str | None:
    if done.code != 0:
        return f"exit code {done.code}: {done.stderr.decode(errors='replace')[-300:]}"
    return None


def measure_setup(outcome: Outcome) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        done = run_process((*CLI, *SETUP_COMMAND))
        error = _command_error(done) or (None if done.stdout == b"1\n" else f"stdout {done.stdout[:80]!r}")
        outcome.record("setup count 1 1 1", error)
        times.append(done.seconds)
    return times


def end_to_end(wl, seconds: int) -> tuple[dict[str, float], dict, Outcome]:
    """Timed passes of the workload through the real CLI."""
    outcome = Outcome()
    setup = measure_setup(outcome)
    passes = max(2, round(seconds / wl.nominal_pass_s))
    digests: list[str | None] = [None] * len(wl.commands)
    verdicts: list[str | None] = [None] * len(wl.commands)
    latencies: list[list[float]] = []
    peak_rss = 0.0
    start = time.perf_counter()
    for index in range(passes):
        spent = time.perf_counter() - start
        if index >= 2 and spent + spent / index > OVERRUN * seconds:
            break  # a machine slower than the nominal one: keep the run near S
        row = []
        for i, cmd in enumerate(wl.commands):
            done = run_process((*CLI, *cmd.args))
            row.append(done.seconds)
            peak_rss = max(peak_rss, done.peak_rss_mb)
            error = _command_error(done)
            if error is None:
                digest = hashlib.sha256(done.stdout).hexdigest()
                if digests[i] is None:
                    digests[i] = digest
                    verdicts[i] = cmd.check(done.stdout)
                elif digest != digests[i]:
                    error = f"stdout differs from pass 1 (sha256 {digest[:12]} vs {digests[i][:12]})"
                error = error or verdicts[i]
            outcome.record(f"pass {index + 1} `{' '.join(cmd.args)}`", error)
        latencies.append(row)
    pass_walls = [sum(row) for row in latencies]
    pooled = [t for row in latencies for t in row]
    # The typical command: the median over commands of each command's median
    # over the passes. Pooled samples would put the median at the gap between
    # the short commands and the count queries, where one slow sample moves it.
    typical = statistics.median(statistics.median(column) for column in zip(*latencies))
    tail_value, tail_pct, beyond = tail(latencies)
    metrics = {
        "wall_s": statistics.median(pass_walls),
        "throughput": statistics.median(len(wl.commands) / w for w in pass_walls),
        "cmd_p50_s": typical,
        "cmd_tail_s": tail_value,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss,
    }
    samples = {
        "passes": len(latencies),
        "pass_wall_s": pass_walls,
        "cmd_latency_s": latencies,
        "setup_s": setup,
        "throughput_unit": "commands/s",
        "cmd_tail": {"percentile": tail_pct, "samples": len(pooled), "beyond": beyond},
        "stdout_sha256": digests,
    }
    return metrics, samples, outcome


def parse_importtime(stderr: str) -> dict[str, float]:
    """cli.import.* seconds from ``python -X importtime`` output."""
    cumulative: dict[str, float] = {}
    own = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        name = name.strip()
        cumulative.setdefault(name, int(cum_us) / 1e6)
        if name == "abelian3" or name.startswith("abelian3."):
            own += int(self_us) / 1e6
    return {
        "cli.import.numpy_s": cumulative.get("numpy", 0.0),
        "cli.import.mpmath_s": cumulative.get("mpmath", 0.0),
        "cli.import.click_s": cumulative.get("click", 0.0),
        "cli.import.abelian3_self_s": own,
    }


def per_layer(wl, seed: int, seconds: int) -> tuple[dict[str, float], dict, Outcome]:
    """Alternating untraced and traced in-process passes, each in a fresh interpreter."""
    outcome = Outcome()
    imports = []
    for _ in range(IMPORT_REPEATS):
        done = run_process((sys.executable, "-X", "importtime", "-m", "abelian3.cli", *SETUP_COMMAND))
        outcome.record("importtime count 1 1 1", _command_error(done))
        imports.append(parse_importtime(done.stderr.decode()))
    runs: dict[bool, list[dict]] = {False: [], True: []}
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        for traced in (False, True):
            argv = (sys.executable, str(HERE / "trace_child.py"), wl.name, str(seed), str(int(traced)))
            done = run_process(argv)
            error = _command_error(done)
            if error is None:
                report = json.loads(done.stdout.decode().splitlines()[-1])
                runs[traced].append(report)
                for failure in report["failures"]:
                    outcome.failures.append(f"{'traced' if traced else 'untraced'} in-process {failure}")
                outcome.attempted += report["attempted"]
            else:
                outcome.record(f"trace child ({'traced' if traced else 'untraced'})", error)
        elapsed = time.perf_counter() - start
        if outcome.failures or elapsed + (time.perf_counter() - pair_start) > seconds:
            break
    digests = {json.dumps(report["digests"]) for reports in runs.values() for report in reports}
    if len(digests) > 1:
        outcome.failures.append("in-process stdout differs between passes or between traced and untraced runs")
    if not runs[True] or not runs[False]:
        return {}, {}, outcome
    metrics = {
        name: statistics.median(report["layers"][name] for report in runs[True])
        for name in runs[True][0]["layers"]
    }
    for name in imports[0]:
        metrics[name] = statistics.median(sample[name] for sample in imports)
    traced_wall = statistics.median(report["wall_s"] for report in runs[True])
    untraced_wall = statistics.median(report["wall_s"] for report in runs[False])
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    samples = {
        "traced_wall_s": [report["wall_s"] for report in runs[True]],
        "untraced_wall_s": [report["wall_s"] for report in runs[False]],
        "imports": imports,
        "cache_info": [report["cache_info"] for report in runs[True]],
        "layers": [report["layers"] for report in runs[True]],
    }
    return metrics, samples, outcome


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read from .git directly."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    versions = {}
    for package in ("numpy", "mpmath", "click"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = "missing"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **versions,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "abelian3" / "cli.py").is_file() or not spec_path.is_file():
        print(f"perfbench: run from a checkout that holds src/abelian3 and BENCHMARK.json (root {ROOT})", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    import workloads  # imports abelian3.typecounts for the reference route

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.build(args.workload, args.seed)
    if args.trace:
        values, samples, outcome = per_layer(wl, args.seed, args.seconds)
        wanted = spec["per_layer"]
    else:
        values, samples, outcome = end_to_end(wl, args.seconds)
        wanted = spec["end_to_end"]

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and not outcome.failures:
        outcome.failures.append(f"metrics not measured: {', '.join(missing)}")
    failed = len(outcome.failures)
    attempted = max(outcome.attempted, 1)
    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}: {attempted} commands, {failed} failed")
    for failure in outcome.failures[:20]:
        print(f"FAIL {failure}")
    for metric in wanted:
        if metric["name"] in values:
            print(f"{metric['name']:<44} {values[metric['name']]:.6g} {metric['unit']}")
    print(f"{'failed_ratio':<44} {failed / attempted:.6g} ({failed}/{attempted})")
    record = {
        "workload": wl.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "commands": [list(cmd.args) for cmd in wl.commands],
        "failed_ratio": failed / attempted,
        "failures": outcome.failures,
        "environment": environment(args.seed),
        "samples": samples,
    }
    print(json.dumps({"record": record}, separators=(",", ":")))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in values
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
