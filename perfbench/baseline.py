"""Repeat the benchmark over several seeds and summarise the spread.

    python3 perfbench/baseline.py [--workloads a,b] [--seeds 1-10] [--out FILE]

For each workload: one ``--trace 0`` run of ``perfbench/run.py`` per seed,
then one ``--trace 1`` run on the first seed, one run at a time, with
``run_seconds`` from BENCHMARK.json. For every end-to-end metric it prints the
median, and the spread (q3 - q1) / median from
``statistics.quantiles(values, n=4)`` next to the metric's bound. With
``--out`` it writes the raw values, the summaries, the per-layer values and
the environment of the first run as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for piece in text.split(","):
        lo, _, hi = piece.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict] | None:
    """(result line, record) of one benchmark run, or None after printing why it failed."""
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2:
        print(f"{workload} seed {seed} trace {trace}: exit {done.returncode}\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
        return None
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    report: dict = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    status = 0
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            run = run_once(workload, seed, seconds, 0)
            if run is None:
                status = 1
                continue
            results.append(run)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={value['value']:.4g}" for name, value in run[0]["metrics"].items()), flush=True)
        if not results:
            continue
        summary = {}
        for metric in spec["end_to_end"]:
            values = [result["metrics"][metric["name"]]["value"] for result, _ in results]
            q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / median
            summary[metric["name"]] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3, "spread": spread, "values": values,
            }
            verdict = "ok" if spread < metric["bound"] / 3 else "within bound" if spread <= metric["bound"] else "TOO WIDE"
            print(f"  {workload:<17} {metric['name']:<12} median {median:<10.5g} {metric['unit']:<4} "
                  f"spread {spread:.3f} (bound {metric['bound']}) {verdict}", flush=True)
        traced = run_once(workload, seeds[0], seconds, 1)
        if traced is None:
            status = 1
        report["workloads"][workload] = {
            "environment": results[0][1]["environment"],
            "end_to_end": summary,
            "per_layer": None if traced is None else {
                "seed": seeds[0], **{name: value["value"] for name, value in traced[0]["metrics"].items()}
            },
        }
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
