"""Tests of the benchmark itself (not part of the library's test suite).

    PYTHONPATH=src python3 -m pytest perfbench

The last two tests run the benchmark for real and take about half a minute.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import trace_child
import workloads
from abelian3 import rank3

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_command_lines(name):
    first = [cmd.args for cmd in workloads.build(name, 7).commands]
    again = [cmd.args for cmd in workloads.build(name, 7).commands]
    assert first == again
    assert first != [cmd.args for cmd in workloads.build(name, 8).commands]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_gaussian_reference_agrees_with_rank3():
    for group in itertools.product((1, 2, 3, 4, 6, 8, 9, 12), repeat=3):
        factored = tuple(workloads._factor_small(x) for x in group)
        total, cyclic, _ = workloads.reference_counts(factored)
        assert (total, cyclic) == (rank3.count_total(group), rank3.count_cyclic(group)), group
        whole = group[0] * group[1] * group[2]
        for delta in (d for d in range(1, whole + 1) if whole % d == 0):
            by_order, _, _ = workloads.reference_counts(factored, workloads._factor_small(delta))
            assert by_order == rank3.count_by_order(group, delta), (group, delta)


def test_count_queries_shape():
    counts = [cmd for cmd in workloads.build("count-series", 3).commands if cmd.args[0] == "count"]
    assert len(counts) == 14
    triples = [cmd.triples for cmd in counts if "--order" not in cmd.args and cmd.args[2:] != ("1", "1")]
    assert len(triples) == 8 and all(cmd_triples <= 300_000 for cmd_triples in triples)
    assert abs(sum(triples) - 1_000_000) < 50_000


def test_checks_reject_wrong_output():
    wl = workloads.build("count-series", 1)
    cmd = wl.commands[0]
    group = tuple(int(x) for x in cmd.args[1:4])
    right = f"{rank3.count_total(group)}\n".encode()
    assert cmd.check(right) is None
    assert cmd.check(f"{rank3.count_total(group) + 1}\n".encode()) is not None

    # a stream whose first two subgroup lines are swapped fails the ordering check
    group = (2, 2, 2)
    lines = ["# 16 subgroups of Z_2 x Z_2 x Z_2"]
    for sx in rank3.enumerate_sextuples(group):
        basis = rank3.materialize(sx, group)
        lines.append(
            f"a={sx.a} b={sx.b} c={sx.c} t={sx.t} w={sx.w} z={sx.z} | "
            f"basis ({sx.a},0,0) ({basis.s},{sx.b},0) ({basis.u},{basis.v},{sx.c}) | order {basis.order}"
        )
    check = workloads._enumerate_check("text", group, 16, workloads._RowAgreement())
    assert check(("\n".join(lines) + "\n").encode()) is None
    lines[1], lines[2] = lines[2], lines[1]
    assert "ascending" in workloads._enumerate_check("text", group, 16, workloads._RowAgreement())(
        ("\n".join(lines) + "\n").encode()
    )


def test_poly_parser_round_trips():
    from abelian3.typecounts import symbolic_count

    for exps in ((2, 2, 2), (1, 3, 4), (0, 0, 5)):
        poly = symbolic_count(*exps)
        assert workloads._eval_poly(workloads._parse_poly(str(poly)), 5) == poly(5)


def test_tail_rule():
    passes = [[float(i + 14 * p) for i in range(1, 15)] for p in range(4)]
    assert run.tail(passes) == (46.0, pytest.approx(100 * 46 / 56), 10)
    # too few samples: the slowest command's median over the passes
    assert run.tail([[1.0, 5.0], [2.0, 9.0], [1.5, 4.0]]) == (5.0, None, 0)
    assert run.tail([[1.0, 2.0, 3.0, 4.0]] * 5 + [[1.0, 2.0, 3.0, 9.0]]) == (4.0, None, 0)


def test_parse_importtime():
    sample = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       500 |       1500 |     numpy.core",
        "import time:       200 |     170000 |   numpy",
        "import time:      3000 |     180000 | abelian3.arith",
        "import time:       100 |      30000 | mpmath",
        "import time:      4000 |      40000 | abelian3",
        "import time:       900 |      12000 | click",
    ])
    assert run.parse_importtime(sample) == {
        "cli.import.numpy_s": 0.17,
        "cli.import.mpmath_s": 0.03,
        "cli.import.click_s": 0.012,
        "cli.import.abelian3_self_s": 0.007,
    }


def test_layer_map_covers_every_per_layer_metric():
    layer_map = json.loads((ROOT / "perfbench" / "layer_map.json").read_text())
    mapped = [name for group in layer_map["groups"] for name in group["layers"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for group in layer_map["groups"]:
        assert set(group["moves"]) <= e2e
        for names in (*group["moves"].values(), group["flat_on"]):
            assert set(names) <= set(workloads.WORKLOADS)


def test_tracer_wrap_points_exist():
    import importlib

    for bindings in (*trace_child.CALLS.values(), *trace_child.STREAMS.values()):
        for binding in bindings:
            module, attr = binding.split(".")
            assert callable(getattr(importlib.import_module(f"abelian3.{module}"), attr)), binding


def _run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize(
    "workload, trace, section", [("enumerate-verify", "0", "end_to_end"), ("count-series", "1", "per_layer")]
)
def test_every_named_metric_is_reported(workload, trace, section):
    done = _run_benchmark(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in SPEC[section]]
    assert list(result["metrics"]) == names
    for metric in SPEC[section]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert metric["name"] in done.stdout.split("{")[0]  # also printed by name in the report


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_benchmark(tmp_path, "--workload", "count-series", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
