"""One in-process pass of a benchmark workload, optionally traced.

    PYTHONPATH=src python3 perfbench/trace_child.py WORKLOAD SEED TRACE

Runs every command of the workload through the click entry point in this
interpreter, so ``lru_cache`` state starts cold as it does for a user; the
``count_total_prime_power`` cache is also cleared before each command, since
each CLI call is a fresh process. With TRACE=1 the library's public functions
are wrapped at the module attribute each caller looks up (``rank3.divisors``
as well as ``arith.divisors``). Each wrapper adds to its layer's call count,
busy time, self time (busy time minus the time of traced calls made inside
it) and longest call. Layers called millions of times are aggregated the same
way, so no per-call span is kept. Prints one JSON line: wall time, layer
metrics, cache statistics, stdout digests and check failures.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import sys
import time
from typing import Callable, Iterator

import workloads

# layer name -> the module attributes through which callers reach it
CALLS = {
    "rank3.count_total": ("rank3.count_total",),
    "rank3.count_cyclic": ("rank3.count_cyclic",),
    "rank3.count_by_order": ("rank3.count_by_order",),
    "rank3.derived_params": ("rank3.derived_params",),
    "rank3.materialize": ("rank3.materialize",),
    "rank3.subgroup_elements": ("rank3.subgroup_elements",),
    "arith.divisors": ("arith.divisors", "rank3.divisors", "rank2.divisors"),
    "arith.factorize": ("arith.factorize",),
    "arith.sieve_multiplicative": ("arith.sieve_multiplicative", "asymptotics.sieve_multiplicative"),
    "arith.primes_up_to": ("arith.primes_up_to", "asymptotics.primes_up_to"),
    "rank2.subgroup_elements_rank2": ("rank2.subgroup_elements_rank2",),
    "oracle.all_subgroups": ("oracle.all_subgroups",),
    "asymptotics.sieve_s": ("asymptotics.sieve_s",),
    "asymptotics.h_values": ("asymptotics.h_values",),
    "asymptotics.h3_and_h3prime": ("asymptotics.h3_and_h3prime",),
    "asymptotics.average_order_reports": ("asymptotics.average_order_reports",),
    "typecounts.symbolic_count": ("typecounts.symbolic_count",),
    "typecounts.type_count": ("typecounts.type_count",),
    "typecounts.general_form": ("typecounts.general_form",),
    "cli.render": ("cli._render_rows",),
    "cli.run_lattice_verification": ("cli.run_lattice_verification",),
}
# generators: each next() is timed, and items counts what they yield
STREAMS = {
    "rank3.enumerate_sextuples": ("rank3.enumerate_sextuples",),
    "rank2.enumerate_rank2": ("rank2.enumerate_rank2",),
}
# counters taken from a layer's return value
RESULT_COUNTERS = {
    "oracle.all_subgroups": ("oracle.subgroups_found", len),
    "arith.sieve_multiplicative": ("arith.sieve_multiplicative.entries", len),
}


class Layer:
    __slots__ = ("calls", "items", "busy", "own", "longest")

    def __init__(self) -> None:
        self.calls = self.items = 0
        self.busy = self.own = self.longest = 0.0


class Tracer:
    """Aggregates per layer; a stack of child-time accumulators gives self time."""

    def __init__(self) -> None:
        self.layers = {name: Layer() for name in (*CALLS, *STREAMS)}
        self.counters = {name: 0 for name, _ in RESULT_COUNTERS.values()}
        self.stack = [0.0]

    def _close(self, layer: Layer, started: float) -> None:
        spent = time.perf_counter() - started
        inner = self.stack.pop()
        self.stack[-1] += spent
        layer.busy += spent
        layer.own += spent - inner
        if spent > layer.longest:
            layer.longest = spent

    def wrap_call(self, name: str, fn: Callable) -> Callable:
        layer, stack, close = self.layers[name], self.stack, self._close
        counter = RESULT_COUNTERS.get(name)
        counters = self.counters

        def traced(*args, **kwargs):
            layer.calls += 1
            stack.append(0.0)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(layer, started)
            if counter is not None:
                counters[counter[0]] += counter[1](result)
            return result

        return traced

    def wrap_stream(self, name: str, fn: Callable) -> Callable:
        layer, stack, close = self.layers[name], self.stack, self._close

        def traced(*args, **kwargs) -> Iterator:
            layer.calls += 1
            inner = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                started = time.perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    close(layer, started)
                layer.items += 1
                yield item

        return traced

    def install(self) -> None:
        for table, wrap in ((CALLS, self.wrap_call), (STREAMS, self.wrap_stream)):
            for name, bindings in table.items():
                for binding in bindings:
                    module_name, attr = binding.split(".")
                    module = importlib.import_module(f"abelian3.{module_name}")
                    original = getattr(module, attr, None)
                    if original is not None:  # a layer the program no longer has reads as zero
                        setattr(module, attr, wrap(name, original))

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = dict(self.counters)
        for name, layer in self.layers.items():
            out[f"{name}.calls"] = layer.calls
            out[f"{name}.busy_s"] = layer.busy
            out[f"{name}.self_s"] = layer.own
            out[f"{name}.max_call_s"] = layer.longest
            if name in STREAMS:
                out[f"{name}.items"] = layer.items
        return out


class _Sink(io.RawIOBase):
    """Binary stdout replacement that keeps what the CLI writes."""

    def __init__(self) -> None:
        self.chunks: list[bytes] = []

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.chunks.append(bytes(data))
        return len(data)


def run_command(entry_point: Callable[[], None], args: tuple[str, ...]) -> tuple[float, int, bytes]:
    """(seconds, exit code, stdout bytes) for one command, as ``abelian3 ARGS``."""
    sink = _Sink()
    out = io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8")
    saved = sys.argv, sys.stdout, sys.stderr
    sys.argv, sys.stdout, sys.stderr = ["abelian3", *args], out, io.StringIO()
    started = time.perf_counter()
    try:
        entry_point()
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        out.flush()
        spent = time.perf_counter() - started
        sys.argv, sys.stdout, sys.stderr = saved
    return spent, code, b"".join(sink.chunks)


def _cache_info(cached: Callable) -> tuple[int, int, int]:
    """(hits, misses, currsize) of an lru_cache; zeros once the program drops the cache."""
    info = getattr(cached, "cache_info", None)
    if info is None:
        return 0, 0, 0
    hits, misses, _, currsize = info()
    return hits, misses, currsize


def main() -> None:
    workload, seed, traced = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    wl = workloads.build(workload, seed)
    from abelian3 import cli, rank3

    tracer = Tracer()
    if traced:
        tracer.install()
    cache = getattr(rank3, "count_total_prime_power", None)
    cache_stats = {"hits": 0, "misses": 0, "currsize": 0}
    wall = 0.0
    stdout_bytes = 0
    digests, failures = [], []
    if _cache_info(cache)[2]:
        failures.append("count_total_prime_power cache is warm before the first command")
    for cmd in wl.commands:
        if hasattr(cache, "cache_clear"):
            cache.cache_clear()  # each CLI call is a fresh process
        spent, code, stdout = run_command(cli.main, cmd.args)
        hits, misses, currsize = _cache_info(cache)
        cache_stats["hits"] += hits
        cache_stats["misses"] += misses
        cache_stats["currsize"] = max(cache_stats["currsize"], currsize)
        wall += spent
        stdout_bytes += len(stdout)
        digests.append(hashlib.sha256(stdout).hexdigest())
        error = f"exit code {code}" if code else cmd.check(stdout)
        if error is not None:
            failures.append(f"`{' '.join(cmd.args)}`: {error}")
    layers = tracer.metrics()
    layers["rank3.divisor_triples"] = sum(cmd.triples for cmd in wl.commands)
    layers["cli.stdout_bytes"] = stdout_bytes
    for key, value in cache_stats.items():
        layers[f"rank3.count_total_prime_power.{key}"] = value
    report = {
        "wall_s": wall,
        "attempted": len(wl.commands),
        "failures": failures,
        "digests": digests,
        "cache_info": cache_stats,
        "layers": layers,
    }
    print(json.dumps(report, separators=(",", ":")))


if __name__ == "__main__":
    main()
