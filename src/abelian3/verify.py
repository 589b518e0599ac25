"""The verification campaign: structured enumeration against brute force.

run_lattice_verification calls rank3, oracle and arith through their module
attributes, and count_rank2 through this module's, so that a test or tracer
replacing one of them reaches every route.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Callable, NamedTuple, Sequence


class VerificationReport(NamedTuple):
    max_order: int
    rank3_shapes: int
    rank2_shapes: int
    ok: bool
    failures: list[str]


def _difference_note(got: set[int], want: set[int], group: tuple[int, int, int], strides: Sequence[int]) -> str:
    """The masks in one set only (codes x sx + y sy + z sz for strides (sx, sy,
    sz)), decoded to sorted element lists, the first three of each side in
    ascending order."""
    from .oracle import decode
    elements = sorted(product(*map(range, group)), key=lambda e: sum(x * s for x, s in zip(e, strides)))
    bits = []
    for side, masks in (("unexpected", got - want), ("missing", want - got)):
        if masks:
            shown = "; ".join(map(str, sorted(sorted(decode(mask, elements)) for mask in masks)[:3]))
            bits.append(f"{len(masks)} {side} sets (first: {shown})")
    return ", ".join(bits) if bits else "sets differ"


def count_rank2(m: int, n: int) -> int:
    """Number of subgroups of Z_m x Z_n: sum of gcd(a, b) over a | m, b | n."""
    if m < 1 or n < 1:
        raise ValueError(f"group orders must be positive, got ({m}, {n})")
    from .arith import divisors
    return sum(math.gcd(a, b) for a in divisors(m) for b in divisors(n))


def run_lattice_verification(
    max_order: int = 120,
    progress: Callable[[str], None] | None = None,
) -> VerificationReport:
    """Compare structured enumeration against the brute-force oracle.

    Covers every group Z_m x Z_n x Z_r with m n r <= max_order: equality of
    the element masks with the oracle lattice, stream length against every
    counting route (the per-prime count_total and the paper's divisor sum),
    and pairwise distinctness. Z_m x Z_n is the shape (m, n, 1), whose stream
    length is also checked against the rank-2 gcd sum count_rank2(m, n);
    rank2_shapes counts these shapes.
    The oracle walks each distinct lattice once per run, keyed by a shape's
    orders above 1 stably sorted ((1,) for the trivial group), and each
    shape's masks are built in that key's codes: axis i of the shape takes the
    stride of its key axis, and an order-1 axis, whose digit is 0, stride 1.
    Permuting the factors is an isomorphism, so the shape's subgroups in those
    codes are the key's lattice as walked. The stream, masks and counts stay
    per shape.
    Any exception inside one shape is recorded as a failure for that shape
    rather than aborting the campaign.
    """
    if max_order < 1:
        raise ValueError(f"max_order must be positive, got {max_order}")
    from . import oracle, rank3
    lattices: dict[tuple[int, ...], set[int]] = {}
    failures: list[str] = []
    rank3_shapes = rank2_shapes = 0
    for m in range(1, max_order + 1):
        for n in range(1, max_order // m + 1):
            for r in range(1, max_order // (m * n) + 1):
                rank3_shapes += 1
                rank2_shapes += r == 1
                group = (m, n, r)
                try:
                    axes = sorted((i for i in range(3) if group[i] > 1), key=group.__getitem__) or [0]
                    key = tuple(group[i] for i in axes)
                    strides = [1, 1, 1]
                    for k, i in enumerate(axes):
                        strides[i] = math.prod(key[k + 1:])
                    if key not in lattices:
                        lattices[key] = oracle.all_subgroups(key)
                    want = lattices[key]
                    masks = [rank3.subgroup_elements(sub, strides) for sub in rank3.subgroup_stream(group)]
                    stream, seen = len(masks), set(masks)
                    formulas = {"per prime": rank3.count_total(group), "divisor sum": rank3.count_total_divisor_sum(group)}
                    if r == 1:
                        formulas["rank-2 gcd sum"] = count_rank2(m, n)
                    if any(stream != formula for formula in formulas.values()):
                        note = f"formulas {tuple(formulas.values())} ({', '.join(formulas)})"
                        failures.append(f"{group}: stream {stream} != {note}")
                    elif len(seen) != stream:
                        failures.append(f"{group}: {stream - len(seen)} duplicate element sets")
                    elif seen != want:
                        failures.append(f"{group}: {_difference_note(seen, want, group, strides)}")
                except Exception as exc:  # noqa: BLE001 - campaign must report, not die
                    failures.append(f"{group}: {type(exc).__name__}: {exc}")
        if progress is not None and m % 10 == 0:
            progress(f"checked m <= {m}")
    return VerificationReport(max_order, rank3_shapes, rank2_shapes, not failures, failures)
