"""Kernel probes: fixed-size timed loops over public calls.

Each probe runs its operation ``ops`` times per repetition and reports
the median time per operation over the repetitions, with the total
operation count.  They run untraced, before any wrapper is installed.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

REPEATS = 5


def _per_op(ops: int, body: Callable[[int], object],
            prepare: Callable[[], object] | None = None) -> float:
    """Median seconds per operation of ``body(ops)`` over REPEATS runs."""
    times = []
    for _ in range(REPEATS):
        if prepare is not None:
            prepare()
        start = time.perf_counter()
        body(ops)
        times.append((time.perf_counter() - start) / ops)
    return statistics.median(times)


def run_probes() -> dict[str, tuple[float, str]]:
    from submult import (CyclotomicUnit, MonomialMatrix, big_cycle, close,
                         heisenberg_generators)

    out: dict[str, tuple[float, str]] = {}

    def record(name: str, unit: str, scale: float, ops: int,
               body: Callable[[int], object],
               prepare: Callable[[], object] | None = None) -> None:
        out[name] = (_per_op(ops, body, prepare) * scale, unit)
        out[f"{name.rsplit('.', 1)[0]}.probe_ops"] = (ops * REPEATS, "count")

    units = [CyclotomicUnit(a, 27) for a in range(27)] + \
        [CyclotomicUnit(a, 8) for a in range(8)]

    def unit_loop(ops: int) -> None:
        k = len(units)
        for i in range(ops):
            units[i % k] * units[(i * 7 + 3) % k]

    record("cyclotomic.unit_mul.ns", "ns", 1e9, 50_000, unit_loop)

    h5 = close(heisenberg_generators(5))
    d5 = h5.elements
    d9 = [big_cycle(3, 2), MonomialMatrix.diagonal(
        [CyclotomicUnit(j * j, 9) for j in range(9)])]
    for _ in range(3):
        d9 = d9 + [a * b for a in d9[:4] for b in d9[:4]]
    d9 = d9[:64]

    def mul_loop(mats: list) -> Callable[[int], None]:
        def body(ops: int) -> None:
            k = len(mats)
            for i in range(ops):
                mats[i % k] * mats[(i * 7 + 3) % k]
        return body

    record("monomial.mul_d5.us", "us", 1e6, 4_000, mul_loop(d5))
    record("monomial.mul_d9.us", "us", 1e6, 2_000, mul_loop(d9))

    def spectrum_loop(ops: int) -> None:
        k = len(d5)
        for i in range(ops):
            d5[i % k].spectrum()

    record("monomial.spectrum.us", "us", 1e6, 4_000, spectrum_loop)

    gens = heisenberg_generators(5)
    record("groups.close_h5.ms", "ms", 1e3, 2, lambda ops: [close(gens) for _ in range(ops)])

    group = [close(gens)]

    def fresh_group() -> None:
        group[0] = close(gens)  # full_table fills the table only once

    record("groups.full_table_h5.ms", "ms", 1e3, 1,
           lambda ops: group[0].full_table(), prepare=fresh_group)
    return out
