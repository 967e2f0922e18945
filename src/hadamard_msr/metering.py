"""Computation-load accounting for repairs: bounds, measurements, reports.

Counts are data-independent by construction: RepairPlan.cost() derives them
from the plan's constants (diagonal and inverse-matrix entries), never from
the symbol values flowing through, so one (params, node, strategy) triple
always reports the same numbers.  The report emitter places those counts
next to their closed-form bounds and, for the two built-in demo parameter
sets, next to the reference values those profiles are meant to reproduce,
flagging any delta.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .codec import DEMO_COEFFICIENTS, CodeParams, demo_params, encode, profile_params
from .repair import STRATEGIES, build_repair_plan, execute_repair

CSV_HEADER = "node,strategy,add,mul,add_bound,mul_bound,downloaded_symbols"

# Published per-node (add, mul) reference counts for the two demo profiles,
# keyed by (k, strategy).  New-strategy numbers are reproduced exactly by the
# counting convention; original-strategy numbers are reported side by side
# with measurements, which may differ where the source rounded to bounds.
_REFERENCE = {
    (2, "new"): {1: (28, 17), 2: (28, 17), 3: (28, 15), 4: (28, 20)},
    (2, "original"): {1: (132, 28), 2: (132, 28), 3: (132, 24), 4: (152, 120)},
    (3, "new"): {1: (80, 42), 2: (80, 42), 3: (80, 28), 4: (80, 44), 5: (80, 66)},
    (3, "original"): {
        1: (528, 128),
        2: (528, 128),
        3: (528, 256),
        4: (528, 272),
        5: (736, 576),
    },
}

NODE_CLASSES = ("systematic", "parity1", "parity2")


def classify_node(params: CodeParams, node: int) -> str:
    if 1 <= node <= params.k:
        return "systematic"
    if node == params.k + 1:
        return "parity1"
    if node == params.k + 2:
        return "parity2"
    raise ValueError(f"node id {node} out of range 1..{params.k + 2}")


def bound_formulas(k: int, node_class: str, strategy: str) -> tuple[int, int]:
    """Closed-form (adds, muls) ceilings per node class and strategy.

    New-strategy adds are exact at (3k+1)N/2; everything else is an upper
    bound.  The Sylvester-basis formulas grow with N^2 because the published
    cancellation and recovery they count are dense matrix products.
    """
    if node_class not in NODE_CLASSES:
        raise ValueError(f"unknown node class {node_class!r}")
    n = 1 << (k + 1)
    parity2 = node_class == "parity2"
    if strategy == "new":
        adds = (3 * k + 1) * n // 2
        muls = (3 * k + 3) * n // 2 if parity2 else (k + 3) * n // 2
    elif strategy == "original":
        if parity2:
            adds = (3 * k + 3) * n * n // 4 + (2 * k - 2) * n // 2
            muls = (3 * k + 3) * n * n // 4
        else:
            adds = (k + 3) * n * n // 4 + (k * k + 2 * k - 1) * n
            muls = (k + 3) * n * n // 4
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return adds, muls


@dataclass(frozen=True)
class CostReport:
    """Cost of repairing one node under one strategy."""

    node: int
    node_class: str
    strategy: str
    adds_by_phase: dict
    muls_by_phase: dict
    add_bound: int
    mul_bound: int
    downloaded_symbols: int

    @property
    def adds(self) -> int:
        return sum(self.adds_by_phase.values())

    @property
    def muls(self) -> int:
        return sum(self.muls_by_phase.values())

    @property
    def within_bounds(self) -> bool:
        return self.adds <= self.add_bound and self.muls <= self.mul_bound


def measure_repair(
    params: CodeParams, node: int, strategy: str, rng: np.random.Generator | None = None
) -> CostReport:
    """Report the plan's cost of repairing one node under one strategy.

    The plan is first run on random data and the repaired content checked
    against the erased original; a mismatch raises instead of producing a
    report for a broken repair.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    plan = build_repair_plan(params, node, strategy)
    parts = rng.integers(0, params.q, size=(params.k, params.n), dtype=np.int64)
    word = encode(params, parts)
    restored = execute_repair(plan, word)
    if not np.array_equal(restored, word[node - 1]):
        raise RuntimeError(
            f"repair of node {node} ({strategy}) produced wrong data; counts void"
        )
    cost = plan.cost()
    add_bound, mul_bound = bound_formulas(params.k, classify_node(params, node), strategy)
    return CostReport(
        node=node,
        node_class=classify_node(params, node),
        strategy=strategy,
        adds_by_phase={phase: adds for phase, (adds, _) in cost.items()},
        muls_by_phase={phase: muls for phase, (_, muls) in cost.items()},
        add_bound=add_bound,
        mul_bound=mul_bound,
        downloaded_symbols=plan.downloaded_symbols,
    )


def reference_counts(params: CodeParams, strategy: str) -> dict | None:
    """Reference (add, mul) per node when params match a demo profile."""
    if params.k in DEMO_COEFFICIENTS and params == demo_params(params.k):
        return _REFERENCE.get((params.k, strategy))
    return None


@dataclass(frozen=True)
class BenchTable:
    """Measured repair costs for every node of one parameter set."""

    params: CodeParams
    reports: tuple

    @property
    def text(self) -> str:
        lines = [
            f"k={self.params.k} q={self.params.q} n={self.params.n} "
            f"a={','.join(map(str, self.params.a))} b={','.join(map(str, self.params.b))}"
        ]
        for report in self.reports:
            refs = reference_counts(self.params, report.strategy) or {}
            line = (
                f"node={report.node} strategy={report.strategy} "
                f"add={report.adds} mul={report.muls} "
                f"add_bound={report.add_bound} mul_bound={report.mul_bound} "
                f"downloaded={report.downloaded_symbols} class={report.node_class}"
            )
            if report.node in refs:
                ref_add, ref_mul = refs[report.node]
                line += f" ref_add={ref_add} ref_mul={ref_mul}"
                if (report.adds, report.muls) != (ref_add, ref_mul):
                    line += (
                        f" ref_delta_add={report.adds - ref_add:+d}"
                        f" ref_delta_mul={report.muls - ref_mul:+d}"
                    )
            if not report.within_bounds:
                line += " OVER_BOUND"
            lines.append(line)
        return "\n".join(lines)

    @property
    def csv(self) -> str:
        out = io.StringIO()
        out.write(CSV_HEADER + "\n")
        for r in self.reports:
            out.write(
                f"{r.node},{r.strategy},{r.adds},{r.muls},"
                f"{r.add_bound},{r.mul_bound},{r.downloaded_symbols}\n"
            )
        return out.getvalue()


def emit_table(params: CodeParams, strategies: tuple = ("new", "original")) -> BenchTable:
    """Measure every (node, strategy) pair and bundle the report rows."""
    rng = np.random.default_rng(0)
    reports = []
    for node in range(1, params.k + 3):
        for strategy in strategies:
            reports.append(measure_repair(params, node, strategy, rng))
    return BenchTable(params=params, reports=tuple(reports))


def cmd_bench(k_values, strategies=STRATEGIES) -> list[BenchTable]:
    """Cost tables for each requested k: the demo profile where one exists,
    searched coefficients otherwise."""
    tables = []
    for k in k_values:
        tables.append(emit_table(profile_params(k), tuple(strategies)))
    return tables


__all__ = [
    "CSV_HEADER",
    "BenchTable",
    "CostReport",
    "bound_formulas",
    "classify_node",
    "cmd_bench",
    "emit_table",
    "measure_repair",
    "reference_counts",
]
