"""Shared benchmark machinery: scaling, measurement, result tables.

The paper's absolute sizes (10M-110M points on a Hadoop cluster) map to
this pure-Python simulation at a 1000x reduction; on top of that,
``REPRO_BENCH_SCALE`` multiplies every workload size so the suite can run
quickly in CI (default 0.2) or at full reproduction scale
(``REPRO_BENCH_SCALE=1``).

The headline metric reported for "execution time" figures is the
*cost-model makespan* (sum over phases of the slowest worker's abstract
cost) — deterministic, host-independent, and the quantity that actually
degrades under skew and stragglers.  Wall-clock seconds are recorded
alongside.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import Dict, List, Sequence

from typing import Optional

from repro.core.dataset import Dataset
from repro.pipeline.driver import (
    EngineConfig,
    RunReport,
    export_observability,
    run_plan,
)
from repro.pipeline.gpmrs import run_gpmrs
from repro.pipeline.plans import parse_plan

_SCALE_ENV = "REPRO_BENCH_SCALE"
_DEFAULT_SCALE = 0.2


@dataclass(frozen=True)
class BenchScale:
    """Workload scaling for the benchmark suite."""

    factor: float

    @classmethod
    def from_env(cls) -> "BenchScale":
        raw = os.environ.get(_SCALE_ENV, "")
        try:
            factor = float(raw) if raw else _DEFAULT_SCALE
        except ValueError:
            factor = _DEFAULT_SCALE
        return cls(factor=max(factor, 0.01))

    def size(self, paper_millions: float) -> int:
        """Map a paper dataset size (in millions of points) to ours.

        1M paper points -> 1000 simulated points, times the scale factor,
        floored at 500 so tiny scales stay meaningful.
        """
        return max(500, int(paper_millions * 1000 * self.factor))


class ResultTable:
    """Ordered rows of measurements with aligned pretty-printing."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: List[Dict[str, object]] = []

    def add(self, **values: object) -> None:
        """Append a row; unknown columns are rejected to catch typos."""
        unknown = set(values) - set(self.columns)
        if unknown:
            raise KeyError(f"unknown columns {sorted(unknown)}")
        self.rows.append({c: values.get(c, "") for c in self.columns})

    def column(self, name: str) -> List[object]:
        """All values of one column, in row order."""
        return [row[name] for row in self.rows]

    def select(self, **criteria: object) -> "ResultTable":
        """Rows matching all the given column=value criteria."""
        out = ResultTable(self.title, self.columns)
        for row in self.rows:
            if all(row.get(k) == v for k, v in criteria.items()):
                out.rows.append(row)
        return out

    def render(self) -> str:
        """Fixed-width text rendering (what the figure would tabulate)."""
        widths = {
            c: max(len(c), *(len(str(r[c])) for r in self.rows), 1)
            if self.rows
            else len(c)
            for c in self.columns
        }
        lines = [f"== {self.title} =="]
        header = "  ".join(c.ljust(widths[c]) for c in self.columns)
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append(
                "  ".join(str(row[c]).ljust(widths[c]) for c in self.columns)
            )
        return "\n".join(lines)

    def to_csv(self, path: str) -> None:
        """Write the table as CSV."""
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=self.columns)
            writer.writeheader()
            writer.writerows(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


def run_plan_measured(
    plan: str,
    dataset: Dataset,
    num_groups: int = 32,
    num_workers: int = 8,
    sample_ratio: float = 0.02,
    bits_per_dim: int = 12,
    seed: int = 0,
    trace_out: Optional[str] = None,
    metrics_out: Optional[str] = None,
    **kwargs: object,
) -> RunReport:
    """Run one strategy on one dataset with benchmark defaults.

    ``plan`` may be any parseable plan string or the special name
    ``"MR-GPMRS"``.  ``trace_out`` / ``metrics_out`` write the run's
    span trace and unified metrics as JSONL, so a benchmark row can be
    audited (or regenerated) from its exported evidence.
    """
    if plan.strip().upper() in ("MR-GPMRS", "GPMRS"):
        config = EngineConfig(
            plan=parse_plan("Grid+SB"),
            num_groups=num_groups,
            num_workers=num_workers,
            sample_ratio=sample_ratio,
            bits_per_dim=bits_per_dim,
            seed=seed,
            trace_out=trace_out,
            metrics_out=metrics_out,
            **kwargs,  # type: ignore[arg-type]
        )
        report = run_gpmrs(dataset, config)
        # The baseline pipeline is not span-instrumented; metrics are
        # still exported post hoc from the job counters so every
        # benchmark row has the same evidence trail.
        export_observability(config, report)
        return report
    return run_plan(
        plan,
        dataset,
        num_groups=num_groups,
        num_workers=num_workers,
        sample_ratio=sample_ratio,
        bits_per_dim=bits_per_dim,
        seed=seed,
        trace_out=trace_out,
        metrics_out=metrics_out,
        **kwargs,
    )
