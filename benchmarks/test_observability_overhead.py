"""Cost of the observability layer on a Figure-9-style workload.

Two claims, both load-bearing for the tracing design:

* **off is cheap** — with the default ``NULL_TRACER`` the runtime
  materialises no task spans (one ``tracer.enabled`` check per task
  record) and builds no task-local metrics registry, so a run with
  tracing disabled must be no slower (within noise) than a fully traced
  run; the assertion bounds the disabled path at 5% of the traced wall
  time.
* **on is bounded** — enabling tracing + metrics may not blow up the
  run either; the table records the measured ratio so regressions are
  visible in the CSV history.

Min-of-repeats is used on both sides: the minimum is the standard
robust estimator for "how fast can this code go", which is exactly the
quantity an overhead comparison needs.  The traced and untraced repeats
alternate, so drift in the host's speed reaches both sides alike.
"""

from conftest import once

from repro.bench.harness import ResultTable, run_plan_measured
from repro.data.synthetic import independent
from repro.observability import Tracer

PLAN = "ZDG+ZS+ZM"
REPEATS = 3


def _fig9_dataset(scale):
    # Figure 9's mid-size point: 60M paper points, d=5, independent.
    return independent(scale.size(60), 5, seed=0)


def _min_walls(dataset):
    """``(min wall, last report)`` of the traced and of the untraced
    runs, ``REPEATS`` each, run in alternation."""
    modes = ({"tracer": Tracer()}, {})
    reports = [[], []]
    for _ in range(REPEATS):
        for kwargs, runs in zip(modes, reports):
            runs.append(run_plan_measured(PLAN, dataset, num_workers=8, **kwargs))
    return [(min(r.total_seconds for r in runs), runs[-1]) for runs in reports]


def _run(scale):
    dataset = _fig9_dataset(scale)
    table = ResultTable(
        "observability overhead (fig-9 workload)",
        ["mode", "total_s", "ratio_vs_traced", "spans", "skyline"],
    )

    (traced_s, traced_report), (off_s, off_report) = _min_walls(dataset)

    assert off_report.trace is None
    assert traced_report.trace is not None
    traced_report.trace.validate()
    assert sorted(off_report.skyline.ids) == sorted(
        traced_report.skyline.ids
    )

    table.add(
        mode="tracing-off",
        total_s=round(off_s, 4),
        ratio_vs_traced=round(off_s / traced_s, 3),
        spans=0,
        skyline=off_report.skyline_size,
    )
    table.add(
        mode="tracing-on",
        total_s=round(traced_s, 4),
        ratio_vs_traced=1.0,
        spans=len(traced_report.trace.spans),
        skyline=traced_report.skyline_size,
    )

    # The acceptance bound: with tracing off the instrumented runtime
    # costs at most 5% of the traced run's wall time (25ms absolute
    # slack absorbs scheduler noise on tiny CI-scaled workloads).
    assert off_s <= traced_s * 1.05 + 0.025, (
        f"tracing-off run ({off_s:.4f}s) slower than traced run "
        f"({traced_s:.4f}s) by more than the 5% budget"
    )
    return table


def test_observability_overhead(benchmark, scale, emit):
    table = once(benchmark, lambda: _run(scale))
    emit(table, "observability_overhead")
