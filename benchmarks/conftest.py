"""Shared helpers for the figure benchmarks.

Run with ``pytest benchmarks/ --benchmark-only``.  Workload sizes scale
with the ``REPRO_BENCH_SCALE`` env var (default 0.2; 1.0 = the full
paper-mapped sizes — see repro.bench.harness).  Each benchmark prints
its figure's table (visible with ``-s`` or on failure) and writes it as
CSV under ``benchmarks/results/``.  SLO gates record their measurements
in the ``BENCH_<name>.json`` files at the repo root through
:func:`update_bench`.
"""

from __future__ import annotations

import json
import os
from typing import Dict

import pytest

from repro.bench.harness import BenchScale, ResultTable

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="session")
def scale() -> BenchScale:
    return BenchScale.from_env()


@pytest.fixture
def emit():
    """Print a ResultTable and persist it as CSV."""

    def _emit(table: ResultTable, name: str) -> None:
        print()
        print(table.render())
        os.makedirs(RESULTS_DIR, exist_ok=True)
        table.to_csv(os.path.join(RESULTS_DIR, f"{name}.csv"))

    return _emit


def once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def _bench_path(name: str) -> str:
    return os.path.join(REPO_ROOT, f"BENCH_{name}.json")


def read_bench(name: str) -> Dict:
    """The recorded ``BENCH_<name>.json`` ({} when absent)."""
    if not os.path.exists(_bench_path(name)):
        return {}
    with open(_bench_path(name), "r") as handle:
        return json.load(handle)


def update_bench(name: str, section: str, payload: Dict) -> None:
    """Replace one section of ``BENCH_<name>.json``, keeping the rest."""
    recorded = read_bench(name)
    recorded[section] = payload
    with open(_bench_path(name), "w") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
