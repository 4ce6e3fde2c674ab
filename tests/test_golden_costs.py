"""Golden cost fingerprints for the plans behind ``repro-skyline reproduce``.

Every reproduction claim is a comparison of simulated costs, so a change
that moves a charge — in the ZB-tree walks, Z-search, Z-merge, or the
cost model — changes the documented numbers even when every skyline
stays the same.  This test pins, for each claim's plans at a small ``n``,
the skyline (an id digest), the makespan, the merge cost, the dominance
point and region tests, and the candidate count.  ``GOLDEN_COUNTERS``
pins every other count as well: a digest of the run's merged job
counters (map, reduce, shuffle, phase1, dfs, dominance) together with
the codec's kernel-path stats.

A change that fails it on purpose must say which charges moved in its
change notes, regenerate ``REPRODUCTION_REPORT.md`` and the
EXPERIMENTS.md numbers with ``repro-skyline reproduce``, and refresh
``GOLDEN`` and ``GOLDEN_COUNTERS`` below from::

    PYTHONPATH=src python tests/test_golden_costs.py
"""

import functools
import hashlib
import json

import numpy as np
import pytest

from repro.bench.harness import run_plan_measured
from repro.data import generate

#: claim -> (distribution, n, d, sample ratio, plans), the reproduce
#: checks' shapes at a small n
CASES = {
    "fig7cd": ("independent", 800, 10, 0.02, ("Grid+ZS", "Angle+ZS", "ZDG+ZS+ZM")),
    "fig8": ("anticorrelated", 2000, 5, 0.02, ("ZDG+ZS+SB", "ZDG+ZS+ZS", "ZDG+ZS+ZM")),
    "fig9": ("independent", 2000, 5, 0.02, ("Grid+ZS", "ZDG+ZS")),
    "load_balance": ("anticorrelated", 3000, 8, 0.02, ("Naive-Z+ZS", "ZDG+ZS")),
    "fig12": ("independent", 1500, 8, 0.02, ("Grid+ZS", "ZDG+ZS+ZM")),
    "fig13": ("independent", 1500, 5, 0.04, ("Naive-Z+ZS", "ZDG+ZS+ZM")),
    "pruning": ("correlated", 2000, 5, 0.02, ("ZDG+ZS+ZM",)),
}

FIELDS = ("skyline", "makespan", "merge_cost", "point_tests", "region_tests", "candidates")

#: (claim, plan) -> fingerprint, in FIELDS order
GOLDEN = {
    ('fig7cd', 'Grid+ZS'): ('b2eda54b327085c6', 288327, 286217, 296002, 479, 787),
    ('fig7cd', 'Angle+ZS'): ('b2eda54b327085c6', 275786, 269666, 282509, 456, 755),
    ('fig7cd', 'ZDG+ZS+ZM'): ('b2eda54b327085c6', 225660, 208700, 241304, 16426, 782),
    ('fig8', 'ZDG+ZS+SB'): ('2ec443797691cdee', 831346, 794679, 973590, 6385, 1422),
    ('fig8', 'ZDG+ZS+ZS'): ('2ec443797691cdee', 720389, 683722, 862529, 6437, 1422),
    ('fig8', 'ZDG+ZS+ZM'): ('2ec443797691cdee', 402058, 365391, 509411, 39067, 1422),
    ('fig9', 'Grid+ZS'): ('e1ee5dbcff2e1532', 212889, 205535, 243402, 647, 1029),
    ('fig9', 'ZDG+ZS'): ('e1ee5dbcff2e1532', 170300, 156358, 231464, 2469, 822),
    ('load_balance', 'Naive-Z+ZS'): ('6731368111a12f87', 4149074, 4081317, 4413783, 9721, 2944),
    ('load_balance', 'ZDG+ZS'): ('6731368111a12f87', 4143518, 4078054, 4426263, 9682, 2938),
    ('fig12', 'Grid+ZS'): ('ca40b045f942f811', 588452, 582945, 616485, 631, 1336),
    ('fig12', 'ZDG+ZS+ZM'): ('ca40b045f942f811', 357404, 321793, 398807, 26434, 1293),
    ('fig13', 'Naive-Z+ZS'): ('c10c83833deefd35', 97827, 85619, 146755, 1867, 583),
    ('fig13', 'ZDG+ZS+ZM'): ('c10c83833deefd35', 78985, 68846, 121569, 6090, 626),
    ('pruning', 'ZDG+ZS+ZM'): ('926e603a7683c018', 16287, 7712, 26152, 2627, 196),
}


#: (claim, plan) -> digest of every job counter and kernel-path stat
GOLDEN_COUNTERS = {
    ('fig7cd', 'Grid+ZS'): '03be7124b59a8a22',
    ('fig7cd', 'Angle+ZS'): '652e5f6450109a5d',
    ('fig7cd', 'ZDG+ZS+ZM'): '30f0ae3a59a2fad7',
    ('fig8', 'ZDG+ZS+SB'): '1eacb04cb2321b84',
    ('fig8', 'ZDG+ZS+ZS'): 'bacfac42ac7dfaa4',
    ('fig8', 'ZDG+ZS+ZM'): 'ce0d28741ff965da',
    ('fig9', 'Grid+ZS'): '2acf45d7b8f5d4b6',
    ('fig9', 'ZDG+ZS'): '79f19ed3b60d818d',
    ('load_balance', 'Naive-Z+ZS'): '0c0b5684fda5118a',
    ('load_balance', 'ZDG+ZS'): 'af1098fba5948ffe',
    ('fig12', 'Grid+ZS'): '79171125b6c18058',
    ('fig12', 'ZDG+ZS+ZM'): '9372ab4449b52387',
    ('fig13', 'Naive-Z+ZS'): '9f21e24c0b7342b6',
    ('fig13', 'ZDG+ZS+ZM'): '8193da53c22a8a29',
    ('pruning', 'ZDG+ZS+ZM'): '292b19cebcd981e6',
}


@functools.lru_cache(maxsize=None)
def _report(claim, plan):
    distribution, n, d, ratio, _ = CASES[claim]
    return run_plan_measured(
        plan, generate(distribution, n, d, seed=0), sample_ratio=ratio
    )


def _fingerprint(claim, plan):
    report = _report(claim, plan)
    ids = np.sort(report.skyline.ids).astype(np.int64)
    counters = report.merged_counters()
    return (
        hashlib.sha256(ids.tobytes()).hexdigest()[:16],
        report.makespan_cost,
        report.merge_cost,
        counters.counter("dominance", "point_tests"),
        counters.counter("dominance", "region_tests"),
        report.num_candidates,
    )


def _counter_digest(claim, plan):
    report = _report(claim, plan)
    payload = {
        "counters": report.merged_counters().counters_as_dict(),
        "zkernel": report.details["kernel_stats"],
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()[:16]


@pytest.mark.parametrize(
    "claim,plan", [(claim, plan) for claim, case in CASES.items() for plan in case[4]]
)
def test_cost_fingerprint(claim, plan):
    got = dict(zip(FIELDS, _fingerprint(claim, plan)))
    assert got == dict(zip(FIELDS, GOLDEN[claim, plan]))


@pytest.mark.parametrize(
    "claim,plan", [(claim, plan) for claim, case in CASES.items() for plan in case[4]]
)
def test_counter_fingerprint(claim, plan):
    assert _counter_digest(claim, plan) == GOLDEN_COUNTERS[claim, plan]


if __name__ == "__main__":
    for claim, case in CASES.items():
        for plan in case[4]:
            print(f"    ({claim!r}, {plan!r}): {_fingerprint(claim, plan)!r},")
    print()
    for claim, case in CASES.items():
        for plan in case[4]:
            print(f"    ({claim!r}, {plan!r}): {_counter_digest(claim, plan)!r},")
