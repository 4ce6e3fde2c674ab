"""JSON (de)serialisation of partition rules and run reports.

In a real deployment the phase-0 rule is *learned once* on the master
and shipped to hundreds of mappers; these helpers give it a stable
wire format.  Run-report summaries serialise for experiment logging.

Z-addresses can exceed 64 bits, so pivots are serialised as decimal
strings.
"""

from __future__ import annotations

import json
from typing import Any, Dict

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.partitioning.angle import AngleRule
from repro.partitioning.base import PartitionRule
from repro.partitioning.generic_grouping import GroupedRule
from repro.partitioning.grid import GridRule
from repro.partitioning.kdtree import KDTreeRule, _Leaf, _Split
from repro.partitioning.random_part import RandomRule
from repro.partitioning.zcurve import ZCurveRule
from repro.pipeline.driver import RunReport
from repro.zorder.encoding import ZGridCodec

_FORMAT_VERSION = 1


def codec_to_dict(codec: ZGridCodec) -> Dict[str, Any]:
    """Serialise a codec's parameters."""
    return {
        "lows": [float(v) for v in codec.lows],
        "spans": [float(v) for v in codec.spans],
        "bits_per_dim": codec.bits_per_dim,
    }


def codec_from_dict(data: Dict[str, Any]) -> ZGridCodec:
    """Rebuild a codec from :func:`codec_to_dict` output."""
    lows = np.asarray(data["lows"], dtype=np.float64)
    spans = np.asarray(data["spans"], dtype=np.float64)
    return ZGridCodec(lows, lows + spans, bits_per_dim=data["bits_per_dim"])


def rule_to_dict(rule: PartitionRule) -> Dict[str, Any]:
    """Serialise any built-in partition rule."""
    if isinstance(rule, ZCurveRule):
        return {
            "version": _FORMAT_VERSION,
            "kind": "zcurve",
            "codec": codec_to_dict(rule.codec),
            "pivots": [str(p) for p in rule.pivots],
            "group_map": rule.group_map.tolist(),
        }
    if isinstance(rule, GridRule):
        return {
            "version": _FORMAT_VERSION,
            "kind": "grid",
            "lows": rule._lo.tolist(),
            "spans": rule._span.tolist(),
            "splits": rule._splits.tolist(),
        }
    if isinstance(rule, AngleRule):
        return {
            "version": _FORMAT_VERSION,
            "kind": "angle",
            "boundaries": [b.tolist() for b in rule._boundaries],
            "angle_dims": list(rule._angle_dims),
        }
    if isinstance(rule, RandomRule):
        return {
            "version": _FORMAT_VERSION,
            "kind": "random",
            "num_groups": rule.num_groups,
        }
    if isinstance(rule, KDTreeRule):
        return {
            "version": _FORMAT_VERSION,
            "kind": "kdtree",
            "num_groups": rule.num_groups,
            "root": _kdnode_to_dict(rule._root),
        }
    if isinstance(rule, GroupedRule):
        return {
            "version": _FORMAT_VERSION,
            "kind": "grouped",
            "base": rule_to_dict(rule.base),
            "group_map": rule.group_map.tolist(),
        }
    raise ConfigurationError(
        f"cannot serialise rule type {type(rule).__name__}"
    )


def _kdnode_to_dict(node) -> Dict[str, Any]:
    if isinstance(node, _Leaf):
        return {"leaf": node.pid}
    return {
        "dim": node.dim,
        "threshold": node.threshold,
        "below": _kdnode_to_dict(node.below),
        "above": _kdnode_to_dict(node.above),
    }


def _kdnode_from_dict(data: Dict[str, Any]):
    if "leaf" in data:
        return _Leaf(int(data["leaf"]))
    return _Split(
        int(data["dim"]),
        float(data["threshold"]),
        _kdnode_from_dict(data["below"]),
        _kdnode_from_dict(data["above"]),
    )


def rule_from_dict(data: Dict[str, Any]) -> PartitionRule:
    """Rebuild a partition rule from :func:`rule_to_dict` output."""
    import numpy as np

    version = data.get("version")
    if version != _FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported rule format version {version!r}"
        )
    kind = data.get("kind")
    if kind == "zcurve":
        return ZCurveRule(
            codec_from_dict(data["codec"]),
            [int(p) for p in data["pivots"]],
            group_map=data["group_map"],
        )
    if kind == "grid":
        grid_lows = np.asarray(data["lows"], dtype=np.float64)
        grid_spans = np.asarray(data["spans"], dtype=np.float64)
        return GridRule(grid_lows, grid_lows + grid_spans, data["splits"])
    if kind == "angle":
        return AngleRule(
            [np.asarray(b, dtype=np.float64) for b in data["boundaries"]],
            list(data["angle_dims"]),
        )
    if kind == "random":
        return RandomRule(data["num_groups"])
    if kind == "kdtree":
        return KDTreeRule(
            _kdnode_from_dict(data["root"]), int(data["num_groups"])
        )
    if kind == "grouped":
        return GroupedRule(
            rule_from_dict(data["base"]), data["group_map"]
        )
    raise ConfigurationError(f"unknown rule kind {kind!r}")


def rule_to_json(rule: PartitionRule) -> str:
    """Partition rule -> JSON string."""
    return json.dumps(rule_to_dict(rule))


def rule_from_json(payload: str) -> PartitionRule:
    """JSON string -> partition rule."""
    return rule_from_dict(json.loads(payload))


def report_to_dict(report: RunReport) -> Dict[str, Any]:
    """Flatten a run report for experiment logging (JSON-safe)."""
    return {
        "version": _FORMAT_VERSION,
        "plan": report.plan.label,
        "summary": {
            k: (float(v) if isinstance(v, float) else v)
            for k, v in report.summary().items()
        },
        "details": {k: str(v) for k, v in report.details.items()},
        "counters": {
            "phase1": report.phase1.counters.counters_as_dict(),
            "phase2": report.phase2.counters.counters_as_dict(),
        },
        "faults": report.fault_summary(),
        "recovery_cost": report.recovery_cost,
        "skyline_ids": report.skyline.ids.tolist(),
    }


def report_to_json(report: RunReport) -> str:
    """Run report -> JSON string."""
    return json.dumps(report_to_dict(report))
