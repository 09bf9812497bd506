"""Structural validation of the frozen schema-v1 result payloads.

The validators check the JSON payloads emitted by
:meth:`RunResult.to_dict`, :meth:`SweepResult.to_dict` and
:meth:`ProfileResult.to_dict` against the **frozen v1 shapes**: required
keys present with the right primitive types, ``schema_version`` correct,
metric blocks complete.  They are dependency-free (no jsonschema) and
are what the schema round-trip tests and external consumers use to prove
a payload is well-formed.

All validators raise :class:`SchemaError` naming the offending path, and
return the payload unchanged so they compose as pass-throughs::

    payload = validate_run_payload(json.load(fh))
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.api.results import SCHEMA_VERSION

_NUMBER = (int, float)


class SchemaError(ValueError):
    """A result payload does not match its frozen schema."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def _require_mapping(payload: Any, where: str) -> Mapping[str, Any]:
    _require(isinstance(payload, Mapping), f"{where} must be a mapping")
    return payload


def _check_key(payload: Mapping[str, Any], key: str, types, where: str) -> Any:
    _require(key in payload, f"{where} is missing required key {key!r}")
    value = payload[key]
    _require(
        isinstance(value, types),
        f"{where}.{key} must be {types}, got {type(value).__name__}",
    )
    return value


def _check_count_map(payload: Mapping[str, Any], key: str, where: str) -> None:
    block = _require_mapping(payload.get(key), f"{where}.{key}")
    for kind, count in block.items():
        _require(
            isinstance(kind, str) and isinstance(count, _NUMBER),
            f"{where}.{key} must map strings to numbers",
        )


#: Every key of the frozen fill-metrics block (aggregate and per-tenant).
METRICS_KEYS = (
    "jobs_submitted",
    "jobs_completed",
    "jobs_rejected",
    "total_flops",
    "total_samples",
    "busy_device_seconds",
    "average_jct",
    "makespan",
    "num_preemptions",
    "deadlines_total",
    "deadlines_met",
    "completion_rate",
    "deadline_hit_rate",
)

#: Every key of the frozen per-tenant result block.
TENANT_KEYS = (
    "num_devices",
    "jobs_submitted_by",
    "fill_tflops_per_device",
    "main_tflops_per_device",
    "total_tflops_per_device",
    "bubble_ratio",
    "fill_metrics",
)


def _check_environment(payload: Mapping[str, Any], where: str) -> None:
    """The additive ``environment`` block (event queue + versions).

    Digest-neutral provenance: checked only when present, so payloads
    recorded before the block existed stay valid.
    """
    if "environment" not in payload:
        return
    block = _require_mapping(payload["environment"], f"{where}.environment")
    _check_key(block, "kernel_backend", str, f"{where}.environment")
    _check_key(block, "python", str, f"{where}.environment")
    _check_key(block, "numpy", str, f"{where}.environment")


def _check_metrics(block: Any, where: str) -> None:
    block = _require_mapping(block, where)
    for key in METRICS_KEYS:
        _check_key(block, key, _NUMBER, where)


def _check_version(payload: Mapping[str, Any], where: str) -> None:
    version = _check_key(payload, "schema_version", int, where)
    _require(
        version == SCHEMA_VERSION,
        f"{where}.schema_version must be {SCHEMA_VERSION}, got {version}",
    )


def _check_run_core(payload: Mapping[str, Any], where: str) -> None:
    """The simulation-outcome block shared by run payloads and sweep points."""
    _check_key(payload, "horizon_seconds", _NUMBER, where)
    _check_key(payload, "num_devices", int, where)
    _check_key(payload, "fill_tflops_per_device", _NUMBER, where)
    _check_key(payload, "backlog_remaining", int, where)
    _check_key(payload, "jobs_rejected_global", int, where)
    _check_key(payload, "events_processed", int, where)
    _check_count_map(payload, "events_by_kind", where)
    _check_metrics(payload.get("aggregate"), f"{where}.aggregate")
    tenants = _require_mapping(payload.get("tenants"), f"{where}.tenants")
    _require(len(tenants) >= 1, f"{where}.tenants must not be empty")
    for name, tenant in tenants.items():
        tenant_where = f"{where}.tenants[{name!r}]"
        tenant = _require_mapping(tenant, tenant_where)
        for key in TENANT_KEYS:
            _require(key in tenant, f"{tenant_where} is missing {key!r}")
        _check_metrics(tenant["fill_metrics"], f"{tenant_where}.fill_metrics")


def validate_run_payload(payload: Any) -> Mapping[str, Any]:
    """Validate a ``RunResult.to_dict()`` / ``repro run --json`` payload."""
    payload = _require_mapping(payload, "run payload")
    _check_version(payload, "run payload")
    _check_key(payload, "scenario", str, "run payload")
    _check_environment(payload, "run payload")
    _check_run_core(payload, "run payload")
    if "timings_by_kind" in payload:
        _check_count_map(payload, "timings_by_kind", "run payload")
    return payload


def _check_failed_points(payload: Mapping[str, Any], where: str) -> None:
    failures = payload.get("failed_points")
    _require(
        isinstance(failures, list), f"{where}.failed_points must be a list"
    )
    for i, failure in enumerate(failures):
        f_where = f"{where}.failed_points[{i}]"
        failure = _require_mapping(failure, f_where)
        _check_key(failure, "parameter", str, f_where)
        _require("value" in failure, f"{f_where} is missing 'value'")
        _check_key(failure, "point_key", str, f_where)
        _check_key(failure, "attempts", int, f_where)
        _check_key(failure, "kind", str, f_where)
        _check_key(failure, "error_type", str, f_where)
        _check_key(failure, "message", str, f_where)


def validate_sweep_payload(payload: Any) -> Mapping[str, Any]:
    """Validate a ``SweepResult.to_dict()`` / ``repro sweep --json`` payload.

    Supervision metadata (``sweep_id``, ``resumed_from``, ``attempts``,
    ``failed_points``) and the sharded-sweep ``shard`` block are additive
    and checked only when present; an empty ``sweep`` list is legal only
    when ``failed_points`` explains where the grid went or the payload is
    a shard partial that owns zero points (graceful degradation, never
    silent emptiness).
    """
    payload = _require_mapping(payload, "sweep payload")
    _check_version(payload, "sweep payload")
    _check_key(payload, "scenario", str, "sweep payload")
    points = payload.get("sweep")
    _require(isinstance(points, list), "sweep payload.sweep must be a list")
    if not points:
        # A shard may legitimately own zero grid points; everything else
        # must explain an empty grid with failures.
        _require(
            bool(payload.get("failed_points")) or "shard" in payload,
            "sweep payload.sweep must be a non-empty list",
        )
    for i, point in enumerate(points):
        where = f"sweep payload.sweep[{i}]"
        point = _require_mapping(point, where)
        _check_key(point, "parameter", str, where)
        _require("value" in point, f"{where} is missing 'value'")
        if "point_key" in point:
            _check_key(point, "point_key", str, where)
        _check_run_core(point, where)
    if "sweep_id" in payload:
        _check_key(payload, "sweep_id", str, "sweep payload")
        resumed = payload.get("resumed_from")
        _require(
            resumed is None or isinstance(resumed, str),
            "sweep payload.resumed_from must be a string or null",
        )
        _check_count_map(payload, "attempts", "sweep payload")
        _check_failed_points(payload, "sweep payload")
    elif "failed_points" in payload:
        _check_failed_points(payload, "sweep payload")
    if "shard" in payload:
        where = "sweep payload.shard"
        block = _require_mapping(payload["shard"], where)
        index = _check_key(block, "index", int, where)
        count = _check_key(block, "count", int, where)
        _require(
            0 <= index < count, f"{where}.index must be in [0, {where}.count)"
        )
        _check_key(block, "parameter", str, where)
        keys = block.get("grid_keys")
        _require(
            isinstance(keys, list)
            and all(isinstance(k, str) for k in keys),
            f"{where}.grid_keys must be a list of strings",
        )
    return payload


def validate_profile_payload(payload: Any) -> Mapping[str, Any]:
    """Validate a ``ProfileResult.to_dict()`` / ``repro profile --json`` payload."""
    payload = _require_mapping(payload, "profile payload")
    _check_version(payload, "profile payload")
    _check_key(payload, "scenario", str, "profile payload")
    _check_environment(payload, "profile payload")
    _check_key(payload, "wall_seconds", _NUMBER, "profile payload")
    _check_key(payload, "events_processed", int, "profile payload")
    _check_key(payload, "events_per_second", _NUMBER, "profile payload")
    _check_count_map(payload, "events_by_kind", "profile payload")
    _check_count_map(payload, "timings_by_kind", "profile payload")
    cache = _require_mapping(payload.get("plan_cache"), "profile payload.plan_cache")
    _require("enabled" in cache, "profile payload.plan_cache is missing 'enabled'")
    return payload
