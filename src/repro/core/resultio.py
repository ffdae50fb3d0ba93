"""Lossless wire serialisation and deterministic merging of results.

Campaign results must cross process boundaries when trials are sharded
across workers (:mod:`repro.core.parallel`).  Pickling the live objects
would work, but it is fragile — any future field holding a
:class:`~repro.zwave.registry.SpecRegistry`, a simulator handle or an open
generator would silently drag megabytes (or fail outright) through every
worker pipe.  Instead, workers reduce their results to a *wire form*: a
tree of plain dicts, lists, strings and numbers that is JSON-serialisable
by construction, so nothing that is not plain data can cross by accident.

The round trip is **lossless**: ``campaign_from_wire(campaign_to_wire(r))``
compares equal to ``r`` and renders byte-identical reports, which is what
lets the parallel executor guarantee output identical to a serial run
(``tests/test_parallel_determinism.py`` is the proof).

The second half of this module is the deterministic merge: shard outcomes
are reassembled in canonical seed order — the order the serial loop would
have produced them — regardless of worker completion order.
"""

from __future__ import annotations

import json
from typing import Any, List, Optional, Sequence, Tuple

from ..faults.plan import DegradationRecord
from ..obs.metrics import MetricsSnapshot, SpanStats
from ..serve.protocol import JobSpec, JobStatus
from .baseline import VFuzzResult
from .buglog import BugLog, BugRecord
from .campaign import CampaignResult, Mode
from .fuzzer import DetectionMark, FuzzResult, TimelinePoint
from .monitor import ObservedKind
from .properties import ControllerProperties
from .session import SessionBugRecord, SessionResult
from .tester import Signature, VerifiedFinding, VerifiedUnique

#: Wire-format version, bumped on incompatible layout changes so stale
#: shards from a different code revision are rejected instead of merged.
#: v2 added the per-campaign ``metrics`` snapshot (repro.obs); v3 the
#: ``degradation`` record (repro.faults graceful degradation); v4 the
#: ``scheduler`` knob and ``scheduler_trace`` decision log
#: (repro.core.scheduler); v5 the session-fuzzer payloads
#: (``SessionResult``/``SessionBugRecord``, repro.core.session); v6 the
#: job-service codecs (``JobSpec``/``JobStatus``, repro.serve).
WIRE_VERSION = 6


class WireError(ValueError):
    """A wire payload does not match the expected layout or version."""


class WireVersionError(WireError):
    """A wire payload's version does not match this build's codec.

    Every decoder rejects mismatches *structurally* — ``found`` /
    ``expected`` / ``context`` — and distinguishes a payload from a
    **newer** build (a client ahead of the service, or vice versa) from a
    stale one, so operators can tell "upgrade me" from "re-run that".
    Before this check was centralised, a decoder comparing only equality
    produced the same opaque message for both directions, and any decoder
    that forgot the check would happily misparse a future layout.
    """

    def __init__(self, found: object, expected: int, context: str):
        self.found = found
        self.expected = expected
        self.context = context
        if isinstance(found, int) and found > expected:
            detail = (
                f"payload is from a NEWER wire format (v{found} > v{expected}): "
                "upgrade this build before decoding it"
            )
        elif found is None:
            detail = f"payload carries no wire_version (expected v{expected})"
        else:
            detail = f"stale wire version {found!r} != expected v{expected}"
        super().__init__(f"{context}: {detail}")


def require_wire_version(data: dict, context: str) -> None:
    """Reject any payload whose ``wire_version`` is not exactly ours.

    Shared by every ``*_from_wire`` decoder: unknown *future* versions
    fail just as loudly as stale ones (an old service must never misparse
    a new client's documents, nor the reverse).
    """
    found = data.get("wire_version")
    if found != WIRE_VERSION:
        raise WireVersionError(found, WIRE_VERSION, context)


# -- controller properties -----------------------------------------------------


def properties_to_wire(props: Optional[ControllerProperties]) -> Optional[dict]:
    """Reduce fingerprint/discovery properties to plain data."""
    if props is None:
        return None
    return {
        "home_id": props.home_id,
        "controller_node_id": props.controller_node_id,
        "observed_node_ids": sorted(props.observed_node_ids),
        "listed_cmdcls": list(props.listed_cmdcls),
        "unlisted_candidates": list(props.unlisted_candidates),
        "validated_unknown": list(props.validated_unknown),
        "proprietary": list(props.proprietary),
    }


def properties_from_wire(data: Optional[dict]) -> Optional[ControllerProperties]:
    """Rebuild :class:`ControllerProperties` from its wire form."""
    if data is None:
        return None
    return ControllerProperties(
        home_id=data["home_id"],
        controller_node_id=data["controller_node_id"],
        observed_node_ids=frozenset(data["observed_node_ids"]),
        listed_cmdcls=tuple(data["listed_cmdcls"]),
        unlisted_candidates=tuple(data["unlisted_candidates"]),
        validated_unknown=tuple(data["validated_unknown"]),
        proprietary=tuple(data["proprietary"]),
    )


# -- metrics snapshots ---------------------------------------------------------


def snapshot_to_wire(snapshot: Optional[MetricsSnapshot]) -> Optional[dict]:
    """Reduce an observability snapshot to plain data."""
    if snapshot is None:
        return None
    return {
        "counters": dict(snapshot.counters),
        "gauges": dict(snapshot.gauges),
        "histograms": {k: dict(v) for k, v in snapshot.histograms.items()},
        "coverage": dict(snapshot.coverage),
        "spans": {k: [s.count, s.sim_time_us] for k, s in snapshot.spans.items()},
    }


def snapshot_from_wire(data: Optional[dict]) -> Optional[MetricsSnapshot]:
    """Rebuild a :class:`MetricsSnapshot` from its wire form."""
    if data is None:
        return None
    return MetricsSnapshot(
        counters=dict(data["counters"]),
        gauges=dict(data["gauges"]),
        histograms={k: dict(v) for k, v in data["histograms"].items()},
        coverage=dict(data["coverage"]),
        spans={
            k: SpanStats(count=count, sim_time_us=sim_time_us)
            for k, (count, sim_time_us) in data["spans"].items()
        },
    )


# -- fuzz results --------------------------------------------------------------


def fuzz_to_wire(fuzz: FuzzResult) -> dict:
    """Reduce an engine run (log, detections, timeline) to plain data."""
    return {
        "packets_sent": fuzz.packets_sent,
        "duration": fuzz.duration,
        "bug_log": [
            {
                "timestamp": r.timestamp,
                "packet_no": r.packet_no,
                "cmdcl": r.cmdcl,
                "cmd": r.cmd,
                "payload_hex": r.payload_hex,
                "observed": r.observed,
            }
            for r in fuzz.bug_log
        ],
        "detections": [
            [d.timestamp, d.packet_no, d.cmdcl, d.observed] for d in fuzz.detections
        ],
        "timeline": [[p.timestamp, p.packets, p.detections] for p in fuzz.timeline],
        "cmdcls_used": sorted(fuzz.cmdcls_used),
        "cmds_used": sorted(fuzz.cmds_used),
        "windows_completed": fuzz.windows_completed,
    }


def fuzz_from_wire(data: dict) -> FuzzResult:
    """Rebuild a :class:`FuzzResult` from its wire form."""
    return FuzzResult(
        packets_sent=data["packets_sent"],
        duration=data["duration"],
        bug_log=BugLog([BugRecord(**record) for record in data["bug_log"]]),
        detections=[
            DetectionMark(timestamp=t, packet_no=n, cmdcl=c, observed=o)
            for t, n, c, o in data["detections"]
        ],
        timeline=[
            TimelinePoint(timestamp=t, packets=p, detections=d)
            for t, p, d in data["timeline"]
        ],
        cmdcls_used=set(data["cmdcls_used"]),
        cmds_used=set(data["cmds_used"]),
        windows_completed=data["windows_completed"],
    )


# -- verified findings ---------------------------------------------------------


def _unique_to_wire(signature: Signature, unique: VerifiedUnique) -> dict:
    finding = unique.finding
    return {
        "signature": list(signature),
        "payload_hex": finding.payload_hex,
        "cmdcl": finding.cmdcl,
        "cmd": finding.cmd,
        "kind": finding.kind.value,
        "duration_s": finding.duration_s,
        "first_detection_time": unique.first_detection_time,
        "first_detection_packet": unique.first_detection_packet,
    }


def _unique_from_wire(data: dict) -> Tuple[Signature, VerifiedUnique]:
    signature: Signature = tuple(data["signature"])  # type: ignore[assignment]
    finding = VerifiedFinding(
        payload_hex=data["payload_hex"],
        cmdcl=data["cmdcl"],
        cmd=data["cmd"],
        kind=ObservedKind(data["kind"]),
        duration_s=data["duration_s"],
    )
    unique = VerifiedUnique(
        finding=finding,
        first_detection_time=data["first_detection_time"],
        first_detection_packet=data["first_detection_packet"],
    )
    return signature, unique


# -- whole campaigns -----------------------------------------------------------


def campaign_to_wire(result: CampaignResult) -> dict:
    """Reduce a campaign result to plain JSON-serialisable data."""
    return {
        "wire_version": WIRE_VERSION,
        "device": result.device,
        "mode": result.mode.name,
        "duration": result.duration,
        "properties": properties_to_wire(result.properties),
        "fuzz": fuzz_to_wire(result.fuzz),
        "unique": [
            _unique_to_wire(signature, unique)
            for signature, unique in result.unique.items()
        ],
        "metrics": snapshot_to_wire(result.metrics),
        "degradation": None
        if result.degradation is None
        else result.degradation.to_wire(),
        "scheduler": result.scheduler,
        "scheduler_trace": [
            [cmdcl, window_s, reason]
            for cmdcl, window_s, reason in result.scheduler_trace
        ],
    }


def campaign_from_wire(data: dict) -> CampaignResult:
    """Rebuild the full campaign result from its wire form."""
    require_wire_version(data, "campaign result")
    degradation = data.get("degradation")
    return CampaignResult(
        device=data["device"],
        mode=Mode[data["mode"]],
        duration=data["duration"],
        properties=properties_from_wire(data["properties"]),
        fuzz=fuzz_from_wire(data["fuzz"]),
        unique=dict(_unique_from_wire(entry) for entry in data["unique"]),
        metrics=snapshot_from_wire(data.get("metrics")),
        degradation=None
        if degradation is None
        else DegradationRecord.from_wire(degradation),
        scheduler=data["scheduler"],
        scheduler_trace=tuple(
            (cmdcl, window_s, reason)
            for cmdcl, window_s, reason in data["scheduler_trace"]
        ),
    )


# -- VFuzz baseline results ----------------------------------------------------


def vfuzz_to_wire(result: VFuzzResult) -> dict:
    """Reduce a Table V baseline run to plain data."""
    return {
        "wire_version": WIRE_VERSION,
        "packets_sent": result.packets_sent,
        "duration": result.duration,
        "accepted_estimate": result.accepted_estimate,
        "quirks_found": list(result.quirks_found),
        "zero_day_payloads": [p.hex() for p in result.zero_day_payloads],
        "cmdcls_used": sorted(result.cmdcls_used),
        "cmds_used": sorted(result.cmds_used),
        "detections": [[t, n] for t, n in result.detections],
        "metrics": snapshot_to_wire(result.metrics),
    }


def vfuzz_from_wire(data: dict) -> VFuzzResult:
    """Rebuild a :class:`VFuzzResult`, rejecting mismatched versions."""
    require_wire_version(data, "vfuzz result")
    return VFuzzResult(
        packets_sent=data["packets_sent"],
        duration=data["duration"],
        accepted_estimate=data["accepted_estimate"],
        quirks_found=list(data["quirks_found"]),
        zero_day_payloads=[bytes.fromhex(p) for p in data["zero_day_payloads"]],
        cmdcls_used=set(data["cmdcls_used"]),
        cmds_used=set(data["cmds_used"]),
        detections=[(t, n) for t, n in data["detections"]],
        metrics=snapshot_from_wire(data.get("metrics")),
    )


# -- session-fuzzer results ----------------------------------------------------


def session_bug_to_wire(bug: SessionBugRecord) -> list:
    """Reduce one planted-bug discovery to plain data."""
    return [bug.flow, bug.trial, bug.sequence_index, bug.vuln_id, bug.state]


def session_bug_from_wire(data: Sequence) -> SessionBugRecord:
    """Rebuild a :class:`SessionBugRecord` from its wire form."""
    flow, trial, sequence_index, vuln_id, state = data
    return SessionBugRecord(
        flow=flow,
        trial=trial,
        sequence_index=sequence_index,
        vuln_id=vuln_id,
        state=state,
    )


def session_to_wire(result: SessionResult) -> dict:
    """Reduce a session-fuzzer result to plain JSON-serialisable data."""
    return {
        "wire_version": WIRE_VERSION,
        "kind": "sessions",
        "device": result.device,
        "seed": result.seed,
        "flows": list(result.flows),
        "trials_by_flow": dict(result.trials_by_flow),
        "op_counts": dict(result.op_counts),
        "trajectory": [[flow, trial, label] for flow, trial, label in result.trajectory],
        "bugs": [session_bug_to_wire(bug) for bug in result.bugs],
        "energy_trace": [
            [flow, trials, reason] for flow, trials, reason in result.energy_trace
        ],
        "metrics": snapshot_to_wire(result.metrics),
    }


def session_from_wire(data: dict) -> SessionResult:
    """Rebuild a :class:`SessionResult`, rejecting mismatched versions."""
    require_wire_version(data, "session result")
    return SessionResult(
        device=data["device"],
        seed=data["seed"],
        flows=tuple(data["flows"]),
        trials_by_flow=dict(data["trials_by_flow"]),
        op_counts=dict(data["op_counts"]),
        trajectory=tuple(
            (flow, trial, label) for flow, trial, label in data["trajectory"]
        ),
        bugs=tuple(session_bug_from_wire(entry) for entry in data["bugs"]),
        energy_trace=tuple(
            (flow, trials, reason) for flow, trials, reason in data["energy_trace"]
        ),
        metrics=snapshot_from_wire(data.get("metrics")),
    )


# -- job-service specs and statuses (repro.serve) ------------------------------


def jobspec_to_wire(spec: JobSpec) -> dict:
    """Reduce a job-service :class:`JobSpec` to plain data (wire v6)."""
    return {
        "wire_version": WIRE_VERSION,
        "kind": spec.kind,
        "device": spec.device,
        "mode": spec.mode,
        "seed": spec.seed,
        "trials": spec.trials,
        "hours": spec.hours,
        "scheduler": spec.scheduler,
        "fault_plan": spec.fault_plan,
        "flows": list(spec.flows),
    }


def jobspec_from_wire(data: dict) -> JobSpec:
    """Rebuild a :class:`JobSpec`, rejecting mismatched wire versions.

    Layout validation beyond the version check is the caller's job
    (:func:`repro.serve.protocol.validate_spec`) — this codec only
    guarantees both sides agree on the wire format itself.
    """
    require_wire_version(data, "job spec")
    return JobSpec(
        kind=data["kind"],
        device=data["device"],
        mode=data["mode"],
        seed=data["seed"],
        trials=data["trials"],
        hours=data["hours"],
        scheduler=data["scheduler"],
        fault_plan=data["fault_plan"],
        flows=tuple(data["flows"]),
    )


def jobstatus_to_wire(status: JobStatus) -> dict:
    """Reduce a job-service :class:`JobStatus` to plain data (wire v6)."""
    return {
        "wire_version": WIRE_VERSION,
        "job_id": status.job_id,
        "state": status.state,
        "kind": status.kind,
        "device": status.device,
        "seed": status.seed,
        "sequence": status.sequence,
        "units_total": status.units_total,
        "units_done": status.units_done,
        "error": status.error,
        "counters": {k: status.counters[k] for k in sorted(status.counters)},
    }


def jobstatus_from_wire(data: dict) -> JobStatus:
    """Rebuild a :class:`JobStatus`, rejecting mismatched wire versions."""
    require_wire_version(data, "job status")
    return JobStatus(
        job_id=data["job_id"],
        state=data["state"],
        kind=data["kind"],
        device=data["device"],
        seed=data["seed"],
        sequence=data["sequence"],
        units_total=data["units_total"],
        units_done=data["units_done"],
        error=data["error"],
        counters=dict(data["counters"]),
    )


# -- JSON convenience ----------------------------------------------------------


def dumps_wire(wire: dict) -> str:
    """Serialise a wire dict to canonical JSON (sorted keys, no spaces)."""
    return json.dumps(wire, sort_keys=True, separators=(",", ":"))


def loads_wire(text: str) -> dict:
    """Parse JSON produced by :func:`dumps_wire`."""
    return json.loads(text)


def claim_wire(wire: dict) -> dict:
    """Harvest hook for a worker's wire result; returns *wire* unchanged.

    Workers return plain wire dicts, so there is nothing to resolve.  The
    function stays only because the end-to-end benchmark's tracer hooks
    it by name (``e2ebench/spans.py``) to count each pooled result merge
    as ``resultio.plain_merges``; call sites look it up on this module at
    call time so the hook sees every harvest.
    """
    return wire


# -- deterministic merging -----------------------------------------------------


def merge_campaign_outcomes(
    outcomes: List[Any],
) -> Tuple[List[CampaignResult], List[Any]]:
    """Split executor outcomes into results and failures, preserving order.

    *outcomes* are :class:`repro.core.parallel.UnitOutcome` objects in
    canonical (submission/seed) order; the executor already guarantees that
    order is independent of worker scheduling.  Returns ``(results,
    failures)`` where *results* keeps the canonical order and *failures*
    are the structured :class:`repro.core.parallel.UnitFailure` records of
    the shards that never produced a result.
    """
    results: List[CampaignResult] = []
    failures: List[Any] = []
    for outcome in outcomes:
        if outcome.result is not None:
            results.append(outcome.result)
        elif outcome.failure is not None:
            failures.append(outcome.failure)
    return results, failures


def merge_trials(
    device: str,
    mode: Mode,
    duration: float,
    outcomes: List[Any],
) -> "TrialSummary":
    """Reassemble sharded trial outcomes into a :class:`TrialSummary`.

    The summary's ``trials`` list follows canonical seed order (the order
    the serial loop would have produced), so aggregate statistics, bug-ID
    unions/intersections and the rendered report are byte-identical to a
    serial run.  Failed shards become structured entries in
    ``summary.failures`` without disturbing the surviving trials.

    The summary also carries a harness metrics snapshot (unit counts,
    per-unit attempts, failure categories); on a clean run it matches the
    serial loop's snapshot exactly, keeping merged ``--metrics-out``
    documents byte-identical across worker counts.
    """
    from ..obs.metrics import harness_snapshot
    from .trials import TrialSummary  # local import: trials imports us too

    results, failures = merge_campaign_outcomes(outcomes)
    return TrialSummary(
        device=device,
        mode=mode,
        duration=duration,
        trials=results,
        failures=failures,
        harness_metrics=harness_snapshot(
            units=len(outcomes),
            attempts=[outcome.attempts for outcome in outcomes],
            failure_categories=[
                outcome.failure.category
                for outcome in outcomes
                if outcome.failure is not None
            ],
        ),
    )
