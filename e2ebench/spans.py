"""Outside-in span recorder for the traced benchmark runs.

Spans are recorded around calls into each layer's public functions,
from outside the program: every wrapper is installed by this module at
the binding its caller looks up (module attributes for functions, the
class for methods), so ``src/`` carries no tracing code.  Spans stay in
memory as flat arrays — name, start, end and parent — and are written
out once, when the run ends.

A span's *self time* is its duration minus the durations of its direct
children.  Spans nest strictly on one thread, so within every root span
the self times of the root and all its descendants add up to the root's
duration exactly.

The per-call hot helpers (``aes._mul``, ``MetricsCollector.inc``) are
left unwrapped on purpose: a wrapper costs about a microsecond, and
those helpers run millions of times per campaign.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

#: Layers, in the order the per-layer split is printed.  "bench" is the
#: benchmark's own root spans (client loop, op bookkeeping).
LAYERS = (
    "bench",
    "radio",
    "zwave",
    "security",
    "simulator",
    "core",
    "parallel",
    "resultio",
    "obs",
    "faults",
    "serve",
)


class SpanRecorder:
    """Spans of one process, kept in flat arrays until the run ends.

    Only the thread that created the recorder records; calls from other
    threads (executor management threads) pass straight through, so the
    single span stack is never shared.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []
        self.enabled = False
        self.thread = threading.get_ident()
        #: Span-index boundaries of the named scopes ("pass", "oracle").
        self.scopes: Dict[str, List[int]] = {}
        self._scope: Optional[str] = None
        #: Per-scope side counts and distinct-value sets of the hooks.
        self.extra: Dict[str, Dict[str, float]] = {}
        self.key_sets: Dict[str, Dict[str, set]] = {}
        #: (owner, attribute, original, wrapper) of every installed wrapper.
        self.patches: list = []
        #: Service side: job id -> when its POST was accepted.
        self.submitted_at: Dict[str, float] = {}

    def name(self, text: str) -> int:
        nid = self._name_ids.get(text)
        if nid is None:
            nid = self._name_ids[text] = len(self.names)
            self.names.append(text)
        return nid

    # -- scopes -----------------------------------------------------------------

    def begin(self, scope: str) -> None:
        """Start recording spans (and side counts) under *scope*.

        A scope is one contiguous run of spans; :meth:`pause` and
        :meth:`resume` exclude work inside it (the output checks).
        """
        self.scopes[scope] = [len(self.start), -1]
        self._scope = scope
        self.extra[scope] = {}
        self.key_sets[scope] = {}
        self.enabled = True

    def finish(self) -> None:
        """Stop recording; the open scope's range ends here."""
        if self._scope is not None:
            self.scopes[self._scope][1] = len(self.start)
        self._scope = None
        self.enabled = False

    def pause(self) -> None:
        self.enabled = False

    def resume(self) -> None:
        self.enabled = self._scope is not None

    def count(self, key: str, amount: float = 1) -> None:
        if self._scope is not None:
            bucket = self.extra[self._scope]
            bucket[key] = bucket.get(key, 0) + amount

    def keyset(self, key: str) -> set:
        return self.key_sets[self._scope].setdefault(key, set())

    # -- spans ------------------------------------------------------------------

    def root(self, name: str) -> "_RootSpan":
        """Context manager for one root span (one benchmark operation)."""
        return _RootSpan(self, self.name(name))

    def add_flat(self, nid: int, start: float, end: float) -> None:
        """Record a span that interleaves with others (an asyncio task)."""
        self.name_id.append(nid)
        self.parent.append(FLAT)
        self.start.append(start)
        self.end.append(end)

    # -- export -----------------------------------------------------------------

    def write(self, scope: str, prefix: str) -> None:
        """Write *scope*'s spans to ``<prefix>.bin`` and ``<prefix>.json``.

        The binary file holds four arrays of equal length — name id,
        parent (an index into the same arrays, or -1 for a root, -2 for a
        flat span), start and end in seconds.
        """
        data = scope_data(self, scope)
        with open(prefix + ".bin", "wb") as handle:
            for key, _ in _ARRAYS:
                data.pop(key).tofile(handle)
        lo, hi = self.scopes[scope]
        data["spans"] = hi - lo
        with open(prefix + ".json", "w", encoding="utf-8") as handle:
            json.dump(data, handle)


#: Parent marker of a flat span (one that may interleave with others).
FLAT = -2


#: The array fields of a scope's spans, in file order.
_ARRAYS = (("name_id", "i"), ("parent", "i"), ("start", "d"), ("end", "d"))


def read_spans(prefix: str) -> dict:
    """Load what :meth:`SpanRecorder.write` wrote."""
    with open(prefix + ".json", encoding="utf-8") as handle:
        data = json.load(handle)
    with open(prefix + ".bin", "rb") as handle:
        for key, code in _ARRAYS:
            data[key] = array(code)
            data[key].fromfile(handle, data["spans"])
    return data


class _RootSpan:
    def __init__(self, recorder: SpanRecorder, nid: int):
        self.recorder = recorder
        self.nid = nid
        self.index = -1

    def __enter__(self) -> "_RootSpan":
        rec = self.recorder
        self.index = len(rec.start)
        rec.name_id.append(self.nid)
        rec.parent.append(-1)
        rec.start.append(time.perf_counter())
        rec.end.append(0.0)
        rec.stack.append(self.index)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        rec = self.recorder
        rec.end[self.index] = time.perf_counter()
        rec.stack.pop()


# -- wrapping -------------------------------------------------------------------


def _span_wrapper(
    recorder: SpanRecorder,
    name: str,
    fn: Callable,
    before: Optional[Callable] = None,
    after: Optional[Callable] = None,
    failures: Optional[Tuple[type, ...]] = None,
) -> Callable:
    """Wrap *fn* so each call on the recording thread becomes a span.

    *before* sees the call's arguments, *after* its arguments and result;
    an exception of a *failures* type is counted as ``<name>.failures``.
    """
    nid = recorder.name(name)
    perf = time.perf_counter
    get_ident = threading.get_ident
    thread = recorder.thread
    name_ids = recorder.name_id
    parents = recorder.parent
    starts = recorder.start
    ends = recorder.end
    stack = recorder.stack
    failure_key = f"{name}.failures"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.enabled or get_ident() != thread:
            return fn(*args, **kwargs)
        if before is not None:
            before(recorder, args, kwargs)
        index = len(starts)
        name_ids.append(nid)
        parents.append(stack[-1] if stack else -1)
        ends.append(0.0)
        stack.append(index)
        starts.append(perf())
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            ends[index] = perf()
            stack.pop()
            if failures is not None and isinstance(exc, failures):
                recorder.count(failure_key)
            raise
        ends[index] = perf()
        stack.pop()
        if after is not None:
            after(recorder, args, result)
        return result

    return wrapper


def _async_span_wrapper(
    recorder: SpanRecorder, name: str, fn: Callable, before: Optional[Callable] = None
) -> Callable:
    """Wrap a coroutine function: its span is flat (it interleaves)."""
    nid = recorder.name(name)

    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return await fn(*args, **kwargs)
        started = time.perf_counter()
        if before is not None:
            before(recorder, args, started)
        try:
            return await fn(*args, **kwargs)
        finally:
            recorder.add_flat(nid, started, time.perf_counter())

    return wrapper


def _patch(recorder: SpanRecorder, owner, attr: str, wrapper) -> None:
    recorder.patches.append((owner, attr, owner.__dict__[attr], wrapper))
    setattr(owner, attr, wrapper)


def patch_function(recorder: SpanRecorder, module, attr: str, name: str, **hooks) -> None:
    """Wrap a module-level function at every ``repro`` binding of it.

    ``from .fingerprint import fingerprint`` copies the function object
    into the importing module, so the caller looks it up there; every
    loaded ``repro.*`` module attribute that *is* the original function
    is replaced.  The benchmark's own modules keep their references.
    """
    original = getattr(module, attr)
    wrapper = _span_wrapper(recorder, name, original, **hooks)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        if getattr(mod, attr, None) is original:
            _patch(recorder, mod, attr, wrapper)


def patch_method(recorder: SpanRecorder, cls, attr: str, name: str, **hooks) -> None:
    """Wrap a method (plain or classmethod) on its class."""
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        wrapper = classmethod(_span_wrapper(recorder, name, raw.__func__, **hooks))
    else:
        wrapper = _span_wrapper(recorder, name, raw, **hooks)
    _patch(recorder, cls, attr, wrapper)


def set_installed(recorder: SpanRecorder, installed: bool) -> None:
    """Put every wrapper :func:`install` made in place, or the originals back.

    Lets the traced run alternate untraced and traced operations, so both
    see the same machine load.  Devices built while the originals are in
    place keep unwrapped receive callbacks.
    """
    for owner, attr, original, wrapper in recorder.patches:
        setattr(owner, attr, wrapper if installed else original)


# -- side-count hooks ------------------------------------------------------------


def _key_schedule_before(rec: SpanRecorder, args, kwargs) -> None:
    rec.keyset("security.distinct_keys").add(bytes(args[0]))


def _slave_rx_before(rec: SpanRecorder, args, kwargs) -> None:
    rec.count("slave_rx.received_before", args[0].frames_received)


def _slave_rx_after(rec: SpanRecorder, args, result) -> None:
    rec.count("slave_rx.received_after", args[0].frames_received)


def _fuzz_after(rec: SpanRecorder, args, result) -> None:
    rec.count("core.packets_sent", result.packets_sent)
    rec.count("core.detections", len(result.detections))


def _execute_units_after(rec: SpanRecorder, args, result) -> None:
    rec.count("parallel.units", len(result))
    rec.count("parallel.attempts", sum(outcome.attempts for outcome in result))


def _preloaded_after(rec: SpanRecorder, args, result) -> None:
    rec.count("parallel.units", len(result))


def _pool_submit_after(rec: SpanRecorder, args, result) -> None:
    rec.count("parallel.attempts")


def _claim_before(rec: SpanRecorder, args, kwargs) -> None:
    token = args[0]
    if isinstance(token, dict) and "__shm__" in token:
        rec.count("resultio.shm_claims")
        rec.count("resultio.wire_bytes", token["size"])
    else:
        rec.count("resultio.plain_merges")


def _snapshot_after(rec: SpanRecorder, args, result) -> None:
    rec.keyset("obs.counter_keys").update(result.counters)
    injected = sum(v for k, v in result.counters.items() if k.startswith("faults.injected."))
    if injected:
        rec.count("faults.injected", injected)


def _fetch_after(rec: SpanRecorder, args, result) -> None:
    rec.count("serve.result_bytes", len(result))


def _queue_submit_after(rec: SpanRecorder, args, result) -> None:
    record, created = result
    if created:
        rec.submitted_at[record.job_id] = time.perf_counter()


def _execute_job_before(rec: SpanRecorder, args, started: float) -> None:
    submitted = rec.submitted_at.pop(args[1].job_id, None)
    if submitted is not None:
        rec.count("serve.queue_wait_s", started - submitted)


def install(recorder: SpanRecorder) -> None:
    """Install every layer wrapper.  Call before any SUT is built.

    ``RadioMedium.attach`` binds the receive callbacks when a device is
    constructed, so the class-level callback wrappers must be in place
    before the first :func:`build_sut`.
    """
    # Loaded first, so their copies of patched functions get wrapped too.
    import repro.core.discovery  # noqa: F401
    import repro.core.fingerprint  # noqa: F401
    from repro.core import campaign, parallel, resultio, session
    from repro.core import trials as trials_mod
    from repro.core.fuzzer import FuzzingEngine
    from repro.errors import NonceError
    from repro.faults.schedule import FaultPlanner
    from repro.obs import metrics
    from repro.radio.clock import SimClock
    from repro.radio.medium import RadioMedium
    from repro.radio.transceiver import Transceiver
    from repro.security import aes, kdf, s0, s2
    from repro.serve import checkpoint, client, jobs, results, service
    from repro.simulator import controller, slave, testbed
    from repro.zwave.frame import ZWaveFrame

    rec = recorder

    # radio
    patch_method(rec, RadioMedium, "transmit", "radio.transmit")
    patch_method(rec, SimClock, "advance", "radio.advance")
    patch_method(rec, SimClock, "advance_to", "radio.advance")
    patch_method(rec, Transceiver, "_on_receive", "radio.dongle_rx")
    # zwave
    patch_method(rec, ZWaveFrame, "decode", "zwave.frame_decode")
    patch_method(rec, ZWaveFrame, "encode", "zwave.frame_encode")
    # security
    patch_method(rec, aes.AES128, "encrypt_block", "security.aes_block")
    patch_method(rec, aes.AES128, "decrypt_block", "security.aes_block")
    patch_function(rec, aes, "expand_key", "security.key_schedule", before=_key_schedule_before)
    patch_method(rec, s2.S2Context, "decapsulate", "security.s2_decap", failures=(NonceError,))
    patch_method(rec, s2.S2Context, "encapsulate", "security.s2_encap")
    patch_method(rec, s0.S0Context, "encapsulate", "security.s0")
    patch_method(rec, s0.S0Context, "decapsulate", "security.s0")
    for fn_name in ("ckdf_expand", "derive_s0_keys", "ckdf_temp_extract"):
        patch_function(rec, kdf, fn_name, "security.kdf")
    # simulator
    patch_function(rec, testbed, "build_sut", "simulator.build_sut")
    patch_method(rec, controller.VirtualController, "_on_receive", "simulator.controller_rx")
    patch_method(
        rec,
        slave.VirtualSlave,
        "_on_receive",
        "simulator.slave_rx",
        before=_slave_rx_before,
        after=_slave_rx_after,
    )
    # core
    patch_function(rec, campaign, "run_campaign", "core.campaign")
    patch_function(rec, campaign, "fingerprint", "core.fingerprint")
    patch_function(rec, campaign, "discover_unknown_properties", "core.discovery")
    patch_function(rec, campaign, "verify_findings", "core.verify")
    patch_method(rec, FuzzingEngine, "run", "core.fuzz", after=_fuzz_after)
    patch_function(rec, session, "run_session_flow", "core.session")
    patch_function(rec, session, "run_sessions", "core.sessions")
    patch_function(rec, trials_mod, "run_trials", "core.trials")
    # parallel
    patch_function(
        rec, parallel, "execute_units", "parallel.execute_units", after=_execute_units_after
    )
    patch_function(rec, parallel, "_rehydrate", "parallel.rehydrate")
    patch_function(rec, results, "rehydrate_unit_result", "parallel.rehydrate")
    patch_method(
        rec, parallel.WorkerPool, "submit", "parallel.pool_submit", after=_pool_submit_after
    )
    patch_method(
        rec, service.ZCoverService, "_preloaded_outcomes", "serve.preload", after=_preloaded_after
    )
    # resultio
    patch_function(rec, resultio, "claim_wire", "resultio.claim", before=_claim_before)
    patch_function(rec, resultio, "campaign_from_wire", "resultio.decode")
    patch_function(rec, resultio, "session_from_wire", "resultio.decode")
    patch_function(rec, resultio, "merge_trials", "resultio.merge")
    # obs
    patch_method(rec, metrics.MetricsCollector, "snapshot", "obs.snapshot", after=_snapshot_after)
    patch_function(rec, metrics, "merge_snapshots", "obs.merge")
    patch_function(rec, metrics, "merge_all", "obs.merge")
    # faults
    patch_method(rec, FaultPlanner, "compile", "faults.compile")
    # serve: client side (the benchmark process) ...
    patch_method(rec, client.ServeClient, "submit", "serve.client_submit")
    patch_method(rec, client.ServeClient, "wait", "serve.client_wait")
    patch_method(rec, client.ServeClient, "status", "serve.client_poll")
    patch_method(rec, client.ServeClient, "result_bytes", "serve.client_fetch", after=_fetch_after)
    # ... and service side (the traced service process)
    patch_method(rec, service.ZCoverService, "_route", "serve.route")
    patch_method(rec, checkpoint.CheckpointWriter, "append", "serve.wal_append")
    patch_function(rec, service, "document_from_outcomes", "serve.document")
    patch_function(rec, service, "dumps_result_document", "serve.document")
    patch_method(rec, jobs.JobQueue, "submit", "serve.queue_submit", after=_queue_submit_after)
    _patch(
        rec,
        service.ZCoverService,
        "_execute_job",
        _async_span_wrapper(
            rec, "serve.run", service.ZCoverService._execute_job, before=_execute_job_before
        ),
    )


# -- aggregation -------------------------------------------------------------------


class SpanTable:
    """Per-name aggregates (count, inclusive, self) over recorded spans."""

    def __init__(self) -> None:
        self.count: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        #: (duration, self-time sum of the root and its descendants) per root.
        self.roots: List[Tuple[float, float]] = []
        self.extra: Dict[str, float] = {}
        self.key_sets: Dict[str, int] = {}

    def add(self, data: dict) -> None:
        """Fold one :func:`read_spans` / :func:`scope_data` result in."""
        names, name_id, parent = data["names"], data["name_id"], data["parent"]
        start, end = data["start"], data["end"]
        n = len(start)
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        count = [0] * len(names)
        total = [0.0] * len(names)
        own_total = [0.0] * len(names)
        root_of = [0] * n
        root_sums: Dict[int, float] = {}
        for i in range(n):
            nid = name_id[i]
            p = parent[i]
            duration = end[i] - start[i]
            count[nid] += 1
            total[nid] += duration
            if p == FLAT:
                continue
            own = duration - child[i]
            own_total[nid] += own
            if p == -1:
                root_of[i] = i
                root_sums[i] = own
            else:
                root = root_of[i] = root_of[p]
                root_sums[root] += own
        for nid, name in enumerate(names):
            if count[nid]:
                self.count[name] = self.count.get(name, 0) + count[nid]
                self.total[name] = self.total.get(name, 0.0) + total[nid]
                self.self_time[name] = self.self_time.get(name, 0.0) + own_total[nid]
        for index, own_sum in root_sums.items():
            self.roots.append((end[index] - start[index], own_sum))
        for key, value in data["extra"].items():
            self.extra[key] = self.extra.get(key, 0) + value
        for key, size in data["key_sets"].items():
            self.key_sets[key] = self.key_sets.get(key, 0) + size

    def n(self, name: str) -> int:
        return self.count.get(name, 0)

    def incl(self, name: str) -> float:
        return self.total.get(name, 0.0)

    def own(self, name: str) -> float:
        return self.self_time.get(name, 0.0)

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_time.items() if k.startswith(prefix))


def scope_data(recorder: SpanRecorder, scope: str) -> dict:
    """*scope*'s spans in the form :func:`read_spans` returns, in memory."""
    lo, hi = recorder.scopes[scope]
    return {
        "names": recorder.names,
        "name_id": recorder.name_id[lo:hi],
        "parent": array("i", (p - lo if p >= 0 else p for p in recorder.parent[lo:hi])),
        "start": recorder.start[lo:hi],
        "end": recorder.end[lo:hi],
        "extra": recorder.extra.get(scope, {}),
        "key_sets": {key: len(values) for key, values in recorder.key_sets[scope].items()},
    }


# -- per-layer metrics ---------------------------------------------------------------

#: (name, unit, better) of every per-layer metric the traced run reports.
#: Times are totals over the traced operations, in seconds; "_self_s" is
#: self time, other "_s" metrics include the callee's children.
PER_LAYER = (
    ("security.aes_blocks", "count", "lower"),
    ("security.aes_block_self_s", "s", "lower"),
    ("security.key_schedules", "count", "lower"),
    ("security.distinct_keys", "count", "lower"),
    ("security.key_schedule_useful_ratio", "ratio", "higher"),
    ("security.key_schedule_self_s", "s", "lower"),
    ("security.s2_decaps", "count", "lower"),
    ("security.s2_decap_failures", "count", "lower"),
    ("security.s2_decap_self_s", "s", "lower"),
    ("security.s2_encap_self_s", "s", "lower"),
    ("security.s0_self_s", "s", "lower"),
    ("security.kdf_calls", "count", "lower"),
    ("radio.transmits", "count", "lower"),
    ("radio.transmit_self_s", "s", "lower"),
    ("radio.advance_self_s", "s", "lower"),
    ("radio.deliveries", "count", "lower"),
    ("simulator.build_sut_s", "s", "lower"),
    ("simulator.controller_rx", "count", "lower"),
    ("simulator.controller_rx_self_s", "s", "lower"),
    ("simulator.slave_rx", "count", "lower"),
    ("simulator.slave_rx_self_s", "s", "lower"),
    ("simulator.slave_rx_useful_ratio", "ratio", "higher"),
    ("zwave.frame_decodes", "count", "lower"),
    ("zwave.frame_decode_self_s", "s", "lower"),
    ("zwave.frame_encodes", "count", "lower"),
    ("core.fingerprint_s", "s", "lower"),
    ("core.discovery_s", "s", "lower"),
    ("core.fuzz_self_s", "s", "lower"),
    ("core.verify_s", "s", "lower"),
    ("core.packets_sent", "count", "higher"),
    ("core.detections_per_packet", "ratio", "higher"),
    ("core.session_s", "s", "lower"),
    ("parallel.units", "count", "lower"),
    ("parallel.attempts", "count", "lower"),
    ("parallel.call_self_s", "s", "lower"),
    ("parallel.rehydrate_s", "s", "lower"),
    ("resultio.wire_bytes", "bytes", "lower"),
    ("resultio.decode_s", "s", "lower"),
    ("resultio.merge_s", "s", "lower"),
    ("resultio.shm_claims", "count", "higher"),
    ("resultio.plain_merges", "count", "lower"),
    ("obs.snapshot_s", "s", "lower"),
    ("obs.merge_s", "s", "lower"),
    ("obs.counter_keys", "count", "lower"),
    ("faults.injected", "count", "higher"),
    ("faults.compile_s", "s", "lower"),
    ("serve.submit_s", "s", "lower"),
    ("serve.queue_wait_s", "s", "lower"),
    ("serve.run_s", "s", "lower"),
    ("serve.fetch_s", "s", "lower"),
    ("serve.polls_per_job", "polls/job", "lower"),
    ("serve.wal_appends", "count", "lower"),
    ("serve.wal_append_s", "s", "lower"),
    ("serve.document_s", "s", "lower"),
    ("serve.result_bytes", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
) + tuple((f"{layer}.self_s", "s", "lower") for layer in LAYERS)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    bench: SpanTable,
    passed: SpanTable,
    worker: SpanTable,
    jobs: int,
    untraced_wall: float,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric but ``trace.spans``.

    *bench* holds the benchmark process's spans of the traced pass (its
    roots are the timed operations), *passed* those plus the traced
    service's, and *worker* the table the worker-side layers are read
    from: the pass itself when the workload runs them in-process, else
    the in-process oracle run of the same operations.
    """
    w, p = worker, passed
    schedules = w.n("security.key_schedule")
    distinct = w.key_sets.get("security.distinct_keys", 0)
    slave_rx = w.n("simulator.slave_rx")
    useful_rx = w.extra.get("slave_rx.received_after", 0) - w.extra.get(
        "slave_rx.received_before", 0
    )
    packets = w.extra.get("core.packets_sent", 0)
    traced_wall = sum(duration for duration, _ in bench.roots)
    metrics = {
        "security.aes_blocks": w.n("security.aes_block"),
        "security.aes_block_self_s": w.own("security.aes_block"),
        "security.key_schedules": schedules,
        "security.distinct_keys": distinct,
        "security.key_schedule_useful_ratio": _ratio(distinct, schedules),
        "security.key_schedule_self_s": w.own("security.key_schedule"),
        "security.s2_decaps": w.n("security.s2_decap"),
        "security.s2_decap_failures": w.extra.get("security.s2_decap.failures", 0),
        "security.s2_decap_self_s": w.own("security.s2_decap"),
        "security.s2_encap_self_s": w.own("security.s2_encap"),
        "security.s0_self_s": w.own("security.s0"),
        "security.kdf_calls": w.n("security.kdf"),
        "radio.transmits": w.n("radio.transmit"),
        "radio.transmit_self_s": w.own("radio.transmit"),
        "radio.advance_self_s": w.own("radio.advance"),
        "radio.deliveries": w.n("radio.dongle_rx")
        + w.n("simulator.controller_rx")
        + slave_rx,
        "simulator.build_sut_s": w.incl("simulator.build_sut"),
        "simulator.controller_rx": w.n("simulator.controller_rx"),
        "simulator.controller_rx_self_s": w.own("simulator.controller_rx"),
        "simulator.slave_rx": slave_rx,
        "simulator.slave_rx_self_s": w.own("simulator.slave_rx"),
        "simulator.slave_rx_useful_ratio": _ratio(useful_rx, slave_rx),
        "zwave.frame_decodes": w.n("zwave.frame_decode"),
        "zwave.frame_decode_self_s": w.own("zwave.frame_decode"),
        "zwave.frame_encodes": w.n("zwave.frame_encode"),
        "core.fingerprint_s": w.incl("core.fingerprint"),
        "core.discovery_s": w.incl("core.discovery"),
        "core.fuzz_self_s": w.own("core.fuzz"),
        "core.verify_s": w.incl("core.verify"),
        "core.packets_sent": packets,
        "core.detections_per_packet": _ratio(w.extra.get("core.detections", 0), packets),
        "core.session_s": w.incl("core.session"),
        "parallel.units": p.extra.get("parallel.units", 0),
        "parallel.attempts": p.extra.get("parallel.attempts", 0),
        "parallel.call_self_s": p.own("parallel.execute_units") + p.own("parallel.pool_submit"),
        "parallel.rehydrate_s": p.incl("parallel.rehydrate"),
        "resultio.wire_bytes": p.extra.get("resultio.wire_bytes", 0),
        "resultio.decode_s": p.incl("resultio.decode"),
        "resultio.merge_s": p.incl("resultio.merge"),
        "resultio.shm_claims": p.extra.get("resultio.shm_claims", 0),
        "resultio.plain_merges": p.extra.get("resultio.plain_merges", 0),
        "obs.snapshot_s": w.incl("obs.snapshot"),
        "obs.merge_s": p.incl("obs.merge"),
        "obs.counter_keys": w.key_sets.get("obs.counter_keys", 0),
        "faults.injected": w.extra.get("faults.injected", 0),
        "faults.compile_s": w.incl("faults.compile"),
        "serve.submit_s": p.incl("serve.client_submit"),
        "serve.queue_wait_s": p.extra.get("serve.queue_wait_s", 0.0),
        "serve.run_s": p.incl("serve.run"),
        "serve.fetch_s": p.incl("serve.client_fetch"),
        "serve.polls_per_job": _ratio(p.n("serve.client_poll"), jobs)
        if p.n("serve.client_submit")
        else 0.0,
        "serve.wal_appends": p.n("serve.wal_append"),
        "serve.wal_append_s": p.incl("serve.wal_append"),
        "serve.document_s": p.incl("serve.document"),
        "serve.result_bytes": p.extra.get("serve.result_bytes", 0),
        "trace.overhead_ratio": _ratio(traced_wall, untraced_wall),
        "trace.wall_s": traced_wall,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = bench.layer_self(layer)
    return {key: float(value) for key, value in metrics.items()}
