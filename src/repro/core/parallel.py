"""Process-pool campaign execution: shard trials across CPU cores.

The paper's evaluation is embarrassingly parallel — five independent
trials per controller, nine controllers, three ablation modes — and every
campaign is a pure function of ``(device, mode, duration, seed)`` (see
``docs/architecture.md`` §Determinism).  This module exploits that: a
campaign *unit* is a small picklable spec, each worker process builds its
own testbed from the spec, and the parent reassembles results in canonical
submission order, so parallel output is byte-identical to a serial run.

Robustness model:

* each unit gets up to ``1 + retries`` attempts;
* a worker that raises, dies (``BrokenProcessPool``) or exceeds the
  per-unit *timeout* fails only its own unit for that round — units that
  were collateral damage of a pool breakage are retried too;
* the retry round runs each remaining unit in its **own** single-worker
  pool, so one persistently crashing unit cannot take healthy retries
  down with it;
* a unit that exhausts its attempts surfaces as a structured
  :class:`UnitFailure` in the merged output instead of an exception, so
  one bad shard never discards the others' results.

Workers return results in the :mod:`repro.core.resultio` wire form (plain
JSON-safe data), never live simulator objects, so nothing heavyweight —
in particular no :class:`~repro.zwave.registry.SpecRegistry` — crosses a
process boundary.

Fault injection rides the unit itself: ``fault`` carries a
:mod:`repro.faults.worker` token ("raise", "exit", "hang:<s>", ...)
applied inside the worker before the campaign starts, and
``fault_plan_json`` a serialised :class:`~repro.faults.plan.FaultPlan`
the worker compiles against the unit's seed for in-simulation faults.
Both are ``None`` in production campaigns.  Retry rounds can be spaced
by a seeded :class:`~repro.faults.resilience.BackoffPolicy`.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import Future, ProcessPoolExecutor, TimeoutError as FutureTimeout
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..errors import CampaignError
from ..faults.resilience import BackoffPolicy, backoff_delays
from ..faults.worker import apply_worker_fault
from ..obs import metrics as obs
from .campaign import Mode, run_campaign

#: Failure categories recorded on :class:`UnitFailure`.
FAILURE_EXCEPTION = "exception"
FAILURE_CRASH = "worker-crash"
FAILURE_TIMEOUT = "timeout"


class ExecutionInterrupted(BaseException):
    """A graceful drain finished: in-flight units were flushed first.

    Raised instead of letting a raw ``KeyboardInterrupt`` (Ctrl-C, or the
    SIGTERM handler the job service installs) tear the executor mid-unit.
    ``outcomes`` carries **every** unit's :class:`UnitOutcome` in
    canonical order — completed units hold their results, undone units
    hold neither result nor failure — so callers (the service checkpoint
    above all) can persist the completed prefix before exiting.

    Derives from ``BaseException`` like the interrupt it replaces, so
    generic ``except Exception`` recovery paths cannot swallow it.
    """

    def __init__(self, outcomes: "List[UnitOutcome]"):
        done = sum(1 for o in outcomes if o.result is not None)
        super().__init__(f"interrupted after {done} completed unit(s)")
        self.outcomes = outcomes


@dataclass(frozen=True)
class CampaignUnit:
    """One picklable shard of a campaign: everything a worker needs.

    ``kind`` selects the fuzzer ("zcover" runs :func:`run_campaign`,
    "vfuzz" the Table V baseline).  The unit carries only plain values —
    the worker rebuilds its testbed and registries locally.
    """

    device: str = "D1"
    mode: Mode = Mode.FULL
    duration: float = 3600.0
    seed: int = 0
    kind: str = "zcover"
    queue_strategy: str = "priority"
    passive_duration: float = 120.0
    verify: bool = True
    #: PSM window scheduler ("static" or "coverage"); part of the unit
    #: identity because it changes every downstream byte.
    scheduler: str = "static"
    #: Worker-layer fault token (see :mod:`repro.faults.worker`, e.g.
    #: "raise", "exit", "raise-once:<path>", "hang:<seconds>"); None in
    #: production.
    fault: Optional[str] = None
    #: Serialised :class:`~repro.faults.plan.FaultPlan` for in-simulation
    #: fault injection (JSON string — keeps the unit hashable and
    #: picklable); None in production.
    fault_plan_json: Optional[str] = None
    #: Session flow name (kind "sessions" only): each flow is its own
    #: shard, so per-flow results merge in canonical flow order.
    flow: str = ""
    #: Serialised :class:`~repro.core.session.SessionPlan` (kind
    #: "sessions" only); None means the stock plan.
    session_plan_json: Optional[str] = None

    def label(self) -> str:
        if self.kind == "sessions":
            return f"{self.kind}:{self.device}:{self.flow}:seed={self.seed}"
        suffix = "" if self.scheduler == "static" else f":{self.scheduler}"
        return f"{self.kind}:{self.device}:{self.mode.name}:seed={self.seed}{suffix}"


@dataclass(frozen=True)
class UnitFailure:
    """A shard that exhausted its attempts, as surfaced in merged output."""

    unit: CampaignUnit
    category: str  # one of FAILURE_EXCEPTION / FAILURE_CRASH / FAILURE_TIMEOUT
    error: str
    attempts: int

    def render(self) -> str:
        first_line = self.error.strip().splitlines()[-1] if self.error else ""
        return (
            f"FAILED {self.unit.label()} after {self.attempts} attempt(s) "
            f"[{self.category}]: {first_line}"
        )


@dataclass
class UnitOutcome:
    """Final state of one unit: a result or a structured failure."""

    unit: CampaignUnit
    result: Optional[Any] = None
    failure: Optional[UnitFailure] = None
    attempts: int = 0


# -- worker side ---------------------------------------------------------------


def execute_unit(unit: CampaignUnit) -> Any:
    """Run one unit in-process and return the live result object.

    This is the serial path — exactly what the pre-parallel code did,
    modulo fault injection.  The determinism suite compares its output
    against the pooled (wire round-tripped) path to prove the codec is
    lossless.
    """
    apply_worker_fault(unit.fault)
    fault_plan = None
    if unit.fault_plan_json is not None:
        from ..faults.plan import loads_plan

        fault_plan = loads_plan(unit.fault_plan_json)
    if unit.kind == "zcover":
        return run_campaign(
            device=unit.device,
            mode=unit.mode,
            duration=unit.duration,
            seed=unit.seed,
            passive_duration=unit.passive_duration,
            verify=unit.verify,
            queue_strategy=unit.queue_strategy,
            fault_plan=fault_plan,
            scheduler=unit.scheduler,
        )
    if unit.kind == "vfuzz":
        from ..simulator.testbed import build_sut
        from .baseline import VFuzzBaseline

        sut = build_sut(unit.device, seed=unit.seed)
        return VFuzzBaseline(sut, seed=unit.seed).run(unit.duration)
    if unit.kind == "sessions":
        from .session import loads_session_plan, run_session_flow

        session_plan = (
            None
            if unit.session_plan_json is None
            else loads_session_plan(unit.session_plan_json)
        )
        return run_session_flow(
            device=unit.device, flow=unit.flow, seed=unit.seed, plan=session_plan
        )
    raise CampaignError(f"unknown campaign-unit kind {unit.kind!r}")


def execute_unit_to_wire(unit: CampaignUnit) -> dict:
    """Worker entry point: run one unit, return its wire-form result."""
    from .resultio import campaign_to_wire, session_to_wire, vfuzz_to_wire

    result = execute_unit(unit)
    if unit.kind == "vfuzz":
        return vfuzz_to_wire(result)
    if unit.kind == "sessions":
        return session_to_wire(result)
    return campaign_to_wire(result)


def _rehydrate(unit: CampaignUnit, wire: dict) -> Any:
    from .resultio import campaign_from_wire, session_from_wire, vfuzz_from_wire

    if unit.kind == "vfuzz":
        return vfuzz_from_wire(wire)
    if unit.kind == "sessions":
        return session_from_wire(wire)
    return campaign_from_wire(wire)


# -- parent side ---------------------------------------------------------------


def resolve_workers(workers: Optional[int]) -> int:
    """Resolve a worker request: 0/None mean one worker per CPU core.

    An explicit positive count is honoured verbatim (even beyond the core
    count — oversubscription is the caller's call); the executor still
    never starts more workers than it has units.
    """
    if workers is None or workers <= 0:
        return os.cpu_count() or 1
    return workers


def parallel_supported() -> bool:
    """Whether this platform can run a process pool at all.

    ``ProcessPoolExecutor`` needs working multiprocessing synchronisation
    primitives; some minimal containers ship Python without them, in which
    case every parallel request silently degrades to the serial path.
    """
    try:
        import multiprocessing.synchronize  # noqa: F401
    except ImportError:
        return False
    return True


def _retry_delays(
    backoff: Optional[BackoffPolicy], retries: int
) -> tuple:
    """The planned (deterministic) spacing before each retry round."""
    if backoff is None or retries <= 0:
        return (0.0,) * max(retries, 0)
    delays = backoff_delays(backoff, retries)
    obs.inc("parallel.backoff_planned_ms", int(sum(delays) * 1000))
    return delays


def _run_serial(
    units: Sequence[CampaignUnit],
    retries: int,
    backoff: Optional[BackoffPolicy] = None,
) -> List[UnitOutcome]:
    delays = _retry_delays(backoff, retries)
    outcomes = [UnitOutcome(unit=unit) for unit in units]
    for outcome in outcomes:
        unit = outcome.unit
        for attempt in range(1, retries + 2):
            outcome.attempts = attempt
            if attempt > 1 and delays[attempt - 2] > 0.0:
                time.sleep(delays[attempt - 2])
            try:
                outcome.result = execute_unit(unit)
                outcome.failure = None
                break
            except KeyboardInterrupt:
                # Graceful drain, serial flavour: the interrupt landed
                # inside the current unit, which is lost by definition —
                # flush the completed prefix so the caller can persist it.
                raise ExecutionInterrupted(outcomes) from None
            except Exception:
                outcome.failure = UnitFailure(
                    unit=unit,
                    category=FAILURE_EXCEPTION,
                    error=traceback.format_exc(),
                    attempts=attempt,
                )
    return outcomes


def _drain_round(
    pool: ProcessPoolExecutor,
    pending: Dict[int, UnitOutcome],
    futures: Dict[int, Any],
) -> None:
    """Graceful drain: let in-flight units finish, harvest their results.

    Called when an interrupt lands mid-round.  Queued-but-unstarted
    futures are cancelled; futures already executing run to completion
    (``shutdown(wait=True)`` blocks on them), and every finished result
    is flushed into its outcome so the caller's checkpoint sees each
    completed unit exactly once — never a torn one.
    """
    from .resultio import claim_wire

    for future in futures.values():
        future.cancel()
    pool.shutdown(wait=True, cancel_futures=True)
    for index, future in futures.items():
        if index not in pending or not future.done() or future.cancelled():
            continue
        try:
            wire = claim_wire(future.result(timeout=0))
        except BaseException:
            continue  # the unit failed while draining; retry accounting keeps it
        outcome = pending[index]
        outcome.result = _rehydrate(outcome.unit, wire)
        outcome.failure = None
        del pending[index]


def _collect_round(
    pool: ProcessPoolExecutor,
    pending: Dict[int, UnitOutcome],
    timeout: Optional[float],
) -> None:
    """Submit every pending unit to *pool* and harvest results/failures.

    Mutates the outcomes in place; entries that got a result are removed
    from *pending*.  A broken pool fails every still-unresolved future for
    this round (they all keep their retry budget).  A ``KeyboardInterrupt``
    during the harvest triggers the graceful drain (in-flight units finish
    and flush) before the interrupt propagates.
    """
    from .resultio import claim_wire

    futures = {}
    for index, outcome in pending.items():
        outcome.attempts += 1
        futures[index] = pool.submit(execute_unit_to_wire, outcome.unit)
    for index, future in futures.items():
        outcome = pending[index]
        try:
            wire = claim_wire(future.result(timeout=timeout))
        except FutureTimeout:
            future.cancel()
            outcome.failure = UnitFailure(
                unit=outcome.unit,
                category=FAILURE_TIMEOUT,
                error=f"no result within {timeout}s",
                attempts=outcome.attempts,
            )
            continue
        except KeyboardInterrupt:
            _drain_round(pool, pending, futures)
            raise
        except BaseException as exc:  # worker raise, pool breakage, cancel
            crashed = type(exc).__name__ in ("BrokenProcessPool", "BrokenExecutor")
            outcome.failure = UnitFailure(
                unit=outcome.unit,
                category=FAILURE_CRASH if crashed else FAILURE_EXCEPTION,
                error="".join(
                    traceback.format_exception_only(type(exc), exc)
                ).strip(),
                attempts=outcome.attempts,
            )
            continue
        outcome.result = _rehydrate(outcome.unit, wire)
        outcome.failure = None
        del pending[index]


def execute_units(
    units: Sequence[CampaignUnit],
    workers: int = 1,
    timeout: Optional[float] = None,
    retries: int = 1,
    backoff: Optional[BackoffPolicy] = None,
    pool: "Optional[WorkerPool]" = None,
) -> List[UnitOutcome]:
    """Run *units*, sharded over *workers* processes, in canonical order.

    Returns one :class:`UnitOutcome` per unit **in the input order**,
    regardless of which worker finished first — the caller's merge step
    (:func:`repro.core.resultio.merge_trials`) depends on this.

    ``workers <= 1`` — or a platform without multiprocessing support —
    runs everything serially in-process.  *timeout* bounds the wall-clock
    wait for each unit's result per attempt; *retries* is the number of
    extra attempts a failing unit gets before its failure is surfaced.
    *backoff* spaces the retry rounds with seeded-jitter delays (see
    :mod:`repro.faults.resilience`) instead of immediate resubmission;
    the delay sequence is pure in the policy, never in wall clock.

    With *pool* (a :class:`WorkerPool`) the first round runs on that
    persistent executor instead of a freshly spawned one, and the pool is
    left running afterwards — the job service keeps one pool across every
    job it executes.  Retry rounds still isolate each surviving unit in
    its own single-worker pool, so a persistently crashing shard can
    never break the shared pool for its neighbours.

    A ``KeyboardInterrupt`` (Ctrl-C, or SIGTERM routed through a handler)
    no longer tears the round down mid-unit: in-flight units finish,
    their results are flushed, and :class:`ExecutionInterrupted` carries
    every outcome so callers can persist the completed prefix.
    """
    if pool is not None and pool.executor is not None:
        outcomes = [UnitOutcome(unit=unit) for unit in units]
        pending: Dict[int, UnitOutcome] = dict(enumerate(outcomes))
        try:
            _collect_round(pool.executor, pending, timeout)
        except KeyboardInterrupt:
            raise ExecutionInterrupted(outcomes) from None
        _retry_in_isolation(pending, timeout, retries, backoff)
        return outcomes

    if workers <= 1 or len(units) <= 1 or not parallel_supported():
        return _run_serial(units, retries, backoff)

    outcomes = [UnitOutcome(unit=unit) for unit in units]
    pending = dict(enumerate(outcomes))
    pool_size = min(resolve_workers(workers), len(units))

    try:
        round_pool = ProcessPoolExecutor(max_workers=pool_size)
    except (OSError, ImportError, NotImplementedError):
        return _run_serial(units, retries, backoff)
    try:
        _collect_round(round_pool, pending, timeout)
    except KeyboardInterrupt:
        raise ExecutionInterrupted(outcomes) from None
    finally:
        round_pool.shutdown(wait=False, cancel_futures=True)

    _retry_in_isolation(pending, timeout, retries, backoff)
    return outcomes


def _retry_in_isolation(
    pending: Dict[int, UnitOutcome],
    timeout: Optional[float],
    retries: int,
    backoff: Optional[BackoffPolicy],
) -> None:
    """Retry rounds: each surviving unit in its own single-worker pool.

    Isolation means one persistently crashing unit cannot take healthy
    retries (or a caller's persistent pool) down with it.
    """
    delays = _retry_delays(backoff, retries)
    for round_index in range(retries):
        if not pending:
            break
        if delays[round_index] > 0.0:
            time.sleep(delays[round_index])
        for index in list(pending):
            retry_pool = ProcessPoolExecutor(max_workers=1)
            try:
                _collect_round(retry_pool, {index: pending[index]}, timeout)
            finally:
                retry_pool.shutdown(wait=False, cancel_futures=True)
            if index in pending and pending[index].result is not None:
                del pending[index]


class WorkerPool:
    """A persistent process pool the job service reuses across jobs.

    ``execute_units`` historically spawned (and tore down) one
    ``ProcessPoolExecutor`` per batch; a long-lived service would pay
    that interpreter-spawn cost on every submitted job.  A ``WorkerPool``
    owns the executor for the whole service lifetime: pass it to
    :func:`execute_units` (``pool=``) or submit single units with
    :meth:`submit` (the asyncio service awaits those futures directly).

    On platforms without multiprocessing support ``executor`` is ``None``
    and callers fall back to in-process execution — the same degradation
    :func:`execute_units` applies.  Unlike the batch path, a pool is
    spawned even for ``workers=1``: a service wants submission to return
    immediately (the single worker process runs the unit) rather than
    execute inline and block its event loop.
    """

    def __init__(self, workers: int = 1):
        self.workers = resolve_workers(workers)
        self.executor: Optional[ProcessPoolExecutor] = None
        if parallel_supported():
            try:
                self.executor = ProcessPoolExecutor(max_workers=self.workers)
            except (OSError, ImportError, NotImplementedError):
                self.executor = None

    def submit(self, unit: CampaignUnit):
        """Submit one unit; returns a future resolving to its wire form.

        Falls back to synchronous in-process execution (an already-
        resolved future) when the platform has no process pool.
        """
        if self.executor is None:
            future: Future = Future()
            try:
                future.set_result(execute_unit_to_wire(unit))
            except BaseException as exc:  # surfaced at result() like a pool would
                future.set_exception(exc)
            return future
        return self.executor.submit(execute_unit_to_wire, unit)

    def drain(self, wait: bool = True) -> None:
        """Shut the executor down; ``wait=True`` lets in-flight units finish."""
        if self.executor is not None:
            self.executor.shutdown(wait=wait, cancel_futures=True)
            self.executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.drain(wait=exc_type is None)
