"""The three closed-loop workloads, their output checks and their oracles.

Every workload is one caller that issues its next operation only after
the previous one completed.  Operation inputs (devices, horizons, seeds)
come from a generator seeded by the workload seed alone, so the same
seed always yields the same operations.  Each operation is timed on its
own; its output is checked right after, with the clock stopped, and the
checks that need a second full run (the serial and in-process oracles)
run after the timed loop, so oracle work can never warm a cache the
timed code later reads.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterator, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: campaign_serial alternates these devices (S0- and S2-heavy lines).
CAMPAIGN_DEVICES = ("D1", "D3")
#: Simulated hours per campaign: past Fig. 12's discovery knee, so
#: fuzzing dominates fingerprint/discovery set-up.
CAMPAIGN_HOURS = 1.0
#: trials_sharded: devices and horizons cycle (a cycle of six calls), so
#: every run sees the same mix whatever its seed.
TRIAL_DEVICES = ("D1", "D3")
TRIAL_HOURS = (0.05, 0.1, 0.25)
TRIALS_PER_CALL = 2
WORKERS = 2
#: served_mix: four sessions jobs to one trials job to one chaos job.
JOB_MIX = (
    ("sessions", "D1"),
    ("sessions", "D2"),
    ("trials", "D1"),
    ("sessions", "D1"),
    ("sessions", "D2"),
    ("chaos", "D3"),
)
JOB_HOURS = 0.05
JOB_TRIALS = 2
#: Client poll interval: well below the ~20 ms a sessions job computes,
#: so latency is quantised by at most this much.
POLL_S = 0.002
#: Fresh interpreters (or service boots) timed per run for setup_s.
SETUP_REPEATS = 5
SERVE_BOOTS = 5
HOUR = 3600.0

#: What set-up means for the in-process workloads: a fresh interpreter
#: importing the campaign stack and loading both spec registries.
_SETUP_SNIPPET = (
    "import repro.core.campaign, repro.core.trials, repro.core.parallel, "
    "repro.core.resultio\n"
    "from repro.zwave.registry import load_full_registry, load_public_registry\n"
    "load_full_registry(); load_public_registry()\n"
)


@dataclass
class Op:
    """One operation: its inputs, then what running it produced."""

    kind: str  # "campaign", "trials", or a job kind
    device: str
    seed: int
    hours: float = 0.0  # simulated hours per campaign (0: sessions job)
    trials: int = 1
    seconds: float = 0.0
    digest: str = ""  # SHA-256 of the output, for ops with an oracle
    error: str = ""

    @property
    def sim_hours(self) -> float:
        return self.hours * self.trials


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# -- operation streams -------------------------------------------------------------


def _seeds(rng: random.Random) -> Iterator[int]:
    """Distinct 31-bit seeds (distinct specs: no dedup, no cache hits)."""
    seen = set()
    while True:
        seed = rng.randrange(2**31)
        if seed not in seen:
            seen.add(seed)
            yield seed


def campaign_ops(seed: int) -> Iterator[Op]:
    seeds = _seeds(random.Random(f"campaign_serial:{seed}"))
    i = 0
    while True:
        yield Op("campaign", CAMPAIGN_DEVICES[i % 2], next(seeds), CAMPAIGN_HOURS)
        i += 1


def trials_ops(seed: int) -> Iterator[Op]:
    seeds = _seeds(random.Random(f"trials_sharded:{seed}"))
    i = 0
    while True:
        yield Op(
            "trials",
            TRIAL_DEVICES[i % 2],
            next(seeds),
            TRIAL_HOURS[i % 3],
            TRIALS_PER_CALL,
        )
        i += 1


def served_ops(seed: int) -> Iterator[Op]:
    seeds = _seeds(random.Random(f"served_mix:{seed}"))
    i = 0
    while True:
        kind, device = JOB_MIX[i % len(JOB_MIX)]
        if kind == "sessions":
            yield Op(kind, device, next(seeds))
        else:
            yield Op(kind, device, next(seeds), JOB_HOURS, JOB_TRIALS)
        i += 1


def job_spec(op: Op):
    from repro.serve.protocol import JobSpec

    if op.kind == "sessions":
        return JobSpec(kind="sessions", device=op.device, seed=op.seed)
    return JobSpec(
        kind=op.kind,
        device=op.device,
        seed=op.seed,
        trials=op.trials,
        hours=op.hours,
        fault_plan="lossy" if op.kind == "chaos" else None,
    )


# -- running and checking one operation ---------------------------------------------


def run_campaign_op(op: Op):
    from repro.core import campaign

    started = time.perf_counter()
    result = campaign.run_campaign(
        device=op.device,
        mode=campaign.Mode.FULL,
        duration=op.hours * HOUR,
        seed=op.seed,
    )
    op.seconds = time.perf_counter() - started
    return result


def campaign_wire(result) -> str:
    from repro.core.resultio import campaign_to_wire, dumps_wire

    return dumps_wire(campaign_to_wire(result))


def check_campaign(op: Op, result) -> None:
    """The wire must round-trip; no bug id outside the planted set.

    Its digest is compared to the fresh-interpreter oracle afterwards.
    """
    from repro.core.resultio import campaign_from_wire, loads_wire
    from repro.simulator.testbed import PROFILES

    text = campaign_wire(result)
    again = campaign_wire(campaign_from_wire(loads_wire(text)))
    planted = set(PROFILES[op.device].zero_day_ids)
    stray = sorted(set(result.matched_bug_ids) - planted)
    if again != text:
        op.error = "campaign wire does not round-trip"
    elif stray:
        op.error = f"bug ids {stray} are not planted in {op.device}"
    elif result.degradation is not None:
        op.error = f"campaign degraded: {result.degradation.to_wire()}"
    op.digest = hashlib.sha256(text.encode("utf-8")).hexdigest()


def oracle_campaign_digest(op: Op) -> str:
    """The same campaign, run alone in a fresh interpreter."""
    text = campaign_wire(run_campaign_op(replace(op)))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_trials_op(op: Op, workers: int = WORKERS):
    from repro.core import campaign, trials

    started = time.perf_counter()
    summary = trials.run_trials(
        device=op.device,
        mode=campaign.Mode.FULL,
        n_trials=op.trials,
        duration=op.hours * HOUR,
        base_seed=op.seed,
        workers=workers,
    )
    op.seconds = time.perf_counter() - started
    return summary


def trials_digest(summary) -> str:
    """SHA-256 over every trial's wire, the report and the metrics document."""
    from repro.core.resultio import campaign_to_wire, dumps_wire
    from repro.obs.export import canonical_dumps

    digest = hashlib.sha256()
    for trial in summary.trials:
        digest.update(dumps_wire(campaign_to_wire(trial)).encode("utf-8"))
    digest.update(summary.render().encode("utf-8"))
    digest.update(canonical_dumps(summary.metrics_document()).encode("utf-8"))
    return digest.hexdigest()


def check_trials(op: Op, summary) -> None:
    """No failed unit, no retry; the digest is compared to the serial oracle."""
    retries = summary.harness_metrics.counters.get("parallel.unit_retries", 0)
    if summary.failures:
        op.error = "; ".join(failure.render() for failure in summary.failures)
    elif retries:
        op.error = f"{retries} unit retries"
    elif summary.n_trials != op.trials:
        op.error = f"{summary.n_trials} trials merged, expected {op.trials}"
    op.digest = trials_digest(summary)


def oracle_trials_digest(op: Op) -> str:
    """The serial reference: the same series with ``workers=1``."""
    return trials_digest(run_trials_op(replace(op), workers=1))


def run_job_op(client, op: Op) -> None:
    """Submit, wait, fetch: the latency a service user sees."""
    from repro.serve.client import ServeClientError
    from repro.serve.protocol import JOB_DONE

    spec = job_spec(op)
    started = time.perf_counter()
    try:
        status = client.submit(spec)
        final = client.wait(status.job_id, timeout=120.0, poll=POLL_S)
        body = client.result_bytes(final.job_id) if final.state == JOB_DONE else b""
    except ServeClientError as exc:
        op.seconds = time.perf_counter() - started
        op.error = str(exc)
        return
    op.seconds = time.perf_counter() - started
    if final.state != JOB_DONE:
        op.error = f"job {final.job_id} ended {final.state}: {final.error}"
    op.digest = hashlib.sha256(body).hexdigest()


def oracle_job_digest(op: Op) -> str:
    """The in-process reference document for the job's spec."""
    from repro.serve.results import direct_document, dumps_result_document

    text = dumps_result_document(direct_document(job_spec(op)))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def compare_to_oracle(
    ops: List[Op],
    oracle: Callable[[Op], str],
    pooled: bool,
    ops_per_process: Optional[int] = None,
) -> None:
    """Mark every op whose digest differs from its oracle's.

    Ops with equal inputs share one oracle run.  *pooled* runs the
    oracles in a two-process spawn pool (fresh interpreters, so nothing
    the benchmark process cached leaks in), each process running at most
    *ops_per_process* of them (None: no limit); otherwise they run here,
    in the traced process.
    """
    todo = {}
    for op in ops:
        if not op.error:
            todo.setdefault((op.kind, op.device, op.seed, op.hours, op.trials), op)
    inputs = list(todo.values())
    if pooled:
        pool = multiprocessing.get_context("spawn").Pool(
            WORKERS, maxtasksperchild=ops_per_process
        )
        try:
            digests = pool.map(oracle, inputs, chunksize=1)
            pool.close()
        except BaseException:
            pool.terminate()
            raise
        finally:
            pool.join()
    else:
        digests = [oracle(op) for op in inputs]
    expected = dict(zip(todo, digests))
    for op in ops:
        key = (op.kind, op.device, op.seed, op.hours, op.trials)
        if not op.error and op.digest != expected[key]:
            op.error = f"{op.kind} {op.device} seed={op.seed}: output differs from the oracle"


#: Each workload's operation stream.
STREAMS = {
    "campaign_serial": campaign_ops,
    "trials_sharded": trials_ops,
    "served_mix": served_ops,
}
#: The in-process workloads: how one operation runs, and how its output
#: is checked (served_mix runs on the service; its check is the oracle).
IN_PROCESS = {
    "campaign_serial": (run_campaign_op, check_campaign),
    "trials_sharded": (run_trials_op, check_trials),
}
#: The workloads whose outputs are compared with a second, reference run:
#: the oracle, and how many ops one oracle interpreter may run (None: no
#: limit).  Each campaign's oracle runs alone in a fresh interpreter, so
#: state that campaigns run in one process leave behind cannot go unseen.
ORACLES = {
    "campaign_serial": (oracle_campaign_digest, 1),
    "trials_sharded": (oracle_trials_digest, None),
    "served_mix": (oracle_job_digest, None),
}
#: The workloads whose layer work runs in other processes (pool workers,
#: the service): their traced run measures those layers on the oracle
#: run, made in the traced process.
REMOTE_LAYERS = ("trials_sharded", "served_mix")


# -- set-up ---------------------------------------------------------------------------


def import_setup_seconds() -> List[float]:
    """Wall time of fresh interpreters importing the stack and registries."""
    samples = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_SNIPPET],
            env=child_env(),
            cwd=str(ROOT),
            capture_output=True,
            timeout=120,
        )
        samples.append(time.perf_counter() - started)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.decode()[-400:]}")
    return samples


class Service:
    """One ``zcover serve --workers 2`` process and a client for it."""

    def __init__(self, workdir: Path, tag: str, spans_prefix: Optional[str] = None):
        checkpoint = str(workdir / f"{tag}.ckpt")
        if spans_prefix is None:
            argv = [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
            argv += ["--workers", str(WORKERS)]
        else:
            argv = [sys.executable, str(HERE / "serve_traced.py"), "--spans", spans_prefix]
        argv += ["--checkpoint", checkpoint]
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, env=child_env(), cwd=str(ROOT), stdout=subprocess.PIPE, text=True
        )
        try:
            line = self.proc.stdout.readline().strip()
            if "listening on" not in line:
                raise RuntimeError(f"service did not start (said {line!r})")
            from repro.serve.client import ServeClient

            self.client = ServeClient(port=int(line.rsplit(":", 1)[1]), timeout=60.0)
            if not self.client.healthz().get("ok"):
                raise RuntimeError("service /healthz is not ok")
        except BaseException:
            self.stop()
            raise
        self.boot_seconds = time.perf_counter() - started

    def failures(self) -> List[str]:
        """Service-side unit failures and pool respawns (its own counters)."""
        import json

        status, body = self.client._request("GET", "/metrics")
        if status != 200:
            return [f"GET /metrics: HTTP {status}"]
        counters = json.loads(body.decode("utf-8"))["counters"]
        return [
            f"{key}={counters[key]}"
            for key in ("serve.units.failed", "serve.jobs.failed", "serve.pool.respawns")
            if counters.get(key)
        ]

    def stop(self) -> None:
        """Graceful drain (SIGTERM), then wait; kill if it hangs.

        The service's own children (pool workers, its resource tracker)
        outlive it briefly; the benchmark process adopts them (see
        ``procs.py``) and waits for them too.
        """
        import procs

        orphans = procs.children_of(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        procs.wait_pids(orphans)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def boot_services(workdir: Path) -> tuple:
    """Boot :data:`SERVE_BOOTS` services in turn; keep the last running."""
    samples = []
    service = None
    for boot in range(SERVE_BOOTS):
        if service is not None:
            service.stop()
        service = Service(workdir, f"setup{boot}")
        samples.append(service.boot_seconds)
    return samples, service


# -- measurement helpers ----------------------------------------------------------------


#: Peak RSS is read after this many operations, not at the end: the
#: service keeps every finished job in memory, so a reading at the end
#: would grow with throughput.
RSS_AFTER_OPS = {"campaign_serial": 4, "trials_sharded": 12, "served_mix": 60}


def peak_rss_mb() -> float:
    """Peak resident set of this process and its reaped children, in MB.

    ``RUSAGE_CHILDREN`` covers every descendant already waited for (pool
    workers of finished ``run_trials`` calls).
    """
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024.0


def tree_peak_rss_mb(pid: int) -> float:
    """Largest peak resident set (VmHWM) of *pid* and its children, in MB."""
    pids = [pid]
    with open(f"/proc/{pid}/task/{pid}/children", encoding="ascii") as handle:
        pids += [int(child) for child in handle.read().split()]
    peak_kb = 0
    for process in pids:
        try:
            with open(f"/proc/{process}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
        except FileNotFoundError:
            continue  # a worker exited between the listing and the read
    return peak_kb / 1024.0


def quantile(samples: List[float], q: float) -> float:
    if len(samples) == 1:
        return samples[0]
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[int(round(q * 100)) - 1]
