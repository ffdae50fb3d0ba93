"""Serial vs parallel campaign execution must be indistinguishable.

The tentpole correctness proof: ``run_trials(workers=N)`` shards trials
across worker processes and ships results back in the
:mod:`repro.core.resultio` wire form, while ``workers=1`` is the
historical in-process loop calling :func:`run_campaign` directly.  Every
observable — bug IDs, discovery times, coverage, the rendered report —
must agree bit for bit, or parallelism has changed the science.

The run-twice matrix at the end widens the same contract across the
(device x mode x scheduler x fault-plan x workers) cells plus the chaos
and session documents: each cell is rendered twice — campaign, session
or chaos document plus the obs counter snapshot — and the two renderings
must be byte-identical.  The committed goldens pin the bytes themselves;
the matrix pins that nothing in a run depends on process history.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.summary import campaign_report
from repro.core.campaign import Mode, run_ablation, run_campaign
from repro.core.resultio import campaign_to_wire, dumps_wire, session_to_wire
from repro.core.session import run_sessions
from repro.core.trials import run_trials
from repro.faults.plan import canonical_mixed_plan
from repro.faults.report import build_chaos_document, dumps_chaos_document
from repro.obs.export import dumps_document

N_TRIALS = 3
DURATION = 900.0  # 15 simulated minutes: all the early bugs, fast test


@pytest.fixture(scope="module")
def serial():
    return run_trials("D1", Mode.FULL, n_trials=N_TRIALS, duration=DURATION,
                      base_seed=0, workers=1)


@pytest.fixture(scope="module")
def parallel():
    return run_trials("D1", Mode.FULL, n_trials=N_TRIALS, duration=DURATION,
                      base_seed=0, workers=4)


class TestTrialDeterminism:
    def test_no_failures(self, parallel):
        assert parallel.failures == []
        assert parallel.n_trials == N_TRIALS

    def test_union_and_intersection_bug_ids(self, serial, parallel):
        assert serial.union_bug_ids == parallel.union_bug_ids
        assert serial.intersection_bug_ids == parallel.intersection_bug_ids

    def test_discovery_times(self, serial, parallel):
        for left, right in zip(serial.trials, parallel.trials):
            assert left.discovery_timeline() == right.discovery_timeline()

    def test_timing_stats(self, serial, parallel):
        assert serial.timing_stats() == parallel.timing_stats()

    def test_full_result_equality(self, serial, parallel):
        # Whole-object equality: properties, fuzz results (bug log,
        # detections, timeline, coverage sets) and verified uniques.
        assert serial.trials == parallel.trials

    def test_wire_form_is_byte_identical(self, serial, parallel):
        for left, right in zip(serial.trials, parallel.trials):
            assert dumps_wire(campaign_to_wire(left)) == dumps_wire(
                campaign_to_wire(right)
            )

    def test_rendered_summary_identical(self, serial, parallel):
        assert serial.render() == parallel.render()

    def test_rendered_campaign_reports_identical(self, serial, parallel):
        for left, right in zip(serial.trials, parallel.trials):
            assert campaign_report(left) == campaign_report(right)

    def test_trial_order_is_seed_order(self, parallel):
        # The merge reassembles canonical seed order regardless of which
        # worker finished first: trial i must equal a direct run of seed
        # 1000*i.
        direct = run_campaign("D1", Mode.FULL, duration=DURATION, seed=1000)
        assert parallel.trials[1] == direct


class TestMetricsDeterminism:
    """The obs snapshots must survive the wire without changing a byte."""

    def test_every_trial_carries_metrics(self, parallel):
        for trial in parallel.trials:
            assert trial.metrics is not None
            assert trial.metrics.counters["fuzzer.frames_tx"] > 0

    def test_per_trial_metrics_equal(self, serial, parallel):
        for left, right in zip(serial.trials, parallel.trials):
            assert left.metrics == right.metrics

    def test_harness_metrics_equal(self, serial, parallel):
        assert serial.harness_metrics == parallel.harness_metrics
        assert serial.harness_metrics.counters["parallel.units"] == N_TRIALS

    def test_merged_document_is_byte_identical(self, serial, parallel):
        left = dumps_document(serial.metrics_document())
        right = dumps_document(parallel.metrics_document())
        assert left == right


class TestAblationDeterminism:
    def test_parallel_ablation_matches_serial(self):
        serial = run_ablation("D1", duration=DURATION, seed=0, workers=1)
        parallel = run_ablation("D1", duration=DURATION, seed=0, workers=3)
        assert list(serial) == list(parallel)
        for mode in serial:
            assert serial[mode] == parallel[mode]


# -- run-twice matrix ------------------------------------------------------------

CELL_DURATION = 600.0  # 10 simulated minutes: all the early bugs, fast cells
CELL_SEED = 0


def _obs_slice(result):
    """Canonical rendering of a campaign's metrics counter snapshot."""
    counters = result.metrics.counters if result.metrics is not None else {}
    return json.dumps(
        {key: counters[key] for key in sorted(counters)},
        sort_keys=True,
        separators=(",", ":"),
    )


def _campaign_cell(device, mode, scheduler, with_faults):
    plan = canonical_mixed_plan() if with_faults else None
    result = run_campaign(
        device=device,
        mode=mode,
        duration=CELL_DURATION,
        seed=CELL_SEED,
        scheduler=scheduler,
        fault_plan=plan,
    )
    return dumps_wire(campaign_to_wire(result)) + "\n" + _obs_slice(result)


def _chaos_cell(device):
    plan = canonical_mixed_plan()
    summary = run_trials(
        device=device,
        mode=Mode.FULL,
        n_trials=2,
        duration=CELL_DURATION,
        base_seed=CELL_SEED,
        workers=1,
        fault_plan=plan,
    )
    return dumps_chaos_document(build_chaos_document(summary, plan, CELL_SEED))


def _session_cell(device):
    return dumps_wire(session_to_wire(run_sessions(device, seed=CELL_SEED)))


def _workers_cell(device, workers):
    summary = run_trials(
        device=device,
        mode=Mode.FULL,
        n_trials=2,
        duration=CELL_DURATION,
        base_seed=CELL_SEED,
        workers=workers,
    )
    assert summary.failures == []
    return (
        "".join(dumps_wire(campaign_to_wire(trial)) for trial in summary.trials)
        + "\n"
        + summary.render()
    )


CELLS = (
    ("campaign-D1-FULL-static", lambda: _campaign_cell("D1", Mode.FULL, "static", False)),
    ("campaign-D1-BETA-static", lambda: _campaign_cell("D1", Mode.BETA, "static", False)),
    ("campaign-D1-GAMMA-static", lambda: _campaign_cell("D1", Mode.GAMMA, "static", False)),
    ("campaign-D2-FULL-coverage", lambda: _campaign_cell("D2", Mode.FULL, "coverage", False)),
    ("campaign-D2-FULL-faultplan", lambda: _campaign_cell("D2", Mode.FULL, "static", True)),
    ("chaos-D1-trials", lambda: _chaos_cell("D1")),
    ("sessions-D1", lambda: _session_cell("D1")),
    ("trials-D1-workers2", lambda: _workers_cell("D1", 2)),
)


@pytest.mark.parametrize("name,build", CELLS, ids=[name for name, _ in CELLS])
def test_matrix_cell_documents_byte_identical(name, build):
    """Two runs of a cell render the exact same bytes."""
    assert build() == build(), f"run-to-run drift in matrix cell {name}"


def test_workers_commute():
    """serial and --workers 2, each run twice: all four documents equal.

    Worker count must be invisible, and stay invisible across repeated
    runs in one process, so one document stands for the whole square.
    """
    documents = [
        _workers_cell("D2", workers) for _run in range(2) for workers in (1, 2)
    ]
    reference = documents[0]
    for document in documents[1:]:
        assert document == reference


# -- resource hygiene ------------------------------------------------------------

_POOLED_RUN = """
import multiprocessing
from multiprocessing import resource_tracker
from repro.core.campaign import Mode
from repro.core.trials import run_trials

# Pinned because forkserver and spawn start the tracker on their own.
multiprocessing.set_start_method("fork")
summary = run_trials("D1", Mode.FULL, n_trials=2, duration=600.0,
                     base_seed=0, workers=2)
assert summary.failures == [], summary.failures
print(resource_tracker._resource_tracker._pid)
"""


def _shm_entries():
    shm = Path("/dev/shm")
    return set(os.listdir(shm)) if shm.is_dir() else set()


def test_pooled_run_leaves_nothing_behind():
    """A ``workers=2`` run starts no resource tracker and leaves no segment.

    Runs in a fresh interpreter so no earlier test can have started the
    ``multiprocessing`` resource tracker: worker results travel as plain
    pickled wire dicts, so the parent never registers a resource with it.
    """
    before = _shm_entries()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _POOLED_RUN],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "None", "parent started a resource tracker"
    assert _shm_entries() - before == set()
