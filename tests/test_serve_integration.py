"""Black-box byte-identity harness for the job service (`zcover serve`).

The service under test is a real one: :class:`ServiceThread` boots the
asyncio server on an ephemeral port of a background thread and every
assertion below talks to it over actual HTTP sockets via the stdlib
client — no internal shortcuts.  The oracle is
:func:`repro.serve.results.direct_document`: the same spec run
in-process, serially, through the ordinary ``run_trials`` /
``run_sessions`` entry points.  The contract, for every job kind:

    bytes(GET /jobs/<id>/result) == bytes(oracle document)

including after the service is killed mid-trial-set (``stop(drain=
False)`` cancels the runner between unit harvests — the in-process
equivalent of ``kill -9`` that still shares the checkpoint file) and a
fresh service resumes from the write-ahead checkpoint.

The pool runs with ``workers=2`` throughout, so these tests also pin
served-parallel against oracle-serial — the full PR 1–8 determinism
stack exercised through the service's front door.
"""

import functools
import json
import os

import pytest

from repro.core.resultio import WIRE_VERSION
from repro.radio.clock import wall_monotonic, wall_sleep
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.protocol import JOB_DONE, JobSpec
from repro.serve.results import direct_document, dumps_result_document
from repro.serve.service import ServiceThread

SPEC_TRIALS = JobSpec(
    kind="trials", device="D1", mode="full", seed=0, trials=2, hours=0.05
)
SPEC_SESSIONS = JobSpec(
    kind="sessions", device="D1", seed=3, trials=6, flows=("inclusion", "s0")
)
SPEC_CHAOS = JobSpec(
    kind="chaos",
    device="D1",
    mode="full",
    seed=0,
    trials=2,
    hours=0.05,
    fault_plan="canonical",
)
SPEC_RESUME = JobSpec(
    kind="trials", device="D2", mode="full", seed=0, trials=4, hours=0.05
)

WAIT_S = 300.0


@functools.lru_cache(maxsize=None)
def oracle_bytes(spec):
    """The serial in-process oracle document for *spec*, as bytes.

    Cached per spec (specs are frozen dataclasses): several tests compare
    against the same oracle and the campaign only needs to run once.
    """
    return dumps_result_document(direct_document(spec)).encode("utf-8")


@pytest.fixture(scope="module")
def service():
    handle = ServiceThread(workers=2, port=0).start()
    yield handle
    handle.stop(drain=True)


@pytest.fixture(scope="module")
def client(service):
    return ServeClient(port=service.port)


class TestByteIdentity:
    """Served result documents equal the serial oracle, byte for byte."""

    @pytest.mark.parametrize(
        "spec",
        [SPEC_TRIALS, SPEC_SESSIONS, SPEC_CHAOS],
        ids=["trials", "sessions", "chaos"],
    )
    def test_served_bytes_equal_oracle(self, client, spec):
        status = client.submit(spec)
        final = client.wait(status.job_id, timeout=WAIT_S)
        assert final.state == JOB_DONE
        assert final.units_done == final.units_total > 0
        assert client.result_bytes(status.job_id) == oracle_bytes(spec)

    def test_result_is_canonical_json(self, client):
        status = client.submit(SPEC_TRIALS)
        client.wait(status.job_id, timeout=WAIT_S)
        payload = client.result_bytes(status.job_id)
        doc = json.loads(payload.decode("utf-8"))
        assert doc["schema"] == "zcover-serve-result"
        assert doc["job_id"] == status.job_id
        assert doc["spec"]["wire_version"] == WIRE_VERSION
        # canonical form: sorted keys, indent 2, trailing newline
        recoded = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert payload == recoded.encode("utf-8")


class TestProtocolSurface:
    """Idempotence, structured rejection, progress, and 404s over HTTP."""

    def test_duplicate_submission_is_idempotent(self, client):
        first = client.submit(SPEC_TRIALS)
        second = client.submit(SPEC_TRIALS)
        assert second.job_id == first.job_id
        assert second.sequence == first.sequence

    def test_invalid_spec_rejected_with_field(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            client.submit(JobSpec(kind="chaos", device="D1"))  # no fault plan
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error"]["kind"] == "spec"
        assert excinfo.value.payload["error"]["field"] == "fault_plan"

    def test_future_wire_version_rejected(self, service):
        import http.client

        from repro.core.resultio import dumps_wire, jobspec_to_wire

        wire = jobspec_to_wire(SPEC_TRIALS)
        wire["wire_version"] = WIRE_VERSION + 1
        connection = http.client.HTTPConnection("127.0.0.1", service.port, timeout=30)
        try:
            connection.request(
                "POST",
                "/jobs",
                body=dumps_wire(wire).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            payload = json.loads(response.read().decode("utf-8"))
        finally:
            connection.close()
        assert response.status == 400
        assert payload["error"]["kind"] == "wire-version"
        assert payload["error"]["found"] == WIRE_VERSION + 1
        assert payload["error"]["expected"] == WIRE_VERSION

    @staticmethod
    def _raw_post(port, content_length, body):
        """POST /jobs over a bare socket, half-closing after *body*.

        The half-close lets the server see end-of-stream, so a declared
        length longer than *body* is observable instead of a hang.
        """
        import socket

        head = (
            "POST /jobs HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Length: {content_length}\r\n\r\n"
        ).encode("latin-1")
        with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
            sock.sendall(head + body)
            sock.shutdown(socket.SHUT_WR)
            response = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                response += chunk
        status_line, _, rest = response.partition(b"\r\n")
        payload = json.loads(rest.partition(b"\r\n\r\n")[2].decode("utf-8"))
        return int(status_line.split()[1]), payload

    def test_negative_content_length_rejected(self, service):
        status, payload = self._raw_post(service.port, -1, b"{}")
        assert status == 400
        assert payload["error"]["kind"] == "content-length"

    def test_content_length_beyond_body_rejected(self, service):
        status, payload = self._raw_post(service.port, 1000, b'{"kind": "trials"}')
        assert status == 400
        assert payload["error"]["kind"] == "content-length"

    def test_unknown_job_and_path_are_404(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            client.status("job-ffffffff")
        assert excinfo.value.status == 404
        status, _body = client._request("GET", "/nothing/here")
        assert status == 404

    def test_progress_streams_merged_counters(self, client):
        status = client.submit(SPEC_TRIALS)
        client.wait(status.job_id, timeout=WAIT_S)
        progress = client.progress(status.job_id)
        assert progress["schema"] == "zcover-serve-progress"
        assert progress["units_done"] == progress["units_total"]
        assert progress["counters"]  # campaign counters merged per unit
        assert any(key.startswith("fuzzer.") for key in progress["counters"])

    def test_service_metrics_count_jobs(self, client):
        status, body = client._request("GET", "/metrics")
        assert status == 200
        doc = json.loads(body.decode("utf-8"))
        assert doc["counters"]["serve.jobs.accepted"] >= 1
        assert doc["counters"]["serve.jobs.completed"] >= 1

    def test_healthz(self, client):
        health = client.healthz()
        assert health["ok"] is True


class TestKillAndResume:
    """Kill the service mid-trial-set; a resumed one is byte-identical."""

    def test_abrupt_kill_then_checkpoint_resume(self, tmp_path):
        checkpoint = os.fspath(tmp_path / "serve.ckpt")
        first = ServiceThread(
            workers=2, port=0, checkpoint_path=checkpoint
        ).start()
        client = ServeClient(port=first.port)
        status = client.submit(SPEC_RESUME)
        deadline = wall_monotonic() + WAIT_S
        while True:
            current = client.status(status.job_id)
            if 0 < current.units_done < current.units_total:
                break
            assert current.state != JOB_DONE, "job finished before the kill"
            assert wall_monotonic() < deadline
            wall_sleep(0.02)
        first.stop(drain=False)  # simulated kill: no drain, no farewell

        # The write-ahead log holds the completed prefix (and only it).
        lines = [
            json.loads(line)
            for line in open(checkpoint, encoding="utf-8")
            if line.strip()
        ]
        kinds = [entry["record"]["kind"] for entry in lines]
        assert kinds[0] == "job"
        assert kinds.count("unit") >= 1
        assert "done" not in kinds

        second = ServiceThread(
            workers=2, port=0, checkpoint_path=checkpoint
        ).start()
        try:
            resumed = ServeClient(port=second.port)
            final = resumed.wait(status.job_id, timeout=WAIT_S)
            assert final.state == JOB_DONE
            assert resumed.result_bytes(status.job_id) == oracle_bytes(SPEC_RESUME)
        finally:
            second.stop(drain=True)

        # Third life: the finished job is restored terminal, result intact,
        # without re-running anything.
        third = ServiceThread(
            workers=2, port=0, checkpoint_path=checkpoint
        ).start()
        try:
            restored = ServeClient(port=third.port)
            assert restored.status(status.job_id).state == JOB_DONE
            assert restored.result_bytes(status.job_id) == oracle_bytes(SPEC_RESUME)
        finally:
            third.stop(drain=True)

    def test_graceful_drain_requeues_unfinished_job(self, tmp_path):
        checkpoint = os.fspath(tmp_path / "drain.ckpt")
        first = ServiceThread(
            workers=2, port=0, checkpoint_path=checkpoint
        ).start()
        client = ServeClient(port=first.port)
        status = client.submit(SPEC_RESUME)
        deadline = wall_monotonic() + WAIT_S
        while client.status(status.job_id).units_done < 1:
            assert wall_monotonic() < deadline
            wall_sleep(0.02)
        first.stop(drain=True)  # SIGTERM path: in-flight units finish

        second = ServiceThread(
            workers=2, port=0, checkpoint_path=checkpoint
        ).start()
        try:
            resumed = ServeClient(port=second.port)
            final = resumed.wait(status.job_id, timeout=WAIT_S)
            assert final.state == JOB_DONE
            assert resumed.result_bytes(status.job_id) == oracle_bytes(SPEC_RESUME)
        finally:
            second.stop(drain=True)
