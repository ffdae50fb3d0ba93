"""Host-speed probe: a fixed pure-Python workload timed between operations.

The shared machine the benchmark runs on changes speed by tens of
percent within a minute (same-input repeat timings of one campaign
measured 0.13 s to 0.22 s inside 100 s), far more than any bound a
benchmark can set.  The probe below runs the same fixed work every time —
table lookups, list and bytes building, dict and attribute access, a
CRC and a JSON dump, the interpreter operations the campaign and service
code is made of — and none of the program's code, so a change to the
program never changes it.  Timed just before an operation, it tells how
fast the host is at that moment.

Every timing the benchmark reports is the operation's wall time scaled
to the nominal host speed: ``wall * NOMINAL_S / probe``, the seconds the
operation would have taken on the host when its probe reads
:data:`NOMINAL_S`.  The raw wall times are printed beside them.
"""

from __future__ import annotations

import json
import multiprocessing
import time
import zlib

#: The probe's time on an idle 2-core x86-64 VM (the host the bounds in
#: BENCHMARK.json were set on).  Only a scale: metrics are proportional
#: to wall time at any fixed host speed.
NOMINAL_S = 0.020
#: Probes are refreshed before an operation once this many seconds old.
MAX_AGE_S = 0.4
#: Longest wait for worker processes to exit before a probe.
WORKER_EXIT_TIMEOUT_S = 60.0
#: Probes per refresh (each ~20 ms): one reading is noisy on a host that
#: flips speed several times a second.
PROBES_PER_SAMPLE = 2

_SBOX = tuple((i * 7 + 99) % 256 for i in range(256))
_X2 = tuple(((i << 1) ^ (0x1B if i & 0x80 else 0)) & 0xFF for i in range(256))


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: bytes):
        self.key = key
        self.value = value


def _work() -> int:
    state = list(range(16))
    blocks = []
    for _ in range(8000):
        state = [_SBOX[b] for b in state]
        state = state[1:] + state[:1]
        for c in range(0, 16, 4):
            a0, a1, a2, a3 = state[c : c + 4]
            state[c] = _X2[a0] ^ a1 ^ a2 ^ a3
        blocks.append(bytes(state))
    table = {}
    for index, block in enumerate(blocks):
        table[block[:4]] = _Node(index, block)
    total = 0
    for node in table.values():
        total ^= node.key ^ zlib.crc32(node.value)
    return total + len(json.dumps({"k": [len(b) for b in blocks[:400]], "t": total}))


def wait_for_workers() -> None:
    """Wait until every worker process this process started has exited.

    ``run_trials`` shuts its pool down without waiting, so its workers
    may still be finalising when the call returns; a probe taken then
    would share the CPUs with them, and a program change that makes
    their teardown heavier would slow the probe and hide itself.
    """
    deadline = time.monotonic() + WORKER_EXIT_TIMEOUT_S
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("worker processes still running before a host probe")
        time.sleep(0.001)


def probe() -> float:
    """Seconds the fixed work takes now."""
    started = time.perf_counter()
    _work()
    return time.perf_counter() - started


class HostSpeed:
    """Probes taken between operations, and the run's scale factor.

    ``sample()`` before an operation probes the host when the last probe
    is older than :data:`MAX_AGE_S`, once this process's worker
    processes have exited.  The host flips between speeds in
    well under a second, so one probe is a noisy reading; the run's
    factor uses the mean probe time, which tracks the mean host speed.
    """

    def __init__(self) -> None:
        self.samples = []
        self._taken_at = float("-inf")

    def sample(self) -> None:
        if time.perf_counter() - self._taken_at > MAX_AGE_S:
            wait_for_workers()
            self.samples.extend(probe() for _ in range(PROBES_PER_SAMPLE))
            self._taken_at = time.perf_counter()

    def factor(self) -> float:
        """Nominal over mean probe time: multiply a duration by this."""
        return NOMINAL_S * len(self.samples) / sum(self.samples)
