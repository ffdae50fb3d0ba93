"""Host-side controlling software attached to a controller.

Three of the paper's fifteen bugs never touch the Z-Wave chip itself: they
kill the software driving it — the Windows **Z-Wave PC Controller program**
for the USB-stick controllers D1-D5 (bugs #06 and #13) and the
**SmartThings smartphone app** for the Samsung hubs D6/D7 (bug #05).  This
module models that software as a crashable component the controller
forwards events to, with an operator-style ``restart()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional


class HostKind(Enum):
    """Which controlling program is attached."""

    PC_CONTROLLER = "Z-Wave PC Controller program"
    SMARTPHONE_APP = "SmartThings smartphone app"


class HostState(Enum):
    """Lifecycle states of the controlling program."""
    RUNNING = "running"
    CRASHED = "crashed"  # process died; needs a restart
    DENIED = "denied"  # alive but unresponsive (DoS)


@dataclass
class HostEvent:
    """One entry in the host program's event log."""

    timestamp: float
    kind: str
    detail: str = ""


class HostProgram:
    """The controlling application living on the laptop / smartphone."""

    def __init__(self, kind: HostKind, name: str = ""):
        self.kind = kind
        self.name = name or kind.value
        self._state = HostState.RUNNING
        self._crash_count = 0
        self._events: List[HostEvent] = []

    # -- state --------------------------------------------------------------

    @property
    def state(self) -> HostState:
        return self._state

    @property
    def responsive(self) -> bool:
        """Whether the homeowner can still drive devices through it."""
        return self._state is HostState.RUNNING

    @property
    def crash_count(self) -> int:
        return self._crash_count

    def events(self) -> List[HostEvent]:
        return list(self._events)

    # -- effects the vulnerable controller forwards ---------------------------

    def crash(self, timestamp: float, detail: str = "") -> None:
        """The program dies (bug #06 style)."""
        self._state = HostState.CRASHED
        self._crash_count += 1
        self._events.append(HostEvent(timestamp, "crash", detail))

    def deny_service(self, timestamp: float, detail: str = "") -> None:
        """The program wedges: alive but useless (bugs #05 / #13 style)."""
        if self._state is HostState.RUNNING:
            self._state = HostState.DENIED
        self._events.append(HostEvent(timestamp, "dos", detail))

    def notify(self, timestamp: float, detail: str) -> None:
        """An ordinary status event (device report forwarded by the hub)."""
        self._events.append(HostEvent(timestamp, "notify", detail))

    # -- operator actions ----------------------------------------------------------

    def restart(self, timestamp: Optional[float] = None) -> None:
        """The operator restarts the program (the paper's manual recovery)."""
        self._state = HostState.RUNNING
        self._events.append(HostEvent(timestamp or 0.0, "restart"))
