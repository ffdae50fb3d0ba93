"""The shared RF medium: propagation, attenuation, noise and delivery.

Devices and the attacker's dongle attach to one :class:`RadioMedium` at
physical positions.  A transmission is delivered to every attached endpoint
tuned to the same region whose received signal strength clears its
sensitivity floor; delivery is scheduled on the simulated clock after the
frame's airtime.  A log-distance path-loss model gives the 10-70 m attack
range of Figure 2 realistic behaviour: near receivers always hear the
frame, far ones suffer increasing loss until the link dies.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import RadioError
from ..zwave.constants import Region
from .clock import SimClock
from .signal import airtime_seconds, corrupt_bits, decode_phy, encode_phy

#: Path-loss model constants (log-distance, sub-GHz indoor/outdoor mix).
TX_POWER_DBM = 0.0
PATH_LOSS_AT_1M_DB = 40.0
PATH_LOSS_EXPONENT = 2.7
SENSITIVITY_DBM = -95.0
#: Above this strength the link is perfect; below, loss ramps linearly.
PERFECT_LINK_DBM = -80.0


def received_power_dbm(distance_m: float) -> float:
    """Received power at *distance_m* under the log-distance model."""
    d = max(distance_m, 0.1)
    return TX_POWER_DBM - PATH_LOSS_AT_1M_DB - 10.0 * PATH_LOSS_EXPONENT * math.log10(d)


def loss_probability(rssi_dbm: float) -> float:
    """Frame-loss probability as a function of received power."""
    if rssi_dbm >= PERFECT_LINK_DBM:
        return 0.0
    if rssi_dbm <= SENSITIVITY_DBM:
        return 1.0
    return (PERFECT_LINK_DBM - rssi_dbm) / (PERFECT_LINK_DBM - SENSITIVITY_DBM)


@dataclass(slots=True)
class Reception:
    """What an endpoint's receive callback is handed.

    ``slots=True`` because one is allocated per endpoint per transmission —
    the single hottest allocation site in a fuzzing campaign.
    """

    raw: bytes
    rssi_dbm: float
    timestamp: float
    rate_kbaud: float
    bit_errors: int = 0


#: Endpoint receive callback signature.
ReceiveCallback = Callable[[Reception], None]

@dataclass
class _Endpoint:
    """Book-keeping for one attached radio."""

    name: str
    position: Tuple[float, float]
    region: Region
    callback: ReceiveCallback
    promiscuous: bool = False
    enabled: bool = True
    sensitivity_dbm: float = SENSITIVITY_DBM


class RadioMedium:
    """A single shared sub-GHz channel."""

    def __init__(
        self,
        clock: SimClock,
        rng: Optional[random.Random] = None,
        noise_bit_rate: float = 0.0,
        bit_accurate: bool = False,
        collisions: bool = False,
    ):
        """*bit_accurate* runs the full PHY bitstream codec (preamble,
        SOF, Manchester/NRZ line coding) on every transmission; the default
        fast path delivers frame bytes directly, which is behaviourally
        identical on a clean channel and an order of magnitude faster for
        long fuzzing campaigns.  Channel noise requires the bit-accurate
        path.  With *collisions* enabled, transmissions whose airtimes
        overlap destroy each other (single shared channel, no capture
        effect); the default leaves the channel ideally arbitrated, which
        matches the CSMA behaviour of real Z-Wave radios closely enough
        for every experiment."""
        self._clock = clock
        self._rng = rng or random.Random(0)
        self._endpoints: Dict[str, _Endpoint] = {}
        self._noise_bit_rate = noise_bit_rate
        self._bit_accurate = bit_accurate or noise_bit_rate > 0.0
        self._collisions = collisions
        self._active: List[dict] = []
        self._transmissions = 0
        self._deliveries = 0
        self._losses = 0
        self._collision_count = 0
        #: Optional fault-injection hook (repro.faults.MediumFaultInjector);
        #: consulted once per transmission when set.
        self.fault_injector = None
        # Topology caches, invalidated whenever geometry changes (attach /
        # detach / move).  RSSI between two stationary endpoints is a pure
        # function of their positions, yet the log10 path-loss evaluation
        # dominated the per-transmission cost; the enabled/region checks
        # stay live so cache state can never change who hears a frame.
        self._endpoint_cache: Optional[Tuple[_Endpoint, ...]] = None
        self._rssi_cache: Dict[Tuple[str, str], Tuple[float, float]] = {}
        # Per-sender delivery plans: the sender/enabled/region/sensitivity
        # filter chain is a pure function of topology and power state, so
        # it runs once per (sender, topology) instead of once per transmit.
        # A plan is (records, out_of_range): records are the endpoints that
        # reach the rng draw — in listener order, so rng consumption is
        # unchanged — and out_of_range counts the sub-sensitivity listeners,
        # each booked as one loss on every transmission.
        # Invalidated with the topology caches and on every enabled flip
        # (the only write path is :meth:`set_enabled`).
        self._plan_cache: Dict[str, Tuple[Tuple[Tuple[_Endpoint, float, float], ...], int]] = {}

    # -- attachment -------------------------------------------------------------

    def attach(
        self,
        name: str,
        position: Tuple[float, float],
        region: Region,
        callback: ReceiveCallback,
        promiscuous: bool = False,
        sensitivity_dbm: float = SENSITIVITY_DBM,
    ) -> None:
        """Register an endpoint; *name* must be unique on this medium."""
        if name in self._endpoints:
            raise RadioError(f"endpoint {name!r} already attached")
        self._endpoints[name] = _Endpoint(
            name, position, region, callback, promiscuous, True, sensitivity_dbm
        )
        self._invalidate_topology()

    def detach(self, name: str) -> None:
        self._endpoints.pop(name, None)
        self._invalidate_topology()

    def set_enabled(self, name: str, enabled: bool) -> None:
        """Power an endpoint's receiver on or off."""
        endpoint = self._endpoints.get(name)
        if endpoint is None:
            raise RadioError(f"no endpoint named {name!r}")
        endpoint.enabled = enabled
        self._plan_cache.clear()

    def move(self, name: str, position: Tuple[float, float]) -> None:
        """Relocate an endpoint (e.g. the attacker walking closer)."""
        endpoint = self._endpoints.get(name)
        if endpoint is None:
            raise RadioError(f"no endpoint named {name!r}")
        endpoint.position = position
        self._invalidate_topology()

    def endpoints(self) -> List[str]:
        return sorted(self._endpoints)

    def _invalidate_topology(self) -> None:
        self._endpoint_cache = None
        self._rssi_cache.clear()
        self._plan_cache.clear()

    # -- statistics --------------------------------------------------------------

    @property
    def stats(self) -> Dict[str, int]:
        return {
            "transmissions": self._transmissions,
            "deliveries": self._deliveries,
            "losses": self._losses,
            "collisions": self._collision_count,
        }

    # -- transmission --------------------------------------------------------------

    def transmit(self, sender: str, frame_bytes: bytes, rate_kbaud: float) -> float:
        """Broadcast *frame_bytes* from *sender*; returns the airtime.

        Each in-range endpoint receives the demodulated bytes after the
        airtime elapses.  Marginal links (between the perfect-link and
        sensitivity thresholds) drop frames probabilistically; optional
        channel noise flips PHY bits, which the receiver's decoder then
        sees as preamble or payload corruption.
        """
        source = self._endpoints.get(sender)
        if source is None:
            raise RadioError(f"unknown transmitter {sender!r}")
        self._transmissions += 1
        airtime = airtime_seconds(frame_bytes, rate_kbaud)
        extra_delay = 0.0
        duplicate = False
        if self.fault_injector is not None:
            action = self.fault_injector.on_transmit(sender, frame_bytes)
            if action is not None:
                if action.drop:
                    self._losses += 1
                    return airtime
                if action.corrupt is not None:
                    frame_bytes = action.corrupt
                extra_delay = action.extra_delay
                duplicate = action.duplicate
        if self._collisions and self._collides(airtime):
            return airtime
        phy_bits = encode_phy(frame_bytes, rate_kbaud) if self._bit_accurate else None
        listeners = self._endpoint_cache
        if listeners is None:
            listeners = self._endpoint_cache = tuple(self._endpoints.values())
        return self._transmit_batched(
            sender, source, frame_bytes, phy_bits, airtime, rate_kbaud,
            extra_delay, duplicate, listeners, self._rssi_cache,
        )

    def _transmit_batched(
        self,
        sender: str,
        source: _Endpoint,
        frame_bytes: bytes,
        phy_bits: Optional[List[int]],
        airtime: float,
        rate_kbaud: float,
        extra_delay: float,
        duplicate: bool,
        listeners: Tuple[_Endpoint, ...],
        rssi_cache: Dict[Tuple[str, str], Tuple[float, float]],
    ) -> float:
        """Batched delivery: one clock event carries every listener record.

        Listeners are filtered and drawn for in attach order — one loss
        draw per endpoint above sensitivity, then the noise draws — and
        the batch event replays the surviving records in that same order
        at a single fire time, with one heap push per (transmission,
        offset).  Delivery order therefore equals listener order, and
        cancelling the batch id (collisions) cancels every delivery of the
        transmission at once.
        """
        plan = self._plan_cache.get(sender)
        if plan is None:
            plan = self._plan_cache[sender] = self._build_plan(
                sender, source, listeners, rssi_cache
            )
        reachable, out_of_range = plan
        self._losses += out_of_range
        rng_random = self._rng.random
        deliveries: List[tuple] = []
        for endpoint, rssi, loss_p in reachable:
            # The draw happens for every endpoint above sensitivity even on
            # a perfect link — cache state must never change rng consumption.
            if rng_random() < loss_p:
                self._losses += 1
                continue
            if phy_bits is None:
                deliveries.append((endpoint, frame_bytes, None, rssi, 0))
                continue
            delivered_bits = phy_bits
            bit_errors = 0
            if self._noise_bit_rate > 0.0:
                flips = tuple(
                    i
                    for i in range(len(phy_bits))
                    if rng_random() < self._noise_bit_rate
                )
                if flips:
                    delivered_bits = corrupt_bits(phy_bits, flips)
                    bit_errors = len(flips)
            deliveries.append((endpoint, None, delivered_bits, rssi, bit_errors))
        if deliveries:
            records = tuple(deliveries)
            # A duplicated transmission arrives a second time one airtime
            # after the original (back-to-back repeat on the channel).
            offsets = (
                (extra_delay, extra_delay + airtime) if duplicate else (extra_delay,)
            )
            for offset in offsets:
                event_id = self._clock.schedule_call(
                    airtime + offset,
                    self._deliver_batch,
                    (records, airtime, rate_kbaud, offset),
                )
                if self._collisions:
                    self._current_transmission["events"].append(event_id)
        return airtime

    def _build_plan(
        self,
        sender: str,
        source: _Endpoint,
        listeners: Tuple[_Endpoint, ...],
        rssi_cache: Dict[Tuple[str, str], Tuple[float, float]],
    ) -> Tuple[Tuple[Tuple[_Endpoint, float, float], ...], int]:
        """Run the listener filter chain once for *sender*.

        Returns the endpoints that reach the loss draw (in listener order,
        with their link rssi and loss probability) plus the count of
        listeners below their sensitivity floor, which every transmit
        books as losses.
        """
        reachable: List[Tuple[_Endpoint, float, float]] = []
        out_of_range = 0
        for endpoint in listeners:
            if endpoint.name == sender or not endpoint.enabled:
                continue
            if endpoint.region != source.region:
                continue
            link = (sender, endpoint.name)
            cached = rssi_cache.get(link)
            if cached is None:
                distance = math.dist(source.position, endpoint.position)
                rssi = received_power_dbm(distance)
                cached = rssi_cache[link] = (rssi, loss_probability(rssi))
            rssi, loss_p = cached
            if rssi < endpoint.sensitivity_dbm:
                out_of_range += 1
                continue
            reachable.append((endpoint, rssi, loss_p))
        return tuple(reachable), out_of_range

    def _deliver_batch(self, batch: tuple) -> None:
        """Fire every delivery of one transmission, in listener order.

        Runs at the batch's fire time.  The enabled check happens here —
        per record, immediately before its callback — so a callback
        earlier in the batch that powers a later listener down still
        suppresses that delivery.
        """
        records, airtime, rate_kbaud, offset = batch
        # Callbacks never advance the clock, so one timestamp (fire-time
        # ``now`` plus airtime plus offset) stamps every record of the batch.
        timestamp = self._clock.now + airtime + offset
        for endpoint, raw_bytes, phy_bits, rssi, bit_errors in records:
            if not endpoint.enabled:
                continue
            if raw_bytes is not None:
                raw = raw_bytes
            else:
                try:
                    raw = decode_phy(phy_bits, rate_kbaud)
                except RadioError:
                    continue  # Undecodable garbage — receiver never syncs.
            self._deliveries += 1
            endpoint.callback(
                Reception(
                    raw=raw,
                    rssi_dbm=rssi,
                    timestamp=timestamp,
                    rate_kbaud=rate_kbaud,
                    bit_errors=bit_errors,
                )
            )

    def _collides(self, airtime: float) -> bool:
        """Collision bookkeeping: destroy overlapping transmissions.

        A new transmission overlapping an in-flight one kills both — the
        victim's scheduled deliveries are cancelled and the newcomer is
        never delivered.  Returns ``True`` when the newcomer collided.
        """
        now = self._clock.now
        self._active = [t for t in self._active if t["end"] > now]
        record = {"end": now + airtime, "events": []}
        if self._active:
            self._collision_count += 1
            for transmission in self._active:
                for event_id in transmission["events"]:
                    self._clock.cancel(event_id)
                transmission["events"] = []
            self._active.append(record)
            return True
        self._active.append(record)
        self._current_transmission = record
        return False
