"""Tests for the RF medium and the virtual transceiver."""

import random

import pytest

from repro.errors import RadioError, TransceiverError
from repro.radio.clock import SimClock
from repro.radio.medium import (
    PERFECT_LINK_DBM,
    RadioMedium,
    SENSITIVITY_DBM,
    loss_probability,
    received_power_dbm,
)
from repro.radio.transceiver import Transceiver
from repro.zwave.constants import Region
from repro.zwave.frame import ZWaveFrame, make_nop

HOME = 0xCB95A34A


def frame(payload=b"\x20\x02"):
    return ZWaveFrame(home_id=HOME, src=2, dst=1, payload=payload)


class TestPropagationModel:
    def test_power_decreases_with_distance(self):
        assert received_power_dbm(1.0) > received_power_dbm(10.0) > received_power_dbm(70.0)

    def test_loss_zero_on_strong_links(self):
        assert loss_probability(PERFECT_LINK_DBM) == 0.0
        assert loss_probability(-40.0) == 0.0

    def test_loss_total_below_sensitivity(self):
        assert loss_probability(SENSITIVITY_DBM) == 1.0
        assert loss_probability(-120.0) == 1.0

    def test_loss_monotonic_in_between(self):
        mid = (PERFECT_LINK_DBM + SENSITIVITY_DBM) / 2
        assert 0.0 < loss_probability(mid) < 1.0

    def test_attack_range_70m_is_marginal_but_alive(self):
        # The paper's attacker operates from 10-70 metres.
        rssi = received_power_dbm(70.0)
        assert SENSITIVITY_DBM < rssi
        assert loss_probability(rssi) < 1.0


class TestMedium:
    def setup_method(self):
        self.clock = SimClock()
        self.medium = RadioMedium(self.clock, random.Random(3))
        self.received = []

    def attach(self, name="rx", position=(5.0, 0.0), region=Region.US):
        self.medium.attach(name, position, region, self.received.append)

    def test_delivery_after_airtime(self):
        self.attach()
        self.medium.attach("tx", (0.0, 0.0), Region.US, lambda r: None)
        airtime = self.medium.transmit("tx", frame().encode(), 100.0)
        assert self.received == []
        self.clock.advance(airtime + 0.001)
        assert len(self.received) == 1
        assert self.received[0].raw == frame().encode()

    def test_sender_does_not_hear_itself(self):
        self.attach("only")
        self.medium.attach("tx", (0.0, 0.0), Region.US, self.received.append)
        self.medium.transmit("tx", frame().encode(), 100.0)
        self.clock.advance(1.0)
        assert len(self.received) == 1  # only the other endpoint

    def test_region_mismatch_blocks_delivery(self):
        self.attach(region=Region.EU)
        self.medium.attach("tx", (0.0, 0.0), Region.US, lambda r: None)
        self.medium.transmit("tx", frame().encode(), 100.0)
        self.clock.advance(1.0)
        assert self.received == []

    def test_out_of_range_blocks_delivery(self):
        self.attach(position=(100000.0, 0.0))
        self.medium.attach("tx", (0.0, 0.0), Region.US, lambda r: None)
        self.medium.transmit("tx", frame().encode(), 100.0)
        self.clock.advance(1.0)
        assert self.received == []
        assert self.medium.stats["losses"] == 1

    def test_disabled_endpoint_misses_frames(self):
        self.attach()
        self.medium.attach("tx", (0.0, 0.0), Region.US, lambda r: None)
        self.medium.set_enabled("rx", False)
        self.medium.transmit("tx", frame().encode(), 100.0)
        self.clock.advance(1.0)
        assert self.received == []

    def test_move_changes_link(self):
        self.attach(position=(100000.0, 0.0))
        self.medium.attach("tx", (0.0, 0.0), Region.US, lambda r: None)
        self.medium.move("rx", (5.0, 0.0))
        self.medium.transmit("tx", frame().encode(), 100.0)
        self.clock.advance(1.0)
        assert len(self.received) == 1

    def test_duplicate_attach_rejected(self):
        self.attach()
        with pytest.raises(RadioError):
            self.attach()

    def test_unknown_transmitter_rejected(self):
        with pytest.raises(RadioError):
            self.medium.transmit("ghost", b"\x00" * 12, 100.0)

    def test_unknown_endpoint_controls_rejected(self):
        with pytest.raises(RadioError):
            self.medium.set_enabled("ghost", True)
        with pytest.raises(RadioError):
            self.medium.move("ghost", (0, 0))

    def test_detach(self):
        self.attach()
        self.medium.detach("rx")
        assert "rx" not in self.medium.endpoints()

    def test_stats_accumulate(self):
        self.attach()
        self.medium.attach("tx", (0.0, 0.0), Region.US, lambda r: None)
        self.medium.transmit("tx", frame().encode(), 100.0)
        self.clock.advance(1.0)
        stats = self.medium.stats
        assert stats["transmissions"] == 1
        assert stats["deliveries"] == 1

    def test_bit_accurate_mode_roundtrips(self):
        clock = SimClock()
        medium = RadioMedium(clock, random.Random(4), bit_accurate=True)
        received = []
        medium.attach("rx", (3.0, 0.0), Region.US, received.append)
        medium.attach("tx", (0.0, 0.0), Region.US, lambda r: None)
        medium.transmit("tx", frame().encode(), 100.0)
        clock.advance(1.0)
        assert received and received[0].raw == frame().encode()

    def test_collisions_destroy_overlapping_transmissions(self):
        clock = SimClock()
        medium = RadioMedium(clock, random.Random(8), collisions=True)
        received = []
        medium.attach("rx", (3.0, 0.0), Region.US, received.append)
        medium.attach("a", (0.0, 0.0), Region.US, lambda r: None)
        medium.attach("b", (1.0, 0.0), Region.US, lambda r: None)
        medium.transmit("a", frame().encode(), 100.0)
        medium.transmit("b", frame().encode(), 100.0)  # same instant: collide
        clock.advance(1.0)
        assert received == []
        assert medium.stats["collisions"] == 1

    def test_collisions_spare_sequential_transmissions(self):
        clock = SimClock()
        medium = RadioMedium(clock, random.Random(8), collisions=True)
        received = []
        medium.attach("rx", (3.0, 0.0), Region.US, received.append)
        medium.attach("a", (0.0, 0.0), Region.US, lambda r: None)
        airtime = medium.transmit("a", frame().encode(), 100.0)
        clock.advance(airtime + 0.001)
        medium.transmit("a", frame().encode(), 100.0)
        clock.advance(1.0)
        assert len(received) == 2
        assert medium.stats["collisions"] == 0

    def test_collisions_off_by_default(self):
        clock = SimClock()
        medium = RadioMedium(clock, random.Random(8))
        received = []
        medium.attach("rx", (3.0, 0.0), Region.US, received.append)
        medium.attach("a", (0.0, 0.0), Region.US, lambda r: None)
        medium.attach("b", (1.0, 0.0), Region.US, lambda r: None)
        medium.transmit("a", frame().encode(), 100.0)
        medium.transmit("b", frame().encode(), 100.0)
        clock.advance(1.0)
        assert len(received) == 2

    def test_noisy_channel_flips_bits(self):
        clock = SimClock()
        medium = RadioMedium(clock, random.Random(5), noise_bit_rate=0.02)
        received = []
        medium.attach("rx", (3.0, 0.0), Region.US, received.append)
        medium.attach("tx", (0.0, 0.0), Region.US, lambda r: None)
        for _ in range(20):
            medium.transmit("tx", frame().encode(), 100.0)
        clock.advance(5.0)
        assert any(r.bit_errors > 0 for r in received) or len(received) < 20


class TestAddressedEndpoint:
    """An endpoint attached with ``address`` hears only frames sent to it."""

    NODE = 5

    def setup_method(self):
        self.clock = SimClock()
        self.medium = RadioMedium(self.clock, random.Random(3))
        self.received = []
        self.medium.attach(
            "slave", (5.0, 0.0), Region.US, self.received.append, address=(HOME, self.NODE)
        )
        self.medium.attach("tx", (0.0, 0.0), Region.US, lambda r: None)

    def send(self, raw):
        self.medium.transmit("tx", raw, 100.0)
        self.clock.advance(1.0)
        return [r.raw for r in self.received]

    def test_hears_frames_to_its_node(self):
        raw = ZWaveFrame(home_id=HOME, src=1, dst=self.NODE, payload=b"\x20\x02").encode()
        assert self.send(raw) == [raw]
        assert self.medium.stats["deliveries"] == 1

    def test_hears_broadcasts(self):
        raw = ZWaveFrame(home_id=HOME, src=1, dst=0xFF, payload=b"\x20\x02").encode()
        assert self.send(raw) == [raw]

    @pytest.mark.parametrize(
        "raw",
        [
            ZWaveFrame(home_id=HOME, src=1, dst=6, payload=b"\x20\x02").encode(),
            ZWaveFrame(home_id=HOME ^ 1, src=1, dst=5, payload=b"\x20\x02").encode(),
            ZWaveFrame(home_id=HOME ^ 1, src=1, dst=0xFF, payload=b"\x20\x02").encode(),
            ZWaveFrame(home_id=HOME, src=1, dst=5, payload=b"").encode()[:9],
            b"\x01\x02\x03",
        ],
        ids=["other-node", "other-home", "other-home-broadcast", "header-only", "garbage"],
    )
    def test_never_hears_frames_not_addressed_to_it(self, raw):
        assert self.send(raw) == []
        assert self.medium.stats["deliveries"] == 0
        assert self.medium.stats["losses"] == 0

    def test_disabled_addressed_endpoint_gets_nothing(self):
        self.medium.set_enabled("slave", False)
        raw = ZWaveFrame(home_id=HOME, src=1, dst=self.NODE, payload=b"\x20\x02").encode()
        assert self.send(raw) == []

    def test_address_leaves_rng_and_losses_unchanged_on_a_lossy_link(self):
        """The filter runs after the endpoint's loss draw."""
        # 75 m sits between the perfect-link and sensitivity thresholds.
        assert 0.0 < loss_probability(received_power_dbm(75.0)) < 1.0
        frames = [
            ZWaveFrame(home_id=HOME, src=1, dst=dst, payload=b"\x20\x02").encode()
            for dst in (5, 6, 0xFF, 7)
        ] + [b"\x01\x02"]

        def run(address):
            rng = random.Random(11)
            clock = SimClock()
            medium = RadioMedium(clock, rng)
            medium.attach("slave", (75.0, 0.0), Region.US, lambda r: None, address=address)
            medium.attach("tx", (0.0, 0.0), Region.US, lambda r: None)
            for i in range(200):
                medium.transmit("tx", frames[i % len(frames)], 100.0)
                clock.advance(0.05)
            return rng.getstate(), medium.stats

        state_open, stats_open = run(None)
        state_addressed, stats_addressed = run((HOME, 5))
        assert state_addressed == state_open
        assert stats_addressed["losses"] == stats_open["losses"] > 0
        assert stats_addressed["deliveries"] < stats_open["deliveries"]


class TestTransceiver:
    def setup_method(self):
        self.clock = SimClock()
        self.medium = RadioMedium(self.clock, random.Random(6))
        self.dongle = Transceiver(self.medium, self.clock, position=(10.0, 0.0))

    def test_unconfigured_inject_rejected(self):
        with pytest.raises(TransceiverError):
            self.dongle.inject(make_nop(HOME, 15, 1))

    def test_invalid_rate_rejected(self):
        with pytest.raises(TransceiverError):
            self.dongle.configure(Region.US, 12.3)

    def test_invalid_region_rejected(self):
        with pytest.raises(TransceiverError):
            self.dongle.configure("US", 100.0)

    def test_configure_then_inject(self):
        self.dongle.configure(Region.US, 100.0)
        received = []
        self.medium.attach("ctrl", (0.0, 0.0), Region.US, received.append)
        self.dongle.inject_and_wait(make_nop(HOME, 15, 1))
        assert len(received) == 1
        assert self.dongle.frames_injected == 1

    def test_inject_raw_malformed(self):
        self.dongle.configure(Region.US, 100.0)
        received = []
        self.medium.attach("ctrl", (0.0, 0.0), Region.US, received.append)
        self.dongle.inject_raw(b"\xde\xad\xbe\xef\x00\x41\x00\xff\x01\x20\x02\x00")
        self.clock.advance(0.1)
        assert len(received) == 1  # the medium carries garbage too

    def test_promiscuous_capture(self):
        self.dongle.configure(Region.US, 100.0)
        self.medium.attach("ctrl", (0.0, 0.0), Region.US, lambda r: None)
        self.medium.transmit("ctrl", frame().encode(), 100.0)
        self.clock.advance(0.1)
        captures = self.dongle.captures()
        assert len(captures) == 1
        assert captures[0].frame is not None
        assert captures[0].frame.home_id == HOME

    def test_undecodable_capture_kept_raw(self):
        self.dongle.configure(Region.US, 100.0)
        self.medium.attach("ctrl", (0.0, 0.0), Region.US, lambda r: None)
        self.medium.transmit("ctrl", b"\x01\x02\x03", 100.0)
        self.clock.advance(0.1)
        captures = self.dongle.captures()
        assert len(captures) == 1
        assert captures[0].frame is None

    def test_drain_clears_buffer(self):
        self.dongle.configure(Region.US, 100.0)
        self.medium.attach("ctrl", (0.0, 0.0), Region.US, lambda r: None)
        self.medium.transmit("ctrl", frame().encode(), 100.0)
        self.clock.advance(0.1)
        assert len(self.dongle.drain_captures()) == 1
        assert self.dongle.captures() == []

    def test_move_to(self):
        self.dongle.configure(Region.US, 100.0)
        self.dongle.move_to((70.0, 0.0))
        assert self.dongle.position == (70.0, 0.0)
