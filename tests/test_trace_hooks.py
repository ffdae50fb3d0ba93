"""Guard for the benchmark's outside-in tracer (``e2ebench/spans.py``).

The tracer wraps program functions and methods by name, so a refactor
that renames or folds one away breaks every ``--trace 1`` benchmark run
without failing any program test.  This module installs the tracer's
hooks exactly as the benchmark does, drives a short campaign through
them, and puts the originals back.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.simulator import testbed
from repro.zwave.frame import make_nop

SPANS_PATH = Path(__file__).resolve().parents[1] / "e2ebench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("e2ebench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_installs_and_restores(spans):
    rec = spans.SpanRecorder()
    try:
        # Raises KeyError/AttributeError on a hooked name that is gone.
        spans.install(rec)
    finally:
        spans.set_installed(rec, False)
    assert rec.patches
    for owner, attr, original, _wrapper in rec.patches:
        assert owner.__dict__[attr] is original, (owner, attr)


def test_radio_and_receive_hooks_see_a_campaign(spans):
    """The hooked names are still the ones a campaign runs through."""
    rec = spans.SpanRecorder()
    try:
        spans.install(rec)
        rec.begin("pass")
        # Looked up on the module, where the tracer installs its wrapper.
        sut = testbed.build_sut("D1", seed=0)
        home_id = sut.profile.home_id
        for node_id in (sut.lock.node_id, sut.switch.node_id, 1):
            sut.dongle.inject(make_nop(home_id, 15, node_id))
            sut.clock.advance(0.5)
        sut.clock.advance(30.0)
        rec.finish()
    finally:
        spans.set_installed(rec, False)
    table = spans.SpanTable()
    table.add(spans.scope_data(rec, "pass"))
    for name in (
        "simulator.build_sut",
        "radio.transmit",
        "radio.advance",
        "radio.dongle_rx",
        "simulator.controller_rx",
        "simulator.slave_rx",
        "zwave.frame_decode",
        "zwave.frame_encode",
    ):
        assert table.n(name) > 0, name
