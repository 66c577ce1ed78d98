"""WormLifecycleTracer: digesting the event stream into phase records."""

from __future__ import annotations

from repro.obs.profile import PacketLife, WormLifecycleTracer
from repro.sim.trace import Tracer


def _unicast_journey(tracer, packet=7):
    """One worm: created at 5, injected at 9, two hops, delivered at 40."""
    tracer.emit(9, "ni.0", "inject_start", packet=packet, flits=4, created=5)
    tracer.emit(12, "sw.0", "route", packet=packet, waited=0, branches=1)
    tracer.emit(20, "sw.1", "queue_cb", packet=packet, waited=6, branches=1)
    tracer.emit(40, "ni.3", "packet_delivered", packet=packet)


class TestDigestion:
    def test_unicast_phases_tile_the_end_to_end_latency(self):
        tracer = WormLifecycleTracer()
        _unicast_journey(tracer)
        life = tracer.packets[7]
        assert life.complete
        phases = life.phases()
        assert phases == {
            "setup": 4,       # 9 - 5
            "blocked": 6,     # the queue_cb wait
            "transfer": 25,   # 40 - 9 - 6
            "total": 35,      # 40 - 5
        }
        assert phases["setup"] + phases["blocked"] + phases["transfer"] == (
            phases["total"]
        )
        assert len(life.hops) == 2
        assert life.flits == 4

    def test_multicast_closes_at_last_delivery(self):
        tracer = WormLifecycleTracer()
        tracer.emit(0, "ni.0", "inject_start", packet=1, flits=8, created=0)
        tracer.emit(
            3, "sw.0", "admit_multidest", packet=1, waited=0, branches=3
        )
        tracer.emit(10, "ni.1", "packet_delivered", packet=1)
        tracer.emit(25, "ni.2", "packet_delivered", packet=1)
        tracer.emit(18, "ni.3", "packet_delivered", packet=1)
        life = tracer.packets[1]
        assert life.delivered == 25
        assert life.deliveries == 3
        assert life.branches == 2  # 3 branches = 2 extra copies

    def test_overblocked_multidest_transfer_clamps_at_zero(self):
        tracer = WormLifecycleTracer()
        tracer.emit(0, "ni.0", "inject_start", packet=2, flits=2, created=0)
        # blocked summed over replicated branches can exceed the wall
        # interval of the single tail delivery
        tracer.emit(1, "sw.0", "route", packet=2, waited=9, branches=1)
        tracer.emit(2, "sw.1", "route", packet=2, waited=9, branches=1)
        tracer.emit(10, "ni.1", "packet_delivered", packet=2)
        phases = tracer.packets[2].phases()
        assert phases["blocked"] == 18
        assert phases["transfer"] == 0

    def test_negative_waits_are_clamped(self):
        tracer = WormLifecycleTracer()
        tracer.emit(0, "ni.0", "inject_start", packet=3, flits=1, created=0)
        tracer.emit(2, "sw.0", "bypass", packet=3, waited=-4, branches=1)
        assert tracer.packets[3].blocked == 0
        assert tracer.packets[3].hops[0]["waited"] == 0

    def test_events_without_packet_id_are_counted_not_digested(self):
        tracer = WormLifecycleTracer()
        tracer.emit(0, "sw.0", "chunk_freed", chunks=3)
        tracer.emit(1, "sw.0", "credit_return")
        assert tracer.packets == {}
        assert tracer.ignored_events == 2

    def test_incomplete_worm_has_no_phases(self):
        tracer = WormLifecycleTracer()
        tracer.emit(0, "ni.0", "inject_start", packet=4, flits=2, created=0)
        life = tracer.packets[4]
        assert not life.complete
        snap = life.snapshot()
        assert "setup" not in snap
        assert snap["packet"] == 4


class TestFinaliseAndSummary:
    def test_finalise_returns_completed_sorted_by_id(self):
        tracer = WormLifecycleTracer()
        _unicast_journey(tracer, packet=9)
        _unicast_journey(tracer, packet=2)
        tracer.emit(50, "ni.0", "inject_start", packet=5, flits=1, created=50)
        done = tracer.finalise()
        assert [life.packet_id for life in done] == [2, 9]
        summary = tracer.phase_summary()
        assert summary["packets"] == 3
        assert summary["incomplete"] == 1
        assert summary["setup"] == {"count": 2, "mean": 4.0}
        assert summary["blocked"] == {"count": 2, "mean": 6.0}
        assert summary["transfer"] == {"count": 2, "mean": 25.0}
        assert summary["setup_hist"]["count"] == 2

    def test_snapshot_includes_phases_when_complete(self):
        tracer = WormLifecycleTracer()
        _unicast_journey(tracer)
        snap = tracer.packets[7].snapshot()
        assert snap["total"] == 35
        assert snap["hop_count"] == 2
        assert snap["deliveries"] == 1


class TestChaining:
    def test_inner_tracer_receives_every_event_verbatim(self):
        inner = Tracer()
        tracer = WormLifecycleTracer(inner=inner)
        _unicast_journey(tracer)
        tracer.emit(1, "sw.0", "credit_return")
        assert len(inner.records) == 5
        assert inner.records[0].event == "inject_start"

    def test_default_retains_nothing(self):
        tracer = WormLifecycleTracer()
        _unicast_journey(tracer)
        assert len(tracer.records) == 0


class TestPacketLife:
    def test_fresh_life_is_incomplete(self):
        life = PacketLife(0)
        assert not life.complete
        assert life.snapshot()["hop_count"] == 0
