"""Up-port selection policies."""

from __future__ import annotations

from random import Random

import pytest

from repro.flits.destset import DestinationSet
from repro.flits.packet import Message, Packet, TrafficClass
from repro.flits.worm import Worm
from repro.routing.base import UpPortPolicy, make_up_selector


def worm(source=0, dest=5, universe=16):
    destinations = DestinationSet.single(universe, dest)
    message = Message(0, source, destinations, 4, TrafficClass.UNICAST, 0)
    return Worm.root(Packet(0, message, destinations, 1, 4))


class TestDeterministic:
    def test_stable_for_same_flow(self):
        select = make_up_selector(UpPortPolicy.DETERMINISTIC)
        w = worm(source=3, dest=9)
        picks = {select([4, 5, 6, 7], w) for _ in range(10)}
        assert len(picks) == 1

    def test_spreads_across_flows(self):
        select = make_up_selector(UpPortPolicy.DETERMINISTIC)
        picks = {
            select([4, 5, 6, 7], worm(source=s, dest=d))
            for s in range(4)
            for d in range(8, 16)
        }
        assert len(picks) > 1

    def test_pick_is_a_candidate(self):
        select = make_up_selector(UpPortPolicy.DETERMINISTIC)
        assert select([6], worm()) == 6


class TestRandom:
    def test_requires_rng(self):
        with pytest.raises(ValueError):
            make_up_selector(UpPortPolicy.RANDOM)

    def test_uses_all_candidates_eventually(self):
        select = make_up_selector(UpPortPolicy.RANDOM, rng=Random(0))
        picks = {select([4, 5, 6, 7], worm()) for _ in range(200)}
        assert picks == {4, 5, 6, 7}

    def test_deterministic_given_rng_state(self):
        a = make_up_selector(UpPortPolicy.RANDOM, rng=Random(1))
        b = make_up_selector(UpPortPolicy.RANDOM, rng=Random(1))
        w = worm()
        assert [a([4, 5, 6], w) for _ in range(20)] == [
            b([4, 5, 6], w) for _ in range(20)
        ]

    def test_a_generator_factory_runs_at_the_first_draw_and_only_then(self):
        made = []

        def factory():
            made.append(Random(1))
            return made[-1]

        lazy = make_up_selector(UpPortPolicy.RANDOM, rng=factory)
        assert made == []
        eager = make_up_selector(UpPortPolicy.RANDOM, rng=Random(1))
        w = worm()
        assert [lazy([4, 5, 6], w) for _ in range(20)] == [
            eager([4, 5, 6], w) for _ in range(20)
        ]
        assert len(made) == 1


class TestAdaptive:
    def test_requires_credit_view(self):
        with pytest.raises(ValueError):
            make_up_selector(UpPortPolicy.ADAPTIVE)

    def test_picks_most_credits(self):
        credits = {4: 1, 5: 7, 6: 3}
        select = make_up_selector(
            UpPortPolicy.ADAPTIVE, credit_view=credits.__getitem__
        )
        assert select([4, 5, 6], worm()) == 5

    def test_tie_breaks_to_lowest_port(self):
        select = make_up_selector(UpPortPolicy.ADAPTIVE, credit_view=lambda p: 2)
        assert select([6, 4, 5], worm()) == 4
