"""SwitchRoutingTable: decode semantics for both routing modes."""

from __future__ import annotations

from functools import lru_cache
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RoutingError
from repro.flits.destset import DestinationSet
from repro.flits.packet import Message, Packet, TrafficClass
from repro.flits.worm import Worm
from repro.routing.base import (
    MulticastRoutingMode,
    UpPortPolicy,
    make_up_selector,
    validate_partition,
)
from repro.routing.reachability import tables_for_bmin
from repro.routing.table import SwitchRoutingTable
from repro.topology.bmin import BidirectionalMin

N = 16
FIRST_UP = make_up_selector(UpPortPolicy.DETERMINISTIC)


def worm_for(source: int, ids, descending=False) -> Worm:
    destinations = DestinationSet.from_ids(N, ids)
    message = Message(0, source, destinations, 4, TrafficClass.MULTICAST, 0)
    packet = Packet(0, message, destinations, 1, 4)
    root = Worm.root(packet)
    if descending:
        return root.branch(destinations, descending=True)
    return root


def leaf_table() -> SwitchRoutingTable:
    """Leaf switch serving hosts 0-3, with up ports 4 and 5."""
    return SwitchRoutingTable(
        switch_id=0,
        num_hosts=N,
        down_reach={port: 1 << port for port in range(4)},
        up_ports=[4, 5],
        host_ports={port: port for port in range(4)},
    )


def mid_table() -> SwitchRoutingTable:
    """Middle switch: subtrees {0-3} and {4-7} below, ups 4 and 5."""
    return SwitchRoutingTable(
        switch_id=1,
        num_hosts=N,
        down_reach={0: 0x0F, 1: 0xF0},
        up_ports=[4, 5],
    )


class TestConstruction:
    def test_overlapping_reach_rejected(self):
        with pytest.raises(RoutingError):
            SwitchRoutingTable(0, N, {0: 0b11, 1: 0b10}, [])

    def test_empty_reach_rejected(self):
        with pytest.raises(RoutingError):
            SwitchRoutingTable(0, N, {0: 0}, [])

    def test_host_port_reach_must_match(self):
        with pytest.raises(RoutingError):
            SwitchRoutingTable(0, N, {0: 0b11}, [], host_ports={0: 0})

    def test_subtree_mask_is_union(self):
        assert mid_table().subtree_mask == 0xFF


class TestDescendingWorms:
    def test_splits_across_down_ports(self):
        requests = mid_table().compute_requests(
            worm_for(8, [1, 2, 5], descending=True),
            MulticastRoutingMode.TURNAROUND,
            FIRST_UP,
            self_check=True,
        )
        by_port = {r.port: r for r in requests}
        assert set(by_port) == {0, 1}
        assert set(by_port[0].destinations) == {1, 2}
        assert set(by_port[1].destinations) == {5}
        assert all(r.descending for r in requests)

    def test_outside_subtree_raises(self):
        with pytest.raises(RoutingError):
            mid_table().compute_requests(
                worm_for(8, [1, 9], descending=True),
                MulticastRoutingMode.TURNAROUND,
                FIRST_UP,
            )

    def test_delivery_at_leaf(self):
        requests = leaf_table().compute_requests(
            worm_for(8, [0, 3], descending=True),
            MulticastRoutingMode.TURNAROUND,
            FIRST_UP,
        )
        assert {r.port for r in requests} == {0, 3}
        for r in requests:
            assert r.destinations.is_singleton()


class TestAscendingTurnaround:
    def test_all_inside_turns_down(self):
        requests = mid_table().compute_requests(
            worm_for(0, [1, 6]),
            MulticastRoutingMode.TURNAROUND,
            FIRST_UP,
            self_check=True,
        )
        assert {r.port for r in requests} == {0, 1}
        assert all(r.descending for r in requests)

    def test_any_outside_goes_up_whole(self):
        worm = worm_for(0, [1, 6, 12])
        requests = mid_table().compute_requests(
            worm, MulticastRoutingMode.TURNAROUND, FIRST_UP, self_check=True
        )
        (request,) = requests
        assert request.port in (4, 5)
        assert request.destinations == worm.destinations
        assert not request.descending

    def test_no_up_port_raises(self):
        table = SwitchRoutingTable(0, N, {0: 0x0F, 1: 0xF0}, [])
        with pytest.raises(RoutingError):
            table.compute_requests(
                worm_for(0, [12]), MulticastRoutingMode.TURNAROUND, FIRST_UP
            )


class TestAscendingBranchOnUp:
    def test_splits_between_up_and_down(self):
        worm = worm_for(0, [1, 6, 12])
        requests = mid_table().compute_requests(
            worm, MulticastRoutingMode.BRANCH_ON_UP, FIRST_UP, self_check=True
        )
        ups = [r for r in requests if not r.descending]
        downs = [r for r in requests if r.descending]
        assert len(ups) == 1
        assert set(ups[0].destinations) == {12}
        assert {d.port for d in downs} == {0, 1}

    def test_pure_outside_only_up(self):
        worm = worm_for(0, [12, 13])
        requests = mid_table().compute_requests(
            worm, MulticastRoutingMode.BRANCH_ON_UP, FIRST_UP
        )
        (request,) = requests
        assert set(request.destinations) == {12, 13}


class TestValidatePartition:
    def test_accepts_partition(self):
        worm = worm_for(8, [1, 5], descending=True)
        requests = mid_table().compute_requests(
            worm, MulticastRoutingMode.TURNAROUND, FIRST_UP
        )
        validate_partition(worm.destinations, requests)

    def test_rejects_uncovered(self):
        worm = worm_for(8, [1, 5], descending=True)
        requests = mid_table().compute_requests(
            worm, MulticastRoutingMode.TURNAROUND, FIRST_UP
        )
        with pytest.raises(ValueError):
            validate_partition(
                worm.destinations | DestinationSet.single(N, 9), requests
            )


class TestHelpers:
    def test_host_port_queries(self):
        table = leaf_table()
        assert table.is_host_port(2)
        assert table.delivers_to(2) == 2
        assert not table.is_host_port(4)
        assert table.delivers_to(4) is None

    def test_down_ports_sorted(self):
        assert mid_table().down_ports() == [0, 1]


# -- the one-host mask decode ------------------------------------------------


@lru_cache(maxsize=None)
def bmin_tables(num_hosts: int):
    """The routing tables of the ``num_hosts``-host BMIN, by switch id."""
    return tables_for_bmin(BidirectionalMin.for_hosts(num_hosts))


@lru_cache(maxsize=None)
def unicast_worm(num_hosts: int, host: int, descending: bool) -> Worm:
    destinations = DestinationSet.single(num_hosts, host)
    source = (host + 1) % num_hosts
    message = Message(0, source, destinations, 4, TrafficClass.UNICAST, 0)
    root = Worm.root(Packet(0, message, destinations, 1, 4))
    return root.branch(destinations, descending) if descending else root


def twin_selectors(policy: UpPortPolicy, seed: int, credits):
    """Two selectors of ``policy`` that choose alike while asked alike,
    and their RANDOM streams (``None`` for the other policies)."""
    streams = (Random(seed), Random(seed))
    selectors = tuple(
        make_up_selector(
            policy, rng=stream,
            credit_view=lambda port: credits[port % len(credits)],
        )
        for stream in streams
    )
    return selectors, streams if policy is UpPortPolicy.RANDOM else None


def decoded(decode, *args):
    """What a decode returns, or the routing error it raises."""
    try:
        return decode(*args)
    except RoutingError as error:
        return f"RoutingError: {error}"


class TestOneHostMaskDecode:
    """A one-host header decoded on its mask alone is the general decode:
    the same ``(port, destinations, descending)`` — the worm's own set —
    the same draws from the up-port stream and the same routing error
    (a descending worm outside its subtree, the up-port a top switch
    lacks, which the general decode raises)."""

    @settings(max_examples=300, deadline=None)
    @given(
        num_hosts=st.sampled_from((64, 256)),
        data=st.data(),
        descending=st.booleans(),
        mode=st.sampled_from(MulticastRoutingMode),
        policy=st.sampled_from(UpPortPolicy),
        seed=st.integers(0, 2**32 - 1),
        credits=st.lists(st.integers(0, 8), min_size=1, max_size=8),
    )
    def test_the_mask_decode_is_the_general_decode(
        self, num_hosts, data, descending, mode, policy, seed, credits
    ):
        tables = bmin_tables(num_hosts)
        table = data.draw(st.sampled_from(tables), label="table")
        host = data.draw(st.integers(0, num_hosts - 1), label="host")
        worm = unicast_worm(num_hosts, host, descending)
        (fast, general), streams = twin_selectors(policy, seed, credits)
        # twice in a row: a draw too many or too few shows in the second
        for _ in range(2):
            by_mask = decoded(table.compute_requests, worm, mode, fast)
            assert by_mask == decoded(
                table._decode, worm, mode, general, False
            )
            if not isinstance(by_mask, str):
                assert by_mask[0].destinations is worm.destinations
        if streams is not None:
            assert streams[0].getstate() == streams[1].getstate()

    @pytest.mark.parametrize("policy", UpPortPolicy)
    @pytest.mark.parametrize("mode", MulticastRoutingMode)
    def test_every_host_at_every_switch_of_the_64_host_bmin(self, mode, policy):
        (fast, general), streams = twin_selectors(policy, 1, [3, 0, 5, 1])
        for table in bmin_tables(64):
            for host in range(64):
                for descending in (False, True):
                    worm = unicast_worm(64, host, descending)
                    assert decoded(
                        table.compute_requests, worm, mode, fast
                    ) == decoded(table._decode, worm, mode, general, False)
        if streams is not None:
            assert streams[0].getstate() == streams[1].getstate()

    def test_self_check_takes_the_general_decode(self):
        worm = worm_for(0, [12])
        calls = []

        def selector(candidates, worm):
            calls.append(candidates)
            return candidates[0]

        table = mid_table()
        table._decode = lambda *args: calls.append("general") or []
        table.compute_requests(
            worm, MulticastRoutingMode.TURNAROUND, selector, self_check=True
        )
        assert calls == ["general"]
