"""Gather, all-gather and scatter protocols."""

from __future__ import annotations

import pytest

from repro.collectives.scatter import ScatterEngine, ScatterStrategy
from repro.core.schemes import MulticastScheme
from repro.errors import ConfigurationError, ProtocolError
from tests.collectives.test_barrier import rig, run_collective


def run_gather(network, engine, operation, hosts):
    return run_collective(network, engine, operation, {h: 0 for h in hosts})


class TestGather:
    def test_pure_gather_ends_at_root(self):
        network, engine = rig()
        operation = engine.gather(list(range(16)), block_flits=8)
        run_gather(network, engine, operation, range(16))
        assert operation.gathered_cycle == operation.completed_cycle == 308
        # the root holds every block
        assert operation.result == operation.held[operation.root] == 16

    def test_block_conservation_along_tree(self):
        network, engine = rig()
        operation = engine.gather(list(range(16)), block_flits=4)
        # every parent contributes after its children have sent up
        cycles = {h: 100 * (16 - h) for h in range(16)}
        run_collective(network, engine, operation, cycles)
        # each internal node held exactly its subtree's blocks
        for host in operation.participants:
            assert operation.held[host] == len(operation.subtree(host))

    def test_subset_participants(self):
        network, engine = rig()
        participants = [3, 6, 9, 12]
        operation = engine.gather(participants, block_flits=8)
        run_gather(network, engine, operation, participants)
        assert operation.held[3] == 4

    def test_allgather_hardware_beats_software(self):
        def latency(scheme):
            network, engine = rig()
            operation = engine.gather(
                list(range(16)), block_flits=8, release=scheme
            )
            run_gather(network, engine, operation, range(16))
            assert operation.gathered_cycle == 308  # pinned, as below
            return operation.last_latency

        # pinned: 8-flit blocks, 16 hosts, every host contributing at cycle 0
        assert latency(MulticastScheme.HARDWARE) == 490
        assert latency(MulticastScheme.SOFTWARE) == 1128

    def test_allgather_reaches_everyone(self):
        network, engine = rig()
        operation = engine.gather(
            list(range(16)), block_flits=8,
            release=MulticastScheme.HARDWARE,
        )
        run_gather(network, engine, operation, range(16))
        assert set(operation.release_cycles) == set(range(16))

    def test_bigger_blocks_cost_more(self):
        def latency(block):
            network, engine = rig(seed=6)
            operation = engine.gather(list(range(16)), block_flits=block)
            run_gather(network, engine, operation, range(16))
            return operation.last_latency

        assert latency(32) > latency(4)

    def test_errors(self):
        network, engine = rig()
        with pytest.raises(ConfigurationError):
            engine.gather([5])
        operation = engine.gather([1, 2, 3])
        with pytest.raises(ProtocolError):
            engine.contribute(operation, 9)
        engine.contribute(operation, 1)
        with pytest.raises(ProtocolError):
            engine.contribute(operation, 1)


class TestScatter:
    def run_scatter(self, network, engine, operation):
        network.sim.schedule_at(0, lambda: engine.start(operation))
        network.sim.run_until(
            lambda: operation.complete, max_cycles=300_000,
            stall_limit=30_000,
        )
        return operation

    @pytest.mark.parametrize("strategy", list(ScatterStrategy))
    def test_every_host_gets_its_block(self, strategy):
        network, _ = rig()
        engine = ScatterEngine(network.nodes)
        operation = engine.create(
            0, list(range(16)), block_flits=8, strategy=strategy
        )
        self.run_scatter(network, engine, operation)
        assert set(operation.block_cycles) == set(range(16))

    def test_tree_beats_direct_for_many_blocks(self):
        """Delegation halves the root's serialized start-ups; with enough
        participants the tree wins despite moving more total bytes."""
        def latency(strategy):
            network, _ = rig(seed=7, num_hosts=64)
            engine = ScatterEngine(network.nodes)
            operation = engine.create(
                0, list(range(64)), block_flits=4, strategy=strategy
            )
            return self.run_scatter(network, engine, operation).last_latency

        assert latency(ScatterStrategy.TREE) < latency(
            ScatterStrategy.DIRECT
        )

    def test_non_root_root_rejected(self):
        network, _ = rig()
        engine = ScatterEngine(network.nodes)
        with pytest.raises(ConfigurationError):
            engine.create(9, [1, 2, 3])

    def test_subtree_partition(self):
        network, _ = rig()
        engine = ScatterEngine(network.nodes)
        operation = engine.create(0, list(range(16)))
        collected = []
        for child in operation.children.get(0, []):
            collected.extend(operation.subtree(child))
        assert sorted(collected + [0]) == list(range(16))
