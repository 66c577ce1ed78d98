"""Global reduction protocol."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.schemes import MulticastScheme
from repro.errors import ConfigurationError, ProtocolError
from tests.collectives.test_barrier import rig, run_collective


def run_reduction(network, engine, operation, values, cycles=None):
    cycles = cycles or {host: 0 for host in values}
    return run_collective(network, engine, operation, cycles, values)


class TestReductionCorrectness:
    @pytest.mark.parametrize("scheme", list(MulticastScheme))
    def test_sum_over_all_hosts(self, scheme):
        network, engine = rig()
        operation = engine.allreduce(
            list(range(16)), combine=lambda a, b: a + b, release=scheme
        )
        values = {h: h + 1 for h in range(16)}
        run_reduction(network, engine, operation, values)
        assert operation.result == sum(values.values()) == 136
        assert set(operation.release_cycles) == set(range(16))
        # pinned: 4-flit legs, 16 hosts, every host contributing at cycle 0
        hardware = scheme is MulticastScheme.HARDWARE
        assert operation.last_latency == (262 if hardware else 528)
        assert network.collector.messages_created == (16 if hardware else 30)

    def test_max_reduction(self):
        network, engine = rig()
        operation = engine.allreduce(list(range(16)), combine=max)
        values = {h: (7 * h) % 13 for h in range(16)}
        run_reduction(network, engine, operation, values)
        assert operation.result == max(values.values())

    def test_subset_participants(self):
        network, engine = rig()
        participants = [1, 4, 9, 14]
        operation = engine.allreduce(participants)
        values = {h: h for h in participants}
        run_reduction(network, engine, operation, values)
        assert operation.result == sum(participants)

    def test_staggered_contributions(self):
        network, engine = rig()
        operation = engine.allreduce(list(range(16)))
        values = {h: 1 for h in range(16)}
        cycles = {h: 100 * h for h in range(16)}
        run_reduction(network, engine, operation, values, cycles)
        assert operation.result == 16
        assert operation.last_latency >= 1_500  # gated by the last one

    @given(
        values=st.lists(
            st.integers(-1_000, 1_000), min_size=16, max_size=16
        )
    )
    @settings(max_examples=10, deadline=None)
    def test_arbitrary_values_sum_exactly(self, values):
        network, engine = rig(seed=11)
        operation = engine.allreduce(list(range(16)))
        run_reduction(
            network, engine, operation,
            {h: values[h] for h in range(16)},
        )
        assert operation.result == sum(values)


class TestReductionErrors:
    def test_double_contribution_rejected(self):
        network, engine = rig()
        operation = engine.allreduce([1, 2, 3])
        engine.contribute(operation, 1, 5)
        with pytest.raises(ProtocolError):
            engine.contribute(operation, 1, 6)

    def test_non_participant_rejected(self):
        network, engine = rig()
        operation = engine.allreduce([1, 2, 3])
        with pytest.raises(ProtocolError):
            engine.contribute(operation, 9, 5)

    def test_too_few_participants(self):
        network, engine = rig()
        with pytest.raises(ConfigurationError):
            engine.allreduce([5])


class TestReductionTiming:
    def test_hardware_result_broadcast_faster(self):
        def measure(scheme):
            network, engine = rig(num_hosts=64, seed=4)
            operation = engine.allreduce(
                list(range(64)), release=scheme, payload_flits=8
            )
            run_reduction(
                network, engine, operation, {h: h for h in range(64)}
            )
            return operation.last_latency

        hw = measure(MulticastScheme.HARDWARE)
        sw = measure(MulticastScheme.SOFTWARE)
        assert hw < sw

    def test_payload_length_serializes(self):
        def measure(payload):
            network, engine = rig()
            operation = engine.allreduce(
                list(range(16)), payload_flits=payload
            )
            run_reduction(
                network, engine, operation, {h: 1 for h in range(16)}
            )
            return operation.last_latency

        assert measure(64) > measure(4)
