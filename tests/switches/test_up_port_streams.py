"""The RANDOM up-port policy's stream is made at its first draw.

``RngStreams.stream`` is keyed by name, so when a stream is made cannot
change a value it hands out; a switch that never picks an up-port never
derives and seeds a generator.
"""

from __future__ import annotations

import pytest

from repro.core.schemes import SwitchArchitecture
from repro.errors import ProtocolError
from repro.network.builder import build_network
from repro.network.config import SimulationConfig
from repro.network.simulation import run_workload
from repro.routing.base import UpPortPolicy
from repro.sim.rng import RngStreams
from repro.switches.central_buffer import CentralBufferSwitch
from repro.switches.input_buffer import InputBufferSwitch
from repro.traffic.unicast import UniformRandomUnicast

from tests.routing.test_table import worm_for


def saturating():
    return UniformRandomUnicast(
        load=0.9, payload_flits=16, warmup_cycles=200, measure_cycles=250,
    )


def up_route_streams(network):
    return {
        name for name in network.sim.rng._streams if name.endswith(".uproute")
    }


@pytest.mark.parametrize("architecture", list(SwitchArchitecture))
def test_first_draws_are_those_of_a_fresh_stream(architecture):
    network = build_network(SimulationConfig(
        num_hosts=64, seed=41, switch_architecture=architecture,
    ))
    assert up_route_streams(network) == set()
    switch = network.switches[0]
    ups = list(switch.table.up_ports)
    assert len(ups) > 1
    fresh = RngStreams(41).stream("switch.sw0.uproute")
    worm = worm_for(0, [9])
    for _ in range(3):
        assert switch._up_selector(ups, worm) == ups[fresh.randrange(len(ups))]
    assert up_route_streams(network) == {"switch.sw0.uproute"}


def test_only_switches_that_pick_an_up_port_have_a_stream():
    network = build_network(SimulationConfig(num_hosts=64, seed=5))
    result = run_workload(network, saturating())
    assert result.completed
    top = {
        f"switch.{switch.name}.uproute"
        for switch in network.switches if not switch.table.up_ports
    }
    assert len(top) == 16
    drawn = up_route_streams(network)
    assert drawn and not drawn & top
    # under saturating uniform traffic every switch below the top draws
    assert len(drawn) == len(network.switches) - len(top)


@pytest.mark.parametrize(
    "policy", [UpPortPolicy.DETERMINISTIC, UpPortPolicy.ADAPTIVE]
)
def test_no_stream_without_the_random_policy(policy):
    network = build_network(
        SimulationConfig(num_hosts=64, seed=5, up_port_policy=policy)
    )
    assert run_workload(network, saturating()).completed
    assert up_route_streams(network) == set()


@pytest.mark.parametrize("switch_class", [CentralBufferSwitch, InputBufferSwitch])
def test_routing_before_attach_is_a_protocol_error(switch_class):
    network = build_network(SimulationConfig(num_hosts=16))
    loose = switch_class(
        "loose", network.tables[0], 8, network.config.switch_settings()
    )
    with pytest.raises(ProtocolError):
        loose.compute_requests(worm_for(0, [9]))
