#!/usr/bin/env python
"""Anatomy of a multidestination worm, event by event.

Runs one multicast on a small (16-host) system with tracing enabled and
prints the replication tree: where the worm ascended, where it was
admitted into central buffers, where it branched, and when each
destination received it.  Also cross-checks the flit-level simulation
against the pure-functional path model.

Run:  python examples/worm_anatomy.py
"""

from repro import DestinationSet, MulticastScheme, SimulationConfig
from repro.core.path_model import trace_worm
from repro.network.builder import build_network
from repro.sim.trace import Tracer

SOURCE = 2
DESTINATIONS = [5, 6, 11, 12]


def main() -> None:
    config = SimulationConfig(num_hosts=16, seed=1, self_check=True)
    tracer = Tracer()
    network = build_network(config, tracer=tracer)

    dest_set = DestinationSet.from_ids(16, DESTINATIONS)
    network.sim.schedule_at(
        0,
        lambda: network.nodes[SOURCE].post_multicast(
            dest_set, payload_flits=16, scheme=MulticastScheme.HARDWARE
        ),
    )
    network.sim.run_until(
        lambda: network.collector.outstanding_operations == 0
        and network.collector.operations_created == 1,
        max_cycles=50_000,
    )

    print(f"Multicast: host {SOURCE} -> {DESTINATIONS} on a 16-host BMIN")
    print()
    print("Predicted replication tree (pure path model):")
    traced = trace_worm(
        network.topology, network.tables, SOURCE, dest_set,
        mode=config.multicast_mode,
    )
    for switch, port in traced.links:
        level = network.topology_object.switch_level(switch)
        kind = "down" if port < config.arity else " up "
        print(f"  switch {switch:2d} (level {level}) -> port {port} [{kind}]")
    print(f"  deepest branch: {traced.max_depth} switches")
    print()

    print("Observed switch events (flit-level simulation):")
    interesting = ("admit_multidest", "bypass", "queue_cb")
    for record in tracer.records:
        if record.event in interesting:
            details = ", ".join(
                f"{key}={value}" for key, value in record.details
            )
            print(f"  cycle {record.cycle:4d}  {record.source:5s} "
                  f"{record.event:16s} {details}")
    print()

    (operation,) = network.collector.completed_operations()
    print("Arrivals:")
    for host, cycle in sorted(operation.arrival_cycles.items()):
        print(f"  host {host:2d} at cycle {cycle}")
    print(f"Operation complete at cycle {operation.completed_cycle} "
          f"(last-arrival latency {operation.last_latency})")
    assert set(operation.arrival_cycles) == set(traced.delivered)
    print()
    print("The flit-level simulation delivered to exactly the hosts the")
    print("path model predicted.")


if __name__ == "__main__":
    main()
