#!/usr/bin/env python
"""Barrier and all-reduce on the simulated machine.

The paper's conclusion points at barrier synchronization as the next
application of multidestination worms (their follow-up, ref [34]).
This example runs full-machine barriers and sum-reductions, releasing
the participants either with one multidestination worm or with a
binomial software broadcast, and reports latency and release skew.

Run:  python examples/barrier_and_reduce.py
"""

from repro import MulticastScheme, SimulationConfig
from repro.collectives import ReleaseScheme, TreeCollectiveEngine
from repro.metrics.report import Table
from repro.network.builder import build_network


def run_barrier(num_hosts, release_scheme, seed=3):
    network = build_network(SimulationConfig(num_hosts=num_hosts, seed=seed))
    engine = TreeCollectiveEngine(network.nodes)
    operation = engine.barrier(list(range(num_hosts)), release=release_scheme)

    def enter_all():
        for host in range(num_hosts):
            engine.contribute(operation, host)

    network.sim.schedule_at(0, enter_all)
    network.sim.run_until(
        lambda: operation.complete, max_cycles=500_000, stall_limit=30_000
    )
    return operation


def run_allreduce(num_hosts, result_scheme, seed=3):
    network = build_network(SimulationConfig(num_hosts=num_hosts, seed=seed))
    engine = TreeCollectiveEngine(network.nodes)
    operation = engine.allreduce(
        list(range(num_hosts)),
        combine=lambda a, b: a + b,
        payload_flits=8,
        release=result_scheme,
    )

    def contribute_all():
        for host in range(num_hosts):
            engine.contribute(operation, host, host + 1)

    network.sim.schedule_at(0, contribute_all)
    network.sim.run_until(
        lambda: operation.complete, max_cycles=500_000, stall_limit=30_000
    )
    expected = num_hosts * (num_hosts + 1) // 2
    assert operation.result == expected, "reduction computed a wrong sum"
    return operation


def main() -> None:
    barrier_table = Table(
        "Full-machine barrier [cycles]",
        ["hosts", "release", "latency", "release skew"],
    )
    for num_hosts in (16, 64, 256):
        for release in ReleaseScheme:
            operation = run_barrier(num_hosts, release)
            barrier_table.add_row(
                num_hosts, release.value, operation.last_latency,
                operation.skew,
            )
    barrier_table.write()
    print()

    reduce_table = Table(
        "All-reduce (sum of 1..N, 8-flit vectors) [cycles]",
        ["hosts", "result broadcast", "latency", "result"],
    )
    for num_hosts in (16, 64):
        for scheme in MulticastScheme:
            operation = run_allreduce(num_hosts, scheme)
            reduce_table.add_row(
                num_hosts, scheme.value, operation.last_latency,
                operation.result,
            )
    reduce_table.write()
    print()
    print("The multidestination release reaches every host in one network")
    print("transaction: barriers complete sooner and, just as importantly,")
    print("all hosts resume within a few cycles of each other (low skew).")


if __name__ == "__main__":
    main()
