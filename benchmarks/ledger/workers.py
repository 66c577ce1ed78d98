"""The ledger's no-op spec worker.

Module-level (so it pickles by reference into pool and fleet workers;
``run.py`` puts this directory on ``PYTHONPATH`` for them) and free of
simulation: it only fabricates the value a real run would return, so
what ``store-5k`` and ``dispatch-noop`` time is hashing, pickling,
framing, piping and journaling — not the simulator.
"""

from __future__ import annotations

from repro.network.simulation import RunSummary, StatsSummary


def noop_summary(seed: int, index: int) -> RunSummary:
    """A fully populated :class:`RunSummary`, a pure function of its
    arguments: two traffic classes and non-trivial floats, so pickle,
    codec and journal sizes are those of a real result."""
    base = seed * 1_000_003 + index
    unicast = 40.0 + (base % 977) / 7.0
    multicast = 180.0 + (base % 1013) / 3.0
    return RunSummary(
        num_hosts=64,
        cycles=3_000 + base % 4_096,
        completed=True,
        operations=16 + base % 48,
        op_last_latency=StatsSummary(
            count=16 + base % 48,
            mean=multicast * 1.25,
            min=multicast * 0.75,
            max=multicast * 2.5,
        ),
        op_average_latency=StatsSummary(
            count=16 + base % 48,
            mean=multicast,
            min=multicast / 3.0,
            max=multicast * 1.9,
        ),
        class_latency={
            "unicast": StatsSummary(
                count=900 + base % 211,
                mean=unicast,
                min=unicast / 7.0,
                max=unicast * 6.3,
            ),
            "multicast": StatsSummary(
                count=256 + base % 97,
                mean=multicast,
                min=multicast / 3.0,
                max=multicast * 2.5,
            ),
        },
        class_deliveries={
            "unicast": 900 + base % 211,
            "multicast": 256 + base % 97,
        },
        class_payload_flits={
            "unicast": 16 * (900 + base % 211),
            "multicast": 64 * (256 + base % 97),
        },
        extras={"occupancy_mean": (base % 389) / 11.0},
    )
