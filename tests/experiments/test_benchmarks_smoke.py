"""Every paper claim holds on its committed golden snapshot.

The experiments' paper claims once lived in one benchmark module each,
``bench_<id>_<topic>``, which re-simulated the experiment at a scale of
its own.  The claims now live in ``claims.py``, and ``test_golden.py``
runs each one on the quick-scale rows it has just computed.  This module
keeps one test id per former benchmark and runs the claim on the rows
the snapshot file holds, so a snapshot that breaks its claim fails by
name, with no simulation.
"""

from __future__ import annotations

import json

import pytest

from tests.experiments.claims import CLAIMS
from tests.experiments.test_golden import GOLDEN_DIR

BENCHMARKS = {
    "bench_a1_cb_bandwidth": "a1",
    "bench_a2_routing_mode": "a2",
    "bench_a3_encoding": "a3",
    "bench_a4_replication": "a4",
    "bench_a5_equal_storage": "a5",
    "bench_e1_multiple_multicast": "e1",
    "bench_e2_degree_sweep": "e2",
    "bench_e3_length_sweep": "e3",
    "bench_e4_bimodal": "e4",
    "bench_e5_system_size": "e5",
    "bench_e6_unicast_baseline": "e6",
    "bench_e7_parameters": "e7",
    "bench_x1_barrier": "x1",
    "bench_x2_hotspot": "x2",
    "bench_x3_occupancy": "x3",
    "bench_x4_cross_topology": "x4",
}


def test_one_benchmark_id_per_claim():
    assert sorted(BENCHMARKS.values()) == sorted(CLAIMS)


@pytest.mark.parametrize("module_name", sorted(BENCHMARKS))
def test_benchmark_assertions_hold(module_name):
    name = BENCHMARKS[module_name]
    rows = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    CLAIMS[name](rows)
