"""E7: the methodology / simulation-parameter table.

Prints the default parameter set (the paper's Table of simulation
parameters, reconstructed around the SP Switch) and cross-checks the
simulator's zero-load behaviour against the closed-form latency models —
the calibration step a simulation-methodology section reports.
"""

from __future__ import annotations

from typing import Dict

from repro.core.latency_model import unicast_zero_load
from repro.core.schemes import MulticastScheme
from repro.experiments.common import (
    QUICK,
    Experiment,
    ExperimentResult,
    Scale,
    base_config,
)
from repro.experiments.parallel import ExecutionPlan, Key, RunSpec
from repro.metrics.report import Table
from repro.network.simulation import run_simulation
from repro.traffic.multicast import SingleMulticast


def _run_calibration(num_hosts: int, max_cycles: int) -> Dict[str, float]:
    """Worker: one far multicast at zero load, simulator vs. model."""
    config = base_config(num_hosts, seed=11)
    workload = SingleMulticast(
        source=0, destinations=[num_hosts - 1], payload_flits=32,
        scheme=MulticastScheme.HARDWARE,
    )
    run = run_simulation(config, workload, max_cycles=max_cycles)
    (op,) = run.collector.completed_operations()
    network = run.network
    model = unicast_zero_load(
        hops=network.topology_object.min_switch_hops(0, num_hosts - 1),
        size_flits=network.unicast_header_flits() + 32,
        link_latency=config.link_latency,
        routing_delay=config.routing_delay,
        header_flits=network.unicast_header_flits(),
        send_overhead=config.sw_send_overhead,
    )
    network.close()
    return {"simulated": op.last_latency, "model": model}


def plan_parameters(
    scale: Scale = QUICK, num_hosts: int = 64
) -> ExecutionPlan:
    """Declare E7's single calibration run (the table itself is free)."""
    specs = [
        RunSpec(
            key=("calibration",),
            fn=_run_calibration,
            kwargs=dict(num_hosts=num_hosts, max_cycles=scale.max_cycles),
        )
    ]
    return ExecutionPlan("e7", specs, dict(num_hosts=num_hosts))


def reduce_parameters(
    plan: ExecutionPlan, results: Dict[Key, object]
) -> ExperimentResult:
    """Emit the parameter table plus the zero-load calibration rows."""
    num_hosts = plan.meta["num_hosts"]
    config = base_config(num_hosts)
    table = Table(
        "E7: simulation parameters and zero-load calibration",
        ["parameter", "value"],
    )
    result = ExperimentResult("e7_parameters", table)

    rows = [
        ("hosts (N)", config.num_hosts),
        ("switch radix", 2 * config.arity),
        ("topology", f"{config.arity}-ary tree, "
                     f"{config._bmin_levels()} levels"),
        ("link latency [cycles]", config.link_latency),
        ("flit width [bits]", config.flit_payload_bits),
        ("central buffer [flits]", config.central_buffer_flits),
        ("chunk size [flits]", config.chunk_flits),
        ("per-input quota [chunks]",
         -(-config.max_packet_flits() // config.chunk_flits)),
        ("input FIFO depth [flits]", config.effective_input_fifo_depth()),
        ("input buffer (IB switch) [flits]",
         config.effective_input_buffer_flits()),
        ("routing delay [cycles]", config.routing_delay),
        ("max packet payload [flits]", config.max_packet_payload_flits),
        ("unicast header [flits]", 1),
        ("multicast header [flits]", config.max_header_flits()),
        ("software send overhead [cycles]", config.sw_send_overhead),
        ("software recv overhead [cycles]", config.sw_recv_overhead),
    ]
    for name, value in rows:
        table.add_row(name, str(value))
        result.rows.append({"parameter": name, "value": value})

    calibration = results[("calibration",)]
    table.add_row("zero-load far unicast, simulated [cycles]",
                  str(calibration["simulated"]))
    table.add_row("zero-load far unicast, model [cycles]",
                  str(calibration["model"]))
    result.rows.append(
        {"parameter": "zero_load_simulated", "value": calibration["simulated"]}
    )
    result.rows.append(
        {"parameter": "zero_load_model", "value": calibration["model"]}
    )
    return result


#: E7: the parameter table plus zero-load model-vs-simulator checks
run_parameters = Experiment("e7", plan_parameters, reduce_parameters)
