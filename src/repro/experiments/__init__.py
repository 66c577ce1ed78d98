"""Experiment definitions reproducing the paper's evaluation.

One module per evaluation axis (see DESIGN.md's per-experiment index):

=====  ==============================================  =====================
Exp    Paper axis                                      Module
=====  ==============================================  =====================
E1     multiple multicast vs. concurrency              multiple_multicast
E2     latency vs. degree of multicast                 degree_sweep
E3     latency vs. message length                      length_sweep
E4     bimodal traffic impact on background unicast    bimodal
E5     system-size scaling                             system_size
E6     unicast baseline of the buffer organisations    unicast_baseline
E7     methodology / parameter table                   parameters
A1     ablation: central-buffer bandwidth              ablations
A2     ablation: LCA routing mode                      ablations
A3     ablation: header encodings                      ablations
A4     ablation: asynchronous vs. synchronous          ablations
       replication on the IB switch
A5     ablation: equal-storage comparison              ablations
X1     extension: barrier latency and release skew     extensions
X2     extension: hot-spot unicast traffic             extensions
X3     extension: central-buffer occupancy by level    extensions
X4     extension: scheme generality across topologies  cross_topology
=====  ==============================================  =====================

Each experiment is one :class:`~repro.experiments.common.Experiment`
record under its ``run_*`` name.  Thirteen are full grids and are
*declared*: :func:`~repro.experiments.common.sweep` takes the plan's
parameters and defaults, the ordered axes, the
:class:`~repro.experiments.parallel.RunSpec` of one grid point and the
folds over a point's per-seed results, and owns the axes x seeds
product, the spec keys, the seed fold and the table pivot.  Three are not
grids of that shape and keep a hand-written ``plan_*``/``reduce_*`` pair:
A3 (one wide row per size, half of it closed-form header sizes), X3
(each run returns a per-level map, and the levels become the rows) and E7
(one calibration run).  Calling a record,
``run_*(scale, jobs=N, progress=..., **plan_params)``, plans, executes
and reduces: ``scale`` is a :class:`~repro.experiments.common.Scale`
(``QUICK`` for the goldens/CI, ``PAPER`` for full-size runs), ``jobs=N`` fans
the grid out over N worker processes with output bit-identical to the
serial path, and the result is an
:class:`~repro.experiments.common.ExperimentResult` with structured rows
and a printable table.  :data:`repro.experiments.runner.EXPERIMENTS` is
every record exported here, by id.
"""

from repro.experiments.common import (
    PAPER,
    QUICK,
    Experiment,
    ExperimentResult,
    Scale,
    Scheme,
)
from repro.experiments.parallel import (
    ExecutionPlan,
    RunOutcome,
    RunSpec,
    default_jobs,
    execute_plan,
)
from repro.experiments.multiple_multicast import run_multiple_multicast
from repro.experiments.degree_sweep import run_degree_sweep
from repro.experiments.length_sweep import run_length_sweep
from repro.experiments.bimodal import run_bimodal
from repro.experiments.system_size import run_system_size
from repro.experiments.unicast_baseline import run_unicast_baseline
from repro.experiments.parameters import run_parameters
from repro.experiments.ablations import (
    run_cb_bandwidth_ablation,
    run_encoding_ablation,
    run_equal_storage_ablation,
    run_replication_ablation,
    run_routing_mode_ablation,
)
from repro.experiments.cross_topology import run_cross_topology
from repro.experiments.extensions import (
    run_barrier_scaling,
    run_buffer_occupancy,
    run_hotspot,
)

__all__ = [
    "ExecutionPlan",
    "Experiment",
    "ExperimentResult",
    "PAPER",
    "QUICK",
    "RunOutcome",
    "RunSpec",
    "Scale",
    "Scheme",
    "default_jobs",
    "execute_plan",
    "run_barrier_scaling",
    "run_bimodal",
    "run_buffer_occupancy",
    "run_cb_bandwidth_ablation",
    "run_cross_topology",
    "run_degree_sweep",
    "run_encoding_ablation",
    "run_equal_storage_ablation",
    "run_hotspot",
    "run_length_sweep",
    "run_multiple_multicast",
    "run_parameters",
    "run_replication_ablation",
    "run_routing_mode_ablation",
    "run_system_size",
    "run_unicast_baseline",
]
