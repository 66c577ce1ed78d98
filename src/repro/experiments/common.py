"""Shared plumbing for the experiment suite."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from repro.core.schemes import MulticastScheme, SwitchArchitecture
from repro.experiments.parallel import (
    ExecutionPlan,
    Key,
    ProgressFn,
    RunSpec,
    execute_plan,
)
from repro.metrics.report import Table
from repro.network.config import SimulationConfig
from repro.network.simulation import RunSummary, run_simulation
from repro.traffic.base import Workload


class Scheme(enum.Enum):
    """The three implementations the paper compares throughout."""

    #: hardware multidestination worms on the central-buffer switch
    CB_HW = "cb-hw"
    #: hardware multidestination worms on the input-buffer switch
    IB_HW = "ib-hw"
    #: binomial software multicast (runs on the central-buffer switch)
    SW = "sw"

    def apply(self, config: SimulationConfig) -> SimulationConfig:
        """The simulation config realising this scheme."""
        return config.derived(
            switch_architecture=(
                SwitchArchitecture.INPUT_BUFFER
                if self is Scheme.IB_HW
                else SwitchArchitecture.CENTRAL_BUFFER
            )
        )

    @property
    def multicast_scheme(self) -> MulticastScheme:
        """Hardware or software collective implementation."""
        if self is Scheme.SW:
            return MulticastScheme.SOFTWARE
        return MulticastScheme.HARDWARE


@dataclass(frozen=True)
class Scale:
    """How big an experiment run is.

    ``QUICK`` keeps benches and CI fast (small repeats, short windows);
    ``PAPER`` runs the full sweeps the tables in EXPERIMENTS.md report.
    """

    name: str
    repeats: int
    warmup_cycles: int
    measure_cycles: int
    max_cycles: int

    def seeds(self, base: int = 1) -> List[int]:
        """Deterministic seed list for repeated runs."""
        return [base + 97 * index for index in range(self.repeats)]


QUICK = Scale(
    name="quick",
    repeats=2,
    warmup_cycles=300,
    measure_cycles=1_500,
    max_cycles=60_000,
)

PAPER = Scale(
    name="paper",
    repeats=5,
    warmup_cycles=2_000,
    measure_cycles=10_000,
    max_cycles=2_000_000,
)


@dataclass
class ExperimentResult:
    """Structured rows plus a printable table for one experiment."""

    experiment: str
    table: Table
    rows: List[Dict[str, object]] = field(default_factory=list)

    def series(self, key: str, value: str, **filters: object) -> List[tuple]:
        """(key, value) pairs of rows matching all ``filters``."""
        out = []
        for row in self.rows:
            if all(row.get(k) == v for k, v in filters.items()):
                out.append((row[key], row[value]))
        return out

    def value(self, value: str, **filters: object) -> Optional[object]:
        """The single matching row's value, or ``None``."""
        matches = self.series(value, value, **filters)
        if len(matches) != 1:
            return None
        return matches[0][1]

    def render(self) -> str:
        """The printable table."""
        return self.table.render()

    def chart(
        self,
        x_key: str,
        y_key: str,
        series_key: Optional[str],
        title: str = "",
    ) -> str:
        """An ASCII chart of ``y_key`` over ``x_key``, one mark per
        distinct ``series_key`` value (``None``: a single series).  Rows
        with non-numeric values are skipped."""
        from repro.metrics.ascii_chart import render_chart

        series: Dict[str, list] = {}
        for row in self.rows:
            x, y = row.get(x_key), row.get(y_key)
            name = row.get(series_key) or "series"
            if not isinstance(x, (int, float)) or not isinstance(
                y, (int, float)
            ):
                continue
            series.setdefault(str(name), []).append((float(x), float(y)))
        return render_chart(
            series, title=title or self.experiment,
            x_label=x_key, y_label=y_key,
        )


@dataclass(frozen=True)
class Experiment:
    """One experiment of the suite: a declared grid and its fold.

    ``plan(scale, **params)`` declares the grid of independent runs and
    ``reduce(plan, results)`` folds the per-run values into an
    :class:`ExperimentResult` in declared grid order.  Calling the
    record runs the grid in between — this is the only place the three
    steps are tied together, so every experiment takes the same
    ``jobs``/``progress`` arguments and passes everything else to its
    plan function, which owns the parameter names and defaults.
    """

    #: the id the runner, the goldens and the benches know it by
    id: str
    plan: Callable[..., ExecutionPlan]
    reduce: Callable[[ExecutionPlan, Dict[Key, object]], ExperimentResult]
    #: (x key, y key, series key or None) of its rows, for sweeps worth
    #: an ASCII chart
    chart: Optional[Tuple[str, str, Optional[str]]] = None

    def __call__(
        self,
        scale: Scale = QUICK,
        *,
        jobs: Optional[int] = 1,
        progress: Optional[ProgressFn] = None,
        **params: object,
    ) -> ExperimentResult:
        plan = self.plan(scale, **params)
        return self.reduce(
            plan, execute_plan(plan, jobs=jobs, progress=progress)
        )


def mean(values: List[float]) -> float:
    """Arithmetic mean; 0.0 for an empty list."""
    if not values:
        return 0.0
    return sum(values) / len(values)


def base_config(num_hosts: int = 64, **overrides) -> SimulationConfig:
    """The paper's default system, with experiment overrides applied."""
    return SimulationConfig(num_hosts=num_hosts, **overrides)


def simulate_summary(
    config: SimulationConfig,
    workload_cls: Type[Workload],
    workload_kwargs: Dict[str, object],
    max_cycles: int,
) -> RunSummary:
    """The shared pool worker behind most experiment grids.

    Builds the workload from its class and kwargs *inside* the worker
    process (workload instances need not be picklable — only their
    constructor arguments), runs the simulation, and ships back the
    picklable :class:`~repro.network.simulation.RunSummary`.
    """
    workload = workload_cls(**workload_kwargs)
    result = run_simulation(config, workload, max_cycles=max_cycles)
    summary = result.to_summary()
    result.network.close()
    return summary


def summary_spec(
    key: Key,
    config: SimulationConfig,
    scale: Scale,
    workload_cls: Type[Workload],
    /,
    **workload_kwargs: object,
) -> RunSpec:
    """The spec of one ordinary run: ``workload_cls(**workload_kwargs)``
    on ``config`` within ``scale``'s cycle budget, through
    :func:`simulate_summary`."""
    return RunSpec(
        key=key,
        fn=simulate_summary,
        kwargs=dict(
            config=config,
            workload_cls=workload_cls,
            workload_kwargs=workload_kwargs,
            max_cycles=scale.max_cycles,
        ),
    )


def op_latency(p: SimpleNamespace, runs: Sequence[RunSummary]) -> float:
    """Seed mean of the per-operation last-arrival latency."""
    return mean([run.op_last_latency.mean for run in runs])


def unicast_latency(p: SimpleNamespace, runs: Sequence[RunSummary]) -> float:
    """Seed mean of the unicast delivery latency, over the seeds whose
    measurement window saw a delivery."""
    return mean(
        [
            run.unicast_latency.mean
            for run in runs
            if run.unicast_latency.count
        ]
    )


def _label(value: object) -> object:
    """An axis value as spec keys, rows and table cells show it."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return value[0]
    return value


def sweep(
    id: str,
    name: str,
    defaults: Mapping[str, object],
    axes: Callable[[SimpleNamespace], Iterable[Tuple[str, Iterable]]],
    spec: Callable[..., RunSpec],
    measures: Mapping[str, Callable[[SimpleNamespace, list], object]],
    title: Callable[[SimpleNamespace], str],
    columns: Callable[[SimpleNamespace], Sequence[str]],
    lead: int = 1,
    chart: Optional[Tuple[str, str, Optional[str]]] = None,
) -> Experiment:
    """The :class:`Experiment` of a full grid: axes x seeds, one fold.

    ``defaults`` names the plan's parameters; every callback receives
    them bound (plus ``scale``) as ``p``.  ``axes(p)`` lists the grid's
    ``(row key, values)`` dimensions, outermost first, and
    ``spec(p, key, *point, seed)`` builds the run of one grid point
    and seed under the key the factory hands it: the point's labels
    (an enum's ``.value``, a variant tuple's first element, anything
    else itself) followed by the seed.  Reduction walks the same grid in
    the same order: each ``measures[row key](p, runs)`` folds one point's
    per-seed results, a row is the point's labels plus its measures, and
    a table line is one combination of the first ``lead`` axes with the
    measures of the remaining points side by side under ``columns(p)``.
    """

    def plan(scale: Scale = QUICK, **params: object) -> ExecutionPlan:
        unknown = sorted(set(params) - set(defaults))
        if unknown:
            raise TypeError(
                f"{id}: unexpected parameter(s) {', '.join(unknown)} "
                f"(known: {', '.join(defaults)})"
            )
        p = SimpleNamespace(scale=scale, **{**defaults, **params})
        keys, values = zip(*((key, tuple(vals)) for key, vals in axes(p)))
        labels = [[_label(value) for value in vals] for vals in values]
        seeds = scale.seeds()
        # the two products advance in step: a grid point and its labels
        specs = [
            spec(p, (*point_labels, seed), *point, seed)
            for point, point_labels in zip(
                itertools.product(*values), itertools.product(*labels)
            )
            for seed in seeds
        ]
        return ExecutionPlan(id, specs, dict(p=p, keys=keys, labels=labels))

    def reduce(
        plan: ExecutionPlan, results: Dict[Key, object]
    ) -> ExperimentResult:
        p, keys, labels = (plan.meta[part] for part in ("p", "keys", "labels"))
        seeds = p.scale.seeds()
        table = Table(title(p), columns(p))
        result = ExperimentResult(name, table)
        for head in itertools.product(*labels[:lead]):
            cells = list(head)
            for tail in itertools.product(*labels[lead:]):
                point = head + tail
                runs = [results[(*point, seed)] for seed in seeds]
                row = dict(zip(keys, point))
                for measure, fold in measures.items():
                    row[measure] = fold(p, runs)
                    cells.append(row[measure])
                result.rows.append(row)
            table.add_row(*cells)
        return result

    return Experiment(id, plan, reduce, chart)
