"""Every experiment runs through ``run_simulation``, the one front door.

X1, X3 and E7 used to build their networks by hand, so process-wide
observability (``--metrics-out`` and friends) silently skipped them.
They are ordinary now: each executed spec is one bracketed run in the
metrics stream, and recording changes nothing in the rows.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import QUICK
from repro.experiments.runner import EXPERIMENTS
from repro.obs import runtime as obs_runtime
from repro.obs.sinks import SCHEMA_RUN, iter_jsonl, validate_file

from tests.experiments.test_experiments import MICRO

#: the three that had private build-and-run loops, shrunk to 16 hosts
FORMER_SIDE_DOORS = {
    "x1": dict(sizes=(16,)),
    "x3": dict(num_hosts=16),
    "e7": dict(num_hosts=16),
}


@pytest.mark.parametrize("name", sorted(FORMER_SIDE_DOORS))
def test_recording_brackets_every_spec_and_leaves_rows_alone(name, tmp_path):
    experiment, params = EXPERIMENTS[name], FORMER_SIDE_DOORS[name]
    path = tmp_path / "m.jsonl"
    with obs_runtime.enabled(metrics_out=str(path)):
        recorded = experiment(MICRO, jobs=1, **params)
    plain = experiment(MICRO, jobs=1, **params)
    assert recorded.rows == plain.rows
    assert recorded.render() == plain.render()

    runs = [
        record
        for _, record in iter_jsonl(str(path))
        if record["schema"] == SCHEMA_RUN
    ]
    specs = len(experiment.plan(MICRO, **params))
    assert [run["event"] for run in runs] == ["start", "end"] * specs
    assert len({run["run"] for run in runs}) == specs
    assert validate_file(str(path))[1] == []


def test_unknown_parameter_is_the_plan_functions_type_error():
    # declared or hand-written, every plan names the keyword it rejects
    for experiment in EXPERIMENTS.values():
        with pytest.raises(TypeError, match="degres"):
            experiment(QUICK, degres=(2,))
