"""Golden-snapshot regression tests for every experiment.

Each experiment's quick-scale ``rows`` are checked in as JSON under
``tests/experiments/golden/``.  The simulator is deterministic
(docs/testing.md §5) and reduction is order-independent
(``test_parallel.py``), so these must match *exactly* — any diff is a
numeric change some PR made, intentionally or not.

After an intended change, refresh the snapshots with::

    PYTHONPATH=src python -m pytest tests/experiments/test_golden.py \
        --regenerate-golden

and commit the JSON diff alongside the code that caused it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.common import QUICK
from repro.experiments.runner import EXPERIMENTS

GOLDEN_DIR = Path(__file__).parent / "golden"


def _canonical(rows):
    """Rows exactly as JSON stores them (round-trip normalises types)."""
    return json.loads(json.dumps(rows))


def test_registry_and_snapshots_name_the_same_experiments():
    assert {path.stem for path in GOLDEN_DIR.glob("*.json")} == set(EXPERIMENTS)
    for name, experiment in EXPERIMENTS.items():
        assert experiment.id == name


@pytest.mark.parametrize(
    "name", sorted(name for name in EXPERIMENTS if EXPERIMENTS[name].chart)
)
def test_chart_keys_are_row_keys(name):
    rows = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    for key in EXPERIMENTS[name].chart:
        if key is not None:  # no series key: one unnamed series
            assert all(key in row for row in rows), key


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_quick_scale_rows_match_golden(name, request):
    regenerate = request.config.getoption("--regenerate-golden")
    path = GOLDEN_DIR / f"{name}.json"
    result = EXPERIMENTS[name](QUICK, jobs=1)
    rows = _canonical(result.rows)

    if regenerate:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(rows, indent=1) + "\n")
        return

    assert path.exists(), (
        f"missing golden snapshot {path.name}; generate it with "
        "--regenerate-golden"
    )
    golden = json.loads(path.read_text())
    assert rows == golden, (
        f"{name}: quick-scale rows drifted from {path.name} — if the "
        "change is intended, rerun with --regenerate-golden and commit "
        "the diff"
    )
