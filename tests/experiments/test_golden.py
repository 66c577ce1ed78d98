"""Golden-snapshot regression tests for every experiment.

Each experiment's quick-scale ``rows`` are checked in as JSON under
``tests/experiments/golden/``.  The simulator is deterministic
(docs/testing.md §5) and reduction is order-independent
(``test_parallel.py``), so these must match *exactly* — any diff is a
numeric change some PR made, intentionally or not.

Before the rows are compared (or, with ``--regenerate-golden``,
written), each experiment's paper claim (``claims.py``) runs on them, so
the shape assertions check exactly the rows the snapshots pin and a
snapshot that breaks a claim cannot be written.

``golden/spec_keys.json`` pins the other half of the contract: the
content address (:func:`repro.store.spec_key`) of every spec of every
plan at QUICK and PAPER, in plan order.  A changed digest means a warm
result store goes cold (or a grid was reordered); planning runs no
simulation, so the check takes milliseconds.

After an intended change, refresh the snapshots with::

    PYTHONPATH=src python -m pytest tests/experiments/test_golden.py \
        --regenerate-golden

and commit the JSON diff alongside the code that caused it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.common import PAPER, QUICK
from repro.experiments.runner import EXPERIMENTS
from repro.store import spec_key
from tests.experiments.claims import CLAIMS, one

GOLDEN_DIR = Path(__file__).parent / "golden"
SPEC_KEYS = GOLDEN_DIR / "spec_keys.json"


def _canonical(rows):
    """Rows exactly as JSON stores them (round-trip normalises types)."""
    return json.loads(json.dumps(rows))


def test_registry_and_snapshots_name_the_same_experiments():
    snapshots = set(GOLDEN_DIR.glob("*.json")) - {SPEC_KEYS}
    assert {path.stem for path in snapshots} == set(EXPERIMENTS)
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
    CLAIMS[name](rows)

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


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_no_claim_passes_vacuously(name):
    """One claim per experiment; a claim given no rows raises, and a row
    lookup raises unless exactly one row matches."""
    assert CLAIMS.keys() == EXPERIMENTS.keys()
    with pytest.raises(LookupError):
        CLAIMS[name]([])
    rows = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    column = next(iter(rows[0]))
    with pytest.raises(LookupError, match="^0 rows"):
        one(rows, **{column: "no such point"})
    with pytest.raises(LookupError, match=f"^{len(rows)} rows"):
        one(rows)


def _planned_spec_keys():
    """``{"<id>/<scale>": {specs, sha256}}`` over every default plan."""
    pins = {}
    for name in sorted(EXPERIMENTS):
        for scale in (QUICK, PAPER):
            plan = EXPERIMENTS[name].plan(scale)
            keys = [spec_key(spec) for spec in plan.specs]
            pins[f"{name}/{scale.name}"] = {
                "specs": len(keys),
                "sha256": hashlib.sha256("\n".join(keys).encode()).hexdigest(),
            }
    return pins


def test_spec_keys_match_golden(request):
    pins = _planned_spec_keys()
    if request.config.getoption("--regenerate-golden"):
        SPEC_KEYS.write_text(json.dumps(pins, indent=1) + "\n")
        return
    golden = json.loads(SPEC_KEYS.read_text())
    drifted = sorted(
        key
        for key in pins.keys() | golden.keys()
        if pins.get(key) != golden.get(key)
    )
    assert not drifted, (
        f"spec keys or grid order changed for {drifted}: previously stored "
        "results stop matching — if intended, rerun with --regenerate-golden"
    )
