"""The kill matrix stays anchored in the tree it describes.

Each row of ``table.py`` must still apply: its anchor occurs exactly
once in its file and its replacement changes something.  And
``kill_matrix.json`` must list exactly the table's rows, so an edit
that moves mutated code, or a new row, forces the matrix to be rerun
(``python tests/mutation/run.py --row NAME``).
"""

from __future__ import annotations

import json

import pytest

from tests.mutation.run import MATRIX, ROOT
from tests.mutation.table import ROWS


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_row_applies_to_the_current_tree(row):
    text = (ROOT / row.file).read_text(encoding="utf-8")
    assert text.count(row.anchor) == 1
    assert row.replacement != row.anchor


def test_matrix_lists_exactly_the_table_rows():
    recorded = json.loads(MATRIX.read_text(encoding="utf-8"))["rows"]
    assert [row["name"] for row in recorded] == [row.name for row in ROWS]
    assert all(set(row) == {"name", "file", "breaks", "killed_by", "seconds"}
               for row in recorded)
