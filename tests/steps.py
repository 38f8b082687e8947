"""One plan step on a table, as `TransformPlan.execute` runs it: the step's
metadata rule on the table's metadata, then the rule's row kernel on the
table's records.  Tests and the stability checks apply single steps
through it, and see each output with its metadata."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dpcore.relational import StatVector, Table
from dpcore.transforms import Claim, TableMeta


@dataclass(frozen=True, eq=False)
class GroupedTable:
    """A `group_by` step's output with its metadata: `labels` names every key
    of the declared domains in sorted order, keys no row has included, and
    row i falls in the cell `labels[cells[i]]`."""

    table: Table
    labels: tuple[str, ...]
    cells: np.ndarray
    stability: int


def apply(rule, t, *args, rng=None):
    """`rule(meta, *args)` on `t`'s metadata, then its kernel on `t`'s
    records: a Table, a GroupedTable or a StatVector."""
    if isinstance(t, GroupedTable):
        meta, rows = TableMeta(t.table.schema, t.stability, t.labels), (t.table.array, t.cells)
    else:
        meta, rows = TableMeta(t.schema, t.stability), t.array
    out, kernel = rule(meta, *args)
    rows = kernel(rows, rng)
    if isinstance(out, Claim):
        return StatVector(rows, out.l1_sensitivity, out.labels, out.integral)
    if out.labels is not None:
        return GroupedTable(Table(meta.schema, rows[0], meta.stability), out.labels, rows[1],
                            out.stability)
    return Table(out.schema, rows, out.stability)
