"""Dataset registry: the data-access boundary the service layer talks to.

The service layer holds opaque handles; only this module (and the privacy
gateway) ever touch Table values.  Plans run on the record array that
ingest builds and `table.npy` stores.  Execution optionally paces each
`select_where` scan against an injected clock (see `execute_plan`).
Importing this module loads no numpy: the code that loads or ingests a
table imports the data path.
"""

from __future__ import annotations

import itertools
import os
import re
import threading
from typing import TYPE_CHECKING

from .errors import ContractViolation

if TYPE_CHECKING:
    from .relational import Table
    from .transforms import TransformPlan


class DatasetRegistry:
    """Maps opaque handles to tables.  With a `root` directory, a handle's
    `<root>/<handle>/table.npy` and `schema.txt` load on its first use."""

    def __init__(self, root: str | None = None) -> None:
        self._root = root
        self._tables: dict[str, Table] = {}
        self._lock = threading.Lock()
        self._counter = itertools.count(1)

    def ingest_files(self, csv_path: str, sidecar_path: str) -> str:
        from .relational import load_csv, load_schema

        return self.register(load_csv(csv_path, load_schema(sidecar_path)))

    def register(self, table: Table) -> str:
        """With a root, a handle is claimed by creating `<root>/<handle>`, so
        no two processes, however concurrent, get the same one."""
        with self._lock:
            for n in self._counter:
                handle = f"ds{n}"
                try:
                    if self._root is not None:
                        os.mkdir(os.path.join(self._root, handle))
                except FileExistsError:
                    continue
                self._tables[handle] = table
                return handle

    def _table(self, handle: str) -> Table:
        import numpy as np

        from .relational import load_schema, table_from_array

        with self._lock:
            # Only names `register` hands out are looked up on disk, so a
            # handle cannot reach outside the root.
            if handle not in self._tables and self._root is not None \
                    and re.fullmatch(r"ds[0-9]+", handle):
                d = os.path.join(self._root, handle)
                try:
                    schema = load_schema(os.path.join(d, "schema.txt"))
                    with open(os.path.join(d, "table.npy"), "rb") as fh:
                        array = np.load(fh, allow_pickle=False)
                except FileNotFoundError:
                    pass
                except (ValueError, EOFError):  # no .npy of plain values, or a bad schema.txt
                    raise ContractViolation(f"stored dataset {handle} is unreadable") from None
                else:
                    self._tables[handle] = table_from_array(schema, array)
            try:
                return self._tables[handle]
            except KeyError:
                raise ContractViolation(f"unknown dataset handle: {handle}") from None

    def execute_plan(self, handle: str, plan: TransformPlan, rng=None,
                     clock=None, xi: float | None = None):
        """Run a plan against a registered table, returning its StatVector.

        When a clock and xi are given, predicate scans are paced: each scan
        advances the clock by exactly xi per record (see
        `TransformPlan.execute`).
        """
        return plan.execute(self._table(handle), rng, clock, xi)
