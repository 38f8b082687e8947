"""Dataset registry: the data-access boundary the service layer talks to.

The service layer holds opaque handles; on a query's path only this module
hands out Table values, and only to `mechanisms.private_release`, which
runs a plan on one and releases its StatVector.  Plans run on the record
array that ingest builds and `table.npy` stores.  Importing this module
loads no numpy: the code that loads or ingests a table imports the data
path.
"""

from __future__ import annotations

import itertools
import os
import re
import threading
from typing import TYPE_CHECKING

from .errors import ContractViolation

if TYPE_CHECKING:
    from .relational import Schema, Table


class DatasetRegistry:
    """Maps opaque handles to tables.  With a `root` directory, a handle's
    `<root>/<handle>/schema.txt` loads on its first use, and its `table.npy`
    on the first use of its rows."""

    def __init__(self, root: str | None = None) -> None:
        self._root = root
        self._schemas: dict[str, Schema] = {}
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
                self._schemas[handle], self._tables[handle] = table.schema, table
                return handle

    def schema(self, handle: str) -> Schema:
        """The schema of `handle`, read from the root on first use without
        its rows; a stored handle exists once `table.npy`, written last, does."""
        from .relational import load_schema

        with self._lock:
            # Only names `register` hands out are looked up on disk, so a
            # handle cannot reach outside the root.
            if handle not in self._schemas and self._root is not None \
                    and re.fullmatch(r"ds[0-9]+", handle) \
                    and os.path.exists(os.path.join(self._root, handle, "table.npy")):
                self._schemas[handle] = self._read(handle, "schema.txt", load_schema)
            try:
                return self._schemas[handle]
            except KeyError:
                raise ContractViolation(f"unknown dataset handle: {handle}") from None

    def table(self, handle: str) -> Table:
        """The table of `handle`, its rows loaded from the root on first use."""
        import numpy as np

        from .relational import table_from_array

        schema = self.schema(handle)
        with self._lock:
            if handle not in self._tables:
                array = self._read(handle, "table.npy", lambda p: np.load(p, allow_pickle=False))
                self._tables[handle] = table_from_array(schema, array)
            return self._tables[handle]

    def _read(self, handle: str, name: str, load):
        try:
            return load(os.path.join(self._root, handle, name))
        except (OSError, ValueError, EOFError):  # gone, or not a file of plain values
            raise ContractViolation(f"stored dataset {handle} is unreadable") from None
