import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make `oracles` importable

from dpcore.accounting import Accountant, PURE_EPS
from dpcore.randomness import RandomSource
from dpcore.relational import ColumnKind, ColumnMeta, Schema, make_table


@pytest.fixture
def two_col_schema() -> Schema:
    return Schema((
        ColumnMeta("c0", ColumnKind.INTEGER, lower=0, upper=100),
        ColumnMeta("c1", ColumnKind.INTEGER, lower=0, upper=1),
    ))


@pytest.fixture
def small_tables(two_col_schema):
    """The empty/one/two/three-row ladder used throughout the audit module."""
    rows = {
        "db1": [],
        "db2": [(0, 0)],
        "db3": [(100, 1), (0, 0)],
        "db4": [(100, 1), (50, 0), (0, 0)],
    }
    return {k: make_table(two_col_schema, v) for k, v in rows.items()}


@pytest.fixture
def rng() -> RandomSource:
    return RandomSource.from_os_entropy()


@pytest.fixture
def accountant(tmp_path):
    acct = Accountant(ledger_path=str(tmp_path / "ledger.txt"))
    acct.create_scope("main", PURE_EPS, 1e9)
    yield acct
    acct.close()


@pytest.fixture
def scope(accountant):
    return accountant.scope("main")
