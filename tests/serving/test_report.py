"""Unit tests of the report's columnar tables.

:class:`RequestTable`, :class:`BatchTable` and :class:`StealTable` share
one columnar base whose columns are declared by each table's record
dataclass.  These tests pin that contract for all three: columns, record
views, slicing, concatenation, construction errors, and ``shifted``
sharing every column it does not shift.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.serving import (
    BatchRecord,
    BatchTable,
    RequestRecord,
    RequestTable,
    StealRecord,
    StealTable,
)

#: Each table, its record, and the id columns a merge shifts.
TABLES = [
    (RequestTable, RequestRecord, ("chip", "batch_index")),
    (BatchTable, BatchRecord, ("index", "chip")),
    (StealTable, StealRecord, ("batch_index", "queue", "chip")),
]
IDS = [table.__name__ for table, _, _ in TABLES]
ROWS = 5


def _columns(record) -> dict[str, np.ndarray]:
    """Distinct values per column; no steal row ever has queue == chip."""
    columns = {}
    for position, f in enumerate(fields(record)):
        if f.type == "int":
            columns[f.name] = np.arange(ROWS) * (position + 1) + position
        else:
            columns[f.name] = np.arange(ROWS) * 0.5 + position
    return columns


@pytest.mark.parametrize("table_type, record, shifted_ids", TABLES, ids=IDS)
class TestColumnarTables:
    def test_columns_are_the_record_fields_in_order(self, table_type, record, shifted_ids):
        table = table_type(**_columns(record))
        assert list(vars(table)) == [f.name for f in fields(record)]
        for f in fields(record):
            expected = np.int64 if f.type == "int" else np.float64
            assert getattr(table, f.name).dtype == expected

    def test_iteration_equals_indexing(self, table_type, record, shifted_ids):
        table = table_type(**_columns(record))
        rows = list(table)
        assert len(rows) == len(table) == ROWS
        assert rows == [table[i] for i in range(len(table))]
        assert rows[-1] == table[-1]
        for row in rows:
            assert type(row) is record
            for f in fields(record):
                assert type(getattr(row, f.name)) is (int if f.type == "int" else float)

    def test_slice_is_a_table_of_the_same_type(self, table_type, record, shifted_ids):
        table = table_type(**_columns(record))
        part = table[1:4]
        assert type(part) is table_type
        assert list(part) == list(table)[1:4]

    def test_concatenate_and_empty_round_trip(self, table_type, record, shifted_ids):
        table = table_type(**_columns(record))
        empty = table_type.empty()
        assert len(empty) == 0 and list(empty) == []
        assert table_type.concatenate([table[:2], empty, table[2:]]) == table
        assert table_type.concatenate([empty, empty]) == empty
        other = table_type(**{**_columns(record), shifted_ids[0]: np.arange(ROWS) + 99})
        assert other != table

    @pytest.mark.parametrize("fault", ["wrong_length", "unknown", "missing"])
    def test_bad_column_raises_naming_it(self, table_type, record, shifted_ids, fault):
        columns = _columns(record)
        name = fields(record)[-1].name
        if fault == "wrong_length":
            columns[name] = columns[name][:-1]
        elif fault == "missing":
            del columns[name]
        else:
            name = "bogus_s"
            columns[name] = np.zeros(ROWS)
        with pytest.raises(ValueError, match=repr(name)):
            table_type(**columns)

    def test_shifted_shares_every_unshifted_column(self, table_type, record, shifted_ids):
        table = table_type(**_columns(record))
        before = {name: column.copy() for name, column in vars(table).items()}
        offsets = {name: 10 * (i + 1) for i, name in enumerate(shifted_ids)}
        moved = table.shifted(**offsets)
        assert type(moved) is table_type
        for name, column in vars(table).items():
            np.testing.assert_array_equal(column, before[name])  # source untouched
            if name in offsets:
                np.testing.assert_array_equal(getattr(moved, name), column + offsets[name])
                assert getattr(moved, name).dtype == np.int64
            else:
                assert np.shares_memory(getattr(moved, name), column)
