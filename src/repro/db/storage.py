"""Columnar storage: columns, tables, and the database catalogue.

Cache-conscious extras live here too: string (and low-NDV integer)
columns are dictionary-encoded at load time, and every column can build
a per-block zone map (min/max/null-count per :data:`ZONE_BLOCK_ROWS`
rows) that scans use to skip blocks a pushed-down predicate can never
match.  ``NULL`` has exactly one physical representation in MiniDB:
``NaN`` in a FLOAT64 column; zone maps track it so block-level
"all rows match" proofs stay sound in NULL-heavy data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.db.types import DataType, coerce_array
from repro.errors import CatalogError

#: Rows per zone-map block.  Small enough that selective predicates
#: prune at useful granularity, large enough that the per-block metadata
#: stays negligible next to the data.
ZONE_BLOCK_ROWS = 1024

#: A sampled integer column is dictionary-encoded when its sampled NDV
#: stays at or below this bound (the "low-NDV" rule of the tentpole).
DICTIONARY_SAMPLE_ROWS = 1024
DICTIONARY_MAX_SAMPLE_NDV = 256


@dataclass(frozen=True)
class ColumnSchema:
    """Name and logical type of one column."""

    name: str
    dtype: DataType

    def __post_init__(self):
        if not self.name or not self.name.replace("_", "").isalnum():
            raise CatalogError(f"bad column name {self.name!r}")


@dataclass(frozen=True, eq=False)
class Dictionary:
    """Order-preserving dictionary encoding of one column.

    ``values`` holds the sorted distinct values; ``codes`` holds one
    int64 code per row (``values[codes] == data``).  Sorted values make
    code order mirror value order, so zone maps over codes prune range
    predicates exactly like zone maps over the raw values.

    A STRING column also travels through the executor in this form, as
    a *coded column*: indexing with an index array, mask or slice
    gathers the codes and keeps ``values``, and ``np.asarray`` (or
    ``==``/``!=``) decodes, so code that does not know codes still
    computes on the right strings.  It is deliberately not an ndarray:
    an integer code compared with a string, or two columns' codes
    concatenated, would give wrong rows without an error.  ``codes``
    may be the table's own array, so nothing writes into it.
    """

    values: np.ndarray
    codes: np.ndarray

    @property
    def n_values(self) -> int:
        return len(self.values)

    @property
    def dtype(self) -> np.dtype:
        """The dtype of the decoded values (object for strings)."""
        return self.values.dtype

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index):
        codes = self.codes[index]
        if np.ndim(codes) == 0:
            return self.values[codes]
        return Dictionary(values=self.values, codes=codes)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        decoded = self.values[self.codes]
        return decoded if dtype is None else decoded.astype(dtype)

    def __eq__(self, other):
        return np.asarray(self) == other

    def __ne__(self, other):
        return np.asarray(self) != other

    __hash__ = None

    def tolist(self) -> list:
        """The decoded values as Python objects, one per row."""
        return self.values[self.codes].tolist()

    def code_for(self, value: Any) -> Optional[int]:
        """The code of *value*, or None when it is not in the dictionary
        (an equality probe for it can prune every block)."""
        lo = int(np.searchsorted(self.values, value))
        if lo < len(self.values) and self.values[lo] == value:
            return lo
        return None

    def bytes_used(self, byte_width: int) -> int:
        return 8 * len(self.codes) + byte_width * len(self.values)


@dataclass(frozen=True)
class ZoneEntry:
    """Min/max/null-count of one block of a column.

    ``lo``/``hi`` are ``None`` for an all-NULL block (no non-null value
    to bound).
    """

    lo: Any
    hi: Any
    null_count: int


@dataclass(frozen=True)
class ZoneMap:
    """Per-block min/max/null-count metadata of one column."""

    column: str
    block_rows: int
    entries: Tuple[ZoneEntry, ...]

    @property
    def n_blocks(self) -> int:
        return len(self.entries)

    def block_slice(self, block: int, n_rows: int) -> slice:
        start = block * self.block_rows
        return slice(start, min(start + self.block_rows, n_rows))


def _build_zone_map(name: str, dtype: DataType, data: np.ndarray,
                    dictionary: Optional[Dictionary],
                    block_rows: int) -> ZoneMap:
    n = len(data)
    entries = []
    # Dictionary-encoded columns find block bounds over their (order-
    # preserving) int codes, then map back to values; numeric/date
    # columns bound directly.  NaN is the NULL encoding.
    ranked = dictionary.codes if dictionary is not None else data
    for start in range(0, max(n, 1), block_rows):
        block = ranked[start:start + block_rows]
        if len(block) == 0:
            entries.append(ZoneEntry(lo=None, hi=None, null_count=0))
            continue
        if dtype is DataType.FLOAT64:
            nulls = int(np.count_nonzero(np.isnan(block)))
            if nulls == len(block):
                entries.append(ZoneEntry(lo=None, hi=None,
                                         null_count=nulls))
                continue
            lo, hi = np.nanmin(block), np.nanmax(block)
        else:
            nulls = 0
            lo, hi = block.min(), block.max()
        if dictionary is not None:
            lo = dictionary.values[int(lo)]
            hi = dictionary.values[int(hi)]
        entries.append(ZoneEntry(lo=lo.item() if hasattr(lo, "item")
                                 else lo,
                                 hi=hi.item() if hasattr(hi, "item")
                                 else hi,
                                 null_count=nulls))
    return ZoneMap(column=name, block_rows=block_rows,
                   entries=tuple(entries))


def _should_dictionary_encode(dtype: DataType, data: np.ndarray) -> bool:
    if dtype is DataType.STRING:
        return True
    if dtype is DataType.FLOAT64 or len(data) == 0:
        return False
    # Low-NDV integers/dates: decide from a prefix sample so load time
    # stays linear for wide high-cardinality columns.
    sample = data[:DICTIONARY_SAMPLE_ROWS]
    return len(np.unique(sample)) <= DICTIONARY_MAX_SAMPLE_NDV


class Column:
    """A named, typed numpy-backed column.

    ``data`` is always the decoded array; the optional
    :class:`Dictionary` and :class:`ZoneMap` are storage-level
    companions built lazily and cached (``Table.from_columns`` builds
    the dictionary eagerly at load time for string/low-NDV columns).
    Scans hand the operators :attr:`in_flight`.
    """

    def __init__(self, schema: ColumnSchema, data: np.ndarray):
        if data.dtype != schema.dtype.numpy_dtype:
            raise CatalogError(
                f"column {schema.name!r}: array dtype {data.dtype} does not "
                f"match {schema.dtype.value}")
        self.schema = schema
        self.data = data
        self._dictionary: Optional[Dictionary] = None
        self._dictionary_built = False
        self._zone_map: Optional[ZoneMap] = None

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def dtype(self) -> DataType:
        return self.schema.dtype

    def __len__(self) -> int:
        return len(self.data)

    @property
    def bytes_used(self) -> int:
        return len(self.data) * self.dtype.byte_width

    @property
    def stored_bytes(self) -> int:
        """Bytes a scan actually reads: dictionary-encoded columns ship
        8-byte codes plus the (small) dictionary instead of raw values."""
        if self.dictionary is not None:
            return min(self.bytes_used,
                       self.dictionary.bytes_used(self.dtype.byte_width))
        return self.bytes_used

    @property
    def dictionary(self) -> Optional[Dictionary]:
        """The dictionary encoding, built on first access when eligible."""
        if not self._dictionary_built:
            self._dictionary_built = True
            if _should_dictionary_encode(self.dtype, self.data):
                values, codes = np.unique(self.data, return_inverse=True)
                self._dictionary = Dictionary(
                    values=values, codes=codes.astype(np.int64))
        return self._dictionary

    @property
    def in_flight(self):
        """The column as the executor carries it: a STRING column's
        :class:`Dictionary` (codes plus sorted values), any other
        column's ``data``."""
        if self.dtype is DataType.STRING:
            return self.dictionary
        return self.data

    def zone_map(self, block_rows: int = ZONE_BLOCK_ROWS) -> ZoneMap:
        """The per-block zone map (cached after the first build)."""
        if self._zone_map is None or \
                self._zone_map.block_rows != block_rows:
            self._zone_map = _build_zone_map(
                self.name, self.dtype, self.data, self.dictionary,
                block_rows)
        return self._zone_map


class Table:
    """An immutable columnar table.

    Built via :meth:`from_columns`; all columns must have equal length.
    """

    def __init__(self, name: str, columns: Sequence[Column]):
        if not name or not name.replace("_", "").isalnum():
            raise CatalogError(f"bad table name {name!r}")
        if not columns:
            raise CatalogError(f"table {name!r} needs at least one column")
        lengths = {len(c) for c in columns}
        if len(lengths) != 1:
            raise CatalogError(
                f"table {name!r}: columns have differing lengths {lengths}")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise CatalogError(f"table {name!r}: duplicate column names")
        self.name = name
        self._columns: Dict[str, Column] = {c.name: c for c in columns}
        self._order: Tuple[str, ...] = tuple(names)
        self.n_rows = len(columns[0])

    @classmethod
    def from_columns(cls, name: str,
                     schema: Sequence[Tuple[str, DataType]],
                     data: Mapping[str, Iterable[Any]]) -> "Table":
        """Build a table from raw per-column value sequences."""
        missing = [col for col, __ in schema if col not in data]
        if missing:
            raise CatalogError(f"table {name!r}: missing data for {missing}")
        extra = [col for col in data if col not in {c for c, __ in schema}]
        if extra:
            raise CatalogError(f"table {name!r}: data for unknown {extra}")
        columns = []
        for col_name, dtype in schema:
            values = data[col_name]
            seq = values if hasattr(values, "__len__") else list(values)
            column = Column(ColumnSchema(col_name, dtype),
                            coerce_array(seq, dtype))
            # Load-time dictionary encoding (string/low-NDV columns);
            # high-cardinality numeric columns skip via a prefix sample.
            column.dictionary
            columns.append(column)
        return cls(name, columns)

    @property
    def column_names(self) -> Tuple[str, ...]:
        return self._order

    def column(self, name: str) -> Column:
        try:
            return self._columns[name]
        except KeyError:
            raise CatalogError(
                f"table {self.name!r} has no column {name!r}; "
                f"columns: {list(self._order)}") from None

    def has_column(self, name: str) -> bool:
        return name in self._columns

    def schema(self) -> Tuple[ColumnSchema, ...]:
        return tuple(self._columns[n].schema for n in self._order)

    @property
    def bytes_used(self) -> int:
        return sum(c.bytes_used for c in self._columns.values())

    @property
    def stored_bytes(self) -> int:
        """On-"disk" footprint with dictionary encoding applied."""
        return sum(c.stored_bytes for c in self._columns.values())

    def zone_map(self, column: str,
                 block_rows: int = ZONE_BLOCK_ROWS) -> ZoneMap:
        return self.column(column).zone_map(block_rows)

    @property
    def n_blocks(self) -> int:
        return max(1, -(-self.n_rows // ZONE_BLOCK_ROWS))

    def arrays(self) -> Dict[str, np.ndarray]:
        """All column arrays, keyed by name (shared, do not mutate)."""
        return {n: self._columns[n].data for n in self._order}

    def row(self, i: int) -> Tuple[Any, ...]:
        """One row as a tuple, in column order (for tests/inspection)."""
        if not 0 <= i < self.n_rows:
            raise CatalogError(
                f"row {i} out of range for table {self.name!r} "
                f"({self.n_rows} rows)")
        return tuple(self._columns[n].data[i] for n in self._order)


class Database:
    """The catalogue: a named collection of tables."""

    def __init__(self, name: str = "minidb"):
        self.name = name
        self._tables: Dict[str, Table] = {}
        #: Bumped on every DDL change; a move clears the plan cache, so
        #: a CREATE/DROP TABLE invalidates cached plans without a scan.
        self.version = 0

    def create_table(self, table: Table) -> None:
        if table.name in self._tables:
            raise CatalogError(f"table {table.name!r} already exists")
        self._tables[table.name] = table
        self.version += 1

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise CatalogError(f"cannot drop unknown table {name!r}")
        del self._tables[name]
        self.version += 1

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(
                f"unknown table {name!r}; known: {sorted(self._tables)}"
            ) from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    @property
    def table_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._tables))

    def resolve_column(self, column: str,
                       tables: Sequence[str]) -> Tuple[str, DataType]:
        """Find which of *tables* provides *column*; must be unambiguous."""
        owners = [t for t in tables if self.table(t).has_column(column)]
        if not owners:
            raise CatalogError(
                f"column {column!r} not found in tables {list(tables)}")
        if len(owners) > 1:
            raise CatalogError(
                f"column {column!r} is ambiguous across {owners}")
        return owners[0], self.table(owners[0]).column(column).dtype
