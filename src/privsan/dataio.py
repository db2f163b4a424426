"""Tabular dataset ingestion with schema-driven preprocessing.

The interchange format is plain CSV: comma separated, UTF-8, one header
row, ``.`` decimal point, no quoting of numerics.  A schema (JSON) names
every column and declares its kind: ``numeric`` (kept as is),
``binary-categorical`` (mapped to numbers through an explicit value
map), or ``drop``.  Private columns are flagged in the schema and turn
into private index positions (``DatasetSchema.private_positions``) of
the loaded (rows x columns) array.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EmptyDataset, ParseError, SchemaMismatch
from .linalg import as_matrix

KINDS = ("numeric", "binary-categorical", "drop")


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str = "numeric"
    private: bool = False
    value_map: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SchemaMismatch(f"unknown column kind {self.kind!r} for {self.name!r}")
        if self.kind == "binary-categorical" and not self.value_map:
            raise SchemaMismatch(f"column {self.name!r} needs a value_map")
        if not all(math.isfinite(v) for v in self.value_map.values()):
            raise SchemaMismatch(f"column {self.name!r} maps to a non-finite value")


@dataclass(frozen=True)
class DatasetSchema:
    columns: list[ColumnSpec]

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaMismatch("duplicate column names in schema")
        if not self.retained:
            raise SchemaMismatch("schema keeps no column: every column is dropped")

    @property
    def retained(self) -> list[ColumnSpec]:
        return [c for c in self.columns if c.kind != "drop"]

    @property
    def private_positions(self) -> frozenset[int]:
        return frozenset(i for i, c in enumerate(self.retained) if c.private)

    @classmethod
    def from_json(cls, path: str | Path) -> "DatasetSchema":
        with open(path, encoding="utf-8-sig") as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:
                raise SchemaMismatch(f"schema file is not valid JSON: {exc}") from None
        if not isinstance(raw, list):
            raise SchemaMismatch("schema file must hold a list of column entries")
        cols = []
        for k, entry in enumerate(raw):
            if not isinstance(entry, dict) or "name" not in entry:
                raise SchemaMismatch(f"schema entry {k} is not an object with a \"name\"")
            try:
                value_map = {str(key): float(v)
                             for key, v in entry.get("value_map", {}).items()}
            except (AttributeError, TypeError, ValueError):
                raise SchemaMismatch(f"schema entry {k}: value_map must map "
                                     f"values to numbers") from None
            private = entry.get("private", False)
            if not isinstance(private, bool):
                raise SchemaMismatch(f"schema entry {k}: \"private\" must be true or false")
            cols.append(ColumnSpec(
                name=str(entry["name"]),
                kind=str(entry.get("kind", "numeric")),
                private=private,
                value_map=value_map,
            ))
        return cls(cols)


@dataclass(frozen=True)
class LoadResult:
    values: np.ndarray         # (rows x retained columns)
    schema: DatasetSchema
    column_shifts: np.ndarray  # per retained column, 0 when nothing was shifted


@dataclass(frozen=True)
class DatasetSummary:
    count: int
    column_names: list[str]
    minima: np.ndarray
    maxima: np.ndarray
    means: np.ndarray
    max_tuple_norm: float


def load_csv(path: str | Path, schema: DatasetSchema,
             shift_nonnegative: bool = True) -> LoadResult:
    """Load and preprocess a CSV file.

    Row k of the file becomes row k of the values array.  Cells that are
    not UTF-8 text, and retained cells that fail to parse to a finite
    number, raise :class:`ParseError` with their 1-based data row number.
    By default each retained column with negative values is shifted up
    to be nonnegative; the applied shifts are returned.
    """
    path = Path(path)
    with _open_csv(path) as fh:
        reader = csv.reader(fh)
        _check_header(reader, schema)
        keep = [(i, c) for i, c in enumerate(schema.columns) if c.kind != "drop"]
        rows = []
        for rownum, row in enumerate(reader, start=1):
            if len(row) != len(schema.columns):
                raise ParseError(rownum, "<row>", f"expected {len(schema.columns)} cells")
            for col, cell in zip(schema.columns, row):
                try:
                    cell.encode("utf-8")
                except UnicodeEncodeError:
                    raise ParseError(rownum, col.name, "not UTF-8 text") from None
            vals = []
            for i, col in keep:
                cell = row[i].strip()
                if col.kind == "binary-categorical":
                    if cell not in col.value_map:
                        raise ParseError(rownum, col.name, f"unmapped value {cell!r}")
                    vals.append(col.value_map[cell])
                else:
                    try:
                        value = float(cell)
                    except ValueError:
                        value = math.nan
                    if not math.isfinite(value):
                        raise ParseError(rownum, col.name, f"not a finite number: {cell!r}")
                    vals.append(value)
            rows.append(vals)
    if not rows:
        raise EmptyDataset(f"{path} holds no data rows")
    values = np.asarray(rows, dtype=float)
    shifts = np.zeros(values.shape[1])
    if shift_nonnegative:
        minima = values.min(axis=0)
        shifts = np.where(minima < 0, -minima, 0.0)
        values = values + shifts
    return LoadResult(values, schema, shifts)


def check_header(path: str | Path, schema: DatasetSchema) -> None:
    """Raise :class:`SchemaMismatch` unless the file's header row names
    the schema's columns in order; reads only that row."""
    with _open_csv(Path(path)) as fh:
        _check_header(csv.reader(fh), schema)


def _open_csv(path: Path):
    # A leading byte-order mark is dropped.  Undecodable bytes become lone
    # surrogates, which load_csv's cell check reports with their row and column.
    return path.open(encoding="utf-8-sig", errors="surrogateescape", newline="")


def _check_header(reader, schema: DatasetSchema) -> None:
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaMismatch("file has no header row") from None
    expected = [c.name for c in schema.columns]
    if header != expected:
        raise SchemaMismatch(f"header {header!r} does not match schema {expected!r}")


def summarize(values: np.ndarray,
              column_names: list[str] | None = None) -> DatasetSummary:
    """Per-column minima, maxima and means of a (tuples x columns) array
    plus the largest tuple norm (the certificate input alpha)."""
    if len(values) == 0:
        raise EmptyDataset("no tuples to summarize")
    x = as_matrix(values)
    names = column_names or [f"c{j}" for j in range(x.shape[1])]
    return DatasetSummary(
        count=x.shape[0],
        column_names=list(names),
        minima=x.min(axis=0),
        maxima=x.max(axis=0),
        means=x.mean(axis=0),
        max_tuple_norm=float(np.linalg.norm(x, axis=1).max()),
    )
