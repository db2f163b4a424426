"""Test helpers: write a dataset schema to JSON, and a synthetic
clinical-style CSV dataset with its schema.

The reference clinical dataset the ingest path was written for is not
redistributable; :func:`generate_lookalike` writes a stand-in with the
same shape (50 retained columns, mixed binary and numeric,
age/sex/length-of-stay private) so the pipeline can be exercised end to
end.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from privsan.dataio import ColumnSpec, DatasetSchema
from privsan.rng import Rng


def write_schema(schema: DatasetSchema, path: str | Path) -> None:
    """Write ``schema`` in the format ``DatasetSchema.from_json`` reads."""
    rows = []
    for c in schema.columns:
        entry: dict = {"name": c.name, "kind": c.kind, "private": c.private}
        if c.value_map:
            entry["value_map"] = c.value_map
        rows.append(entry)
    Path(path).write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")


def generate_lookalike(csv_path: str | Path, schema_path: str | Path,
                       rows: int = 400, seed: int = 0) -> DatasetSchema:
    """Write a synthetic clinical-style dataset and its schema.

    Shape: one dropped id column, 50 retained columns (two of them
    binary categoricals), private columns age, sex and stay_days.
    """
    rng = Rng(seed).generator
    head = [
        ColumnSpec("record_id", "drop"),
        ColumnSpec("age", "numeric", private=True),
        ColumnSpec("sex", "binary-categorical", private=True,
                   value_map={"M": 0.0, "F": 1.0}),
        ColumnSpec("stay_days", "numeric", private=True),
        ColumnSpec("alcoholism", "binary-categorical",
                   value_map={"no": 0.0, "yes": 1.0}),
        ColumnSpec("glucose", "numeric"),
        ColumnSpec("platelets", "numeric"),
    ]
    labs = [ColumnSpec(f"lab_{j:02d}", "numeric") for j in range(44)]
    schema = DatasetSchema(head + labs)

    age = rng.integers(18, 95, rows)
    sex = rng.choice(["M", "F"], rows)
    stay = rng.integers(1, 60, rows)
    alco = rng.choice(["no", "yes"], rows, p=[0.8, 0.2])
    glucose = np.round(rng.normal(5.5, 1.2, rows), 2)
    platelets = np.round(rng.normal(250.0, 60.0, rows), 1)
    lab_vals = np.round(rng.normal(0.0, 1.0, (rows, 44)) + rng.uniform(1.0, 9.0, 44), 3)

    with Path(csv_path).open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(c.name for c in schema.columns) + "\n")
        for k in range(rows):
            cells = [f"p{k:05d}", str(int(age[k])), str(sex[k]), str(int(stay[k])),
                     str(alco[k]), f"{glucose[k]:.17g}", f"{platelets[k]:.17g}"]
            cells += [f"{v:.17g}" for v in lab_vals[k]]
            fh.write(",".join(cells) + "\n")
    write_schema(schema, schema_path)
    return schema
