import numpy as np
import pytest

from privsan.cli import main
from privsan.dataio import (
    ColumnSpec,
    DatasetSchema,
    load_csv,
    summarize,
)
from privsan.errors import EmptyDataset, ParseError, SchemaMismatch

from lookalike import generate_lookalike, write_schema


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


NUMERIC_SCHEMA = DatasetSchema([
    ColumnSpec("a", "numeric"),
    ColumnSpec("b", "numeric", private=True),
])


class TestLoadCsv:
    def test_all_numeric_rows_in_order(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n3,4\n")
        result = load_csv(path, NUMERIC_SCHEMA)
        assert np.array_equal(result.values, [[1, 2], [3, 4]])
        assert result.schema.private_positions == frozenset({1})

    def test_binary_map_fixture(self, tmp_path):
        schema = DatasetSchema([
            ColumnSpec("sex", "binary-categorical", value_map={"M": 0.0, "F": 1.0}),
            ColumnSpec("v", "numeric"),
        ])
        path = write(tmp_path, "sex,v\nM,1.5\nF,2.5\nM,3.5\n")
        result = load_csv(path, schema)
        assert result.values[:, 0].tolist() == [0.0, 1.0, 0.0]

    def test_dropped_column_excluded(self, tmp_path):
        schema = DatasetSchema([
            ColumnSpec("note", "drop"),
            ColumnSpec("v", "numeric"),
        ])
        path = write(tmp_path, "note,v\nhello,7\n")
        result = load_csv(path, schema)
        assert result.values.shape == (1, 1)
        assert result.values[0, 0] == 7.0

    def test_header_mismatch(self, tmp_path):
        path = write(tmp_path, "a,c\n1,2\n")
        with pytest.raises(SchemaMismatch):
            load_csv(path, NUMERIC_SCHEMA)

    def test_parse_error_reports_row_and_column(self, tmp_path):
        for cell in (b"oops", b"nan", b"inf", b"-inf", b"1e999", b"\xff\xfe"):
            path = tmp_path / "data.csv"
            path.write_bytes(b"a,b\n1,2\n1," + cell + b"\n")
            with pytest.raises(ParseError) as err:
                load_csv(path, NUMERIC_SCHEMA)
            assert err.value.row == 2
            assert err.value.column == "b"

    def test_unmapped_categorical(self, tmp_path):
        schema = DatasetSchema([
            ColumnSpec("sex", "binary-categorical", value_map={"M": 0.0, "F": 1.0}),
        ])
        path = write(tmp_path, "sex\nX\n")
        with pytest.raises(ParseError):
            load_csv(path, schema)

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_csv("/nonexistent/nope.csv", NUMERIC_SCHEMA)

    def test_negative_column_shift(self, tmp_path):
        path = write(tmp_path, "a,b\n-3,5\n1,6\n")
        shifted = load_csv(path, NUMERIC_SCHEMA)
        assert np.allclose(shifted.column_shifts, [3.0, 0.0])
        assert np.allclose(shifted.values[0], [0.0, 5.0])
        raw = load_csv(path, NUMERIC_SCHEMA, shift_nonnegative=False)
        assert raw.values[0, 0] == -3.0


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        gen = np.random.default_rng(1)
        path = write(tmp_path, "a,b\n" + "\n".join(
            f"{gen.uniform(0, 1):.17g},{gen.uniform(0, 9):.17g}" for _ in range(20)) + "\n")
        schema = tmp_path / "s.json"
        write_schema(NUMERIC_SCHEMA, schema)
        out = tmp_path / "out"
        assert main(["ingest", "--data", str(path), "--schema", str(schema),
                     "--out", str(out)]) == 0
        first = load_csv(path, NUMERIC_SCHEMA)
        second = load_csv(out / "processed.csv", NUMERIC_SCHEMA)
        assert first.values.tobytes() == second.values.tobytes()


class TestSummarize:
    def test_three_four_five_norm(self, tmp_path):
        path = write(tmp_path, "a,b\n3,4\n")
        result = load_csv(path, NUMERIC_SCHEMA)
        assert summarize(result.values).max_tuple_norm == pytest.approx(5.0, abs=1e-12)

    def test_constant_column(self, tmp_path):
        path = write(tmp_path, "a,b\n2,1\n2,5\n2,3\n")
        s = summarize(load_csv(path, NUMERIC_SCHEMA).values, ["a", "b"])
        assert s.minima[0] == s.maxima[0] == s.means[0] == 2.0

    def test_hand_means(self, tmp_path):
        path = write(tmp_path, "a,b\n1,10\n2,20\n3,33\n")
        s = summarize(load_csv(path, NUMERIC_SCHEMA).values)
        assert np.allclose(s.means, [2.0, 21.0])
        assert s.count == 3

    def test_alpha_matches_brute_force(self, tmp_path):
        gen = np.random.default_rng(5)
        rows = gen.uniform(0, 4, (30, 2))
        path = write(tmp_path, "a,b\n" + "\n".join(
            f"{r[0]:.17g},{r[1]:.17g}" for r in rows) + "\n")
        result = load_csv(path, NUMERIC_SCHEMA)
        brute = max(float(np.sqrt(np.sum(row**2))) for row in result.values)
        assert summarize(result.values).max_tuple_norm == pytest.approx(brute, abs=1e-12)

    def test_empty(self):
        with pytest.raises(EmptyDataset):
            summarize(np.empty((0, 2)))


class TestLookalike:
    def test_generated_dataset_loads(self, tmp_path):
        csv_path = tmp_path / "clinic.csv"
        schema_path = tmp_path / "clinic.schema.json"
        generate_lookalike(csv_path, schema_path, rows=60, seed=7)
        schema = DatasetSchema.from_json(schema_path)
        result = load_csv(csv_path, schema)
        assert result.values.shape == (60, 50)
        assert schema.private_positions == frozenset({0, 1, 2})

    def test_schema_json_roundtrip(self, tmp_path):
        p = tmp_path / "s.json"
        schema = DatasetSchema([
            ColumnSpec("x", "numeric", private=True),
            ColumnSpec("s", "binary-categorical", value_map={"y": 1.0, "n": 0.0}),
        ])
        write_schema(schema, p)
        again = DatasetSchema.from_json(p)
        assert again == schema

    def test_bad_schema_kind(self, tmp_path):
        with pytest.raises(SchemaMismatch):
            ColumnSpec("x", "wat")
        with pytest.raises(SchemaMismatch):
            ColumnSpec("x", "binary-categorical")
        bad_files = ['[{"name": "x"', '[{"kind": "numeric"}]', '["x"]',
                     '[{"name": "s", "kind": "binary-categorical", "value_map": {"y": "one"}}]',
                     '[{"name": "s", "kind": "binary-categorical", "value_map": {"y": NaN}}]',
                     '[{"name": "x", "private": "false"}]', '[{"name": "x", "private": 1}]']
        for text in bad_files:
            with pytest.raises(SchemaMismatch):
                DatasetSchema.from_json(write(tmp_path, text, "s.json"))
