import json

import pytest

from privsan import cli
from privsan.cli import main
from privsan.dataio import generate_lookalike
from privsan.errors import InfeasibleBound
from privsan.simulate import MECHANISMS
from privsan.verify import PreservationTrial

FAST_CFG = {
    "agent_count": 15,
    "observations_per_agent": 3,
    "repetitions": 2,
    "master_seed": 7,
}


def write_cfg(tmp_path, extra=None, name="cfg.json"):
    cfg = dict(FAST_CFG)
    cfg.update(extra or {})
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


class TestRunCommand:
    def test_writes_report_and_manifest(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "report.csv").exists()
        assert (out / "report.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["report.csv", "report.json"]
        record = json.loads((out / "report.json").read_text())
        assert record["config_digest"] == manifest["config_digest"]
        assert len(record["per_repetition"]) == 2

    def test_csv_parses_back_to_json_values(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        header, row = (out / "report.csv").read_text().strip().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        record = json.loads((out / "report.json").read_text())
        assert float(cells["breach_count"]) == record["report"]["breach_count"]
        assert float(cells["displacement"]) == record["report"]["displacement"]
        assert float(cells["resemblance"]) == record["report"]["resemblance"]
        assert float(cells["utility"]) == record["utility_mean"]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["run", "--config", str(cfg), "--out", str(out1)])
        main(["run", "--config", str(cfg), "--out", str(out2)])
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_flag_overrides_config(self, tmp_path):
        cfg = write_cfg(tmp_path, {"sanitizer": "nrp"})
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out),
              "--mechanism", "identity"])
        record = json.loads((out / "report.json").read_text())
        assert record["config"]["sanitizer"] == "identity"
        assert record["report"]["breach_count"] == 1.0

    def test_env_override(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path)
        monkeypatch.setenv("PRIVSAN_REPETITIONS", "1")
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        record = json.loads((out / "report.json").read_text())
        assert record["config"]["repetitions"] == 1

    def test_malformed_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        for text in (b"{not json", b'{"sanitizer": "\xff"}'):
            bad.write_bytes(text)
            assert main(["run", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, {"bogus_key": 1})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

    def test_invalid_value_exits_2(self, tmp_path, capsys):
        cases = [
            {"min_utility": 0.0},
            {"entry_distribution": "foo"},
            {"inverse_samples": 0},
            {"cell_fraction": 0},
            {"agent_count": 5, "observations_per_agent": 2, "k_neighbors": 10},
            {"noise_sigma": -0.1},
            {"shift_margin": -0.1},
            {"asup_noise_cell_multiple": -0.1},
            {"breach_absolute_radius": -0.1},
            {"repetitions": 1.5},
            {"master_seed": -1},
            {"repetitions": True},
            {"min_utility": True},
        ]
        for extra in cases:
            cfg = write_cfg(tmp_path, extra)
            out = tmp_path / "x"
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2, extra
            assert "configuration error" in capsys.readouterr().err
            assert not out.exists(), f"{extra} did work before failing"

    def test_misspelled_boolean_env_exits_2(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, {"sanitizer": "nrp-unbounded"})
        monkeypatch.setenv("PRIVSAN_UNBOUNDED_FRESH_PER_TUPLE", "ture")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        monkeypatch.setenv("PRIVSAN_UNBOUNDED_FRESH_PER_TUPLE", "off")
        out = tmp_path / "y"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        record = json.loads((out / "report.json").read_text())
        assert record["config"]["unbounded_fresh_per_tuple"] is False

    def test_json_boolean_for_a_boolean_key(self, tmp_path):
        cfg = write_cfg(tmp_path, {"sanitizer": "nrp-unbounded",
                                   "unbounded_fresh_per_tuple": True})
        out = tmp_path / "x"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        record = json.loads((out / "report.json").read_text())
        assert record["config"]["unbounded_fresh_per_tuple"] is True

    def test_mechanism_choices_come_from_the_table(self):
        parser = cli.build_parser()
        for name in MECHANISMS:
            assert parser.parse_args(["run", "--mechanism", name]).mechanism == name
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "--mechanism", "bogus"])

    def test_missing_config_exits_2(self, tmp_path):
        for path in (tmp_path / "nope.json", tmp_path):
            assert main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 2

    def test_runtime_error_exits_3(self, tmp_path, monkeypatch):
        def fail(cfg):
            raise InfeasibleBound("utility floor unreachable")

        monkeypatch.setattr(cli, "run_experiment", fail)
        cfg = write_cfg(tmp_path)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3

    def test_metric_flags_reach_config(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out),
              "--radius-fraction", "0.5", "--k-neighbors", "4"])
        record = json.loads((out / "report.json").read_text())
        assert record["config"]["radius_fraction"] == 0.5
        assert record["config"]["k_neighbors"] == 4
        assert record["report"]["neighborhood_radius_rule"].startswith("relative-0.5")

    def test_absolute_radius_config_key(self, tmp_path):
        cfg = write_cfg(tmp_path, {"breach_absolute_radius": 0.25})
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        record = json.loads((out / "report.json").read_text())
        assert record["report"]["neighborhood_radius_rule"].startswith("absolute-0.25")


class TestSweepCommand:
    def test_cardinality_and_determinism(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        args = ["sweep", "--config", str(cfg), "--agents", "12,15",
                "--mechanisms", "nrp,brp"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        lines = (out1 / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == ("mechanism,agents,min_utility,target_dim,breach_count,"
                            "displacement,resemblance,utility,privacy")
        assert len(lines) - 1 == 4
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    def test_invalid_grid_point_exits_2_before_any_run(self, tmp_path, monkeypatch):
        ran = []
        monkeypatch.setattr("privsan.simulate.run_experiment", ran.append)
        cfg = write_cfg(tmp_path, {"observations_per_agent": 1})
        for extra in (["--agents", "12,5"], ["--mechanisms", "nrp,bogus"],
                      ["--agents", "12,x"]):
            assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]
                        + extra) == 2
        assert ran == []
        assert not (tmp_path / "s").exists()


class TestVerifyCommand:
    def test_small_verification(self, tmp_path, capsys):
        out = tmp_path / "v"
        code = main(["verify", "--gamma", "0.35", "--points", "20",
                     "--trials", "2", "--out", str(out)])
        assert code == 0
        assert (out / "preservation.csv").exists()
        eq_lines = (out / "equivalence.csv").read_text().strip().splitlines()
        assert len(eq_lines) - 1 == 600
        assert all(line.endswith(",1") for line in eq_lines[1:])
        printed = capsys.readouterr().out
        assert "preservation" in printed

    def test_bad_gamma_exits_2(self, tmp_path):
        assert main(["verify", "--gamma", "0.5", "--out", str(tmp_path / "v")]) == 2
        assert main(["verify", "--points", "1", "--out", str(tmp_path / "v")]) == 2
        assert main(["verify", "--seed", "-1", "--out", str(tmp_path / "v")]) == 2
        assert not (tmp_path / "v").exists()

    def test_violation_exits_4(self, tmp_path, monkeypatch, capsys):
        failing = [PreservationTrial(0, 10, 20, 0.4, 0.9)]
        monkeypatch.setattr(cli.verify, "preservation_trials", lambda *args: failing)
        code = main(["verify", "--trials", "1", "--out", str(tmp_path / "v")])
        assert code == cli.EXIT_VIOLATIONS == 4
        assert "VIOLATIONS FOUND" in capsys.readouterr().err


class TestTimingCommand:
    def test_small_grid(self, tmp_path):
        out = tmp_path / "t"
        assert main(["timing", "--n-grid", "64,128", "--out", str(out)]) == 0
        lines = (out / "timing.csv").read_text().strip().splitlines()
        assert len(lines) - 1 == 10  # 5 rows per grid point
        assert (out / "slopes.csv").exists()

    def test_bad_grid_exits_2(self, tmp_path):
        for grid in ("64", "64,64", "8,64"):
            assert main(["timing", "--n-grid", grid, "--out", str(tmp_path / "t")]) == 2
        assert main(["timing", "--seed", "-1", "--out", str(tmp_path / "t")]) == 2
        assert not (tmp_path / "t").exists()


class TestIngestCommand:
    def test_lookalike_roundtrip(self, tmp_path):
        csv_path = tmp_path / "c.csv"
        schema_path = tmp_path / "c.schema.json"
        generate_lookalike(csv_path, schema_path, rows=40, seed=3)
        out = tmp_path / "i"
        code = main(["ingest", "--data", str(csv_path), "--schema", str(schema_path),
                     "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["count"] == 40
        assert len(summary["columns"]) == 50
        assert summary["private_positions"] == [0, 1, 2]
        assert (out / "processed.csv").exists()

    def test_missing_schema_exits_2(self, tmp_path, capsys):
        assert main(["ingest", "--data", str(tmp_path / "a.csv"),
                     "--schema", str(tmp_path / "b.json"),
                     "--out", str(tmp_path / "x")]) == 2
        # Malformed JSON and an entry without a name are schema errors too.
        data = tmp_path / "a.csv"
        data.write_text("x\n1\n", encoding="utf-8")
        schema = tmp_path / "b.json"
        for text in ('[{"name": "x"', '[{"kind": "numeric"}]',
                     '[{"name": "x", "private": "false"}]'):
            schema.write_text(text, encoding="utf-8")
            assert main(["ingest", "--data", str(data), "--schema", str(schema),
                         "--out", str(tmp_path / "x")]) == 2
        # A directory is no schema or data file either.
        schema.write_text('[{"name": "x"}]', encoding="utf-8")
        for paths in ((data, tmp_path), (tmp_path, schema)):
            assert main(["ingest", "--data", str(paths[0]), "--schema", str(paths[1]),
                         "--out", str(tmp_path / "x")]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_bad_cell_exits_3(self, tmp_path, capsys):
        schema = tmp_path / "s.json"
        schema.write_text('[{"name": "x"}, {"name": "y"}]', encoding="utf-8")
        for cell in (b"oops", b"nan", b"inf", b"\xff\xfe"):
            data = tmp_path / "a.csv"
            data.write_bytes(b"x,y\n1,2\n3," + cell + b"\n")
            assert main(["ingest", "--data", str(data), "--schema", str(schema),
                         "--out", str(tmp_path / "x")]) == 3
            assert "row 2, column 'y'" in capsys.readouterr().err


class TestOutputDirectory:
    def test_out_under_a_file_exits_2_before_any_work(self, tmp_path, monkeypatch, capsys):
        ran = []
        for target in ("privsan.simulate.run_experiment", "privsan.cli.run_experiment",
                       "privsan.verify.preservation_trials", "privsan.timing.measure",
                       "privsan.dataio.load_csv"):
            monkeypatch.setattr(target, lambda *a, _name=target, **kw: ran.append(_name))
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        cfg = write_cfg(tmp_path)
        csv_path, schema_path = tmp_path / "c.csv", tmp_path / "c.schema.json"
        generate_lookalike(csv_path, schema_path, rows=5)
        commands = [
            ["run", "--config", str(cfg)],
            ["sweep", "--config", str(cfg), "--agents", "12"],
            ["verify"],
            ["timing"],
            ["ingest", "--data", str(csv_path), "--schema", str(schema_path)],
        ]
        for argv in commands:
            assert main(argv + ["--out", str(blocker / "out")]) == 2, argv[0]
            assert "configuration error" in capsys.readouterr().err, argv[0]
        assert ran == []
