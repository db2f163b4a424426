import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from privsan import cli, sanitize
from privsan.cli import main
from privsan.errors import InfeasibleBound
from privsan.rng import Rng
from privsan.simulate import (
    ADVERSARIES,
    DISTRIBUTIONS,
    FLOAT_LIMIT,
    MECHANISMS,
    ExperimentConfig,
)
from privsan.verify import PreservationTrial

from lookalike import generate_lookalike

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
        env = manifest["environment"]
        assert set(env) == {"numpy", "blas", "usable_cores"}
        assert set(env["blas"]) == {"name", "version"}
        assert env["usable_cores"] >= 1

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

    def test_report_json_is_strict_json(self, tmp_path):
        # 50 parameters from 5 x 10 observations of dimension 5 cannot be
        # identified, so the robustness gap is NaN: null in JSON, nan in CSV.
        cfg = write_cfg(tmp_path, {"agent_count": 5, "observations_per_agent": 10,
                                   "input_dim": 5, "param_dim": 50, "target_dim": 2,
                                   "private_count": 2, "k_neighbors": 3, "repetitions": 1})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        record = json.loads((out / "report.json").read_text(), parse_constant=reject)
        assert record["robustness_gap_mean"] is None
        assert ",nan," in (out / "report.csv").read_text()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["run", "--config", str(cfg), "--out", str(out1)])
        main(["run", "--config", str(cfg), "--out", str(out2)])
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_reports_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # The ablation config with the random-inverse attack, in fresh
        # interpreters: OpenBLAS reads its thread count at load time.
        root = Path(__file__).resolve().parents[1]
        outs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": threads,
                   "PRIVSAN_ADVERSARY": "random-inverse", "PRIVSAN_REPETITIONS": "1"}
            outs.append(tmp_path / threads)
            subprocess.run([sys.executable, "-m", "privsan.cli", "run", "--config",
                            str(root / "configs" / "ablation.json"), "--out", str(outs[-1])],
                           env=env, check=True, capture_output=True, timeout=300)
        for name in ("report.csv", "report.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

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
            {"repetitions": 1.5},
            {"master_seed": -1},
            {"repetitions": True},
            {"min_utility": True},
            {"master_seed": None},
            {"noise_sigma": None},
            {"shift_margin": None},
            {"agent_count": None},
            {"input_dim": 1, "target_dim": 1, "private_count": 0},
            {"sanitizer": "pca", "agent_count": 1, "observations_per_agent": 20,
             "noise_sigma": 1e-12},
            {"noise_sigma": 1e7},
            {"cell_fraction": 1e308},
            {"param_dim": 0},
            # A 309-digit agent count: more round elements than numpy can index.
            {"agent_count": 1e308},
            # A JSON integer too large to convert to a float.
            {"min_utility": 10**400},
        ]
        for extra in cases:
            cfg = write_cfg(tmp_path, extra)
            out = tmp_path / "x"
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2, extra
            assert "configuration error" in capsys.readouterr().err
            assert not out.exists(), f"{extra} did work before failing"

    def test_config_with_byte_order_mark(self, tmp_path):
        cfg = write_cfg(tmp_path)
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xef\xbb\xbf" + cfg.read_bytes())
        for path, out in ((cfg, tmp_path / "plain"), (bom, tmp_path / "bom")):
            assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        assert (tmp_path / "bom/report.csv").read_bytes() == \
            (tmp_path / "plain/report.csv").read_bytes()

    def test_pca_on_one_agent_with_noise_runs(self, tmp_path):
        cfg = write_cfg(tmp_path, {"sanitizer": "pca", "agent_count": 1,
                                   "observations_per_agent": 20, "repetitions": 1})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "report.json").is_file()

    def test_env_variable_naming_no_key_exits_2(self, tmp_path, monkeypatch, capsys):
        # A misspelled PRIVSAN_REPETITIONS must not leave repetitions at 2.
        cfg = write_cfg(tmp_path, {"agent_count": 4, "input_dim": 4, "param_dim": 2,
                                   "target_dim": 2, "private_count": 1, "k_neighbors": 2})
        monkeypatch.setenv("PRIVSAN_REPETITION", "1")
        out = tmp_path / "x"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "PRIVSAN_REPETITION " in capsys.readouterr().err
        assert not out.exists()

    def test_mechanism_choices_come_from_the_table(self):
        parser = cli.build_parser()
        for name in MECHANISMS:
            assert parser.parse_args(["run", "--mechanism", name]).mechanism == name
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "--mechanism", "bogus"])

    def test_missing_config_exits_2(self, tmp_path):
        for path in (tmp_path / "nope.json", tmp_path):
            assert main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 2

    def test_run_too_large_for_memory_exits_2(self, tmp_path, monkeypatch, capsys):
        # A million agents of a thousand 50-dim tuples: the round's values
        # alone are 400 GB.
        def fail(*args):
            raise AssertionError("run_experiment ran")

        monkeypatch.setattr(cli, "run_experiment", fail)
        cfg = write_cfg(tmp_path, {"agent_count": 10**6, "observations_per_agent": 1000})
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = main(["run", "--config", str(cfg), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "physical memory" in capsys.readouterr().err
        assert not out.exists()
        assert peak < 1 << 20, peak

    def test_runtime_error_exits_3(self, tmp_path, monkeypatch):
        def fail(cfg):
            raise InfeasibleBound("utility floor unreachable")

        monkeypatch.setattr(cli, "run_experiment", fail)
        cfg = write_cfg(tmp_path)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3

    def test_an_all_zero_draw_exits_3(self, tmp_path, monkeypatch, capsys):
        # The run's first bounded-entry draw holds one all-zero matrix; it
        # is refused, and no draw is taken after it.
        uniform = sanitize._uniform
        calls = []

        def zero_first(*args):
            a = uniform(*args)
            if not calls:
                a[0] = 0.0
            calls.append(args)
            return a

        monkeypatch.setattr(sanitize, "_uniform", zero_first)
        cfg = write_cfg(tmp_path, {"repetitions": 1})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
        assert "all-zero" in capsys.readouterr().err
        assert len(calls) == 1

    def test_unwritable_result_file_exits_3(self, tmp_path, capsys):
        # The result files are written after the work is done, so a file
        # that cannot be written is a runtime error and names the file.
        out = tmp_path / "out"
        (out / "report.csv").mkdir(parents=True)
        cfg = write_cfg(tmp_path, {"repetitions": 1})
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"runtime error: cannot write {out / 'report.csv'}: "), err
        assert "Traceback" not in err

    def test_metric_flags_reach_config(self, tmp_path):
        cfg = write_cfg(tmp_path, {"radius_fraction": 0.5, "k_neighbors": 4})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        record = json.loads((out / "report.json").read_text())
        assert record["config"]["radius_fraction"] == 0.5
        assert record["config"]["k_neighbors"] == 4
        assert record["report"]["neighborhood_radius_rule"].startswith("relative-0.5")
        assert record["report"]["k_neighbors"] == 4


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

    def test_digest_covers_the_grid(self, tmp_path):
        cfg = write_cfg(tmp_path, {"repetitions": 1})
        digests = []
        for agents, out in (("12", "d1"), ("12", "d2"), ("13", "d3")):
            assert main(["sweep", "--config", str(cfg), "--agents", agents,
                         "--mechanisms", "asup", "--out", str(tmp_path / out)]) == 0
            manifest = json.loads((tmp_path / out / "manifest.json").read_text())
            digests.append(manifest["config_digest"])
        assert digests[0] == digests[1] != digests[2]

    def test_mechanism_flag_is_run_only(self, tmp_path):
        # Every grid point sets its own mechanism, so sweep takes no --mechanism.
        cfg = write_cfg(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfg), "--mechanism", "nrp",
                  "--out", str(tmp_path / "s")])
        assert exc.value.code == 2
        assert not (tmp_path / "s").exists()

    def test_invalid_grid_point_exits_2_before_any_run(self, tmp_path, monkeypatch):
        # Every round, in run and sweep alike, starts by drawing its data.
        ran = []
        monkeypatch.setattr("privsan.simulate.generate_synthetic", lambda *a: ran.append(a))
        cfg = write_cfg(tmp_path, {"observations_per_agent": 1})
        for extra in (["--agents", "12,5"], ["--mechanisms", "nrp,bogus"],
                      ["--agents", "12,x"], ["--agents", f"12,{10**30}"]):
            assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]
                        + extra) == 2
        assert ran == []
        assert not (tmp_path / "s").exists()

    def test_grid_point_too_large_for_memory_exits_2(self, tmp_path, monkeypatch, capsys):
        # The sweep is refused for its largest grid point: a million agents.
        def fail(*args):
            raise AssertionError("run_sweep ran")

        monkeypatch.setattr(cli, "run_sweep", fail)
        cfg = write_cfg(tmp_path, {"observations_per_agent": 1000})
        out = tmp_path / "s"
        tracemalloc.start()
        try:
            code = main(["sweep", "--config", str(cfg), "--agents", f"12,{10**6}",
                         "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "physical memory" in capsys.readouterr().err
        assert not out.exists()
        assert peak < 1 << 20, peak

    def test_adversary_other_than_auto_exits_2(self, tmp_path, monkeypatch, capsys):
        # Every grid point runs its mechanism's own attack, so an adversary
        # the sweep would ignore is refused before --out is created.
        monkeypatch.setenv("PRIVSAN_ADVERSARY", "random-inverse")
        cfg = write_cfg(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--agents", "12", "--mechanisms", "nrp",
                     "--out", str(tmp_path / "s")]) == 2
        assert "adversary must be 'auto'" in capsys.readouterr().err
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

    def test_trial_too_large_for_memory_exits_2(self, tmp_path, monkeypatch, capsys):
        # At gamma 0.01 one trial's n x m matrix alone is 2.8 TB.
        def fail(*args):
            raise AssertionError("preservation_trials ran")

        monkeypatch.setattr(cli.verify, "preservation_trials", fail)
        out = tmp_path / "v"
        tracemalloc.start()
        try:
            code = main(["verify", "--gamma", "0.01", "--points", "100", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "physical memory" in capsys.readouterr().err
        assert not out.exists()
        assert peak < 1 << 20, peak

    @pytest.mark.parametrize("gamma,points", [(0.2, 100), (0.3, 100), (0.3, 2000)])
    def test_peak_estimate_bounds_one_trial(self, gamma, points):
        tracemalloc.start()
        try:
            cli.verify.preservation_trials(gamma, points, 1, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cli.verify.trial_peak_bytes(gamma, points) <= 3 * peak

    def test_violation_exits_4(self, tmp_path, monkeypatch, capsys):
        failing = [PreservationTrial(0, 10, 20, 0.4, 0.9)]
        monkeypatch.setattr(cli.verify, "preservation_trials", lambda *args: failing)
        code = main(["verify", "--trials", "1", "--out", str(tmp_path / "v")])
        assert code == cli.EXIT_VIOLATIONS == 4
        assert "VIOLATIONS FOUND" in capsys.readouterr().err

    def test_memory_error_exits_3(self, tmp_path, monkeypatch, capsys):
        # numpy raises a MemoryError subclass naming the size it could not
        # allocate; a bare MemoryError has no message, so its name is printed.
        for error in (MemoryError("Unable to allocate 2.53 TiB"), MemoryError()):
            def fail(*args):
                raise error

            monkeypatch.setattr(cli.verify, "preservation_trials", fail)
            assert main(["verify", "--trials", "1", "--out", str(tmp_path / "v")]) == 3
            err = capsys.readouterr().err
            assert err.startswith(f"runtime error: {str(error) or 'MemoryError'}\n"), err


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

    def test_run_too_large_for_memory_exits_2(self, tmp_path, monkeypatch, capsys):
        # At n = 100,000 asup's draw of eight n x n matrices alone is 640 GB.
        def fail(*args, **kwargs):
            raise AssertionError("measure ran")

        monkeypatch.setattr(cli.timing, "measure", fail)
        out = tmp_path / "t"
        tracemalloc.start()
        try:
            code = main(["timing", "--n-grid", "128,100000", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "physical memory" in capsys.readouterr().err
        assert not out.exists()
        assert peak < 1 << 20, peak

    @pytest.mark.parametrize("grid", [[128, 256], [128, 512]])
    def test_peak_estimate_bounds_the_run(self, grid):
        tracemalloc.start()
        try:
            cli.timing.measure(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cli.timing.measure_peak_bytes(grid) <= 3 * peak


class TestRefusalThresholds:
    """The byte estimates behind exit 2, pinned as integers: a change to
    them moves the threshold at which a config is refused, and must say
    so here.  The configs are those of the benchmark workloads, of
    ``configs/`` and of every sanitizer at the built-in defaults."""

    ABLATION = {"agent_count": 200, "observations_per_agent": 8, "target_dim": 20,
                "min_utility": 0.5, "sanitizer": "nrp"}
    SWEEP_600 = {"observations_per_agent": 1, "target_dim": 20, "min_utility": 0.5,
                 "agent_count": 600}

    @pytest.mark.parametrize("config,expected", [
        ({}, 54_534_304),
        ({**ABLATION, "adversary": "random-inverse"}, 20_284_704),
        ({**SWEEP_600, "sanitizer": "nrp"}, 18_993_504),
        ({**SWEEP_600, "sanitizer": "brp"}, 14_799_200),
        ({**SWEEP_600, "sanitizer": "pca"}, 14_799_200),
        ({**SWEEP_600, "sanitizer": "asup"}, 18_993_504),
    ])
    def test_workload_estimate(self, config, expected):
        assert cli.peak_bytes(ExperimentConfig(**config)) == expected

    @pytest.mark.parametrize("sanitizer", sorted(MECHANISMS))
    def test_sanitizer_estimate_at_the_defaults(self, sanitizer):
        expected = {"nrp": 54_534_304, "nrp-unbounded": 53_540_000, "brp": 50_340_000,
                    "pca": 50_340_000, "asup": 54_534_304, "identity": 50_340_000}
        assert cli.peak_bytes(ExperimentConfig(sanitizer=sanitizer)) == expected[sanitizer]

    @pytest.mark.parametrize("name,expected", [("ablation", 15_625_504), ("sweep", 8_146_400)])
    def test_config_file_estimate(self, name, expected):
        path = Path(__file__).resolve().parent.parent / "configs" / f"{name}.json"
        config = json.loads(path.read_text(encoding="utf-8"))
        assert cli.peak_bytes(ExperimentConfig(**config)) == expected

    @pytest.mark.parametrize("gamma,points,expected", [(0.2, 100, 97_799_936),
                                                       (0.1, 1000, 3_255_800_384)])
    def test_trial_estimate(self, gamma, points, expected):
        assert cli.verify.trial_peak_bytes(gamma, points) == expected


class TestAdversaryMatrix:
    """The attack follows the threat model: ``auto`` runs each mechanism's
    own attack, and ``random-inverse`` runs only on the mechanisms that
    draw a secret matrix per tuple.  Every other pair is refused."""

    SANITIZERS = ("nrp", "nrp-unbounded", "brp", "pca", "asup", "identity")
    ACCEPTED = [(mech, "auto") for mech in SANITIZERS] + [
        ("nrp", "random-inverse"), ("nrp-unbounded", "random-inverse")]
    REMOVED = ("expected-inverse", "known-matrix", "naive-inverse", "identity")

    def test_accepted_pairs_run(self, tmp_path):
        assert ADVERSARIES == ("auto", "random-inverse")
        assert sorted(MECHANISMS) == sorted(self.SANITIZERS)
        for mech, adv in self.ACCEPTED:
            cfg = write_cfg(tmp_path, {"sanitizer": mech, "adversary": adv, "repetitions": 1})
            out = tmp_path / f"{mech}-{adv}"
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0, (mech, adv)
            report = json.loads((out / "report.json").read_text())["report"]
            assert 0.0 <= report["breach_count"] <= 1.0, (mech, adv)

    def test_every_other_pair_exits_2_before_out(self, tmp_path, capsys):
        refused = [(mech, adv) for mech in self.SANITIZERS
                   for adv in ("auto", "random-inverse") + self.REMOVED
                   if (mech, adv) not in self.ACCEPTED]
        assert len(refused) == 4 + 6 * len(self.REMOVED)
        out = tmp_path / "out"
        for mech, adv in refused:
            cfg = write_cfg(tmp_path, {"sanitizer": mech, "adversary": adv})
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2, (mech, adv)
            err = capsys.readouterr().err
            assert err.startswith("configuration error:"), (mech, adv, err)
            if adv in self.REMOVED:
                assert "adversary must be one of auto, random-inverse" in err, err
            assert not out.exists(), (mech, adv)


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

    def test_byte_order_mark_is_read(self, tmp_path):
        # A BOM-prefixed copy of the data and of the schema ingests to the
        # same processed.csv.
        generate_lookalike(tmp_path / "c.csv", tmp_path / "c.schema.json", rows=5, seed=3)
        for name in ("c.csv", "c.schema.json"):
            data = (tmp_path / name).read_bytes()
            (tmp_path / f"bom-{name}").write_bytes(b"\xef\xbb\xbf" + data)
        for prefix in ("", "bom-"):
            assert main(["ingest", "--data", str(tmp_path / f"{prefix}c.csv"),
                         "--schema", str(tmp_path / f"{prefix}c.schema.json"),
                         "--out", str(tmp_path / f"{prefix}out")]) == 0
        assert (tmp_path / "bom-out/processed.csv").read_bytes() == \
            (tmp_path / "out/processed.csv").read_bytes()

    def test_processed_csv_quotes_a_column_name_with_a_comma(self, tmp_path):
        schema = tmp_path / "s.json"
        schema.write_text('[{"name": "a,b"}, {"name": "c"}]', encoding="utf-8")
        data = tmp_path / "d.csv"
        data.write_text('"a,b",c\n1,2\n3,4\n', encoding="utf-8")
        out = tmp_path / "i"
        assert main(["ingest", "--data", str(data), "--schema", str(schema),
                     "--out", str(out)]) == 0
        with (out / "processed.csv").open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["a,b", "c"]
        assert [len(row) for row in rows] == [2, 2, 2]

    def test_missing_data_exits_2_before_creating_out(self, tmp_path, capsys):
        schema = tmp_path / "s.json"
        schema.write_text('[{"name": "x"}]', encoding="utf-8")
        out = tmp_path / "i"
        assert main(["ingest", "--data", str(tmp_path / "missing.csv"),
                     "--schema", str(schema), "--out", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

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

    def test_bad_schema_or_header_exits_2_before_creating_out(self, tmp_path, capsys):
        # An all-drop schema, a header that does not match the schema and a
        # file with no header row are configuration errors.
        cases = [('[{"name": "x", "kind": "drop"}, {"name": "y", "kind": "drop"}]', "x,y\n1,2\n"),
                 ('[{"name": "x"}, {"name": "y"}]', "x,z\n1,2\n"),
                 ('[{"name": "x"}, {"name": "y"}]', "")]
        for k, (schema_text, data_text) in enumerate(cases):
            schema, data = tmp_path / f"s{k}.json", tmp_path / f"d{k}.csv"
            schema.write_text(schema_text, encoding="utf-8")
            data.write_text(data_text, encoding="utf-8")
            out = tmp_path / f"out{k}"
            assert main(["ingest", "--data", str(data), "--schema", str(schema),
                         "--out", str(out)]) == 2, k
            err = capsys.readouterr().err
            assert "configuration error" in err and "Traceback" not in err, k
            assert not out.exists(), k

    def test_data_hashed_in_blocks(self, tmp_path):
        data = tmp_path / "big.csv"
        payload = Rng(5).generator.bytes(8 << 20)
        data.write_bytes(payload)
        tracemalloc.start()
        try:
            digest = cli._file_sha256(str(data))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert digest == hashlib.sha256(payload).hexdigest()
        assert peak < 2 << 20

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
                       "privsan.simulate.generate_synthetic",
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


# Values no config key accepts: no number, unparseable text, containers.
WRONG_TYPED = hst.one_of(hst.none(), hst.booleans(), hst.text("abfinx-. ", max_size=3),
                         hst.lists(hst.integers(0, 3), max_size=2), hst.just({}))
OUT_OF_RANGE = [math.nan, math.inf, -math.inf, -1, 0, 1.5, -0.5]
# Float keys also get magnitudes past FLOAT_LIMIT; integer keys do not,
# because a huge count is a valid config too large to run here.
FLOAT_OUT_OF_RANGE = OUT_OF_RANGE + [10 * FLOAT_LIMIT, 1e308, -1e308]
FLOAT_KEYS = {"min_utility", "radius_fraction", "noise_sigma", "shift_margin", "cell_fraction",
              "asup_noise_cell_multiple"}


@hst.composite
def run_configs(draw):
    """A small config with every key set, up to two of them to a wrong-typed
    or out-of-range value."""
    agents, nobs, n = draw(hst.integers(1, 5)), draw(hst.integers(1, 3)), draw(hst.integers(1, 6))
    big = hst.floats(0.0, FLOAT_LIMIT)
    cfg = {
        "agent_count": agents, "observations_per_agent": nobs, "input_dim": n,
        "param_dim": draw(hst.integers(1, 6)), "target_dim": draw(hst.integers(1, n)),
        "private_count": draw(hst.integers(0, n)),
        "min_utility": draw(hst.floats(1e-6, 1.0)),
        "sanitizer": draw(hst.sampled_from(sorted(MECHANISMS))),
        "adversary": draw(hst.sampled_from(ADVERSARIES)),
        "entry_distribution": draw(hst.sampled_from(DISTRIBUTIONS)),
        "repetitions": draw(hst.integers(1, 2)),
        "master_seed": draw(hst.integers(0, 2**64)),
        "radius_fraction": draw(hst.floats(1e-6, FLOAT_LIMIT)),
        "k_neighbors": draw(hst.integers(1, max(1, agents * nobs - 1))),
        "metric_coordinates": draw(hst.sampled_from(["all", "private"])),
        "noise_sigma": draw(big), "shift_margin": draw(big),
        "cell_fraction": draw(hst.floats(1e-6, FLOAT_LIMIT)),
        "asup_noise_cell_multiple": draw(big),
        "inverse_samples": draw(hst.integers(1, 3)),
    }
    for key in draw(hst.lists(hst.sampled_from(sorted(cfg)), max_size=2, unique=True)):
        bad = FLOAT_OUT_OF_RANGE if key in FLOAT_KEYS else OUT_OF_RANGE
        cfg[key] = draw(WRONG_TYPED | hst.sampled_from(bad))
    return cfg


class TestRunConfigs:
    @settings(max_examples=250, derandomize=True, database=None, deadline=None)
    @given(run_configs())
    def test_exits_0_or_2_before_any_output(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(["run", "--config", str(path), "--out", str(out)])
            assert code in (0, 2), err.getvalue()
            assert "Traceback" not in err.getvalue()
            if code == 0:
                assert (out / "report.json").is_file()
            else:
                assert "configuration error" in err.getvalue() and not out.exists()
