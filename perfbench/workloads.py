"""Benchmark workloads: what one op calls in privsan and how its output is
checked.

An op is one call into a public entry point.  For ``default``,
``ablation-random-inverse`` and ``sweep-600`` it is one
``privsan.cli.main(["run" | "sweep", ...])`` call with ``repetitions``
set to 1; for ``per-tuple`` it is one round of closed-loop per-tuple API
calls, each timed on its own.  Every op of a run repeats the same
inputs, so every op's report must be byte-identical to the first and,
where ``reference.json`` holds the seed, match the stored values.
See README.md for why each workload exists.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Report values may drift this far from the reference before an op
# counts as failed.  It admits last-bit drift from reordered float
# sums (declared drift shows as digest_match = false) but not a changed
# neighbour set, breach decision or mechanism.
RTOL = 1e-6
ATOL = 1e-9

# configs/ablation.json and configs/sweep.json, minus their seeds and
# repetition counts (the seed is a benchmark argument and every op runs
# one repetition).  Copied so that a config edit cannot move the
# benchmark silently.
ABLATION = {"agent_count": 200, "observations_per_agent": 8, "target_dim": 20,
            "min_utility": 0.5, "sanitizer": "nrp"}
SWEEP = {"observations_per_agent": 1, "target_dim": 20, "min_utility": 0.5}
SWEEP_AGENTS = 600
SWEEP_MECHANISMS = ("nrp", "brp", "pca", "asup")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str        # "run", "sweep" or "per-tuple"
    seed: int        # default master seed: the one in the config it copies
    config: dict = field(default_factory=dict)
    # Scale op times by the machine-speed probe (run.Calibration).  Off
    # for `default`: its ops are memory-bound, take ~5 s each, and the
    # probe did not track them (scaling widened the run-to-run spread).
    speed_probe: bool = True


WORKLOADS = {w.name: w for w in (
    Workload("default", "run", 0, speed_probe=False),
    Workload("ablation-random-inverse", "run", 2024,
             {**ABLATION, "adversary": "random-inverse"}),
    Workload("sweep-600", "sweep", 77, SWEEP),
    Workload("per-tuple", "per-tuple", 2024, ABLATION),
)}


def import_privsan() -> None:
    """Import privsan from this checkout's ``src``, never from elsewhere."""
    package = SRC / "privsan"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: privsan sources not found at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import privsan
    if Path(privsan.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported privsan from {privsan.__file__}, not {package}")


def load_reference(workload: str, seed: int) -> dict | None:
    if not REFERENCE.is_file():
        return None
    table = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))


def _value(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse_report(data: bytes) -> list[dict]:
    rows = csv.DictReader(io.StringIO(data.decode("utf-8")))
    return [{key: _value(text) for key, text in row.items()} for row in rows]


def reference_entry(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "rows": parse_report(data)}


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _close(value, expected) -> bool:
    if _number(expected):
        return _number(value) and math.isclose(value, expected, rel_tol=RTOL, abs_tol=ATOL)
    return value == expected


# Mechanisms whose utility is clipped to [0, 1] because raw and sanitized
# tuples share a quadrant (every workload uses unit-uniform entries).
# brp and pca report the unclipped mean cosine, which can be negative.
SAME_QUADRANT = ("nrp", "nrp-unbounded", "identity")


def _row_problems(row: dict) -> list[str]:
    problems = [f"{key}={value!r} is not finite" for key, value in row.items()
                if isinstance(value, float) and not math.isfinite(value)]
    utility, privacy = row.get("utility"), row.get("privacy")
    low = 0.0 if row.get("mechanism", "nrp") in SAME_QUADRANT else -1.0
    if not (_number(utility) and low <= utility <= 1.0):
        problems.append(f"utility={utility!r} outside [{low:g}, 1]")
    elif not (_number(privacy) and abs(utility + privacy - 1.0) <= 1e-12):
        problems.append(f"privacy={privacy!r} is not 1 - utility")
    return problems


class Checker:
    """Checks every op's report; remembers the first as the run's own
    same-seed baseline."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.first: bytes | None = None
        self.digest_match = reference is not None
        self.problems: list[str] = []

    def check(self, data: bytes) -> bool:
        if self.first is None:
            self.first = data
        rows = parse_report(data)
        problems = [p for row in rows for p in _row_problems(row)]
        if data != self.first:
            problems.append("report differs from the first op of this run with the same seed")
        if self.reference is not None:
            if hashlib.sha256(data).hexdigest() != self.reference["sha256"]:
                self.digest_match = False
            expected = self.reference["rows"]
            if len(rows) != len(expected):
                problems.append(f"{len(rows)} report rows, reference has {len(expected)}")
            for row, ref in zip(rows, expected):
                for key, value in ref.items():
                    if not _close(row.get(key), value):
                        problems.append(f"{key}={row.get(key)!r}, reference {value!r}")
        self.problems.extend(problems[:5])
        return not problems


class CliWorkload:
    """``privsan run`` / ``privsan sweep`` through ``privsan.cli.main``."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        from privsan import cli, simulate
        self.cli = cli
        config = {**workload.config, "repetitions": 1, "master_seed": seed}
        cfg = simulate.ExperimentConfig(**config)
        workdir.mkdir(parents=True, exist_ok=True)
        config_path = workdir / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = workdir / "out"
        self.argv = [workload.kind, "--config", str(config_path), "--out", str(out)]
        if workload.kind == "sweep":
            self.argv += ["--agents", str(SWEEP_AGENTS),
                          "--mechanisms", ",".join(SWEEP_MECHANISMS)]
            self.reps_per_op = len(SWEEP_MECHANISMS)
            self.tuples_per_op = len(SWEEP_MECHANISMS) * SWEEP_AGENTS * cfg.observations_per_agent
            self.report = out / "sweep.csv"
        else:
            self.reps_per_op = 1
            self.tuples_per_op = cfg.agent_count * cfg.observations_per_agent
            self.report = out / "report.csv"
        self.units_per_op = self.reps_per_op   # ops are counted in repetitions
        self.calls_per_op = 1
        self.call_seconds: list[float] = []

    def op(self) -> bytes:
        self.report.unlink(missing_ok=True)
        sink = io.StringIO()
        start = perf_counter()
        try:
            with redirect_stdout(sink):
                code = self.cli.main(self.argv)
        finally:
            self.call_seconds.append(perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"privsan {self.argv[0]} exited with code {code}")
        return self.report.read_bytes()


class PerTupleWorkload:
    """A single closed-loop caller streaming one sensing round through the
    per-tuple API: compute_norm_bound -> sanitize_nrp (fresh Rng.child
    per call) -> attack_linear -> utility.  The round's inputs, per-agent
    norms and expected-inverse map are built once, as a caller would."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        import numpy as np
        from privsan import attack, bounds, metrics, sanitize, simulate
        from privsan.rng import Rng
        self.np, self.attack, self.bounds = np, attack, bounds
        self.metrics, self.sanitize = metrics, sanitize
        cfg = simulate.ExperimentConfig(**workload.config, master_seed=seed)
        rep = Rng(seed).child(0)
        data = simulate.generate_synthetic(cfg, rep.child(0))
        self.tuples = data.tuples
        values = np.stack([t.values for t in self.tuples])
        norms = np.linalg.norm(values, axis=1)
        per_agent = norms.reshape(data.agent_count, data.observations_per_agent).max(axis=1)
        self.alphas = [float(a) for a in np.repeat(per_agent, data.observations_per_agent)]
        self.cell = simulate.make_grid(cfg, float(norms.max())).cell_side
        self.min_utility = cfg.min_utility
        self.m, self.n = cfg.target_dim, cfg.input_dim
        self.map = attack.expected_inverse_map(self.n, self.m, cfg.distribution,
                                               cfg.inverse_samples, rep.child(2).child(0))
        self.stream = rep.child(1)
        self.reps_per_op = 1
        self.tuples_per_op = len(self.tuples)
        self.units_per_op = self.tuples_per_op   # ops are counted in calls
        self.calls_per_op = self.tuples_per_op
        self.call_seconds: list[float] = []

    def op(self) -> bytes:
        np = self.np
        compute_norm_bound = self.bounds.compute_norm_bound
        sanitize_nrp = self.sanitize.sanitize_nrp
        attack_linear = self.attack.attack_linear
        utility = self.metrics.utility
        count = len(self.tuples)
        sanitized = np.empty((count, self.m))
        recon = np.empty((count, self.n))
        util = np.empty(count)
        latency = [0.0] * count
        try:
            for j, t in enumerate(self.tuples):
                start = perf_counter()
                cert = compute_norm_bound(self.min_utility, self.cell, self.alphas[j])
                s = sanitize_nrp(t, self.m, cert, self.stream.child(j))
                r = attack_linear(s, self.map)
                u = utility(t, s, same_quadrant=True)
                latency[j] = perf_counter() - start
                sanitized[j] = s.values
                recon[j] = r.reconstructed
                util[j] = u.utility
        finally:
            self.call_seconds.extend(latency)   # one entry per call, even when one raised
        actual = np.stack([t.values for t in self.tuples])
        digest = hashlib.sha256(sanitized.tobytes() + recon.tobytes() + util.tobytes())
        displacement = float(np.linalg.norm(recon - actual, axis=1).mean())
        return (f"tuples,utility,privacy,displacement,outputs_sha256\n"
                f"{count},{util.mean():.17g},{(1.0 - util).mean():.17g},"
                f"{displacement:.17g},{digest.hexdigest()}\n").encode("utf-8")


def build(workload: Workload, seed: int, workdir: Path):
    import_privsan()
    if workload.kind == "per-tuple":
        return PerTupleWorkload(workload, seed, workdir)
    return CliWorkload(workload, seed, workdir)
