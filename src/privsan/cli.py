"""Command-line front end.

Commands: ``run`` (one experiment), ``sweep`` (mechanism x agent-count
grid), ``verify`` (distance-preservation and dimension-equivalence
checks), ``timing`` (per-tuple cost model), ``ingest`` (CSV loading and
summary).  Exit codes: 0 success, 2 configuration error (reported
before any work starts; this includes a ``--config``, ``--schema`` or
``--data`` path that cannot be read, an ``--out`` directory that
cannot be created and a repetition, sweep grid point, ``verify`` trial
or ``timing`` run estimated to exceed physical memory), 3 runtime error
(an allocation numpy refuses and a result file that cannot be written
included), 4 ``verify`` found a violation; diagnostics go to standard
error.

Configuration is a flat JSON object whose keys mirror
:class:`privsan.simulate.ExperimentConfig`.  Precedence, highest first:
command-line flags, ``PRIVSAN_<KEY>`` environment variables, the config
file, built-in defaults; a ``PRIVSAN_`` variable that names no key is
a configuration error.  Result files (CSV and JSON reports) are pure
functions of the configuration; timestamps live only in the manifest.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from . import dataio, timing, verify
from .bounds import check_gamma
from .errors import ConfigInvalid, GammaOutOfRange, OutputUnwritable, PrivsanError, SchemaMismatch
from .simulate import (
    MECHANISMS,
    SWEEP_AGENT_GRID,
    SWEEP_MECHANISMS,
    ExperimentConfig,
    peak_bytes,
    run_experiment,
    run_sweep,
    sweep_configs,
)

ENV_PREFIX = "PRIVSAN_"
EXIT_CONFIG, EXIT_RUNTIME, EXIT_VIOLATIONS = 2, 3, 4


def _config_from_sources(args: argparse.Namespace) -> ExperimentConfig:
    fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    values: dict = {}
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8-sig"))
        except ValueError as exc:
            raise ConfigInvalid(f"config file is not valid UTF-8 JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigInvalid("config file must hold one JSON object")
        for key, val in raw.items():
            if key not in fields:
                raise ConfigInvalid(f"unknown config key {key!r}")
            values[key] = val
    env_names = {ENV_PREFIX + name.upper(): name for name in fields}
    for var, env in os.environ.items():
        if var.startswith(ENV_PREFIX):
            if var not in env_names:
                raise ConfigInvalid(f"environment variable {var} names no config key")
            values[env_names[var]] = env
    for key, val in (("master_seed", args.seed), ("sanitizer", getattr(args, "mechanism", None))):
        if val is not None:
            values[key] = val
    coerced = {}
    for key, val in values.items():
        try:
            coerced[key] = _coerce(fields[key].type, val)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigInvalid(f"bad value for {key!r}: {exc}") from None
    return ExperimentConfig(**coerced)


def _coerce(annotation: str, value):
    if value is None:
        return None
    if isinstance(value, bool):
        raise ValueError(f"expected {annotation}, got {value!r}")
    if annotation == "int":
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(f"not an integer: {value!r}")
        return int(value)
    if annotation == "float":
        return float(value)
    return str(value)


def _digest(inputs: dict) -> str:
    """The manifest's ``config_digest``: sha256 of a command's resolved
    inputs as sorted JSON."""
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()


def _file_sha256(path: str) -> str:
    """sha256 of a file's bytes, read in fixed-size blocks."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 18), b""):
            h.update(block)
    return h.hexdigest()


def _open_out(path: str) -> tuple[Path, str]:
    """Create the output directory and return it with the start time.
    Commands call this after checking their own arguments and before
    any work, so an unusable ``--out`` is a configuration error."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigInvalid(f"cannot create output directory: {exc}") from None
    return out, datetime.now(timezone.utc).isoformat()


def _check_memory(need: int, what: str) -> None:
    """Refuse, as a configuration error, a run whose estimated peak of
    ``need`` bytes exceeds physical memory."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > memory:
        raise ConfigInvalid(f"{what} needs about {need / 1e9:.3g} GB, more than the "
                            f"{memory / 1e9:.3g} GB of physical memory")


def _environment() -> dict:
    """What the numbers were computed with; kept in the manifest only."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "usable_cores": (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                         else os.cpu_count() or 1),
    }


def _write_outputs(out: Path, started: str, digest: str, files: dict[str, object]) -> None:
    """Write each result file, then ``manifest.json`` listing them.  A
    list of rows becomes a CSV with the first row's keys, in order, as
    the header and floats at 17 significant digits, which round-trips
    float64; anything else becomes JSON, with non-finite floats as null.
    A file that cannot be written raises OutputUnwritable, naming it."""
    manifest = {
        "config_digest": digest,
        "started_utc": started,
        "finished_utc": datetime.now(timezone.utc).isoformat(),
        "version": __version__,
        "outputs": list(files),
        "environment": _environment(),
    }
    for name, content in [*files.items(), ("manifest.json", manifest)]:
        try:
            with (out / name).open("w", encoding="utf-8", newline="") as fh:
                if isinstance(content, list):
                    header = list(content[0])
                    writer = csv.writer(fh, lineterminator="\n")
                    writer.writerow(header)
                    writer.writerows([f"{row[k]:.17g}" if isinstance(row[k], float)
                                      else str(row[k]) for k in header] for row in content)
                else:
                    fh.write(json.dumps(_finite_or_null(content), indent=2, sort_keys=True,
                                        allow_nan=False) + "\n")
        except OSError as exc:
            raise OutputUnwritable(f"cannot write {out / name}: {exc.strerror or exc}") from None


def _finite_or_null(value):
    """``value`` with every NaN or infinite float replaced by None, so
    that it serializes as strict JSON (null)."""
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _config_from_sources(args)
    _check_memory(peak_bytes(cfg), "one repetition")
    out, started = _open_out(args.out)
    res = run_experiment(cfg)
    digest = _digest(dataclasses.asdict(cfg))
    _write_outputs(out, started, digest, {
        "report.csv": [res.row()],
        "report.json": {**dataclasses.asdict(res), "config_digest": digest},
    })
    r = res.report
    print(f"{cfg.sanitizer}: breach={r.breach_count:.6g} displacement={r.displacement:.6g} "
          f"resemblance={r.resemblance:.6g} utility={res.utility_mean:.6g}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _config_from_sources(args)
    agents = _parse_int_list(args.agents) if args.agents else list(SWEEP_AGENT_GRID)
    mechanisms = args.mechanisms.split(",") if args.mechanisms else list(SWEEP_MECHANISMS)
    # Every grid point is checked before --out.
    points = sweep_configs(cfg, agents, mechanisms)
    _check_memory(max(map(peak_bytes, points)), "the largest grid point")
    out, started = _open_out(args.out)
    rows = run_sweep(cfg, agents, mechanisms)
    _write_outputs(out, started, _digest({"config": dataclasses.asdict(cfg), "agents": agents,
                                          "mechanisms": mechanisms}), {"sweep.csv": rows})
    print(f"wrote {len(rows)} rows ({len(mechanisms)} mechanisms x {len(agents)} agent counts)")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    check_gamma(args.gamma)
    if args.points < 2 or args.trials < 1 or args.seed < 0:
        raise ConfigInvalid("need --points >= 2, --trials >= 1 and --seed >= 0")
    _check_memory(verify.trial_peak_bytes(args.gamma, args.points), "one trial")
    out, started = _open_out(args.out)
    trials = verify.preservation_trials(args.gamma, args.points, args.trials, args.seed)
    table = verify.equivalence_table((2, 10, 100, 1000, 10_000, 100_000),
                                     verify.gamma_grid())
    digest = _digest({"gamma": args.gamma, "points": args.points, "trials": args.trials,
                      "seed": args.seed})
    _write_outputs(out, started, digest, {
        "preservation.csv": [{**dataclasses.asdict(t), "ok": int(t.ok)} for t in trials],
        "equivalence.csv": [{**dataclasses.asdict(r), "m2": "" if r.m2 is None else r.m2,
                             "within_reference": int(r.within_reference)} for r in table],
    })

    bad_trials = [t for t in trials if not t.ok]
    bad_eq = [r for r in table if not r.within_reference]
    print(f"preservation: {len(trials) - len(bad_trials)}/{len(trials)} trials held the "
          f">= 1/2 bound (projected_dim={trials[0].projected_dim})")
    print(f"equivalence: {len(table) - len(bad_eq)}/{len(table)} grid points satisfied "
          f"m2 <= m1")
    if bad_trials or bad_eq:
        print("VIOLATIONS FOUND", file=sys.stderr)
        return EXIT_VIOLATIONS
    return 0


def cmd_timing(args: argparse.Namespace) -> int:
    n_grid = _parse_int_list(args.n_grid) if args.n_grid else [128, 256, 512]
    if len(set(n_grid)) < 2 or not (1 <= args.target_dim <= min(n_grid)) or args.seed < 0:
        raise ConfigInvalid("need two or more distinct input dims, each >= --target-dim >= 1, "
                            "and --seed >= 0")
    _check_memory(timing.measure_peak_bytes(n_grid, args.target_dim), "the timing run")
    out, started = _open_out(args.out)
    rows = timing.measure(n_grid, m=args.target_dim, master_seed=args.seed)
    slope_rows = []
    for mech in ("nrp", "brp", "asup", "pca"):
        slope = timing.loglog_slope(rows, mech)
        slope_rows.append({"mechanism": mech, "phase": "sanitize", "slope": slope})
        print(f"{mech}: per-tuple log-log slope vs n = {slope:.3f}")
    digest = _digest({"n_grid": n_grid, "target_dim": args.target_dim, "seed": args.seed})
    _write_outputs(out, started, digest, {
        "timing.csv": [dataclasses.asdict(r) for r in rows],
        "slopes.csv": slope_rows,
    })
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    schema = dataio.DatasetSchema.from_json(args.schema)
    dataio.check_header(args.data, schema)
    digest = _digest({"data_sha256": _file_sha256(args.data),
                      "schema": dataclasses.asdict(schema), "raw": args.raw})
    out, started = _open_out(args.out)
    result = dataio.load_csv(args.data, schema, shift_nonnegative=not args.raw)
    names = [c.name for c in schema.retained]
    summary = dataio.summarize(result.values, names)
    _write_outputs(out, started, digest, {
        "processed.csv": [dict(zip(names, row)) for row in result.values.tolist()],
        "summary.json": {
            "count": summary.count,
            "columns": summary.column_names,
            "minima": summary.minima.tolist(),
            "maxima": summary.maxima.tolist(),
            "means": summary.means.tolist(),
            "max_tuple_norm": summary.max_tuple_norm,
            "column_shifts": result.column_shifts.tolist(),
            "private_positions": sorted(schema.private_positions),
        },
    })
    print(f"loaded {summary.count} tuples x {len(names)} columns; "
          f"max tuple norm {summary.max_tuple_norm:.6g}")
    return 0


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        values = []
    if not values:
        raise ConfigInvalid(f"not a comma-separated integer list: {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privsan",
        description="Privacy sanitization benchmark: norm-bounded random projection "
                    "against fixed-projection, component and noise baselines.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (keys mirror ExperimentConfig)")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--out", default="out", help="output directory")

    p_run = sub.add_parser("run", help="run one experiment and write its report")
    common(p_run)
    p_run.add_argument("--mechanism", choices=list(MECHANISMS))
    p_run.set_defaults(fn=cmd_run)

    # No abbreviations: ``--mechanism`` must not pass for ``--mechanisms``.
    p_sweep = sub.add_parser("sweep", help="mechanism x agent-count grid", allow_abbrev=False)
    common(p_sweep)
    p_sweep.add_argument("--agents", help="comma-separated agent counts")
    p_sweep.add_argument("--mechanisms", help="comma-separated mechanism list")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_ver = sub.add_parser("verify", help="distance-preservation and equivalence checks")
    p_ver.add_argument("--gamma", type=float, default=0.2)
    p_ver.add_argument("--points", type=int, default=100)
    p_ver.add_argument("--trials", type=int, default=50)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--out", default="out")
    p_ver.set_defaults(fn=cmd_verify)

    p_tim = sub.add_parser("timing", help="per-tuple sanitization cost model")
    p_tim.add_argument("--n-grid", dest="n_grid", help="comma-separated input dims")
    p_tim.add_argument("--target-dim", type=int, default=20)
    p_tim.add_argument("--seed", type=int, default=0)
    p_tim.add_argument("--out", default="out")
    p_tim.set_defaults(fn=cmd_timing)

    p_ing = sub.add_parser("ingest", help="load a CSV dataset through a schema")
    p_ing.add_argument("--data", required=True, help="CSV file")
    p_ing.add_argument("--schema", required=True, help="schema JSON file")
    p_ing.add_argument("--raw", action="store_true",
                       help="skip the nonnegativity column shifts")
    p_ing.add_argument("--out", default="out")
    p_ing.set_defaults(fn=cmd_ingest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigInvalid, SchemaMismatch, GammaOutOfRange, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PrivsanError, MemoryError) as exc:
        print(f"runtime error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
