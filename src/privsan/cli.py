"""Command-line front end.

Commands: ``run`` (one experiment), ``sweep`` (mechanism x agent-count
grid), ``verify`` (distance-preservation and dimension-equivalence
checks), ``timing`` (per-tuple cost model), ``ingest`` (CSV loading and
summary).  Exit codes: 0 success, 2 configuration error (reported
before any work starts; this includes a ``--config``, ``--schema`` or
``--data`` path that cannot be read and an ``--out`` directory that
cannot be created), 3 runtime error, 4 ``verify`` found a violation;
diagnostics go to standard error.

Configuration is a flat JSON object whose keys mirror
:class:`privsan.simulate.ExperimentConfig`.  Precedence, highest first:
command-line flags, ``PRIVSAN_<KEY>`` environment variables, the config
file, built-in defaults.  Result files (CSV and JSON reports) are pure
functions of the configuration; timestamps live only in the manifest.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from . import dataio, timing, verify
from .bounds import check_gamma
from .errors import ConfigInvalid, GammaOutOfRange, PrivsanError, SchemaMismatch
from .simulate import (
    MECHANISMS,
    SWEEP_AGENT_GRID,
    ExperimentConfig,
    run_experiment,
    run_sweep,
    sweep_configs,
)

ENV_PREFIX = "PRIVSAN_"
EXIT_CONFIG, EXIT_RUNTIME, EXIT_VIOLATIONS = 2, 3, 4
BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
            "0": False, "false": False, "no": False, "off": False}


def _config_from_sources(args: argparse.Namespace) -> ExperimentConfig:
    fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    values: dict = {}
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ConfigInvalid(f"config file is not valid UTF-8 JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigInvalid("config file must hold one JSON object")
        for key, val in raw.items():
            if key not in fields:
                raise ConfigInvalid(f"unknown config key {key!r}")
            values[key] = val
    for name in fields:
        env = os.environ.get(ENV_PREFIX + name.upper())
        if env is not None:
            values[name] = env
    overrides = {
        "master_seed": args.seed,
        "sanitizer": getattr(args, "mechanism", None),
        "radius_fraction": getattr(args, "radius_fraction", None),
        "k_neighbors": getattr(args, "k_neighbors", None),
    }
    for key, val in overrides.items():
        if val is not None:
            values[key] = val
    coerced = {}
    for key, val in values.items():
        try:
            coerced[key] = _coerce(fields[key].type, val)
        except (TypeError, ValueError) as exc:
            raise ConfigInvalid(f"bad value for {key!r}: {exc}") from None
    try:
        return ExperimentConfig(**coerced)
    except TypeError as exc:
        raise ConfigInvalid(str(exc)) from None


def _coerce(annotation: str, value):
    if value is None:
        return None
    kind = str(annotation)
    if isinstance(value, bool) and kind != "bool":
        raise ValueError(f"expected {kind}, got {value!r}")
    if kind == "bool":
        text = str(value).strip().lower()   # JSON true/false read as "true"/"false"
        if text not in BOOLEANS:
            raise ValueError(f"not a boolean: {value!r}")
        return BOOLEANS[text]
    if kind == "int":
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(f"not an integer: {value!r}")
        return int(value)
    if kind == "float":
        return float(value)
    if kind.startswith("float | None"):
        return None if str(value).strip().lower() in ("", "none", "null") else float(value)
    return str(value)


def _config_digest(cfg: ExperimentConfig) -> str:
    blob = json.dumps(dataclasses.asdict(cfg), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


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


def _write_outputs(out: Path, started: str, digest: str, files: dict[str, object]) -> None:
    """Write each result file, then ``manifest.json`` listing them.  A
    list of rows becomes a CSV with the first row's keys, in order, as
    the header and floats at 17 significant digits, which round-trips
    float64; anything else becomes JSON."""
    manifest = {
        "config_digest": digest,
        "started_utc": started,
        "finished_utc": datetime.now(timezone.utc).isoformat(),
        "version": __version__,
        "outputs": list(files),
    }
    for name, content in [*files.items(), ("manifest.json", manifest)]:
        with (out / name).open("w", encoding="utf-8", newline="") as fh:
            if isinstance(content, list):
                header = list(content[0])
                fh.write(",".join(header) + "\n")
                for row in content:
                    fh.write(",".join(f"{row[k]:.17g}" if isinstance(row[k], float)
                                      else str(row[k]) for k in header) + "\n")
            else:
                fh.write(json.dumps(content, indent=2, sort_keys=True) + "\n")


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _config_from_sources(args)
    out, started = _open_out(args.out)
    res = run_experiment(cfg)
    digest = _config_digest(cfg)
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
    mechanisms = args.mechanisms.split(",") if args.mechanisms else ["nrp", "brp", "pca", "asup"]
    sweep_configs(cfg, agents, mechanisms)  # every grid point is checked before --out
    out, started = _open_out(args.out)
    rows = run_sweep(cfg, agents, mechanisms)
    _write_outputs(out, started, _config_digest(cfg), {"sweep.csv": rows})
    print(f"wrote {len(rows)} rows ({len(mechanisms)} mechanisms x {len(agents)} agent counts)")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    check_gamma(args.gamma)
    if args.points < 2 or args.trials < 1 or args.seed < 0:
        raise ConfigInvalid("need --points >= 2, --trials >= 1 and --seed >= 0")
    out, started = _open_out(args.out)
    trials = verify.preservation_trials(args.gamma, args.points, args.trials, args.seed)
    table = verify.equivalence_table((2, 10, 100, 1000, 10_000, 100_000),
                                     verify.gamma_grid())
    _write_outputs(out, started, hashlib.sha256(
        f"verify:{args.gamma}:{args.points}:{args.trials}:{args.seed}".encode()).hexdigest(), {
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
    out, started = _open_out(args.out)
    rows = timing.measure(n_grid, m=args.target_dim, master_seed=args.seed)
    slope_rows = []
    for mech in ("nrp", "brp", "asup", "pca"):
        slope = timing.loglog_slope(rows, mech)
        slope_rows.append({"mechanism": mech, "phase": "sanitize", "slope": slope})
        print(f"{mech}: per-tuple log-log slope vs n = {slope:.3f}")
    _write_outputs(out, started, hashlib.sha256(str(n_grid).encode()).hexdigest(), {
        "timing.csv": [dataclasses.asdict(r) for r in rows],
        "slopes.csv": slope_rows,
    })
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    schema = dataio.DatasetSchema.from_json(args.schema)
    out, started = _open_out(args.out)
    result = dataio.load_csv(args.data, schema, shift_nonnegative=not args.raw)
    names = [c.name for c in schema.retained]
    summary = dataio.summarize(result.values, names)
    _write_outputs(out, started, hashlib.sha256(Path(args.data).read_bytes()).hexdigest(), {
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
        p.add_argument("--mechanism", choices=list(MECHANISMS))
        p.add_argument("--radius-fraction", type=float, dest="radius_fraction")
        p.add_argument("--k-neighbors", type=int, dest="k_neighbors")

    p_run = sub.add_parser("run", help="run one experiment and write its report")
    common(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="mechanism x agent-count grid")
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
    except PrivsanError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
