#!/usr/bin/env python3
"""privsan benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs one workload (see README.md) against the privsan sources in this
checkout's ``src`` and prints, as its last stdout line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The line
before it is a JSON detail record: environment, sample counts, exact
counts and the correctness findings.

``--trace 0`` measures the end-to-end metrics with tracing off.  Op,
call and throughput figures are scaled to a reference machine speed
(see ``Calibration``), except for ``default``, whose workload turns the
probe off; ``setup_s`` is never scaled.  The raw values are in the
detail line.  ``--trace 1`` runs the ops
untraced for half the time, then with the span tracer installed for the
other half, and reports the per-layer metrics (raw seconds) plus the
tracing overhead between the two halves.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy

import workloads as wl

SETUP_PROBES = 7       # fresh-interpreter set-ups per run; the median is reported
OUT = wl.ROOT / ".perfbench_out"

STAGES = ("simulate.generate_synthetic", "simulate.sanitize_round", "simulate.attack_round",
          "simulate.robustness_gap", "simulate.utility_means", "metrics.resemblance",
          "metrics.breach_count", "metrics.displacement")
PER_TUPLE_CALLS = ("bounds.compute_norm_bound", "sanitize.sanitize_nrp",
                   "attack.attack_linear", "metrics.utility", "rng.child")


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu,
        "loadavg_start": list(os.getloadavg()),
    }


@dataclass(frozen=True)
class _Record:
    values: numpy.ndarray
    tag: str

    def __post_init__(self):
        object.__setattr__(self, "values", numpy.asarray(self.values, dtype=float))


class Calibration:
    """Machine-speed probe, timed before and after each op.

    On a shared 2-core virtual machine (OpenBLAS 0.3.31, numpy 2.4.6) the
    same op took up to twice as long from one second or minute to the
    next, under load from outside the machine's own processes.  The
    probe is a fixed mix of the kinds of work that dominate the
    interpreter-bound workloads (numpy Philox streams, small-array calls,
    frozen-dataclass construction, small ``pinv``, a BLAS matmul); it
    slowed with them.
    Each op's times are reported at a reference speed: multiplied by
    ``REFERENCE_S / median probe seconds`` over the probes run just
    before and just after it.  The probe calls no privsan code, so a
    change to privsan cannot move it.
    """

    REFERENCE_S = 0.03

    def __init__(self):
        rng = numpy.random.default_rng(0)
        self.square = rng.standard_normal((300, 300))
        self.tall = rng.standard_normal((50, 20))
        self.vector = rng.standard_normal(50)
        self.batches: list[list[float]] = []

    def _work(self) -> None:
        np = numpy
        for j in range(200):
            gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(7, spawn_key=(j,))))
            gen.uniform(0.0, 1.0, (50, 20))
        for _ in range(1000):
            np.clip(np.linalg.norm(self.tall.T @ self.vector), 0.0, 1.0)
        for _ in range(2000):
            _Record(self.vector, "probe")
        for _ in range(30):
            np.linalg.pinv(self.tall)
        for _ in range(4):
            self.square @ self.square

    def probe(self, rounds: int) -> None:
        batch = []
        for _ in range(rounds):
            start = perf_counter()
            self._work()
            batch.append(perf_counter() - start)
        self.batches.append(batch)

    def factors(self) -> list[float]:
        """One factor per op: probe batch i ran before op i, batch i + 1
        after it."""
        return [self.REFERENCE_S / statistics.median(before + after)
                for before, after in zip(self.batches, self.batches[1:])]


def measure_setup(name: str, seed: int, workdir: Path) -> list[float]:
    """Seconds for a fresh interpreter to import privsan and build and
    validate the workload, once per probe.  The first probe may compile
    bytecode, so it is run but not reported."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe", str(workdir / "probe")]
    times = []
    for _ in range(SETUP_PROBES + 1):
        start = perf_counter()
        subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return times[1:]


def run_ops(op, checker: wl.Checker, seconds: float, tracer=None, calibration=None):
    """Call ``op`` back to back for ``seconds``.  Returns each op's
    seconds, the number of failed ops and, when traced, the exact counts
    after each op.  With a calibration, a batch of probes (about one per
    half second of op time) runs before each op and after the last."""
    op_seconds, snapshots, failed = [], [], 0
    begin = perf_counter()
    while perf_counter() - begin < seconds:
        if calibration is not None:
            last = op_seconds[-1] if op_seconds else 0.0
            calibration.probe(min(8, max(1, round(last / 0.5))))
        start = perf_counter()
        try:
            report = op()
        except Exception as exc:  # a failed op is counted, and the run goes on
            report = None
            checker.problems.append(f"op raised {type(exc).__name__}: {exc}")
        op_seconds.append(perf_counter() - start)
        if report is None or not checker.check(report):
            failed += 1
        if tracer is not None:
            snapshots.append(tracer.exact_counts())
    if calibration is not None:
        calibration.probe(min(8, max(1, round(op_seconds[-1] / 0.5))))
    return op_seconds, failed, snapshots


def tail_percentile(samples: int) -> float:
    """The highest percentile with at least ten samples beyond it, capped
    at 99; the median when fewer than twenty samples leave no such tail."""
    return min(99.0, max(50.0, 100.0 * (1.0 - 10.0 / samples)))


def call_tail(calls, calls_per_op: int) -> tuple[float, float]:
    """(tail call seconds, percentile).  An op with at least 1,000 calls
    (a per-tuple round) has at least ten beyond its own p99, and the
    median of the ops' p99 values is taken, so one interrupted round does
    not set the run's tail.  Otherwise the tail is taken over all calls."""
    if calls_per_op >= 1000:
        rounds = calls.reshape(-1, calls_per_op)
        return float(numpy.median(numpy.percentile(rounds, 99.0, axis=1))), 99.0
    percentile = tail_percentile(calls.size)
    return float(numpy.percentile(calls, percentile)), percentile


def end_to_end(state, op_seconds: list[float], factors: list[float], setup: list[float]) -> dict:
    """End-to-end metrics, each op's times multiplied by its speed factor.
    Set-up time is not scaled: it is interpreter start and imports, which
    the probe does not track."""
    ops = numpy.asarray(op_seconds) * factors
    calls = numpy.asarray(state.call_seconds) * numpy.repeat(factors, state.calls_per_op)
    tail, _ = call_tail(calls, state.calls_per_op)
    return {
        "tuples_per_s": (state.tuples_per_op * ops.size / float(ops.sum()), "1/s"),
        "rep_s_p50": (float(numpy.median(ops)) / state.reps_per_op, "s"),
        "call_us_p50": (float(numpy.median(calls)) * 1e6, "us"),
        "call_us_tail": (tail * 1e6, "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def count_repeats(snapshots: list[dict]) -> bool:
    """True when every op added exactly the same counts as the first."""
    deltas = []
    for before, after in zip([dict.fromkeys(snapshots[0], 0)] + snapshots, snapshots):
        deltas.append({k: after[k] - before[k] for k in after})
    return all(d == deltas[0] for d in deltas)


def per_layer(tracer, state, traced_s: list[float], untraced_s: list[float]) -> tuple[dict, dict]:
    spans, counts = tracer.spans, tracer.counts
    per = len(traced_s) * state.units_per_op   # repetitions, or calls for per-tuple

    def total(name):
        return spans[name].total / per if name in spans else 0.0

    def calls(name):
        return spans[name].calls / per if name in spans else 0.0

    def us_per_call(name):
        span = spans.get(name)
        return span.total / span.calls * 1e6 if span and span.calls else 0.0

    draws = spans["attack.family_sample"].calls if "attack.family_sample" in spans else 0
    untraced_tps = state.tuples_per_op * len(untraced_s) / sum(untraced_s)
    traced_tps = state.tuples_per_op * len(traced_s) / sum(traced_s)
    layer_self = sum(s.self_time for name, s in spans.items() if name != "bench.op")
    values = {
        **{f"{name}.s": (total(name), "s") for name in STAGES},
        "simulate.repetition.self_s": (
            spans["simulate.repetition"].self_time / per if "simulate.repetition" in spans
            else 0.0, "s"),
        "simulate.tuples_per_rep": (state.tuples_per_op / state.reps_per_op, "count"),
        "metrics.knn_bytes": (counts["metrics.knn_bytes"] / per, "B"),
        "attack.expected_inverse_map.s": (total("attack.expected_inverse_map"), "s"),
        "attack.attack_random_inverse.calls": (calls("attack.attack_random_inverse"), "count"),
        "attack.family_draws": (draws / per, "count"),
        "attack.useful_ratio": (counts["attack.reconstructions"] / draws if draws else 0.0,
                                "ratio"),
        "linalg.pseudo_inverse.calls": (calls("linalg.pseudo_inverse"), "count"),
        "rng.child.calls": (calls("rng.child"), "count"),
        "rng.child.s": (total("rng.child"), "s"),
        "sanitize.tuple_objects": (counts["sanitize.tuple_objects"] / per, "count"),
        **{f"{name}.us": (us_per_call(name), "us") for name in PER_TUPLE_CALLS},
        "cli.config.s": (total("cli.config"), "s"),
        "cli.write.s": (spans["cli.command"].self_time / per if "cli.command" in spans
                        else 0.0, "s"),
        "trace.errors": (sum(s.errors for s in spans.values()), "count"),
        "trace.overhead_frac": ((untraced_tps - traced_tps) / untraced_tps, "ratio"),
        "trace.coverage_frac": (layer_self / len(traced_s) / statistics.mean(untraced_s),
                                "ratio"),
    }
    shares = {name: spans[name].total / sum(traced_s) for name in STAGES + PER_TUPLE_CALLS
              if name in spans and spans[name].calls}
    detail = {
        "traced_ops": len(traced_s),
        "untraced_ops": len(untraced_s),
        "stage_shares": shares,
        "dominant_stage": max(shares, key=shares.get) if shares else None,
        "span_errors": {name: s.errors for name, s in spans.items()},
        "missing_spans": tracer.missing,
    }
    return values, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, help="master seed (default: the workload's config seed)")
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", dest="setup_probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # PRIVSAN_<KEY> variables would override the workload's config.
    for key in [k for k in os.environ if k.startswith("PRIVSAN_")]:
        del os.environ[key]
    workload = wl.WORKLOADS[args.workload]
    seed = workload.seed if args.seed is None else args.seed
    if args.setup_probe:
        wl.build(workload, seed, Path(args.setup_probe))
        return 0

    wl.import_privsan()   # fail before any work when the sources are missing
    workdir = OUT / f"{workload.name}-{os.getpid()}"
    try:
        setup = [] if args.trace else measure_setup(workload.name, seed, workdir)
        state = wl.build(workload, seed, workdir)
        env = environment()
        reference = wl.load_reference(workload.name, seed)
        checker = wl.Checker(reference)
        warm = state.op()                   # caches and lazy set-up fill here, untimed
        checker.check(warm)
        state.call_seconds = []
        detail = {"workload": workload.name, "seed": seed, "trace": args.trace}
        if args.trace:
            from tracing import Tracer
            untraced_s, failed, _ = run_ops(state.op, checker, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced_s, traced_failed, snapshots = run_ops(
                    tracer.wrap("bench.op", state.op), checker, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            failed += traced_failed
            ops = len(untraced_s) + len(traced_s)
            metrics, trace_detail = per_layer(tracer, state, traced_s, untraced_s)
            detail.update(trace_detail)
            detail["exact_counts_per_op"] = {
                k: v / len(traced_s) for k, v in snapshots[-1].items()}
            detail["counts_repeat"] = count_repeats(snapshots)
            if not detail["counts_repeat"]:
                checker.problems.append("exact counts differ between identical ops")
        else:
            calibration = Calibration() if workload.speed_probe else None
            op_seconds, failed, _ = run_ops(state.op, checker, args.seconds,
                                            calibration=calibration)
            ops = len(op_seconds)
            factors = calibration.factors() if calibration else [1.0] * ops
            metrics = end_to_end(state, op_seconds, factors, setup)
            detail["raw"] = {name: value for name, (value, _) in
                             end_to_end(state, op_seconds, [1.0] * ops, setup).items()}
            detail["setup_s_samples"] = setup
            detail["rep_samples"] = len(op_seconds) * state.reps_per_op
            detail["call_samples"] = len(state.call_seconds)
            detail["call_tail_percentile"] = call_tail(
                numpy.asarray(state.call_seconds), state.calls_per_op)[1]
            detail["op_seconds"] = op_seconds
            detail["speed_factors"] = factors
            detail["calibration_seconds"] = calibration.batches if calibration else []
        env["loadavg_end"] = list(os.getloadavg())
        detail.update({
            "environment": env,
            "reference": reference is not None,
            "digest_match": checker.digest_match if reference is not None else None,
            "problems": checker.problems[:20],
        })
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if OUT.is_dir() and not any(OUT.iterdir()):
            OUT.rmdir()

    correct = not checker.problems and (not args.trace or detail["counts_repeat"])
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": ops * state.units_per_op,
        "failed": failed * state.units_per_op,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
