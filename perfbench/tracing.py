"""Span tracer for the traced benchmark run.

The tracer wraps privsan's module-level functions from outside the
package: each wrapper records one span per call (calls, inclusive
seconds, self seconds, errors) and a few exact counters.  Spans are
aggregated in memory as they close, so the cost per span stays a few
microseconds and nothing is written until the run ends.  A span's self
time is its duration minus the time its child spans cover, so the self
times of all spans under a root add up to the root's duration.

Nothing under ``src/`` knows about the tracer; ``install`` swaps the
wrappers into the imported modules and ``uninstall`` puts the originals
back.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

# (span name, module, attribute).  Every privsan module that imported the
# same function object by name gets the wrapper too, so calls through
# ``from .linalg import pseudo_inverse`` are traced as well.
SPANS = (
    ("cli.main", "privsan.cli", "main"),
    ("cli.command", "privsan.cli", "cmd_run"),
    ("cli.command", "privsan.cli", "cmd_sweep"),
    ("cli.config", "privsan.cli", "_config_from_sources"),
    ("simulate.run_sweep", "privsan.simulate", "run_sweep"),
    ("simulate.run_experiment", "privsan.simulate", "run_experiment"),
    ("simulate.repetition", "privsan.simulate", "run_repetition"),
    ("simulate.generate_synthetic", "privsan.simulate", "generate_synthetic"),
    ("simulate.sanitize_round", "privsan.simulate", "_sanitize_round"),
    ("simulate.attack_round", "privsan.simulate", "_attack_round"),
    ("simulate.robustness_gap", "privsan.simulate", "_robustness_gap"),
    ("simulate.utility_means", "privsan.simulate", "_utility_means"),
    ("metrics.breach_count", "privsan.metrics", "breach_count"),
    ("metrics.displacement", "privsan.metrics", "displacement"),
    ("metrics.resemblance", "privsan.metrics", "resemblance"),
    ("metrics.utility", "privsan.metrics", "utility"),
    ("attack.expected_inverse_map", "privsan.attack", "expected_inverse_map"),
    ("attack.attack_random_inverse", "privsan.attack", "attack_random_inverse"),
    ("attack.attack_linear", "privsan.attack", "attack_linear"),
    ("attack.family_sample", "privsan.attack", "_family_sample"),
    ("linalg.pseudo_inverse", "privsan.linalg", "pseudo_inverse"),
    ("bounds.compute_norm_bound", "privsan.bounds", "compute_norm_bound"),
    ("sanitize.sanitize_nrp", "privsan.sanitize", "sanitize_nrp"),
    ("rng.child", "privsan.rng", "Rng.child"),
)

# Value classes whose constructions are counted (not timed).
COUNTED_CLASSES = (
    ("sanitize.tuple_objects", "privsan.sanitize", "DataTuple"),
    ("sanitize.tuple_objects", "privsan.sanitize", "SanitizedTuple"),
)


class Span:
    __slots__ = ("calls", "total", "self_time", "errors")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.errors = 0


def _knn_bytes(args, kwargs, result, counts):
    # resemblance builds an N x N float64 distance matrix and an N x N
    # int64 argpartition index array per kNN pass: 16 N^2 bytes at peak.
    n = len(args[0] if args else kwargs["actual"])
    counts["metrics.knn_bytes"] += 16 * n * n


def _reconstructions(args, kwargs, result, counts):
    counts["attack.reconstructions"] += len(result)


def _one_reconstruction(args, kwargs, result, counts):
    counts["attack.reconstructions"] += 1


# Counters computed from a span's arguments or result.
HOOKS = {
    "metrics.resemblance": _knn_bytes,
    "simulate.attack_round": _reconstructions,
    "attack.attack_linear": _one_reconstruction,
}


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        span = self.spans.setdefault(name, Span())
        stack = self._stack
        hook = HOOKS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.errors += 1
                raise
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                span.calls += 1
                span.total += elapsed
                span.self_time += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook(args, kwargs, result, counts)
            return result

        return traced

    def _swap(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        for name, module_name, attr in SPANS:
            module = importlib.import_module(module_name)
            owner, _, leaf = attr.rpartition(".")
            target = getattr(module, owner) if owner else module
            original = getattr(target, leaf, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self.wrap(name, original)
            self._swap(target, leaf, wrapped)
            if owner:
                continue
            for other_name, other in list(sys.modules.items()):
                if other_name.startswith("privsan") and other is not module:
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._swap(other, key, wrapped)
        for name, module_name, cls_name in COUNTED_CLASSES:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._swap(cls, "__post_init__", self._counted(name, cls.__post_init__))

    def _counted(self, name: str, post_init):
        counts = self.counts

        @functools.wraps(post_init)
        def counted(obj):
            counts[name] += 1
            return post_init(obj)

        return counted

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def exact_counts(self) -> dict[str, int]:
        """Counters that must repeat exactly from one identical op to the next."""
        out = {name: self.counts[name] for name in
               ("sanitize.tuple_objects", "metrics.knn_bytes", "attack.reconstructions")}
        for name in ("rng.child", "linalg.pseudo_inverse", "attack.family_sample",
                     "attack.attack_random_inverse", "bounds.compute_norm_bound"):
            span = self.spans.get(name)
            out[name + ".calls"] = span.calls if span else 0
        return out
