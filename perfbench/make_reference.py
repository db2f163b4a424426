#!/usr/bin/env python3
"""Regenerate reference.json from the privsan sources in this checkout.

    python3 perfbench/make_reference.py [--workload NAME ...]

For every workload and every seed in SEEDS (plus the workload's config
seed) it runs one benchmark op and stores the report's sha256 and
values.  Run it only for a change that is meant to move results, and
state the drift it records in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil

import workloads as wl

SEEDS = range(32)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(wl.WORKLOADS),
                        help="workload to regenerate (repeatable; default: all)")
    args = parser.parse_args(argv)
    for key in [k for k in os.environ if k.startswith("PRIVSAN_")]:
        del os.environ[key]
    table = (json.loads(wl.REFERENCE.read_text(encoding="utf-8"))
             if wl.REFERENCE.is_file() else {})
    workdir = wl.ROOT / ".perfbench_out" / f"reference-{os.getpid()}"
    try:
        for name in args.workload or sorted(wl.WORKLOADS):
            workload = wl.WORKLOADS[name]
            entries = {}
            for seed in sorted(set(SEEDS) | {workload.seed}):
                entries[str(seed)] = wl.reference_entry(wl.build(workload, seed, workdir).op())
                print(f"{name} seed {seed}: {entries[str(seed)]['sha256'][:16]}", flush=True)
            table[name] = entries
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    wl.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
