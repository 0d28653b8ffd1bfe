#!/usr/bin/env python3
"""Recompute perfbench/reference.json, the committed canary values.

    python3 perfbench/make_reference.py

The canary is one cycle of each workload on the inputs made from
``workloads.CANARY_SEED``: phantom CT files through preprocessing, the
network, the mask write and the metrics, and augmented train steps through
the loss and backward.  Every benchmark run repeats that cycle and checks
each output summary against this file, so a program change that alters
any of those results fails the benchmark.  Regenerate only when such a
change is intended, and say so in the change's description.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def compute() -> dict:
    ref = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls()
        with tempfile.TemporaryDirectory(dir=ROOT) as work:
            wl.prepare(Path(work), workloads.CANARY_SEED)
            wl.setup()
            for op in wl.ops():
                errors = op.check(op.run())
                if errors:
                    raise SystemExit(f"{name} {op.name}: {errors}")
        ref[name] = wl.refs
    return ref


if __name__ == "__main__":
    workloads.REFERENCE_PATH.write_text(json.dumps(compute(), indent=2, sort_keys=True) + "\n")
    print(workloads.REFERENCE_PATH.read_text(), end="")
