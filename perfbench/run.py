#!/usr/bin/env python3
"""Benchmark runner for the earunet package.

    python3 perfbench/run.py --workload segment_volume --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  One process runs one workload,
closed loop: a single caller, each operation starts when the previous one
returns.  The script builds its seeded inputs under ``.perfbench_work/``
(removed on exit), runs the timed set-up several times, then runs whole
cycles of the workload's operations until their summed time reaches
``--seconds``, checking every output outside the timed region.  Last, it
runs one untimed cycle on the canary inputs and compares its outputs with
the committed ``reference.json``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` installs the span tracer and reports the per-layer ones.
The last line of standard output is the result as one JSON object; the
line before it holds provenance and per-operation timing detail.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROGRAM_MODULES = ("augment", "blocks", "checkpoint", "losses", "metrics", "model", "preprocess",
                   "tensor", "volume_io")


def limit_blas_threads(nproc: int) -> dict[str, str]:
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    for var in BLAS_ENV:
        try:
            want = min(int(os.environ.get(var, nproc)), nproc)
        except ValueError:
            want = nproc
        os.environ[var] = str(max(want, 1))
    return {var: os.environ[var] for var in BLAS_ENV}


def blas_runtime_threads() -> int | None:
    """Threads the loaded OpenBLAS reports, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "earunet").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(seed: int, nproc: int, blas_env: dict, load: tuple) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": blas_env,
        "blas_threads": blas_runtime_threads(),
        "nproc": nproc,
        "loadavg_start": load,
        "seed": seed,
    }


def percentiles(values: list[float]) -> dict:
    """Median plus the highest of p99/p95/p90/p75 with >= 10 samples beyond it."""
    import numpy as np

    out = {"n": len(values), "p50": statistics.median(values)}
    for q in (99, 95, 90, 75):
        if len(values) * (100 - q) / 100 >= 10:
            out[f"p{q}"] = float(np.percentile(values, q))
            break
    return out


class Loop:
    """Runs cycles of a workload's operations and checks their outputs."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.op_times: list[float] = []
        self.by_name: dict[str, list[float]] = {}
        self.slices = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, what: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(f"{what}: {e}" for e in errors)

    def cycle(self, tracer=None) -> float:
        """One pass over the workload's operations; returns the timed seconds."""
        timed = 0.0
        for op in self.wl.ops():
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception:  # an operation that raises is a counted failure
                self.record(op.name, [traceback.format_exc(limit=-3)])
                continue
            finally:
                dt = time.perf_counter() - t0
                timed += dt
                if tracer is not None:
                    tracer.active = False
            self.op_times.append(dt)
            self.by_name.setdefault(op.name, []).append(dt)
            self.slices += op.slices
            self.record(op.name, op.check(out))
        return timed

    def timed_setup(self, tracer=None) -> float:
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            self.wl.setup()
        finally:
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
                if self.wl.model_params() is not None:
                    tracer.add_model(self.wl.model_params())
        return dt


def run_untraced(wl, seconds: float, import_s: float) -> tuple[Loop, dict, dict]:
    loop = Loop(wl)
    setups = [loop.timed_setup() for _ in range(SETUP_REPS)]
    measured = 0.0
    while measured < seconds:
        measured += loop.cycle()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": import_s + statistics.median(setups),
        "op_s.p50": statistics.median(loop.op_times) if loop.op_times else float("nan"),
        "slices_per_s": loop.slices / sum(loop.op_times) if loop.op_times else 0.0,
        "peak_rss_mb": rss_mb,
    }
    detail = {
        "setup_s": setups,
        "import_s": import_s,
        "op_s": percentiles(loop.op_times),
        "op_s_by_name": {k: percentiles(v) for k, v in loop.by_name.items()},
    }
    return loop, values, detail


def run_traced(wl, seconds: float) -> tuple[Loop, dict, dict]:
    from tracer import Tracer

    loop = Loop(wl)
    tracer = Tracer()
    untraced = traced = measured = 0.0
    iterations = 0
    # --seconds bounds the untraced and traced cycles together, so a traced
    # run lasts about as long as an untraced one.
    while iterations == 0 or measured < seconds:
        setup_u = loop.timed_setup()
        ops_u = loop.cycle()
        tracer.install()
        try:
            setup_t = loop.timed_setup(tracer)
            ops_t = loop.cycle(tracer)
        finally:
            tracer.uninstall()
        untraced += setup_u + ops_u
        traced += setup_t + ops_t
        measured += ops_u + ops_t
        iterations += 1

    self_s = tracer.self_times()
    values = {f"{k}_s": v / iterations for k, v in self_s.items()}
    values.update({k: v / iterations for k, v in tracer.counts.items()})
    fg = wl.stats.get("fg_frac", [])
    values["model.fg_frac"] = statistics.fmean(fg) if fg else 0.0
    values["trace.overhead_frac"] = (traced - untraced) / untraced
    values["trace.unattributed_frac"] = 1.0 - sum(
        v for k, v in self_s.items() if not k.startswith("layer.")
    ) / traced
    detail = {"iterations": iterations, "traced_s": traced, "untraced_s": untraced,
              "spans": len(tracer.spans)}
    return loop, values, detail


def time_import() -> float:
    """Seconds to import every earunet module afresh (module code runs again)."""
    for name in [m for m in sys.modules if m == "earunet" or m.startswith("earunet.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    for name in PROGRAM_MODULES:
        importlib.import_module(f"earunet.{name}")
    return time.perf_counter() - t0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    src = ROOT / "src"
    if not (src / "earunet" / "__init__.py").is_file():
        print(f"error: no earunet sources under {src}", file=sys.stderr)
        return 2
    load = os.getloadavg()
    nproc = len(os.sched_getaffinity(0))
    blas_env = limit_blas_threads(nproc)
    sys.path.insert(0, str(src))

    import numpy  # noqa: F401  the dependencies' import is not the program's set-up
    import scipy.ndimage  # noqa: F401
    import scipy.spatial  # noqa: F401

    import_s = statistics.median(time_import() for _ in range(SETUP_REPS))
    import earunet
    import workloads

    if Path(earunet.__file__).resolve().parent != (src / "earunet").resolve():
        print(f"error: imported earunet from {earunet.__file__}, not {src}", file=sys.stderr)
        return 2

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    # turn SIGTERM into SystemExit so the work directory is still removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = ROOT / ".perfbench_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl.prepare(work, args.seed)
        if args.trace:
            loop, values, detail = run_traced(wl, args.seconds)
            listed = bench["per_layer"]
        else:
            loop, values, detail = run_untraced(wl, args.seconds, import_s)
            listed = bench["end_to_end"]
        # after the measurement, so its inputs do not count in peak_rss_mb
        (work / "canary").mkdir()
        loop.record("canary", workloads.canary(wl.name, work / "canary"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run's directory is still there
            pass

    names = {m["name"] for m in listed}
    unlisted = sorted(set(values) - names)
    if unlisted:
        print(f"error: metrics missing from BENCHMARK.json: {unlisted}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in listed}
    detail.update({
        "workload": wl.name,
        "provenance": provenance(args.seed, nproc, blas_env, load),
        "errors": loop.errors[:10],
    })
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
