"""Write the committed BENCH_*.json files, or compare two sets of them.

    python3 tools/bench.py [--runs 5] [--seconds S] [--full-rounds 3] [--out DIR] [--append]
    python3 tools/bench.py --compare OLD_DIR NEW_DIR

Run from the repository root.  Each workload of BENCHMARK.json runs
``--runs`` times untraced and once traced (``perfbench/run.py`` as a
subprocess, at ``SEED`` and ``--seconds``, by default BENCHMARK.json's
``run_seconds``), and ``tools/full_step.py`` runs ``--full-rounds`` times,
each in a fresh process.  Both run as ``python3`` from PATH, the
interpreter that BENCHMARK.json's command names, and each file records
the command lines as run.  The files go to ``--out`` (default: the
repository root):

- ``BENCH_<workload>.json``: every run's command line, provenance line,
  ``correct``/``attempted``/``failed`` and metrics; per end-to-end metric
  the runs, the median and the quartiles; the traced run's per-layer
  metrics.
- ``BENCH_full.json``: full_step.py's forward, backward and infer seconds
  and ru_maxrss per round, each round with its git sha and src digest, and
  the same statistics.

``--append`` adds the new runs to the files already in ``--out``, and runs
the traced run only for a file that has none yet, so that alternating
runs of two versions collect into one file per version; ``--runs 0`` or
``--full-rounds 0`` leaves the workload or full-step files alone.  The
script exits 1 if a run is not ``correct: true`` or full_step.py exits
non-zero.

``--compare`` only reads files: each BENCH file in OLD and its namesake
in NEW.  Per workload and metric it prints OLD's and NEW's medians, the
relative change and BENCHMARK.json's bound.  A change is "unresolved"
when NEW's median lies inside OLD's quartiles, else "better" or "worse";
"beyond bound" marks a worse change larger than the bound.  It exits 1 if
a change is beyond its bound, 2 if OLD holds no BENCH file, NEW lacks one
of OLD's, a file lacks a field or a median or quartile it reads is not
finite, as all three are when a run lacks the metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# one seed for every run, so that BENCH files of different changes compare
SEED = 7
FULL_LINE = re.compile(
    r"fwd (?P<fwd_s>[\d.]+) s, bwd (?P<bwd_s>[\d.]+) s, ru_maxrss (?P<ru_maxrss_mb>\d+) MB"
    r".*infer fwd (?P<infer_s>[\d.]+) s")
# full_step.py's metrics, all lower-is-better; BENCHMARK.json bounds none of them
FULL_METRICS = {"fwd_s": "s", "bwd_s": "s", "infer_s": "s", "ru_maxrss_mb": "MB"}
FULL_COMMAND = ["python3", "tools/full_step.py"]  # run with PYTHONPATH=src


def stats(values: list[float]) -> dict:
    """The values, their median and quartiles (inclusive method); all three
    are NaN if any value is not finite, as a run lacking the metric is."""
    if not all(map(math.isfinite, values)):
        return {"runs": values, "median": math.nan, "q1": math.nan, "q3": math.nan}
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"runs": values, "median": statistics.median(values), "q1": q[0], "q3": q[2]}


def run_workload(name: str, seconds: float, trace: int) -> dict:
    """One perfbench/run.py process; its last two stdout lines as a record."""
    cmd = ["python3", "perfbench/run.py", "--workload", name, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        record = {"provenance": detail.get("provenance"),
                  "correct": result["correct"] is True and proc.returncode == 0,
                  "attempted": result["attempted"], "failed": result["failed"],
                  "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        # no two lines, or lines that are not the run's JSON records
        sys.stderr.write(proc.stderr)
        record = {"provenance": None, "correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    print(f"{name} trace={trace}: exit {proc.returncode}, correct {record['correct']}", flush=True)
    return {"command": cmd, "exit": proc.returncode, **record}


def workload_file(name: str, untraced: list[dict], traced: dict) -> dict:
    runs = untraced + [traced]
    return {
        "workload": name,
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "end_to_end": {
            m["name"]: {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                        **stats([r["metrics"].get(m["name"], float("nan")) for r in untraced])}
            for m in BENCHMARK["end_to_end"]},
        "per_layer": traced["metrics"],
        "untraced_runs": untraced,
        "traced_run": traced,
    }


def run_full(rounds: int) -> list[dict]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run  # perfbench/run.py, for the same git sha and src digest

    env = dict(os.environ, PYTHONPATH="src")
    out = []
    for _ in range(rounds):
        proc = subprocess.run(FULL_COMMAND, cwd=ROOT, env=env, capture_output=True, text=True)
        match = FULL_LINE.search(proc.stdout)
        print(f"full: exit {proc.returncode}, {proc.stdout.strip()}", flush=True)
        out.append({"exit": proc.returncode,
                    "provenance": {"git_sha": run.git_sha(), "src_sha256": run.source_digest()},
                    **{k: float(v) for k, v in (match.groupdict() if match else {}).items()}})
    return out


def full_file(rounds: list[dict]) -> dict:
    ok = all(r["exit"] == 0 and FULL_METRICS.keys() <= r.keys() for r in rounds)
    return {
        "workload": "full",
        "command": ["env", "PYTHONPATH=src"] + FULL_COMMAND,
        "correct": ok,
        "rounds": rounds,
        "end_to_end": {k: {"unit": unit, "better": "lower", "bound": None,
                           **stats([r[k] for r in rounds if k in r] or [float("nan")])}
                       for k, unit in FULL_METRICS.items()},
    }


def measure(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    names = [w["name"] for w in BENCHMARK["workloads"]] if args.runs else []
    for name in names + (["full"] if args.full_rounds else []):
        path = out / f"BENCH_{name}.json"
        old = json.loads(path.read_text()) if args.append and path.is_file() else None
        if name == "full":
            rounds = (old["rounds"] if old else []) + run_full(args.full_rounds)
            data = full_file(rounds)
        else:
            untraced = [run_workload(name, args.seconds, 0) for _ in range(args.runs)]
            if old:
                untraced = old["untraced_runs"] + untraced
            traced = old["traced_run"] if old else run_workload(name, args.seconds, 1)
            data = workload_file(name, untraced, traced)
        path.write_text(json.dumps(data, indent=1) + "\n")
        written.append(data)
    bad = [d["workload"] for d in written if not d["correct"]]
    print(f"wrote {len(written)} files to {out}" + (f"; not correct: {bad}" if bad else ""))
    return 1 if bad else 0


def relative(old: float, new: float) -> float:
    if old == new:
        return 0.0
    return (new - old) / abs(old) if old else float("inf")


def compare(old_dir: str, new_dir: str) -> int:
    names = [w["name"] for w in BENCHMARK["workloads"]] + ["full"]
    names = [name for name in names if (Path(old_dir) / f"BENCH_{name}.json").is_file()]
    if not names:
        print(f"error: no BENCH_*.json in {old_dir}", file=sys.stderr)
        return 2
    beyond = 0
    print(f"{'workload':15} {'metric':13} {'old':>10} {'new':>10} {'change':>8} {'bound':>6}",
          " verdict")
    for name in names:
        try:
            pair = [json.loads((Path(d) / f"BENCH_{name}.json").read_text())["end_to_end"]
                    for d in (old_dir, new_dir)]
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: BENCH_{name}.json: {exc!r}", file=sys.stderr)
            return 2
        for metric, o in pair[0].items():
            try:
                old, q1, q3, new = o["median"], o["q1"], o["q3"], pair[1][metric]["median"]
                better, bound = o["better"], o["bound"]
            except KeyError as exc:
                print(f"error: BENCH_{name}.json {metric}: no {exc}", file=sys.stderr)
                return 2
            if not all(map(math.isfinite, (old, q1, q3, new))):  # a metric a run lacks is NaN
                print(f"error: BENCH_{name}.json {metric}: OLD median {old}, q1 {q1}, q3 {q3}; "
                      f"NEW median {new}", file=sys.stderr)
                return 2
            change = relative(old, new)
            worse = change > 0 if better == "lower" else change < 0
            verdict = "unresolved" if q1 <= new <= q3 else "worse" if worse else "better"
            if worse and bound is not None and abs(change) > bound:
                verdict += ", beyond bound"
                beyond += 1
            shown = "-" if bound is None else f"{bound:.0%}"
            print(f"{name:15} {metric:13} {old:10.4g} {new:10.4g} "
                  f"{change:+8.1%} {shown:>6}  {verdict}")
    return 1 if beyond else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    ap.add_argument("--full-rounds", type=int, default=3)
    ap.add_argument("--out", default=str(ROOT))
    ap.add_argument("--append", action="store_true")
    args = ap.parse_args(argv)
    return compare(*args.compare) if args.compare else measure(args)


if __name__ == "__main__":
    sys.exit(main())
