"""tools/bench.py's file-reading half: run records, statistics, BENCH file records and --compare.

The script is loaded from its path; every input is a synthetic record,
file under tmp_path or stdout of a stand-in for subprocess.run, and no
benchmark process is started.
"""

import copy
import importlib.util
import json
import math
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def run_record(correct=True, **metrics):
    """One run as run_workload records it."""
    return {"command": [], "exit": 0 if correct else 1, "provenance": None,
            "correct": correct, "attempted": 4, "failed": 0, "metrics": metrics}


class TestStats:
    @pytest.mark.parametrize("values, median, q1, q3", [
        ([3.0], 3.0, 3.0, 3.0),
        ([4.0, 1.0, 3.0, 2.0], 2.5, 1.75, 3.25),
        ([5.0, 1.0, 4.0, 2.0, 3.0], 3.0, 2.0, 4.0),
    ])
    def test_median_and_inclusive_quartiles(self, values, median, q1, q3):
        s = bench.stats(values)
        assert s["runs"] == values
        assert (s["median"], s["q1"], s["q3"]) == pytest.approx((median, q1, q3))

    @pytest.mark.parametrize("values", [[1.0, math.nan, 1.2, 1.1, 1.3], [1.0, math.inf]])
    def test_a_non_finite_run_makes_every_statistic_nan(self, values):
        s = bench.stats(values)
        assert s["runs"] == values
        assert all(math.isnan(s[k]) for k in ("median", "q1", "q3"))


# perfbench/run.py's last two stdout lines: the detail record, then the result
DETAIL = json.dumps({"provenance": {"git_sha": "abc"}})
RESULT = {"correct": True, "attempted": 3, "failed": 0,
          "metrics": {"op_s.p50": {"value": 1.5, "unit": "s"}}}


class TestRunWorkload:
    def run(self, monkeypatch, stdout, returncode=0):
        def fake_run(cmd, **kwargs):
            return subprocess.CompletedProcess(cmd, returncode, stdout=stdout, stderr="")

        monkeypatch.setattr(bench.subprocess, "run", fake_run)
        return bench.run_workload("train_desk", 1.0, 0)

    def test_records_the_last_two_lines(self, monkeypatch):
        record = self.run(monkeypatch, f"log\n{DETAIL}\n{json.dumps(RESULT)}\n")
        assert record["provenance"] == {"git_sha": "abc"}
        assert (record["correct"], record["attempted"], record["failed"]) == (True, 3, 0)
        assert record["metrics"] == {"op_s.p50": 1.5}

    def test_incorrect_when_the_run_exits_non_zero(self, monkeypatch):
        record = self.run(monkeypatch, f"{DETAIL}\n{json.dumps(RESULT)}\n", 1)
        assert record["correct"] is False and record["exit"] == 1

    @pytest.mark.parametrize("last", [
        *[json.dumps({k: v for k, v in RESULT.items() if k != key})
          for key in ("correct", "attempted", "failed", "metrics")],
        json.dumps({**RESULT, "metrics": {"op_s.p50": 1.5}}), json.dumps({**RESULT, "metrics": []}),
        "[]", "not json"],
        ids=["no-correct", "no-attempted", "no-failed", "no-metrics", "bare-metric", "metrics-list",
             "list", "not-json"])
    def test_a_last_line_that_is_no_result_is_an_incorrect_run(self, monkeypatch, last):
        record = self.run(monkeypatch, f"{DETAIL}\n{last}\n")
        assert record["correct"] is False
        assert (record["attempted"], record["failed"], record["metrics"]) == (0, 0, {})


class TestWorkloadFile:
    def test_traced_metrics_are_per_layer(self):
        untraced = [run_record(**{"op_s.p50": v}) for v in (1.0, 2.0, 3.0)]
        traced = run_record(**{"op_s.p50": 9.0, "layer.head.fwd_s": 0.5})
        data = bench.workload_file("train_desk", untraced, traced)
        assert data["correct"] is True
        assert data["per_layer"] == {"op_s.p50": 9.0, "layer.head.fwd_s": 0.5}
        assert data["traced_run"] is traced and data["untraced_runs"] == untraced
        # end-to-end statistics come from the untraced runs alone
        assert data["end_to_end"]["op_s.p50"]["runs"] == [1.0, 2.0, 3.0]
        assert data["end_to_end"]["op_s.p50"]["median"] == 2.0
        assert data["attempted"] == 16

    @pytest.mark.parametrize("bad", [0, 2, "traced"])
    def test_incorrect_if_any_run_is(self, bad):
        untraced = [run_record(correct=i != bad, **{"op_s.p50": 1.0}) for i in range(3)]
        traced = run_record(correct=bad != "traced")
        assert bench.workload_file("segment_volume", untraced, traced)["correct"] is False


class TestFullFile:
    ROUND = {"fwd_s": 2.5, "bwd_s": 4.5, "infer_s": 1.5, "ru_maxrss_mb": 1189.0}

    def test_correct_when_every_round_exits_0(self):
        data = bench.full_file([{"exit": 0, **self.ROUND}, {"exit": 0, **self.ROUND}])
        assert data["correct"] is True
        assert data["end_to_end"]["ru_maxrss_mb"]["median"] == 1189.0

    def test_incorrect_when_a_round_exits_1(self):
        # the memory gate's failure: the round prints every number and exits 1
        assert bench.full_file([{"exit": 0, **self.ROUND}, {"exit": 1, **self.ROUND}])[
            "correct"] is False

    def test_incorrect_when_a_round_lacks_a_metric(self):
        assert bench.full_file([{"exit": 0, "fwd_s": 2.5}])["correct"] is False


def write_bench(directory: Path, name: str, end_to_end: dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"BENCH_{name}.json").write_text(json.dumps({"end_to_end": end_to_end}))


def metric(runs, better="lower", bound=0.25):
    return {"unit": "s", "better": better, "bound": bound, **bench.stats(runs)}


# OLD's op_s.p50: median 1.2, quartiles 1.1-1.3; slices_per_s: median 30, quartiles 20-40
OLD = {"op_s.p50": metric([1.0, 1.1, 1.2, 1.3, 1.4]),
       "slices_per_s": metric([10.0, 20.0, 30.0, 40.0, 50.0], better="higher")}


class TestCompare:
    def verdicts(self, tmp_path, capsys, new_op, new_slices):
        write_bench(tmp_path / "old", "segment_volume", OLD)
        write_bench(tmp_path / "new", "segment_volume", {
            "op_s.p50": metric([new_op]), "slices_per_s": metric([new_slices], better="higher")})
        code = bench.main(["--compare", str(tmp_path / "old"), str(tmp_path / "new")])
        rows = capsys.readouterr().out.splitlines()[1:]
        return code, {row.split()[1]: row.split(None, 6)[-1] for row in rows}

    def test_better(self, tmp_path, capsys):
        # 0.8 s is 33% lower and 45 slices/s 50% higher: both outside OLD's quartiles
        assert self.verdicts(tmp_path, capsys, 0.8, 45.0) == (
            0, {"op_s.p50": "better", "slices_per_s": "better"})

    def test_unresolved_inside_old_quartiles(self, tmp_path, capsys):
        assert self.verdicts(tmp_path, capsys, 1.25, 25.0) == (
            0, {"op_s.p50": "unresolved", "slices_per_s": "unresolved"})

    def test_worse_beyond_bound(self, tmp_path, capsys):
        # 1.6 s is 33% higher and 15 slices/s 50% lower, each beyond the 25% bound
        assert self.verdicts(tmp_path, capsys, 1.6, 15.0) == (
            1, {"op_s.p50": "worse, beyond bound", "slices_per_s": "worse, beyond bound"})

    def test_worse_within_bound(self, tmp_path, capsys):
        assert self.verdicts(tmp_path, capsys, 1.4, 30.0) == (
            0, {"op_s.p50": "worse", "slices_per_s": "unresolved"})

    def test_empty_old(self, tmp_path):
        write_bench(tmp_path / "new", "segment_volume", OLD)
        (tmp_path / "old").mkdir()
        assert bench.main(["--compare", str(tmp_path / "old"), str(tmp_path / "new")]) == 2

    def test_new_lacks_a_file(self, tmp_path):
        write_bench(tmp_path / "old", "segment_volume", OLD)
        write_bench(tmp_path / "old", "full", OLD)
        write_bench(tmp_path / "new", "segment_volume", OLD)
        assert bench.main(["--compare", str(tmp_path / "old"), str(tmp_path / "new")]) == 2

    @pytest.mark.parametrize("side, field, value", [
        ("new", "median", math.nan), ("new", "median", math.inf), ("old", "median", math.nan),
        ("old", "q1", math.nan), ("old", "q3", -math.inf)])
    def test_non_finite_statistic(self, tmp_path, capsys, side, field, value):
        # workload_file stores NaN for a metric that no run produced
        for name in ("old", "new"):
            data = copy.deepcopy(OLD)
            if name == side:
                data["op_s.p50"][field] = value
            write_bench(tmp_path / name, "segment_volume", data)
        assert bench.main(["--compare", str(tmp_path / "old"), str(tmp_path / "new")]) == 2
        assert "BENCH_segment_volume.json op_s.p50: " in capsys.readouterr().err

    def test_new_with_one_run_lacking_a_metric(self, tmp_path, capsys):
        # workload_file stores NaN for the run; its finite runs alone would read better
        write_bench(tmp_path / "old", "segment_volume", OLD)
        write_bench(tmp_path / "new", "segment_volume", {
            **OLD, "op_s.p50": metric([0.5, math.nan, 0.6, 0.7, 0.8])})
        assert bench.main(["--compare", str(tmp_path / "old"), str(tmp_path / "new")]) == 2
        assert "BENCH_segment_volume.json op_s.p50: " in capsys.readouterr().err

    @pytest.mark.parametrize("side, keys", [
        ("new", ("op_s.p50", "median")), ("old", ("op_s.p50", "q1")),
        ("old", ("op_s.p50", "q3")), ("old", ("op_s.p50", "better")),
        ("old", ("op_s.p50", "bound")), ("new", ("op_s.p50",)), ("new", ())])
    def test_missing_field(self, tmp_path, side, keys):
        for name in ("old", "new"):
            data = {"end_to_end": copy.deepcopy(OLD)}
            if name == side:
                *parents, last = ("end_to_end",) + keys
                node = data
                for key in parents:
                    node = node[key]
                del node[last]
            (tmp_path / name).mkdir()
            (tmp_path / name / "BENCH_segment_volume.json").write_text(json.dumps(data))
        assert bench.main(["--compare", str(tmp_path / "old"), str(tmp_path / "new")]) == 2
