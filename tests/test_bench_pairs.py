"""tools/bench_pairs.py: the list of incorrect results, the trace-share
block and the error for a run that prints no result line."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs",
    Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

import checks  # noqa: E402  (bench_pairs put perfbench/ on sys.path)


def test_incorrect_names_each_wrong_or_failing_result():
    workloads = {"ok": {"correct": True, "failed": 0},
                 "wrong": {"correct": False, "failed": 0},
                 "failing": {"correct": True, "failed": 2}}
    assert bench_pairs.incorrect(3, "change", True, workloads) == [
        {"seed": 3, "side": "change", "workload": "wrong", "traced": True,
         "correct": False, "failed": 0},
        {"seed": 3, "side": "change", "workload": "failing", "traced": True,
         "correct": True, "failed": 2}]
    assert bench_pairs.incorrect(1, "parent", False,
                                 {"ok": workloads["ok"]}) == []


def test_run_without_result_line_names_side_and_seed(monkeypatch, tmp_path):
    (tmp_path / "parent").mkdir()
    monkeypatch.setattr(bench_pairs, "WORKDIR", tmp_path)
    monkeypatch.setattr(bench_pairs.subprocess, "run",
                        lambda args, **kw: subprocess.CompletedProcess(
                            args, 1, stdout="", stderr="crashed\n"))
    with pytest.raises(RuntimeError,
                       match=r"parent run at seed 4 \(trace 1\) printed no "
                             r"result line \(exit code 1\)"):
        bench_pairs.run_all("parent", 4, 30.0, 1)


def test_trace_share_divides_bench_time_by_traced_wall():
    run = {"started_utc": "12:00:00",
           "ghz12_postselect": {"bench.self_s": 0.012, "trace.wall_s": 0.6},
           "rate_day": {"bench.self_s": 0.001, "trace.wall_s": 1.0}}
    got = bench_pairs.trace_share({"command": "run --trace 1",
                                   "seed1": {"parent": run, "change": run}})
    assert got["bench_share"] == checks.BENCH_SHARE
    assert got["bench_floor_s"] == checks.BENCH_FLOOR_S
    assert set(got) == {"bench_share", "bench_floor_s", "seed1"}
    for side in ("parent", "change"):
        assert got["seed1"][side] == pytest.approx(
            {"ghz12_postselect": 0.02, "rate_day": 0.001})
