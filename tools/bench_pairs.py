"""Alternating-pair benchmark of a change against its parent.

    python3 tools/bench_pairs.py --pr 14 --claim cluster6_records:norm_wall_s

exports the parent (``HEAD``) and the change (the working tree: tracked
and untracked files that git does not ignore) side by side under
``.bench_build/``, then runs
``perfbench/run.py --workload all --seconds S --seed k`` from each side's
own checkout for seeds 1 .. 10, where S is ``run_seconds`` in
``BENCHMARK.json``.  Pair k runs the parent first when k is odd and the
change first when it is even, and each run starts with the side's
compiled bytecode cleared.  Afterwards each side runs
``--workload all --trace 1`` at seeds 1 and 2, in alternating order as
well.

It writes ``BENCH_<pr>.json`` at the root of the repository: every run,
and per workload and end-to-end metric of ``BENCHMARK.json`` the median
and quartiles of each side, the ratio of the medians, the pairs the change
wins and whether the gap between the medians exceeds the parent's
quartile spread.  ``--claim WORKLOAD:METRIC`` adds a verdict for one
metric: the change must win at least 9 of the 10 pairs and beat that
spread.  The file's top-level ``incorrect`` list names every (seed, side,
workload, traced) result that is not correct or had failed operations,
and its ``trace_share`` block gives, per traced run, side and workload,
the share of the traced wall left to the benchmark's own code, beside the
share that ``perfbench/checks.py`` allows it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "perfbench"))

from checks import BENCH_FLOOR_S, BENCH_SHARE  # noqa: E402

SIDES = ("parent", "change")
WORKDIR = REPO / ".bench_build"
PAIRS = 10
TRACE_SEEDS = (1, 2)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=REPO, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str | None, dest: Path) -> str:
    """Write revision ``rev`` (None: the working tree) into ``dest`` and
    return its description."""
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    if rev is None:
        files = _git("ls-files", "--cached", "--others",
                     "--exclude-standard", "-z").split("\0")
        for name in filter(None, files):
            src = REPO / name
            if src.is_file():
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(src, dest / name)
        return f"working tree on {_git('rev-parse', 'HEAD')}"
    tar = subprocess.run(["git", "archive", rev], cwd=REPO, check=True,
                         capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)
    return _git("rev-parse", rev)


def clear_bytecode(root: Path) -> None:
    for cache in root.rglob("__pycache__"):
        shutil.rmtree(cache, ignore_errors=True)


def run_all(side: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``--workload all`` run from ``side``'s export: its per-workload
    JSON, the last line the run prints."""
    root = WORKDIR / side
    clear_bytecode(root)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all",
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"the {side} run at seed {seed} (trace {trace}) "
                           f"printed no result line (exit code "
                           f"{proc.returncode})")
    return json.loads(lines[-1])


def flatten(result: dict) -> dict:
    return {name: {"correct": res["correct"], "attempted": res["attempted"],
                   "failed": res["failed"],
                   **{k: v["value"] for k, v in res["metrics"].items()}}
            for name, res in result.items()}


def incorrect(seed: int, side: str, traced: bool, workloads: dict) -> list:
    """The flattened results of one run that are not correct or had
    failed operations."""
    return [{"seed": seed, "side": side, "workload": wl, "traced": traced,
             "correct": res["correct"], "failed": res["failed"]}
            for wl, res in workloads.items()
            if not res["correct"] or res["failed"] > 0]


def trace_share(trace: dict) -> dict:
    """``bench.self_s / trace.wall_s`` of every traced run, per seed, side
    and workload: the share of the traced wall that no program layer
    claims, which ``checks.trace_accounts`` holds to ``BENCH_SHARE`` of
    the wall plus ``BENCH_FLOOR_S``."""
    out = {"bench_share": BENCH_SHARE, "bench_floor_s": BENCH_FLOOR_S}
    for key, sides in trace.items():
        if key.startswith("seed"):
            out[key] = {side: {wl: res["bench.self_s"] / res["trace.wall_s"]
                               for wl, res in run.items()
                               if isinstance(res, dict)}
                        for side, run in sides.items()}
    return out


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list, metrics: list) -> dict:
    by_seed = {(r["seed"], r["side"]): r["workloads"] for r in runs}
    seeds = sorted({r["seed"] for r in runs})
    workloads = dict.fromkeys(w for r in runs for w in r["workloads"])
    out = {}
    for wl in workloads:
        out[wl] = {}
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            pairs = [(by_seed[s, "parent"][wl][name],
                      by_seed[s, "change"][wl][name]) for s in seeds
                     if wl in by_seed.get((s, "parent"), {})
                     and wl in by_seed.get((s, "change"), {})]
            if not pairs:
                continue
            par = spread([p for p, _ in pairs])
            chg = spread([c for _, c in pairs])
            wins = sum((c < p) if lower else (c > p) for p, c in pairs)
            gap = (par["median"] - chg["median"]) * (1 if lower else -1)
            out[wl][name] = {
                "better": m["better"], "parent": par, "change": chg,
                "change_over_parent": chg["median"] / par["median"],
                "change_wins": f"{wins}/{len(pairs)}",
                "gap_exceeds_parent_iqr": gap > par["q3"] - par["q1"],
            }
    return out


def claim_verdict(summary: dict, claim: str) -> dict:
    workload, metric = claim.split(":")
    s = summary[workload][metric]
    wins, n = map(int, s["change_wins"].split("/"))
    par, chg = s["parent"], s["change"]
    holds = wins >= 9 and s["gap_exceeds_parent_iqr"]
    return {
        "workload": workload, "metric": metric,
        "rule": "the change wins at least 9 of 10 pairs and the medians "
                "differ by more than the parent's quartile spread",
        "result": (f"parent median {par['median']:.4g} (quartiles "
                   f"{par['q1']:.4g}-{par['q3']:.4g}), change median "
                   f"{chg['median']:.4g} (quartiles {chg['q1']:.4g}-"
                   f"{chg['q3']:.4g}), ratio {s['change_over_parent']:.3f}; "
                   f"the change wins {wins}/{n} pairs"),
        "holds": holds,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, required=True,
                    help="number in the output name BENCH_<pr>.json")
    ap.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC")
    args = ap.parse_args(argv)

    revs = {"parent": export("HEAD", WORKDIR / "parent"),
            "change": export(None, WORKDIR / "change")}
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    seconds, metrics = bench["run_seconds"], bench["end_to_end"]
    out_path = REPO / f"BENCH_{args.pr}.json"

    def record(doc):
        out_path.write_text(json.dumps(doc, indent=1) + "\n")

    def ordered(k):
        return SIDES if k % 2 else SIDES[::-1]

    cmd = (f"python3 perfbench/run.py --workload all --seconds "
           f"{seconds:g} --seed <seed>")
    doc = {
        "command": cmd,
        "made_by": "python3 tools/bench_pairs.py " + " ".join(
            argv if argv is not None else sys.argv[1:]),
        "parent_commit": revs["parent"],
        "change": revs["change"],
        "protocol": (f"{PAIRS} pairs (seeds 1-{PAIRS}), one run "
                     "per side per seed, each side from its own export of "
                     "the repository with its bytecode cleared before every "
                     "run; the parent runs first on odd seeds, the change "
                     "on even ones"),
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "seeds": list(range(1, PAIRS + 1)),
        "incorrect": [],
        "runs": [],
    }
    for k in doc["seeds"]:
        for side in ordered(k):
            started = time.strftime("%H:%M:%S", time.gmtime())
            res = flatten(run_all(side, k, seconds, 0))
            doc["runs"].append({"seed": k, "side": side,
                                "started_utc": started, "workloads": res})
            doc["incorrect"] += incorrect(k, side, False, res)
            print(f"seed {k} {side} done", file=sys.stderr)
            record(doc)
    doc["summary"] = summarize(doc["runs"], metrics)
    if args.claim:
        doc["claim"] = claim_verdict(doc["summary"], args.claim)

    doc["trace"] = {"command": cmd + " --trace 1"}
    for k in TRACE_SEEDS:
        doc["trace"][f"seed{k}"] = {}
        for side in ordered(k):
            started = time.strftime("%H:%M:%S", time.gmtime())
            res = flatten(run_all(side, k, seconds, 1))
            doc["trace"][f"seed{k}"][side] = {"started_utc": started, **res}
            doc["incorrect"] += incorrect(k, side, True, res)
            doc["trace_share"] = trace_share(doc["trace"])
            print(f"traced seed {k} {side} done", file=sys.stderr)
            record(doc)
    record(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
