"""Benchmark of photonchain: post-selected events per second, end to end
and per layer.

    python3 perfbench/run.py --workload ghz12_postselect --seed 1 \
        --seconds 30 --trace 0

runs one workload in this process (the engine's default single thread) for
about ``--seconds`` seconds of whole rounds and prints, as its last line,
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  ``--workload all`` runs every workload,
each in its own process, and prints a table.  ``--reduced`` shrinks every
workload to a few seconds.  ``--workload baselines`` re-measures the
reference figures quoted in README.md.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# One thread per workload process: the engine's small matrix products
# otherwise wake a second OpenBLAS thread that spins on the other core,
# doubling CPU use for no speed-up and competing with the main thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_run"
SETUP_PROBES = 20


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "photonchain" / "__init__.py").is_file():
        print(f"perfbench: no photonchain sources under {src}",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import photonchain

    if Path(photonchain.__file__).resolve().parent != src / "photonchain":
        print(f"perfbench: imported photonchain from {photonchain.__file__},"
              f" not from {src}", file=sys.stderr)
        sys.exit(2)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _SetupProbes:
    """Wall times of fresh processes that import the program, build the
    workload's configs and schedules and make its warm-up calls.  Half of
    the probes run before the timed rounds, the rest spread over and after
    them, so that their median samples the whole run."""

    def __init__(self, args):
        self.cmd = [sys.executable, str(Path(__file__).resolve()),
                    "--setup-probe", "--workload", args.workload,
                    "--seed", str(args.seed)]
        if args.reduced:
            self.cmd.append("--reduced")
        self.times = []

    def run_until(self, count: float) -> None:
        while len(self.times) < count:
            t0 = time.perf_counter()
            # no timeout: waiting with one polls in 50 ms steps
            subprocess.run(self.cmd, check=True, stdout=subprocess.DEVNULL)
            self.times.append(time.perf_counter() - t0)

    def between_rounds(self, done: float) -> None:
        """Called after a round with the share of the run's rounds done."""
        half = SETUP_PROBES // 2
        self.run_until(half + min(done, 1.0) * (SETUP_PROBES - half))


def _timed_rounds(wl, ops, seconds, traced=None, between=None):
    """Whole rounds until the next one would end after ``seconds`` of round
    time (at least one).  Each round runs untraced, timed together with the
    host's speed (``hostspeed``), and then, with a tracer, traced on the
    same inputs.  ``between(share done)`` runs after each round, outside
    the round time.  Returns the untraced rounds as (timing, RoundResult),
    the traced ones as (wall_s, RoundResult) and the tracer's counts after
    the first round."""
    from hostspeed import HostSpeed

    host = HostSpeed(wl.HOST_KERNEL)
    plain, spans, first = [], [], None
    elapsed = 0.0
    r = 0
    while True:
        t0 = time.perf_counter()
        with host.timing() as timing:
            res = wl.round(r, ops)
        plain.append((timing, res))
        if traced is not None:
            traced.install()
            try:
                with traced.root(f"round {r}") as idx:
                    res = wl.round(r, ops)
            finally:
                traced.uninstall()
            spans.append((traced.duration(idx), res))
            if first is None:
                first = Counter(traced.counts)
        elapsed += time.perf_counter() - t0
        r += 1
        if between is not None:
            between(elapsed / seconds if seconds > 0 else 1.0)
        if elapsed + elapsed / r > seconds:
            return plain, spans, first


def _end_to_end(args, wl, ops) -> dict:
    probes = _SetupProbes(args)
    probes.run_until(SETUP_PROBES // 2)
    rounds, _, _ = _timed_rounds(wl, ops, args.seconds,
                                 between=probes.between_rounds)
    probes.run_until(SETUP_PROBES)
    wl.predict(ops)
    wl.finish(ops)
    print(f"perfbench: {wl.name} rounds (wall s, at reference speed s, "
          "events) " + " ".join(f"{t.wall_s:.3f}/{t.norm_s:.3f}/{r.events}"
                                for t, r in rounds)
          + " setup probes " + " ".join(f"{t:.3f}" for t in probes.times),
          file=sys.stderr)
    return {
        "setup_s": (statistics.median(probes.times), "s"),
        "norm_wall_s": (statistics.median(t.norm_s for t, _ in rounds), "s"),
        "norm_events_per_s": (statistics.median(
            r.events / t.norm_s for t, r in rounds), "1/s"),
        "norm_sim_s_per_s": (statistics.median(
            r.sim_s / t.norm_s for t, r in rounds), "s/s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


def _per_layer(args, wl, ops) -> dict:
    """Per-layer figures of the traced rounds: self times per round, rates
    over every traced round, and computed counts of round 0 alone, so that
    they repeat exactly for a seed whatever the number of rounds.  The
    oracle figures are those of the once-per-run prediction, traced apart
    from the rounds."""
    import checks
    from tracing import STEP_KINDS, Tracer

    tracer = Tracer()
    plain, traced, c0 = _timed_rounds(wl, ops, args.seconds, traced=tracer)
    n = len(traced)
    print(f"perfbench: {wl.name} traced rounds {n}", file=sys.stderr)
    own = tracer.self_times()
    traced_wall = sum(w for w, _ in traced)
    ops.check("program layers claim the traced wall",
              checks.trace_accounts(own, traced_wall))
    ops.check("computed counts repeat for the same inputs", (
        [r.events for _, r in plain] == [r.events for _, r in traced],
        "events differ between the untraced and traced rounds"))
    tracer.dump(OUT / wl.name / f"trace-seed{args.seed}.json")

    oracle_tracer = Tracer()
    oracle_tracer.install()
    try:
        with oracle_tracer.root("predict"):
            wl.predict(ops)
    finally:
        oracle_tracer.uninstall()
    oracle_tracer.dump(OUT / wl.name / f"trace-predict-seed{args.seed}.json")
    wl.finish(ops)

    c, co = tracer.counts, oracle_tracer.counts
    steps0 = sum(c0[f"engine.shot_steps.{k}"] for k in STEP_KINDS)
    steps = sum(c[f"engine.shot_steps.{k}"] for k in STEP_KINDS)

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    m = {
        "rng.draws": (c0["rng.draws"], "count"),
        "rng.draws_per_call": (ratio(c0["rng.draws"], c0["engine.calls"]),
                               "count"),
        "rng.self_s": (own["rng"] / n, "s"),
        "rng.ns_per_draw": (ratio(own["rng"], c["rng.draws"], 1e9), "ns"),
        "engine.calls": (c0["engine.calls"], "count"),
        "engine.ms_per_call": (ratio(c["engine.call_s"], c["engine.calls"],
                                     1e3), "ms"),
        "engine.shots": (c0["engine.shots"], "count"),
        "engine.events_per_shot": (ratio(c0["engine.events"],
                                         c0["engine.shots"]), "ratio"),
        "engine.shot_steps": (steps0, "count"),
    }
    for k in STEP_KINDS:
        m[f"engine.shot_steps.{k}"] = (c0[f"engine.shot_steps.{k}"], "count")
    m.update({
        "engine.shot_steps_per_event": (ratio(steps0, c0["engine.events"]),
                                        "count"),
        "engine.self_s": (own["engine"] / n, "s"),
        "engine.ns_per_shot_step": (ratio(own["engine"], steps, 1e9), "ns"),
        "schedule.builds": (c0["schedule.builds"], "count"),
        "schedule.self_s": (own["schedule"] / n, "s"),
        "io.write_us_per_shot": (ratio(c["io.write_s"], c["io.write_shots"],
                                       1e6), "us"),
        "io.read_us_per_shot": (ratio(c["io.read_s"], c["io.read_shots"],
                                      1e6), "us"),
        "io.bytes_per_shot": (ratio(c0["io.write_bytes"],
                                    c0["io.write_shots"]), "B"),
        "io.records_mb": (c0["io.write_bytes"] / 1e6, "MB"),
        "io.self_s": (own["io"] / n, "s"),
        "analysis.calls": (c0["analysis.calls"], "count"),
        "analysis.self_s": (own["analysis"] / n, "s"),
        "oracle.calls": (co["oracle.calls"], "count"),
        "oracle.us_per_call": (ratio(co["oracle.call_s"], co["oracle.calls"],
                                     1e6), "us"),
        "oracle.self_s": (oracle_tracer.self_times()["oracle"], "s"),
        "cli.self_s": (own["cli"] / n, "s"),
        "bench.self_s": (own["bench"] / n, "s"),
        "trace.self_s": (own["trace"] / n, "s"),
        "trace.wall_s": (traced_wall / n, "s"),
        "trace.overhead_s": ((traced_wall - sum(t.wall_s for t, _ in plain))
                             / n, "s"),
        "host.wall_s": (statistics.median(t.wall_s for t, _ in plain), "s"),
        "host.ref_us": (statistics.median(t.ref_s for t, _ in plain) * 1e6,
                        "us"),
    })
    return m


def _run_one(args) -> int:
    from workloads import WORKLOADS, OperationFailed, Ops

    # probes write apart, so they leave the run's records untouched
    outdir = OUT / args.workload / ("probe" if args.setup_probe else "")
    wl = WORKLOADS[args.workload](args.seed, outdir, reduced=args.reduced)
    ops = Ops()
    wl.setup(ops)
    if args.setup_probe:
        return 0
    try:
        metrics = (_per_layer if args.trace else _end_to_end)(args, wl, ops)
    except OperationFailed as exc:
        print(f"perfbench: operation failed: {exc}", file=sys.stderr)
        return 1
    for failure in ops.check_failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": ops.correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


def _run_all(args) -> int:
    from workloads import WORKLOADS

    results, rc = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.reduced:
            cmd.append("--reduced")
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            rc = 1
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results[name] = res
        print(f"{name}: correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']}")
        for k, v in res["metrics"].items():
            print(f"  {k:30s} {v['value']:14.6g} {v['unit']}")
    print(json.dumps(results))
    return rc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reduced", action="store_true",
                    help="every workload at a size that runs in seconds")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    _import_program()
    from workloads import WORKLOADS

    if args.workload == "baselines":
        from baselines import main as baselines
        return baselines(OUT / "baselines")
    if args.workload == "all":
        return _run_all(args)
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r} "
                 f"(choose from {', '.join(WORKLOADS)}, all, baselines)")
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
