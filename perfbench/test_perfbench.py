"""Self-tests of the benchmark: every correctness check rejects a
deliberately wrong input, the computed counts are right and repeat, and
every workload runs end to end at reduced size.

    python3 -m pytest perfbench -q
"""

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from photonchain import analysis, engine, oracle, schedule  # noqa: E402
from photonchain import io as pio  # noqa: E402
from photonchain.analysis import Estimate  # noqa: E402
from photonchain.levels import MeasBasis  # noqa: E402
from photonchain.noise import NoiseConfig, calibrate_field  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
from tracing import Tracer, shot_steps  # noqa: E402
from workloads import Ghz12PostSelect  # noqa: E402

ETA = 0.4318
LOSSY = NoiseConfig(eta0=ETA / 0.7, eta_d=0.7)
FIELD = NoiseConfig(b_sigma=calibrate_field(1.2e-3, 0.66))


def _ok(result):
    return result[0]


# -- GHZ checks ---------------------------------------------------------------

def test_parity_check_rejects_flipped_outcomes():
    n, phi = 4, 0.0
    cfg = schedule.ProtocolConfig("ghz", n)
    batch = engine.run_batch(cfg, LOSSY, [MeasBasis.equator(phi)] * n, 20000,
                             seed=3, abort_on_loss=True)
    obs = oracle.basis_observable(MeasBasis.equator(phi))
    want = oracle.product_expectation(cfg, [obs] * n)
    est = analysis.parity(batch, phi)
    assert _ok(checks.parity_matches(est.value, est.n_events, want, "p"))
    flipped = replace(batch, outcomes=batch.outcomes.copy())
    flipped.outcomes[:, 0] *= -1
    bad = analysis.parity(flipped, phi)
    assert not _ok(checks.parity_matches(bad.value, bad.n_events, want, "p"))


def test_population_check_rejects_flipped_outcomes():
    n = 4
    cfg = schedule.ProtocolConfig("ghz", n)
    batch = engine.run_batch(cfg, LOSSY, [MeasBasis.z()] * n, 20000, seed=4,
                             abort_on_loss=True)
    est = analysis.populations(batch, n)
    assert _ok(checks.probability_matches(est.value, est.n_events, 1.0, "P"))
    flipped = replace(batch, outcomes=batch.outcomes.copy())
    flipped.outcomes[::7, 1] *= -1
    bad = analysis.populations(flipped, n)
    assert not _ok(checks.probability_matches(bad.value, bad.n_events, 1.0,
                                              "P"))


def test_interval_check_rejects_out_of_range():
    assert _ok(checks.in_interval(Estimate(0.98, 0.01, 100), 0.0, 1.0, "C"))
    assert _ok(checks.in_interval(Estimate(1.04, 0.01, 100), 0.0, 1.0, "C"))
    assert not _ok(checks.in_interval(Estimate(1.2, 0.01, 100), 0.0, 1.0,
                                      "C"))
    assert not _ok(checks.in_interval(Estimate(-1.3, 0.05, 100), -1.0, 1.0,
                                      "S"))


def test_yield_checks_reject_wrong_yields():
    n, shots = 4, 100000
    p0 = checks.loss_only_yield(ETA, n)
    exact = round(shots * p0)
    assert _ok(checks.yield_matches_loss_only(exact, shots, ETA, n))
    assert _ok(checks.yield_below_loss_bound(int(0.8 * exact), shots, ETA, n))
    assert not _ok(checks.yield_matches_loss_only(int(0.8 * exact), shots,
                                                  ETA, n))
    assert not _ok(checks.yield_below_loss_bound(int(1.2 * exact), shots,
                                                 ETA, n))
    # the engine's loss-only yield, drawn independently, passes
    cfg = schedule.ProtocolConfig("ghz", n)
    batch = engine.run_batch(cfg, LOSSY, [MeasBasis.z()] * n, shots, seed=5,
                             abort_on_loss=True)
    events = int(batch.detected.all(axis=1).sum())
    assert _ok(checks.yield_matches_loss_only(events, shots, ETA, n))


def test_ghz_control_checks_reject_wrong_inputs_at_workload_size():
    """The ghz12_postselect control slices at their own size: N = 12, the
    yield over YIELD_BLOCKS x YIELD_BLOCK shots, and every plan at
    CONTROL_SHOTS shots with field noise only."""
    wl, n = Ghz12PostSelect, 12
    shots = wl.YIELD_BLOCKS * wl.YIELD_BLOCK
    expected = shots * checks.loss_only_yield(ETA, n)
    assert _ok(checks.yield_matches_loss_only(round(expected), shots, ETA, n))
    for fewer in (expected / 3,
                  shots * checks.loss_only_yield(0.40, n)):  # another eta
        assert not _ok(checks.yield_matches_loss_only(round(fewer), shots,
                                                      ETA, n))

    cfg = schedule.ProtocolConfig("ghz", n)
    for phi in (np.pi / 48, 0.0):
        batch = engine.run_batch(cfg, FIELD, [MeasBasis.equator(phi)] * n,
                                 wl.CONTROL_SHOTS, seed=10)
        want = _ghz_parity_oracle(cfg, phi, FIELD.b_sigma)
        est = analysis.parity(batch, phi)
        assert _ok(checks.parity_matches(est.value, est.n_events, want, "p"))
        flipped = replace(batch, outcomes=batch.outcomes.copy())
        flipped.outcomes[:, 0] *= -1
        bad = analysis.parity(flipped, phi)
        assert not _ok(checks.parity_matches(bad.value, bad.n_events, want,
                                             "p"))
    # at phi = 0, a coherence 10 % low is caught as well
    assert not _ok(checks.parity_matches(0.9 * want, est.n_events, want, "p"))


# -- cluster records checks ---------------------------------------------------

def test_records_check_rejects_changed_cell(tmp_path):
    cfg = schedule.ProtocolConfig("cluster", 4)
    plan = pio.MeasurementPlan(preset="alternating-odd").plans(4)[0]
    batch = engine.run_batch(cfg, LOSSY, plan, 500, seed=6)
    path = tmp_path / "r.csv"
    pio.write_records(path, batch, "0" * 16, 6)
    _, back = pio.read_records(path)
    assert _ok(checks.records_equal(batch, back[0]))

    lines = path.read_text().splitlines(keepends=True)
    row = lines[10].rstrip("\n").split(",")
    row[-1] = {"+1": "-1", "-1": "+1", ".": "."}[row[-1]]
    row[3] = "0" if row[3] == "1" else "1"
    lines[10] = ",".join(row) + "\n"
    path.write_text("".join(lines))
    _, changed = pio.read_records(path)
    ok, detail = checks.records_equal(batch, changed[0])
    assert not ok and "detected" in detail


def test_loss_only_check_rejects_noisy_stabilizers():
    assert _ok(checks.all_exactly_one({"S1": 1.0, "bound": 1.0}))
    assert not _ok(checks.all_exactly_one({"S1": 1.0, "bound": 0.999}))


# -- rate checks --------------------------------------------------------------

def test_rate_checks_reject_counts_at_other_eta():
    cfg = schedule.ProtocolConfig("rate", 14)
    right = engine.rate_benchmark(cfg, LOSSY, 3600.0, seed=7)
    wrong = engine.rate_benchmark(cfg, replace(LOSSY, eta0=0.45 / 0.7),
                                  3600.0, seed=7)
    for res, good in ((right, True), (wrong, False)):
        fit = analysis.rate_fit(res.counts, res.duration, eta_detection=0.7)
        assert _ok(checks.counts_binomial(res.counts, res.n_runs, ETA)) is good
        assert _ok(checks.eta_recovered(fit.eta, ETA)) is good
    fake = int(right.counts[-1]) + 50
    assert not _ok(checks.top_rate_poisson(fake, right.duration,
                                           right.period, ETA, 14))


# -- oracle checks ------------------------------------------------------------

def _ghz_parity_oracle(cfg, phi, b_sigma):
    obs = oracle.basis_observable(MeasBasis.equator(phi))
    nodes, weights = checks.gh_nodes(b_sigma)
    return float(np.dot(weights, [oracle.product_expectation(
        cfg, [obs] * cfg.n_photons, delta=d) for d in nodes]))


def test_parity_check_rejects_oracle_at_other_field_width():
    cfg = schedule.ProtocolConfig("ghz", 12)
    batch = engine.run_batch(cfg, FIELD, [MeasBasis.x()] * 12, 4000, seed=8,
                             abort_on_loss=True)
    est = analysis.parity(batch, 0.0)
    right = _ghz_parity_oracle(cfg, 0.0, FIELD.b_sigma)
    wrong = _ghz_parity_oracle(cfg, 0.0, 1.5 * FIELD.b_sigma)
    assert _ok(checks.parity_matches(est.value, est.n_events, right, "p"))
    assert not _ok(checks.parity_matches(est.value, est.n_events, wrong, "p"))


def test_gauss_hermite_average_is_converged():
    for order in (13, 41):
        nodes, weights = checks.gh_nodes(1.0, order)
        assert abs(np.dot(weights, np.cos(2.0 * nodes)) - np.exp(-2.0)) < 1e-7


def test_exact_identity_check_rejects_wrong_curves():
    phis = np.linspace(0.0, np.pi, 25)
    cfg = schedule.ProtocolConfig("ghz", 6)
    curve = [oracle.product_expectation(
        cfg, [oracle.basis_observable(MeasBasis.equator(phi))] * 6)
        for phi in phis]
    assert _ok(checks.exact(curve, np.cos(6 * phis), "parity"))
    assert not _ok(checks.exact(-np.asarray(curve), np.cos(6 * phis),
                                "parity"))
    assert not _ok(checks.exact([0.99], [1.0], "P_N"))


def test_trace_check_rejects_a_call_that_escapes_the_tracer():
    cfg = schedule.ProtocolConfig("ghz", 6)
    bases = [MeasBasis.z()] * 6

    def traced_round(escape):
        tracer = Tracer()
        tracer.install()
        try:
            # a caller that kept a reference from before install escapes
            raw = engine.run_batch.__wrapped__
            with tracer.root("round") as idx:
                engine.run_batch(cfg, LOSSY, bases, 5000, seed=1)
                (raw if escape else engine.run_batch)(cfg, LOSSY, bases,
                                                      5000, seed=2)
        finally:
            tracer.uninstall()
        return checks.trace_accounts(tracer.self_times(),
                                     tracer.duration(idx))

    assert _ok(traced_round(escape=False))
    assert not _ok(traced_round(escape=True))


# -- host speed ---------------------------------------------------------------

@pytest.mark.parametrize("kernel", sorted(hostspeed.KERNELS))
def test_host_timing_takes_the_kernel_out_and_restores_the_timer(kernel):
    host = hostspeed.HostSpeed(kernel)
    before = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with host.timing() as t:
        end = time.perf_counter() + 3.5 * host.interval
        while time.perf_counter() < end:
            pass
    elapsed = time.perf_counter() - t0
    assert len(t.samples) >= 4      # before, after and the timer's
    # the busy loop, less the samples the timer took inside it
    inside = sum(t.samples[1:-1])
    assert t.wall_s == pytest.approx(3.5 * host.interval - inside, abs=0.01)
    assert t.wall_s < elapsed
    assert t.norm_s == pytest.approx(t.wall_s * host.nominal / t.ref_s)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


# -- computed counts ----------------------------------------------------------

def _steps_by_loop(sched, detected, abort):
    out = dict.fromkeys(("pump", "wait", "pulse", "emit"), 0)
    for row in detected:
        if not row[0]:
            continue
        for step in sched.steps:
            out[step.kind] += 1
            if abort and step.kind == "emit" and not row[step.slot]:
                break
    return out


@pytest.mark.parametrize("abort", [True, False])
def test_shot_steps_match_a_per_shot_loop(abort):
    cfg = schedule.ProtocolConfig("cluster", 5)
    sched = schedule.build_schedule(cfg)
    plan = pio.MeasurementPlan(preset="alternating-even").plans(5)[0]
    batch = engine.run_batch(cfg, LOSSY, plan, 3000, seed=9,
                             abort_on_loss=abort)
    assert (shot_steps(sched, batch.detected, abort)
            == _steps_by_loop(sched, batch.detected, abort))


# -- the command itself -------------------------------------------------------

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(workload, seed, trace, seconds=0, cwd=ROOT, script=None):
    script = script or HERE / "run.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace), "--reduced"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reduced_run_reports_every_end_to_end_metric(workload):
    proc = _run(workload, 1, 0)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    names = [m["name"] for m in BENCH["end_to_end"]]
    assert list(res["metrics"]) == names
    for m in BENCH["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_the_same_seed(workload):
    """Two runs of one seed, one traced round against several: the computed
    counts are equal."""
    runs = []
    for seconds in (0, 6):
        proc = _run(workload, 2, 1, seconds=seconds)
        assert proc.returncode == 0, proc.stderr
        runs.append((json.loads(proc.stdout.strip().splitlines()[-1]),
                     int(re.search(r"traced rounds (\d+)",
                                   proc.stderr).group(1))))
    assert [r for _, r in runs][0] == 1 and runs[1][1] > 1
    runs = [res for res, _ in runs]
    assert all(r["correct"] and r["failed"] == 0 for r in runs)
    assert list(runs[0]["metrics"]) == [m["name"] for m in BENCH["per_layer"]]
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if v["unit"] in ("count", "ratio", "B", "MB")} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["rng.draws"] > 0 and counts[0]["engine.shots"] > 0


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in BENCH["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 1, 0, cwd=tmp_path,
                script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
