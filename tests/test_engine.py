"""Trajectory engine: statistics against the dense oracle, determinism,
loss accounting and the built-in probes."""

import math
from dataclasses import replace

import numpy as np
import pytest

from photonchain import engine
from photonchain import rng as crng
from photonchain.engine import (
    CHUNK,
    RATE_TILE,
    NumericalIntegrityError,
    coherence_probe,
    rate_benchmark,
    run_batch,
    run_shot,
)
from photonchain.levels import MeasBasis
from photonchain.noise import NoiseConfig, calibrate_field, coherence_envelope
from photonchain.oracle import (basis_observable, dense_run,
                                outcome_distribution, product_expectation)
from photonchain.schedule import (EmitOp, PrecessOp, ProtocolConfig, PulseOp,
                                  ScatterOp, build_schedule, compile_schedule,
                                  run_period)

NOISELESS = NoiseConfig()


def empirical_distribution(batch):
    """Frequency over outcome strings (slot 0 = MSB, bit 0 = +1)."""
    n = batch.n_photons
    full = batch.detected.all(axis=1)
    o = batch.outcomes[full]
    bits = (o < 0).astype(np.int64)
    idx = bits @ (1 << np.arange(n - 1, -1, -1))
    return np.bincount(idx, minlength=2 ** n) / len(idx)


def oracle_distribution(cfg, bases):
    return outcome_distribution(dense_run(cfg), bases)


@pytest.mark.parametrize("kind", ["ghz", "cluster"])
def test_matches_oracle_mixed_bases(kind):
    cfg = ProtocolConfig(kind, 4)
    bases = [MeasBasis.z(), MeasBasis.x(), MeasBasis.equator(0.8),
             MeasBasis.equator(2.1)]
    batch = run_batch(cfg, NOISELESS, bases, 60000, seed=11)
    emp = empirical_distribution(batch)
    ref = oracle_distribution(cfg, bases)
    tvd = 0.5 * np.abs(emp - ref).sum()
    assert tvd < 0.02


def test_frame_phase_sign_matches_oracle():
    # a frame phase other than 0 or pi tells its sign apart: both oracles
    # measure the photon after diag(1, e^{i f}), so <X Eq(0.3)> = cos(0.4)
    sched = replace(build_schedule(ProtocolConfig("ghz", 2)),
                    frame_phases=(0.7, 0.0))
    bases = [MeasBasis.x(), MeasBasis.equator(0.3)]
    want = product_expectation(sched, [basis_observable(b) for b in bases])
    assert want == pytest.approx(np.cos(0.4), abs=1e-12)
    dense = outcome_distribution(dense_run(sched), bases) @ [1, -1, -1, 1]
    assert dense == pytest.approx(want, abs=1e-12)
    shots = 200000
    batch = run_batch(sched, NOISELESS, bases, shots, seed=31)
    m = np.prod(batch.outcomes.astype(np.int64), axis=1).mean()
    assert abs(m - want) < 4 * np.sqrt((1 - want ** 2) / shots)


def test_ghz_z_outcomes_perfectly_correlated():
    batch = run_batch(ProtocolConfig("ghz", 5), NOISELESS,
                      [MeasBasis.z()] * 5, 20000, seed=1)
    o = batch.outcomes
    assert np.all(batch.detected)
    assert np.all((o == o[:, :1]).all(axis=1))
    frac_r = np.mean(o[:, 0] == 1)
    assert abs(frac_r - 0.5) < 4 * np.sqrt(0.25 / 20000)


def test_parity_is_cos_n_phi():
    n, phi = 4, 0.6
    batch = run_batch(ProtocolConfig("ghz", n), NOISELESS,
                      [MeasBasis.equator(phi)] * n, 40000, seed=2)
    prod = np.prod(batch.outcomes.astype(np.int64), axis=1)
    m = prod.mean()
    sig = np.sqrt((1 - np.cos(n * phi) ** 2) / 40000)
    assert abs(m - np.cos(n * phi)) < 4 * sig


def test_run_shot_matches_batch_row():
    ghz, cluster = ProtocolConfig("ghz", 3), ProtocolConfig("cluster", 4)
    per_cycle = NoiseConfig(eta0=0.8, raman_sigma=0.05, closing_scatter_p=0.3,
                            b_sigma=5e-4, b_model="per-cycle")
    border = (CHUNK - 1, CHUNK, CHUNK + 1)  # both sides of a chunk border
    for cfg, noise, shots, rows in (
            (ghz, NoiseConfig(eta0=0.8, raman_sigma=0.05, b_sigma=5e-4), 50,
             (0, 17, 49)),
            (ghz, per_cycle, CHUNK + 2, border),
            (cluster, per_cycle, CHUNK + 2, border)):
        bases = [MeasBasis.x()] * cfg.n_photons
        batch = run_batch(cfg, noise, bases, shots, seed=21)
        for i in rows:
            single = run_shot(cfg, noise, bases, seed=21, shot_index=i)
            assert single.n_shots == 1
            assert single.bases == batch.bases
            assert single.period == batch.period
            for col in ("detected", "outcomes", "attempts", "deltas",
                        "run_ids"):
                assert np.array_equal(getattr(single, col),
                                      getattr(batch, col)[i:i + 1])


@pytest.mark.parametrize("b_model", ["quasi-static", "per-cycle"])
@pytest.mark.parametrize("kind,n", [("cluster", 5), ("ghz", 6)])
def test_records_do_not_depend_on_chunk_size(monkeypatch, kind, n, b_model):
    # a chunk reuses each distinct precession's phase factors; the chunk
    # size may not show in the records, with or without abort_on_loss
    cfg = ProtocolConfig(kind, n)
    noise = NoiseConfig(eta0=0.6, raman_sigma=0.05, closing_scatter_p=0.1,
                        b_sigma=1e-3, b_model=b_model)
    bases = [MeasBasis.equator(0.7), MeasBasis.z()] * (n // 2) \
        + [MeasBasis.x()] * (n % 2)
    shots = CHUNK + 1500
    for abort in (False, True):
        want = run_batch(cfg, noise, bases, shots, seed=37,
                         abort_on_loss=abort)
        for chunk in (1000, 4097):
            monkeypatch.setattr(engine, "CHUNK", chunk)
            got = run_batch(cfg, noise, bases, shots, seed=37,
                            abort_on_loss=abort)
            for col in ("detected", "outcomes", "attempts", "deltas",
                        "run_ids"):
                assert np.array_equal(getattr(got, col),
                                      getattr(want, col)), (abort, chunk, col)
            monkeypatch.undo()


def test_first_photon_retry_distribution():
    # attempts follow a truncated geometric with success probability eta
    eta = 0.4
    noise = NoiseConfig(eta0=eta)
    batch = run_batch(ProtocolConfig("ghz", 2), noise,
                      [MeasBasis.z()] * 2, 100000, seed=3)
    att = np.asarray(batch.attempts)
    got_first = batch.detected[:, 0]
    for k in range(1, 7):
        want = (1 - eta) ** (k - 1) * eta
        frac = np.mean(got_first & (att == k))
        assert abs(frac - want) < 5 * np.sqrt(want * (1 - want) / 100000)
    # shots that never got a first photon are void: nothing detected
    void = ~got_first
    assert abs(void.mean() - (1 - eta) ** 7) < 0.005
    assert not batch.detected[void].any()
    assert np.all(batch.outcomes[void] == 0)


@pytest.mark.parametrize("n_att", [1, 7])
def test_attempts_match_full_draw_argmax(n_att):
    # the retry loop draws attempt j only for shots that missed 0 .. j-1;
    # the records equal the form that drew every attempt for every shot
    eta, seed, shots = 0.3, 29, CHUNK + 5
    batch = run_batch(ProtocolConfig("ghz", 2, max_first_attempts=n_att),
                      NoiseConfig(eta0=eta), [MeasBasis.z()] * 2, shots,
                      seed)
    ids = np.arange(shots, dtype=np.uint64)
    hit = np.stack([crng.uniform(seed, ids, crng.FIRST_ATTEMPT_BASE + j)
                    for j in range(n_att)], axis=1) < eta
    any_hit = hit.any(axis=1)
    assert not any_hit.all()            # void shots are covered
    assert np.array_equal(batch.attempts,
                          np.where(any_hit, hit.argmax(axis=1) + 1, n_att))
    assert np.array_equal(batch.detected[:, 0], any_hit)


def test_loss_marginals():
    eta = 0.55
    noise = NoiseConfig(eta0=eta)
    n = 3
    batch = run_batch(ProtocolConfig("ghz", n), noise,
                      [MeasBasis.z()] * n, 50000, seed=7)
    got_first = batch.detected[:, 0]
    # conditioned on a successful start, later slots detect with prob eta
    for k in (1, 2):
        frac = batch.detected[got_first, k].mean()
        assert abs(frac - eta) < 0.01
    # and post-selected Z outcomes stay perfectly correlated
    full = batch.detected.all(axis=1)
    o = batch.outcomes[full]
    assert np.all((o == o[:, :1]).all(axis=1))


def _screen(seed, shots, n, eta):
    """(shots,) bool: the shots whose slot 1 .. n-1 detection uniforms all
    lie below eta (1 + LOSS_MARGIN), the only ones abort_on_loss evolves."""
    ids = np.arange(shots, dtype=np.uint64)
    return np.all([crng.uniform(seed, ids, crng.slot_draw(k, crng.SLOT_DETECT))
                   < eta * (1.0 + engine.LOSS_MARGIN) for k in range(1, n)],
                  axis=0)


def test_abort_on_loss_equivalent_for_postselection():
    # abort_on_loss computes each precession's phase factors afresh, the
    # full run reuses them within a chunk (per cycle under per-cycle field
    # noise).  A shot that passes the detection screen is evolved as the
    # full run evolves it: its abort row is the full row cut at its first
    # undetected slot, equal up to and including that slot and zero after
    # it.  Any other shot is never evolved, so its row is empty
    lost_late = False
    for cfg, noise in (
            (ProtocolConfig("ghz", 4), NoiseConfig(eta0=0.5, b_sigma=1e-3)),
            (ProtocolConfig("cluster", 5),
             NoiseConfig(eta0=0.8, raman_sigma=0.05, b_sigma=1e-3))):
        n = cfg.n_photons
        bases = [MeasBasis.equator(0.5)] * n
        passed = _screen(13, 20000, n, noise.eta)
        for b_model in ("quasi-static", "per-cycle"):
            noise = replace(noise, b_model=b_model)
            a = run_batch(cfg, noise, bases, 20000, seed=13)
            b = run_batch(cfg, noise, bases, 20000, seed=13,
                          abort_on_loss=True)
            first_loss = np.where(a.full_detection, n,
                                  np.argmin(a.detected, axis=1))
            kept = (np.arange(n) <= first_loss[:, None]) & passed[:, None]
            # screened-out shots whose full row detected photons are
            # covered, and (with Raman noise, which leaves p_emit < 1)
            # screened-in shots that lose a photon after the first
            assert (~passed & a.detected[:, 1]).any()
            lost_late |= (passed & a.detected[:, 1]
                          & ~a.full_detection).any()
            assert np.array_equal(b.detected, kept & a.detected)
            assert np.array_equal(b.outcomes, np.where(kept, a.outcomes, 0))
            assert np.array_equal(b.full_detection, a.full_detection)
            assert np.array_equal(b.attempts, a.attempts)
            assert np.array_equal(b.deltas, a.deltas)
    assert lost_late


@pytest.mark.parametrize("eta", [0.4318, 1.0])
@pytest.mark.parametrize("kind,n", [("ghz", 6), ("cluster", 5)])
def test_abort_on_loss_skips_cycles_of_lost_photons(monkeypatch, kind, n,
                                                    eta):
    # with abort_on_loss a shot whose detection uniform of any slot rules
    # that photon out whatever its state is never evolved: it draws no
    # Raman pulse angle of any cycle.  Cycle k's angles are drawn for
    # exactly the shots that pass this screen and keep photons 0 .. k-1,
    # and at eta = 1 the screen passes every shot
    from photonchain.cli import operating_noise

    noise = replace(operating_noise(), eta0=eta, eta_d=1.0)
    assert noise.raman_sigma > 0
    cfg = ProtocolConfig(kind, n)
    bases = [MeasBasis.x(), MeasBasis.equator(0.7)] * (n // 2) \
        + [MeasBasis.z()] * (n % 2)
    seed, shots = 23, 20000
    drawn = {}      # pulse-angle draw index -> the shot ids of each call
    normal = crng.normal

    def spy(s, shot, draw):
        off = int(draw) - crng.SLOT_BASE
        if off >= 0 and (crng.SLOT_PULSE0 <= off % crng.SLOT_STRIDE
                         < crng.SLOT_FIELD):
            drawn.setdefault(int(draw), []).append(shot.astype(np.int64))
        return normal(s, shot, draw)

    monkeypatch.setattr(crng, "normal", spy)
    run_batch(cfg, noise, bases, shots, seed, abort_on_loss=True)
    monkeypatch.undo()

    full = run_batch(cfg, noise, bases, shots, seed)
    passed = _screen(seed, shots, n, eta)
    assert passed.all() if eta == 1.0 else not passed.all()
    cycles = {(d - crng.SLOT_BASE) // crng.SLOT_STRIDE for d in drawn}
    assert cycles == set(range(1, n))
    for d, who in drawn.items():
        k = (d - crng.SLOT_BASE) // crng.SLOT_STRIDE
        got = np.zeros(shots, dtype=bool)
        got[np.concatenate(who)] = True
        reached = full.detected[:, :k].all(axis=1)
        assert np.array_equal(got, reached & passed)
        if eta < 1.0 and k < n - 1:
            # shots that a one-slot look-ahead would still evolve
            u = crng.uniform(seed, np.arange(shots, dtype=np.uint64),
                             crng.slot_draw(k, crng.SLOT_DETECT))
            assert (reached & ~passed
                    & (u < eta * (1.0 + engine.LOSS_MARGIN))).any()


@pytest.mark.parametrize("b_model", ["quasi-static", "per-cycle"])
@pytest.mark.parametrize("kind,n", [("ghz", 6), ("cluster", 5)])
def test_abort_on_loss_screen_draws(monkeypatch, kind, n, b_model):
    # with abort_on_loss slot k's detection uniform is drawn once for each
    # non-void shot that passed slots 1 .. k-1, and a shot that fails the
    # screen draws nothing past it: no outcome, pulse-angle, scatter or
    # later cycle's field draw
    from photonchain.cli import operating_noise

    noise = operating_noise(b_model)
    assert noise.raman_sigma > 0 and noise.closing_scatter_p > 0
    cfg = ProtocolConfig(kind, n)
    bases = [MeasBasis.x(), MeasBasis.equator(0.7)] * (n // 2) \
        + [MeasBasis.z()] * (n % 2)
    seed, shots = 31, 20000
    calls = []      # (draw index, shot ids) of every uniform and normal call
    uniform, normal = crng.uniform, crng.normal

    def spy(fn):
        def draw(s, shot, d):
            calls.append((int(d), np.asarray(shot).astype(np.int64)))
            return fn(s, shot, d)
        return draw

    monkeypatch.setattr(crng, "uniform", spy(uniform))
    monkeypatch.setattr(crng, "normal", spy(normal))
    batch = run_batch(cfg, noise, bases, shots, seed, abort_on_loss=True)
    monkeypatch.undo()

    ids = np.arange(shots, dtype=np.uint64)
    alive = batch.attempts < cfg.max_first_attempts
    alive |= uniform(seed, ids, crng.FIRST_ATTEMPT_BASE
                     + cfg.max_first_attempts - 1) < noise.eta
    assert batch.full_detection.any()
    # the draws a screened-out shot may make: its first-photon attempts,
    # its recorded field offset (a normal draws d and d + 1) and the
    # detection uniforms of the screen
    field = (crng.slot_draw(0, crng.SLOT_FIELD) if b_model == "per-cycle"
             else crng.FIELD_DRAW)
    screen = {*range(cfg.max_first_attempts), field, field + 1}
    for k in range(1, n):
        d = crng.slot_draw(k, crng.SLOT_DETECT)
        screen.add(d)
        who = np.concatenate([w for dd, w in calls if dd == d])
        assert len(np.unique(who)) == len(who), k
        assert np.array_equal(np.sort(who), np.flatnonzero(alive)), k
        alive &= (uniform(seed, ids, d)
                  < noise.eta * (1.0 + engine.LOSS_MARGIN))
    evolved = np.zeros(shots, dtype=bool)
    for d, who in calls:
        if d not in screen:
            evolved[who] = True
    assert evolved.any()
    assert not (evolved & ~alive).any()
    assert not (batch.full_detection & ~alive).any()


@pytest.mark.parametrize("abort", [False, True])
def test_records_are_column_major(abort):
    # detected and outcomes are Fortran-ordered, as RecordBatch states.  A
    # row reduction such as full_detection (detected.all(axis=1)) on a
    # 16384 x 12 block took 0.44 ms on C-ordered records against 0.007 ms
    # on this layout; perfbench's ghz12_postselect makes that call once per
    # block, and on the C layout it alone failed the traced run's
    # trace_accounts check
    cfg = ProtocolConfig("ghz", 4)
    noise = NoiseConfig(eta0=0.5)
    a, b = (run_batch(cfg, noise, [MeasBasis.z()] * 4, 3000, seed,
                      abort_on_loss=abort) for seed in (1, 2))
    for batch in (a, b, a.concat(b)):
        assert batch.detected.flags.f_contiguous
        assert batch.outcomes.flags.f_contiguous
        assert batch.detected.dtype == bool
        assert batch.outcomes.dtype == np.int8
    assert a.concat(b).n_shots == 6000


def test_basis_plan_length_checked():
    with pytest.raises(ValueError):
        run_batch(ProtocolConfig("ghz", 3), NOISELESS,
                  [MeasBasis.z()] * 2, 10, seed=0)
    with pytest.raises(ValueError, match="basis plan"):
        run_shot(ProtocolConfig("ghz", 3), NOISELESS,
                 [MeasBasis.z()] * 2, seed=0, shot_index=4)


def test_scatter_only_hurts_closing_qubit():
    # a scattered closing qubit destroys the N-photon coherence but the
    # photon is still emitted and detected
    noise = NoiseConfig(closing_scatter_p=1.0)
    batch = run_batch(ProtocolConfig("ghz", 3), noise,
                      [MeasBasis.x()] * 3, 40000, seed=17)
    assert np.all(batch.detected)
    prod = np.prod(batch.outcomes.astype(np.int64), axis=1)
    assert abs(prod.mean()) < 0.02


def test_rate_benchmark_counts():
    noise = NoiseConfig(eta0=0.4318 / 0.7, eta_d=0.7)
    result = rate_benchmark(ProtocolConfig("rate", 6), noise,
                            duration=3600.0, seed=19)
    counts = result.counts
    assert result.n_runs == int(3600.0 / 1.1e-3)
    assert np.all(np.diff(counts) <= 0)
    # eta^N scaling within Poisson fluctuations
    for k in range(6):
        want = result.n_runs * 0.4318 ** (k + 1)
        assert abs(counts[k] - want) < 5 * np.sqrt(want)
    with pytest.raises(ValueError):
        rate_benchmark(ProtocolConfig("ghz", 6), noise, 10.0, 0)


def _per_run_counts(n, eta, n_runs, seed):
    """Coincidence counts from each run's slot-0 detection uniform: a run
    counts up to order k exactly when it lies below eta^1 .. eta^k."""
    runs = np.arange(n_runs, dtype=np.uint64)
    u = crng.uniform(seed, runs, crng.slot_draw(0, crng.SLOT_DETECT))
    below = (u[:, None] < eta ** np.arange(1, n + 1)).sum(axis=1)
    return np.array([np.count_nonzero(below > k) for k in range(n)])


def _rate_counts(eta, n_runs, seed=23, n=14):
    cfg = ProtocolConfig("rate", n)
    result = rate_benchmark(cfg, NoiseConfig(eta0=eta),
                            (n_runs + 0.5) * cfg.repetition_period, seed)
    assert result.n_runs == n_runs
    return result.counts


# one tile short, one full tile, one past it, several tiles, and a last
# tile of one run
RATE_RUNS = [RATE_TILE - 1, RATE_TILE, RATE_TILE + 1, 5 * RATE_TILE + 3,
             8 * RATE_TILE - 1, 8 * RATE_TILE + 1, 1000]


@pytest.mark.parametrize("eta", [0.0, 0.4318, 1.0])
@pytest.mark.parametrize("n_runs", RATE_RUNS)
def test_rate_benchmark_matches_full_mask_loop(eta, n_runs):
    assert np.array_equal(_rate_counts(eta, n_runs),
                          _per_run_counts(14, eta, n_runs, 23))


@pytest.mark.parametrize("eta", [0.0, 0.4318, 1.0])
@pytest.mark.parametrize("n_runs", [6, 7, 8, 38, 20000])
def test_rate_counts_do_not_depend_on_the_tile(monkeypatch, eta, n_runs):
    monkeypatch.setattr(engine, "RATE_TILE", 7)
    assert np.array_equal(_rate_counts(eta, n_runs),
                          _per_run_counts(14, eta, n_runs, 23))


@pytest.mark.parametrize("eta", [0.4318, 1.0])
@pytest.mark.parametrize("n_runs", RATE_RUNS)
def test_rate_benchmark_draws_each_live_slot_once(monkeypatch, eta, n_runs):
    # only slot 0's detection draw is live: each run draws it once, and
    # counts[0] is its Bernoulli(eta) count, as in the per-slot chain
    d0 = crng.slot_draw(0, crng.SLOT_DETECT)
    drawn = []
    real = crng.uniform

    def spy(seed, shot, d):
        assert d == d0
        drawn.append(shot.copy())
        return real(seed, shot, d)

    monkeypatch.setattr(crng, "uniform", spy)
    counts = _rate_counts(eta, n_runs)
    runs = np.arange(n_runs, dtype=np.uint64)
    assert np.array_equal(np.sort(np.concatenate(drawn)), runs)
    assert sum(map(len, drawn)) == n_runs
    assert counts[0] == np.count_nonzero(real(23, runs, d0) < eta)


def _per_slot_chain(n, eta, n_runs, seed):
    """The per-slot detection chain: slot k draws its own Bernoulli(eta)
    for each run alive through slot k - 1."""
    counts = np.zeros(n, dtype=np.int64)
    alive = np.arange(n_runs, dtype=np.uint64)
    for k in range(n):
        u = crng.uniform(seed, alive, crng.slot_draw(k, crng.SLOT_DETECT))
        alive = alive[u < eta]
        counts[k] = len(alive)
    return counts


def _prefix_chi2(counts, n_runs, eta):
    """Pearson chi^2 of the detected-prefix lengths 0 .. N against the
    truncated geometric law eta^k (1 - eta), eta^N at k = N."""
    n = len(counts)
    hist = -np.diff(np.concatenate(([n_runs], counts, [0])))
    p = eta ** np.arange(n + 1) * np.append(np.full(n, 1.0 - eta), 1.0)
    want = n_runs * p
    assert want.min() > 5    # every bin well filled
    return float(np.sum((hist - want) ** 2 / want))


# the 0.999 quantile of chi^2 with 14 degrees of freedom (15 bins)
CHI2_14_999 = 36.12


def test_rate_prefix_lengths_follow_the_truncated_geometric_law():
    eta, n, n_runs, seed = 0.4318, 14, 2_000_000, 29
    counts = _rate_counts(eta, n_runs, seed, n)
    assert _prefix_chi2(counts, n_runs, eta) < CHI2_14_999
    # the per-slot chain it replaces meets the same bound
    chain = _per_slot_chain(n, eta, n_runs, seed)
    assert _prefix_chi2(chain, n_runs, eta) < CHI2_14_999
    # and the bound tells a neighbouring efficiency apart
    assert _prefix_chi2(counts, n_runs, 0.44) > CHI2_14_999


@pytest.mark.parametrize("duration", [math.inf, math.nan, 1e-4, 1e30])
def test_rate_benchmark_refuses_run_count_outside_range(duration):
    # the run count must lie in [1, 2^63), the run-id range
    with pytest.raises(ValueError, match="run count"):
        rate_benchmark(ProtocolConfig("rate", 3), NOISELESS, duration, 0)


@pytest.mark.parametrize("n,period", [(14, 1.1e-3), (17, 1.113e-3),
                                      (40, 2.263e-3)])
def test_rate_runs_last_the_schedule_when_it_outlasts_the_period(n, period):
    # from N = 17 the schedule plus overhead outlasts the 1.1 ms repetition
    # period; runs are then spaced by the schedule, not the period
    cfg = ProtocolConfig("rate", n)
    result = rate_benchmark(cfg, NoiseConfig(eta0=0.5), 1.0, seed=4)
    assert result.period == run_period(build_schedule(cfg))
    assert result.period == pytest.approx(period, rel=1e-9)
    assert result.n_runs == int(1.0 / result.period)
    assert result.duration == result.n_runs * result.period


def test_nan_norm_names_seed_and_run():
    # an infinite angle error makes every amplitude NaN; the norm check
    # must catch NaN and name the offending seed and run id
    noise = NoiseConfig()
    object.__setattr__(noise, "raman_sigma", math.inf)  # past validation
    with np.errstate(invalid="ignore"), pytest.raises(
            NumericalIntegrityError, match=r"seed 31, run 777\)"):
        run_shot(ProtocolConfig("ghz", 3), noise, [MeasBasis.z()] * 3,
                 seed=31, shot_index=777)


@pytest.mark.parametrize("draw,where,path", [
    pytest.param(draw, where, path, id=where.split(",")[0] + suffix)
    for draw, where in [
        (crng.slot_draw(2, crng.SLOT_PULSE0 + 3 * crng.SLOT_PULSE_STRIDE),
         "pulse, cycle 2"),
        (crng.slot_draw(2, crng.SLOT_FIELD), "precess, cycle 2"),
        (crng.SCATTER_POP, "scatter, cycle 3")]
    for path, suffix in [("stored", ""), ("abort", "-abort"),
                         ("abort-lossy", "-abort-lossy")]])
def test_norm_error_names_the_op(monkeypatch, draw, where, path):
    # one NaN draw of one shot breaks its norm at one op: a Raman angle, a
    # per-cycle field sample or a scatter population.  The replay of the
    # worst shot names that op by its index in the compiled schedule.
    # With abort_on_loss the broken shot's next emission has a NaN p_emit,
    # which reads as a lost photon; it must reach the check all the same
    cfg = ProtocolConfig("ghz", 4)
    kind = where.split(",")[0]
    eta = 0.4318 if path == "abort-lossy" else 1.0
    # a scatter replaces the state, so only the scatter case scatters
    noise = NoiseConfig(eta0=eta, raman_sigma=0.01, b_sigma=1e-3,
                        b_model="per-cycle",
                        closing_scatter_p=1.0 if kind == "scatter" else 0.0)
    index = next(
        i for i, op in enumerate(compile_schedule(build_schedule(cfg)))
        if kind == "pulse" and isinstance(op, PulseOp)
        and draw in [p[4] for p in op.pulses]
        or kind == "precess" and isinstance(op, PrecessOp) and op.cycle == 2
        or kind == "scatter" and isinstance(op, ScatterOp))
    real = {"normal": crng.normal, "uniform": crng.uniform}
    # the first run from 4321 on whose first attempt hits and whose
    # slot 1 .. 3 detection uniforms keep it to the broken op at eta < 1
    ids = np.arange(4321, 5321, dtype=np.uint64)
    reach = crng.uniform(3, ids, crng.FIRST_ATTEMPT_BASE) < eta
    for k in (1, 2, 3):
        reach &= crng.uniform(3, ids, crng.slot_draw(
            k, crng.SLOT_DETECT)) < 0.9 * eta
    run = int(ids[reach][0])

    def spoiled(name):
        def draws(seed, shot, d):
            x = real[name](seed, shot, d)
            if d == draw:
                x[np.asarray(shot) == run] = np.nan
            return x
        return draws

    for name in real:
        monkeypatch.setattr(crng, name, spoiled(name))
    with np.errstate(invalid="ignore"), pytest.raises(
            NumericalIntegrityError,
            match=rf"\(seed 3, run {run}\) after op {index} \({where}\)$"):
        run_batch(cfg, noise, [MeasBasis.x()] * 4, CHUNK + 5000, seed=3,
                  abort_on_loss=path != "stored")


OCCUPANCY_CASES = {
    "ghz": ProtocolConfig("ghz", 4),
    "cluster": ProtocolConfig("cluster", 4),
    "custom": ProtocolConfig("custom", 4, thetas=(0.3, 1.1, 2.0)),
    "coherence": ProtocolConfig("coherence", 2, probe_delay=3e-4),
    "ddscan": ProtocolConfig("ddscan", 4, dd_tau=4e-5),
}


def _bare_scatter_point():
    """GHZ-3 whose closing transfer fires no pulse: only its scatter point
    puts amplitude on the closing emission's levels."""
    sched = build_schedule(ProtocolConfig("ghz", 3))
    return replace(sched, steps=tuple(
        replace(s, pulses=()) if s.scatter_point else s for s in sched.steps))


@pytest.mark.parametrize("flip", [True, False], ids=["flip", "noflip"])
@pytest.mark.parametrize("scatter", [0.0, 0.3], ids=["noscatter", "scatter"])
@pytest.mark.parametrize("kind", [*OCCUPANCY_CASES, "bare-scatter"])
def test_occupancy_holds_every_amplitude(kind, scatter, flip):
    # every level with non-zero amplitude after op i, in the engine and in
    # the dense oracle, lies in the occupancy the engine works from; a
    # level outside it would be skipped by precessions and emissions
    sched = (_bare_scatter_point() if kind == "bare-scatter"
             else build_schedule(OCCUPANCY_CASES[kind]))
    n = sched.n_photons
    plan = [MeasBasis.x(), MeasBasis.equator(0.7)] * (n // 2) \
        + [MeasBasis.z()] * (n % 2)
    ops, touch = engine._compile(sched, plan, flip)
    occ = engine._occupancy(ops)
    noise = NoiseConfig(eta0=0.7, raman_sigma=0.1, closing_scatter_p=scatter,
                        b_sigma=1e-3)
    shots = 3000
    reached = set()
    for abort in (False, True):
        out = engine.RecordBatch(
            tuple(plan), np.zeros((shots, n), bool, order="F"),
            np.zeros((shots, n), np.int8, order="F"),
            np.empty(shots, np.int16), np.zeros(shots),
            np.arange(shots, dtype=np.int64), 1.0)
        for i, _, amps in engine._evolve(ops, touch, sched.max_first_attempts,
                                         noise, 5, out, 0, shots, abort):
            live = {lv for lv in range(8) if amps[lv].any()}
            assert live <= occ[i + 1], (abort, i, live, occ[i + 1])
            reached |= live
    # the scatter levels hold amplitude only through the scatter point
    scat = {engine._SCAT_A, engine._SCAT_B}
    if kind == "bare-scatter":
        assert scat <= reached if scatter else not scat & reached

    if kind != "bare-scatter" and not scatter:   # the oracle cannot scatter
        for k in range(1, len(sched.steps) + 1):
            head = replace(sched, steps=sched.steps[:k])
            amps = dense_run(head, 2e-3, flip).register_matrix()
            live = {lv for lv in range(8) if amps[lv].any()}
            assert live <= occ[len(compile_schedule(head, flip))], (k, live)


@pytest.mark.parametrize("flip", [True, False], ids=["flip", "noflip"])
@pytest.mark.parametrize("kind", list(OCCUPANCY_CASES))
def test_restricted_precession_equals_phases(kind, flip):
    # the engine multiplies only the occupied levels and shares one
    # exponential per (magnitude, frame) across windows; on those levels
    # the product equals the one with PrecessOp.phases, bit for bit
    sched = build_schedule(OCCUPANCY_CASES[kind])
    ops, touch = engine._compile(sched, [MeasBasis.x()] * sched.n_photons,
                                 flip)
    occ = engine._occupancy(ops)
    rng = np.random.default_rng(3)
    delta = 1e-3 * rng.normal(size=257)
    cache = {}
    for i, op in enumerate(ops):
        if not isinstance(op, PrecessOp):
            continue
        amps = rng.normal(size=(8, 257)) + 1j * rng.normal(size=(8, 257))
        want = amps * op.phases(delta).T
        got = amps.copy()
        engine._precess(got, op, touch[i], delta, cache)
        for level in range(8):
            assert np.array_equal(
                got[level], want[level] if level in occ[i] else amps[level])


def test_coherence_probe_matches_envelope():
    b = calibrate_field(1.2e-3, 0.66)
    noise = NoiseConfig(b_sigma=b)
    # at zero delay the overlap is perfect up to the closing transfer
    p0, se0, n0 = coherence_probe(0.0, noise, 8000, seed=23)
    assert n0 == 8000
    assert p0 > 0.99
    # at a half Larmor period the probe reads the oscillation minimum
    pmin, _, _ = coherence_probe(2.5e-6, noise, 4000, seed=23)
    assert pmin < 0.01
    # at an oscillation peak deep in the decay the probe tracks the
    # envelope (the closing transfer adds a small extra dephasing)
    t = 1.0e-3
    p, se, _ = coherence_probe(t, noise, 20000, seed=29)
    env = coherence_envelope(t, b)
    assert abs(p - env) < 0.03


@pytest.mark.parametrize("frame", [0.0, np.pi, 0.7])
@pytest.mark.parametrize("basis", [MeasBasis.z(), MeasBasis.x(),
                                   MeasBasis.equator(0.3)],
                         ids=["Z", "X", "Eq0.3"])
def test_emission_terms_match_joint_projection(basis, frame):
    # initial, cycling and closing emissions, both photon branches: the
    # terms equal the stacked joint state projected on the photon's state
    sched = replace(build_schedule(ProtocolConfig("ghz", 3)),
                    frame_phases=(frame,) * 3)
    emits = [op for op in compile_schedule(sched) if isinstance(op, EmitOp)]
    rng = np.random.default_rng(5)
    amps = rng.normal(size=(64, 8)) + 1j * rng.normal(size=(64, 8))
    det = rng.random(64) < 0.5
    z = MeasBasis.z()
    for op in emits:
        joint = (amps[:, op.domain] @ op.vdom.T).reshape(-1, 8, 2)
        em = engine._emission(op, basis)
        got = em.amplitudes([amps[:, k] for k in op.domain], det)
        for branch, det_state, lost_state in (
                (0, basis.plus_state(), z.plus_state()),
                (1, basis.minus_state(), z.minus_state())):
            want = np.where(det[:, None], joint @ det_state.conj(),
                            joint @ lost_state.conj())
            have = np.zeros_like(want)
            for t, amp in zip(em.targets, got[branch]):
                have[:, t] = amp
            np.testing.assert_allclose(have, want, rtol=0, atol=1e-14)


def test_record_batch_concat_guard():
    a = run_batch(ProtocolConfig("ghz", 2), NOISELESS,
                  [MeasBasis.z()] * 2, 10, seed=0)
    b = run_batch(ProtocolConfig("ghz", 2), NOISELESS,
                  [MeasBasis.x()] * 2, 10, seed=0)
    with pytest.raises(ValueError):
        a.concat(b)
    c = a.concat(a)
    assert c.n_shots == 20
    with pytest.raises(ValueError, match="run periods"):
        a.concat(replace(a, period=2 * a.period))


# sha256 per case of test_records_digest_pinned: of run_batch's detected,
# outcomes, attempts and deltas on the stored path, and of the
# post-selected view on the abort_on_loss path (the full-detection rows'
# detected, outcomes and run_ids, then every row's attempts and deltas),
# which is all that path promises; a change to the kernels, the draw
# layout or the op order that moves any of these changes them
RECORD_DIGESTS = {
    "ghz6-quasi-static-stored":
        "510eac5229d0d958af741825e1ebd8152904ae1d86ae29b58bcb4a8972bf3236",
    "ghz6-quasi-static-abort":
        "cdd372d56e508822bfaa05140679335cd158383fcc4801e6562ce8609eb166d8",
    "ghz6-per-cycle-stored":
        "fbc9468a9da20434103a4471c70a5708eb6ea1a0aebfa1d458b84d6bfdd2e34d",
    "ghz6-per-cycle-abort":
        "d65cab58074cb22ad4f480ba94a9657a1208cd07b40c2d640d8f9f3f64f36acd",
    "ghz12-quasi-static-stored":
        "4a6b43fc71e5e352ed3c5464bf640cad2c330b83c2e14a9c71663456a031d24a",
    "ghz12-quasi-static-abort":
        "474cc9a3210a9f2ffabb0d4bdf304341fec678ecf38a64667943961550c5702c",
    "ghz12-per-cycle-stored":
        "bbac8aec26a5e1c437fe0eef8f67e1a8412c6ea6cc0e4f09179c07c8b9feb62c",
    "ghz12-per-cycle-abort":
        "e0ea821b8764ee9b1c199feaecf13db43de8b08b0a335838971e68ec12d11330",
    "cluster5-quasi-static-stored":
        "bbe6d78f1366bdaacad11c7e69e575e065dd849f9a77c9def2ef4cf2b204a1aa",
    "cluster5-quasi-static-abort":
        "fa49fa5f69f3875d25dae50893c0c0c812b11db265c078a54746279761ed3f2d",
    "cluster5-per-cycle-stored":
        "bcfd902479cbf49665ed860f75520a9024570ed41c07558341d21d01ff955609",
    "cluster5-per-cycle-abort":
        "72d7539d7cf51b7c45df98db6051f98fa1045b17c4dc70225cc36429cc783569",
    "custom5-quasi-static-stored":
        "fc5ad12a7a8a5a17956e5d4a9cbd62e4268784c10f1f906ba65f928faea7ece7",
    "custom5-quasi-static-abort":
        "fa7ef43a4dc03ac4493da3fdbfc3466c2942699517bd88b42886a63adf110dae",
    "custom5-per-cycle-stored":
        "96a240aa8131fd5c1e87cb5f067c995ec74cb74d1b51e97aea994037912b30e2",
    "custom5-per-cycle-abort":
        "4d8969d3728a0251f0370e82de6e03fc9d26b773b9cfef0fcb5c7489d5feb8ab",
    "coherence-quasi-static-stored":
        "184eabf1f07ed4671bdd7b6da5ea8757eb8808ccc4c731c67948d95392d4861b",
    "coherence-quasi-static-abort":
        "555cd55d210c16c5742aff9ac4bbd24a2f5552445b7eda754529c3845cbe53b0",
    "coherence-per-cycle-stored":
        "9f63cc670a6fc07f910f99dfda872a241fc0f9b64f0e1ab3ed2d27d0ccf7bad3",
    "coherence-per-cycle-abort":
        "46fd1b79895f995fa4e122f5a3ffdb272cd23a14119c6eb9e0b3f43016590cf4",
    "ddscan6-quasi-static-stored":
        "a8c14ca9343c65af66e6783cb18131b00fab7823f5de2bf084638e641ca3d3c5",
    "ddscan6-quasi-static-abort":
        "7f978b990ffd7a67a86f821ad188ca3203f6166e6bc55b39d6009c0b99b1af0f",
    "ddscan6-per-cycle-stored":
        "9872f4dc968a83f14d7165605dd99e6e141413fa8c0b3771eeab01d0f79c5988",
    "ddscan6-per-cycle-abort":
        "19e6e869601c39d5377e863000c1f0ef0cd60d8f140c3f7c5f0827c2aadd5a88",
    "ddscan6-noflip-quasi-static-stored":
        "8b6e8be7eff0cb07870546a126f27406a97b3635ae808c82af2accfc5230fc5b",
    "ddscan6-noflip-quasi-static-abort":
        "fc8b9163f9e15169c64f65f655b11047d95207c033b1adbacf67d8b3772b4432",
    "ddscan6-noflip-per-cycle-stored":
        "fe00e23944f8fb78f461a5238ab0a9ae253d0eef838a590d45e85207ccbf69a4",
    "ddscan6-noflip-per-cycle-abort":
        "c9c73140b4058a2e04cd787dd846d5579c329cffb7d8295cbc1c918123210290",
    "custom5-noflip-quasi-static-stored":
        "9bb21b189996e0ea0cac6924e4c594bdc4c216bcb7d129e44562d8bd8110f18f",
    "custom5-noflip-quasi-static-abort":
        "02326af3fea2964d43867d664bf9d96aad4efecc69716e2225464c71fe7d5c85",
    "custom5-noflip-per-cycle-stored":
        "4a2ef644c9749bde13e07238e6c0415e2458e5bdde9b48ee16b845195f5b0e8c",
    "custom5-noflip-per-cycle-abort":
        "ef41684cf1fd0002251b458f848b47d81f09dcb2c79c5cf91909d93a7f429218",
    "ghz6-xe-quasi-static-stored":
        "ce477397b2d568a0c5caf78d47063f4151fb9f9981b029914f56dab904a7b7a5",
    "ghz6-xe-quasi-static-abort":
        "58c89b9eaad5a9ae805987fa8c068fa8066e09f37c293ed3d341b1869fd0bc0a",
    "ghz6-xe-per-cycle-stored":
        "1c5c2c02ba572f9dea75436993cbcb896a75acd53f59ec8dcb6966d8c65576cb",
    "ghz6-xe-per-cycle-abort":
        "35ced934b518b189c55f5e14d0f306f38accbf166a36a2710998977a921a6d12",
    "ghz12-xe-quasi-static-stored":
        "86f917319dc2cb174bbac60a02d61e24b6240b92f88600e8efde398edc2ac502",
    "ghz12-xe-quasi-static-abort":
        "11bc3d11b723ae3b09e8c42afc496c21a0ad1b1da0e8bc2ce76e83760c1c054a",
    "ghz12-xe-per-cycle-stored":
        "fcffd510794febab71809b0edc355a02213b3359bb94f7949dabef0a92927003",
    "ghz12-xe-per-cycle-abort":
        "d74b963383b278e51a1047e3e94352023ccfb37a1423aad90f2d9ca862866fd8",
    "coherence-xe-quasi-static-stored":
        "1a222e29566b48a9f8b3d4bc4c51bc59bb2cc239ac0805f8f831c6a2229eb572",
    "coherence-xe-quasi-static-abort":
        "9cdd1915b4f79aaf5832078bbc2c3ccc580caf8d0c9bc68dfeb0efa7911aa8cb",
    "coherence-xe-per-cycle-stored":
        "e0418fe14fb0705ead3c6b8377a9d5c3837dc24d56353944b017a618a8a25ed8",
    "coherence-xe-per-cycle-abort":
        "7aca09dfbe33cf921e3b25f99707390b3e44c2662bfa8913903cb927a9271b37",
}


def test_records_digest_pinned():
    import hashlib

    from photonchain.cli import operating_noise

    custom5 = ProtocolConfig("custom", 5, thetas=(0.3, 1.1, 2.0, 0.7))
    ddscan6 = ProtocolConfig("ddscan", 6, dd_tau=4e-5)
    zxe = (MeasBasis.z(), MeasBasis.x(), MeasBasis.equator(0.7))
    # a Z photon collapses a GHZ-type state, after which every phase is
    # global: the ddscan and "xe" plans measure no Z, so their records see
    # the precession windows, the probe delay and the decoupling delay
    xe = (MeasBasis.x(), MeasBasis.equator(0.7))
    cases = {   # name: (config, flip_f2_sign, basis cycle of the plan)
        "ghz6": (ProtocolConfig("ghz", 6), True, zxe),
        "ghz12": (ProtocolConfig("ghz", 12), True, zxe),
        "cluster5": (ProtocolConfig("cluster", 5), True, zxe),
        "custom5": (custom5, True, zxe),
        "coherence": (ProtocolConfig("coherence", 2, probe_delay=3e-4), True,
                      zxe),
        "ddscan6": (ddscan6, True, xe),
        "ddscan6-noflip": (ddscan6, False, xe),
        "custom5-noflip": (custom5, False, zxe),
        "ghz6-xe": (ProtocolConfig("ghz", 6), True, xe),
        "ghz12-xe": (ProtocolConfig("ghz", 12), True, xe),
        "coherence-xe": (ProtocolConfig("coherence", 2, probe_delay=3e-4),
                         True, xe),
    }
    got = {}
    for name, (cfg, flip, cyc) in cases.items():
        plan = [cyc[k % len(cyc)] for k in range(cfg.n_photons)]
        for model in ("quasi-static", "per-cycle"):
            for abort in (False, True):
                # several chunks per call on either path
                shots = 4 * CHUNK + 1 if abort else 2 * CHUNK + 3
                b = run_batch(cfg, operating_noise(model), plan, shots,
                              seed=7, abort_on_loss=abort,
                              flip_f2_sign=flip)
                h = hashlib.sha256()
                full = b.full_detection
                cols = ((b.detected[full], b.outcomes[full], b.run_ids[full],
                         b.attempts, b.deltas) if abort else
                        (b.detected, b.outcomes, b.attempts, b.deltas))
                for col in cols:
                    h.update(np.ascontiguousarray(col).tobytes())
                key = f"{name}-{model}-{'abort' if abort else 'stored'}"
                got[key] = h.hexdigest()
    assert got == RECORD_DIGESTS
