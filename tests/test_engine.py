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
    RATE_BLOCK,
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
from photonchain.schedule import (EmitOp, ProtocolConfig, build_schedule,
                                  compile_schedule, run_period)

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


def test_thread_determinism():
    cfg = ProtocolConfig("ghz", 3)
    bases = [MeasBasis.x()] * 3
    shots = CHUNK * 2 + 100      # force multiple chunks
    a = run_batch(cfg, NOISELESS, bases, shots, seed=5, threads=1)
    b = run_batch(cfg, NOISELESS, bases, shots, seed=5, threads=4)
    assert np.array_equal(a.outcomes, b.outcomes)
    assert np.array_equal(a.detected, b.detected)
    assert np.array_equal(a.deltas, b.deltas)


def test_determinism_with_noise():
    noise = NoiseConfig(eta0=0.6, raman_sigma=0.1, closing_scatter_p=0.1,
                        b_sigma=1e-3)
    cfg = ProtocolConfig("cluster", 4)
    bases = [MeasBasis.x(), MeasBasis.z(), MeasBasis.x(), MeasBasis.z()]
    a = run_batch(cfg, noise, bases, 5000, seed=9)
    b = run_batch(cfg, noise, bases, 5000, seed=9, threads=3)
    assert np.array_equal(a.outcomes, b.outcomes)
    assert np.array_equal(a.attempts, b.attempts)


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
    # a chunk reuses each distinct precession's phase factors; neither the
    # chunk size nor the thread count may show in the records, with or
    # without abort_on_loss
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
            for threads in (1, 3):
                got = run_batch(cfg, noise, bases, shots, seed=37,
                                threads=threads, abort_on_loss=abort)
                for col in ("detected", "outcomes", "attempts", "deltas",
                            "run_ids"):
                    assert np.array_equal(getattr(got, col),
                                          getattr(want, col)), (abort, chunk,
                                                                threads, col)
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


def test_abort_on_loss_equivalent_for_postselection():
    # abort_on_loss computes each precession's phase factors afresh, the
    # full run reuses them within a chunk: the per-cycle cluster pins the
    # reuse against the fresh form
    for cfg, noise in (
            (ProtocolConfig("ghz", 4), NoiseConfig(eta0=0.5, b_sigma=1e-3)),
            (ProtocolConfig("cluster", 5),
             NoiseConfig(eta0=0.8, raman_sigma=0.05, b_sigma=1e-3,
                         b_model="per-cycle"))):
        bases = [MeasBasis.equator(0.5)] * cfg.n_photons
        a = run_batch(cfg, noise, bases, 20000, seed=13)
        b = run_batch(cfg, noise, bases, 20000, seed=13, abort_on_loss=True)
        # identical shots are detected up to each shot's first loss, and
        # the outcomes agree wherever both evolved
        full_a = a.detected.all(axis=1)
        full_b = b.detected.all(axis=1)
        assert np.array_equal(full_a, full_b)
        assert np.array_equal(a.outcomes[full_a], b.outcomes[full_b])


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


def _full_mask_counts(n, eta, n_runs, seed):
    """Coincidence counts with every slot drawn for every run."""
    counts = np.zeros(n, dtype=np.int64)
    for lo in range(0, n_runs, RATE_BLOCK):
        runs = np.arange(lo, min(lo + RATE_BLOCK, n_runs), dtype=np.uint64)
        alive = np.ones(len(runs), dtype=bool)
        for k in range(n):
            alive &= crng.uniform(seed, runs, crng.slot_draw(
                k, crng.SLOT_DETECT)) < eta
            counts[k] += np.count_nonzero(alive)
    return counts


@pytest.mark.parametrize("eta", [0.0, 0.4318, 1.0])
@pytest.mark.parametrize("n_runs", [RATE_BLOCK - 1, RATE_BLOCK + 1, 1000])
def test_rate_benchmark_matches_full_mask_loop(eta, n_runs):
    cfg = ProtocolConfig("rate", 14)
    result = rate_benchmark(cfg, NoiseConfig(eta0=eta),
                            (n_runs + 0.5) * cfg.repetition_period, seed=23)
    assert result.n_runs == n_runs
    assert np.array_equal(result.counts,
                          _full_mask_counts(14, eta, n_runs, 23))


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


# sha256 of run_batch's detected, outcomes, attempts and deltas, per case
# of test_records_digest_pinned; a change to the kernels, the draw layout
# or the op order that moves any record changes these
RECORD_DIGESTS = {
    "ghz6-quasi-static-stored":
        "510eac5229d0d958af741825e1ebd8152904ae1d86ae29b58bcb4a8972bf3236",
    "ghz6-quasi-static-abort":
        "4a065f75615c1585139bb091727ef7692f7761d42b39fc9a893d1ad69882eb06",
    "ghz6-per-cycle-stored":
        "fbc9468a9da20434103a4471c70a5708eb6ea1a0aebfa1d458b84d6bfdd2e34d",
    "ghz6-per-cycle-abort":
        "9a197fa3396d194759eee3838cdaa5259a7803eac7d17106110b451fc4cd13c0",
    "ghz12-quasi-static-stored":
        "4a6b43fc71e5e352ed3c5464bf640cad2c330b83c2e14a9c71663456a031d24a",
    "ghz12-quasi-static-abort":
        "dca00d269032853c89740fea59b3ed1f93eb5e9ed9d46782ec8cd7695b2a824b",
    "ghz12-per-cycle-stored":
        "bbac8aec26a5e1c437fe0eef8f67e1a8412c6ea6cc0e4f09179c07c8b9feb62c",
    "ghz12-per-cycle-abort":
        "5bf25e493ab92f22adc99e74ba1e6466e4a3de0641a510d6577a664e917c32b6",
    "cluster5-quasi-static-stored":
        "bbe6d78f1366bdaacad11c7e69e575e065dd849f9a77c9def2ef4cf2b204a1aa",
    "cluster5-quasi-static-abort":
        "bdb3a9df9423825c0e6cfb1b924805f3f15fe781c20f13331eeb464be849a7ba",
    "cluster5-per-cycle-stored":
        "bcfd902479cbf49665ed860f75520a9024570ed41c07558341d21d01ff955609",
    "cluster5-per-cycle-abort":
        "d719bd9cbed0581679434279485b4eb78b6491a73b2076cda2cfdf5ee4487069",
    "custom5-quasi-static-stored":
        "fc5ad12a7a8a5a17956e5d4a9cbd62e4268784c10f1f906ba65f928faea7ece7",
    "custom5-quasi-static-abort":
        "70b9b1bdc928cd444b61b5dc89abb2e242fdce3e86c3313d7c4b3d679a1ceaff",
    "custom5-per-cycle-stored":
        "96a240aa8131fd5c1e87cb5f067c995ec74cb74d1b51e97aea994037912b30e2",
    "custom5-per-cycle-abort":
        "9865b0baabbf3530c9a9721e8b48051a203072d214724a575b55920059af50f5",
    "coherence-quasi-static-stored":
        "184eabf1f07ed4671bdd7b6da5ea8757eb8808ccc4c731c67948d95392d4861b",
    "coherence-quasi-static-abort":
        "f5a4d47a478dbf9d9d4a3c2ff96871e7745add0e334a0fae479c2ab350c5358a",
    "coherence-per-cycle-stored":
        "9f63cc670a6fc07f910f99dfda872a241fc0f9b64f0e1ab3ed2d27d0ccf7bad3",
    "coherence-per-cycle-abort":
        "aaf379a1d7f1769ba9e5b52d508b5348c155cdf8657be11aec348bcd324b901b",
}


def test_records_digest_pinned():
    import hashlib

    from photonchain.cli import operating_noise

    cases = {
        "ghz6": ProtocolConfig("ghz", 6),
        "ghz12": ProtocolConfig("ghz", 12),
        "cluster5": ProtocolConfig("cluster", 5),
        "custom5": ProtocolConfig("custom", 5, thetas=(0.3, 1.1, 2.0, 0.7)),
        "coherence": ProtocolConfig("coherence", 2, probe_delay=3e-4),
    }
    cyc = (MeasBasis.z(), MeasBasis.x(), MeasBasis.equator(0.7))
    got = {}
    for name, cfg in cases.items():
        plan = [cyc[k % 3] for k in range(cfg.n_photons)]
        for model in ("quasi-static", "per-cycle"):
            for abort in (False, True):
                # several chunks per call on either path
                shots = 4 * CHUNK + 1 if abort else 2 * CHUNK + 3
                b = run_batch(cfg, operating_noise(model), plan, shots,
                              seed=7, abort_on_loss=abort)
                h = hashlib.sha256()
                for col in (b.detected, b.outcomes, b.attempts, b.deltas):
                    h.update(np.ascontiguousarray(col).tobytes())
                key = f"{name}-{model}-{'abort' if abort else 'stored'}"
                got[key] = h.hexdigest()
    assert got == RECORD_DIGESTS
