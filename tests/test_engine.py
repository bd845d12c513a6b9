"""Trajectory engine: statistics against the dense oracle, determinism,
loss accounting and the built-in probes."""

import numpy as np
import pytest

from photonchain.engine import (
    CHUNK,
    coherence_probe,
    rate_benchmark,
    run_batch,
    run_shot,
)
from photonchain.levels import MeasBasis
from photonchain.noise import NoiseConfig, calibrate_field, coherence_envelope
from photonchain.oracle import dense_run, outcome_distribution
from photonchain.schedule import ProtocolConfig, build_schedule

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
    from photonchain.oracle import apply_frame

    sched = build_schedule(cfg)
    state = apply_frame(dense_run(sched), sched.frame_phases)
    return outcome_distribution(state, bases)


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
    noise = NoiseConfig(eta0=0.8, raman_sigma=0.05, b_sigma=5e-4)
    cfg = ProtocolConfig("ghz", 3)
    bases = [MeasBasis.x()] * 3
    batch = run_batch(cfg, noise, bases, 50, seed=21)
    for i in (0, 17, 49):
        single = run_shot(cfg, noise, bases, seed=21, shot_index=i)
        assert single.n_shots == 1
        assert single.bases == batch.bases
        assert single.period == batch.period
        for col in ("detected", "outcomes", "attempts", "deltas", "run_ids"):
            assert np.array_equal(getattr(single, col),
                                  getattr(batch, col)[i:i + 1])


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
    noise = NoiseConfig(eta0=0.5, b_sigma=1e-3)
    cfg = ProtocolConfig("ghz", 4)
    bases = [MeasBasis.equator(0.5)] * 4
    a = run_batch(cfg, noise, bases, 20000, seed=13)
    b = run_batch(cfg, noise, bases, 20000, seed=13, abort_on_loss=True)
    # identical shots are detected up to each shot's first loss, and the
    # outcomes agree wherever both evolved
    full_a = a.detected.all(axis=1)
    full_b = b.detected.all(axis=1)
    assert np.array_equal(full_a, full_b)
    assert np.array_equal(a.outcomes[full_a], b.outcomes[full_b])


def test_basis_plan_length_checked():
    with pytest.raises(ValueError):
        run_batch(ProtocolConfig("ghz", 3), NOISELESS,
                  [MeasBasis.z()] * 2, 10, seed=0)


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


def test_record_batch_concat_guard():
    a = run_batch(ProtocolConfig("ghz", 2), NOISELESS,
                  [MeasBasis.z()] * 2, 10, seed=0)
    b = run_batch(ProtocolConfig("ghz", 2), NOISELESS,
                  [MeasBasis.x()] * 2, 10, seed=0)
    with pytest.raises(ValueError):
        a.concat(b)
    c = a.concat(a)
    assert c.n_shots == 20
