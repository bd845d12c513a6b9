"""Estimators and fits, validated on simulated and synthetic data."""

import numpy as np
import pytest

from photonchain.analysis import (
    Estimate,
    FitError,
    InsufficientDataError,
    ParityCurve,
    cluster_bound_value,
    cluster_witness,
    decay_fit,
    fit_coherence,
    ghz_fidelity,
    ghz_witness,
    parity,
    parity_curve,
    populations,
    rate_fit,
    stabilizers,
)
from photonchain.engine import run_batch
from photonchain.levels import MeasBasis
from photonchain.noise import NoiseConfig
from photonchain.schedule import ProtocolConfig

NOISELESS = NoiseConfig()


def ghz_batch(n, bases, shots=4000, seed=0, noise=NOISELESS):
    return run_batch(ProtocolConfig("ghz", n), noise, bases, shots, seed)


def cluster_batch(n, bases, shots=4000, seed=0, noise=NOISELESS):
    return run_batch(ProtocolConfig("cluster", n), noise, bases, shots, seed)


def alternating(n, parity_class):
    return [MeasBasis.x() if (k % 2 == 0) == (parity_class == 1)
            else MeasBasis.z() for k in range(n)]


def test_populations_noiseless():
    batch = ghz_batch(4, [MeasBasis.z()] * 4)
    p = populations(batch, 4)
    assert p.value == 1.0
    assert p.stderr == 0.0
    assert p.n_events == 4000


def test_populations_validates_bases():
    batch = ghz_batch(3, [MeasBasis.x()] * 3, shots=100)
    with pytest.raises(ValueError):
        populations(batch, 3)


def test_parity_noiseless():
    phi = 0.7
    batch = ghz_batch(3, [MeasBasis.equator(phi)] * 3, shots=30000)
    est = parity(batch, phi)
    want = np.cos(3 * phi)
    sig = np.sqrt((1 - want ** 2) / 30000)
    assert abs(est.value - want) < 4 * sig
    assert est.stderr == pytest.approx(sig, rel=0.1)


def test_parity_requires_matching_phi():
    batch = ghz_batch(2, [MeasBasis.equator(0.3)] * 2, shots=100)
    with pytest.raises(ValueError):
        parity(batch, 0.4)


def test_parity_postselects_full_detection():
    noise = NoiseConfig(eta0=0.5)
    batch = ghz_batch(3, [MeasBasis.x()] * 3, shots=20000, noise=noise)
    est = parity(batch, 0.0)
    assert est.n_events < 20000
    assert est.value == pytest.approx(1.0)


def test_fit_coherence_recovers_amplitude():
    n = 3
    rs = np.random.default_rng(1)
    phis = np.linspace(0, np.pi, 25)
    amp, phase0 = 0.83, 0.0
    pts = []
    for phi in phis:
        m = amp * np.cos(n * phi)
        samp = 2 * (rs.random(4000) < (1 + m) / 2).astype(float) - 1
        v = samp.mean()
        pts.append((phi, Estimate(v, np.sqrt((1 - v * v) / 4000), 4000)))
    fit = fit_coherence(ParityCurve(tuple(pts)), n)
    assert fit.amplitude.value == pytest.approx(amp, abs=0.02)
    assert abs(fit.phase - phase0) < 0.05
    assert fit.amplitude.stderr < 0.01


def test_fit_coherence_exact_curve():
    n = 5
    phis = np.linspace(0, np.pi, 25)
    pts = tuple((p, Estimate(np.cos(n * p), 0.0, 1000)) for p in phis)
    fit = fit_coherence(ParityCurve(pts), n)
    assert fit.amplitude.value == pytest.approx(1.0, abs=1e-9)


def test_fit_coherence_needs_enough_points():
    pts = tuple((p, Estimate(1.0, 0.1, 10)) for p in np.linspace(0, 1, 5))
    with pytest.raises(FitError):
        fit_coherence(ParityCurve(pts), 2)


def test_ghz_fidelity_propagation():
    f = ghz_fidelity(Estimate(0.9, 0.03, 100), Estimate(0.8, 0.04, 200))
    assert f.value == pytest.approx(0.85)
    assert f.stderr == pytest.approx(0.025)
    assert f.n_events == 300


def test_ghz_witness_noiseless():
    n = 4
    w = ghz_witness(ghz_batch(n, [MeasBasis.x()] * n),
                    ghz_batch(n, [MeasBasis.z()] * n, seed=1), n)
    assert w.bound.value == pytest.approx(1.0)
    assert set(w.components) == {"S1", "S2", "S3", "S4"}
    for est in w.components.values():
        assert est.value == pytest.approx(1.0)


def test_ghz_witness_validates_settings():
    n = 3
    zb = ghz_batch(n, [MeasBasis.z()] * n, shots=100)
    with pytest.raises(ValueError):
        ghz_witness(zb, zb, n)


def test_cluster_witness_noiseless():
    n = 5
    odd = cluster_batch(n, alternating(n, 1), shots=6000)
    even = cluster_batch(n, alternating(n, 0), shots=6000, seed=1)
    w = cluster_witness(odd, even, n)
    assert w.bound.value == pytest.approx(1.0)
    assert w.settings_used == ("XZXZX", "ZXZXZ")
    for est in w.components.values():
        assert est.value == pytest.approx(1.0)


def test_cluster_witness_validates_settings():
    n = 4
    odd = cluster_batch(n, alternating(n, 1), shots=100)
    with pytest.raises(ValueError):
        cluster_witness(odd, odd, n)


def test_stabilizers_sliding_window():
    n = 5
    odd = cluster_batch(n, alternating(n, 1), shots=3000)
    even = cluster_batch(n, alternating(n, 0), shots=3000, seed=1)
    ests = stabilizers([odd, even], n)
    assert len(ests) == n
    for est in ests:
        assert est is not None
        assert est.value == pytest.approx(1.0)
    # one setting alone only covers its parity class
    ests_odd = stabilizers(odd, n)
    assert ests_odd[0] is not None and ests_odd[1] is None


def test_stabilizer_windows_survive_partial_detection():
    n = 4
    noise = NoiseConfig(eta0=0.6)
    odd = cluster_batch(n, alternating(n, 1), shots=30000, noise=noise)
    ests = stabilizers(odd, n)
    # S_1 needs photons 0, 1 only; more events than full detection offers
    full = int(odd.detected.all(axis=1).sum())
    assert ests[0].n_events > full
    assert ests[0].value == pytest.approx(1.0)


def test_cluster_bound_value_identity():
    s = [0.9, 0.8, 0.95, 0.85]
    odd = (1 + s[0]) / 2 * (1 + s[2]) / 2
    even = (1 + s[1]) / 2 * (1 + s[3]) / 2
    assert cluster_bound_value(s) == pytest.approx(odd + even - 1.0)


def test_witness_bounds_are_sound_under_noise():
    # with depolarizing-style closing scatter the bound must stay below
    # the exact fidelity; at p=1 both product terms collapse
    n = 3
    noise = NoiseConfig(closing_scatter_p=0.3)
    w = ghz_witness(ghz_batch(n, [MeasBasis.x()] * n, 20000, noise=noise),
                    ghz_batch(n, [MeasBasis.z()] * n, 20000, 1, noise), n)
    assert w.bound.value < 1.0
    assert w.bound.stderr > 0.0


def test_empty_postselection_raises():
    noise = NoiseConfig(eta0=0.01)
    batch = ghz_batch(4, [MeasBasis.z()] * 4, shots=30, noise=noise)
    if not batch.detected.all(axis=1).any():
        with pytest.raises(InsufficientDataError):
            populations(batch, 4)


def test_rate_fit_recovers_eta():
    eta, runs = 0.4318, 10_000_000
    rs = np.random.default_rng(3)
    counts = rs.binomial(runs, eta ** np.arange(1, 15))
    fit = rate_fit(counts, duration=runs * 1.1e-3, eta_detection=0.7)
    assert fit.eta.value == pytest.approx(eta, abs=0.003)
    assert fit.eta.stderr < 0.003
    assert fit.rates[0] == pytest.approx(counts[0] / (runs * 1.1e-3))
    assert fit.corrected_rates[1] == pytest.approx(fit.rates[1] / 0.49)


def test_rate_fit_keeps_zero_counts():
    fit = rate_fit([1000, 400, 160, 0, 0], duration=100.0)
    eta = 560 / 1560
    assert fit.eta.value == pytest.approx(eta, rel=1e-12)
    assert fit.eta.stderr == pytest.approx(np.sqrt(eta * (1 - eta) / 1560),
                                           rel=1e-12)
    # two orders, rising counts, no first-order coincidences
    for counts in ([10, 4], [10, 12, 3], [0, 0, 0]):
        with pytest.raises(FitError):
            rate_fit(counts, duration=1.0)
    for eta_d in (0.0, -1.0, float("nan"), 1.5):
        with pytest.raises(ValueError):
            rate_fit([10, 4, 1], duration=1.0, eta_detection=eta_d)


def test_rate_fit_stderr_matches_spread_of_nested_chains():
    # one simulated day of 14-fold counting: count_{k+1} ~ Bin(count_k, eta)
    eta, runs, chains = 0.4318, 78_545_454, 2000
    rs = np.random.default_rng(17)
    counts = np.empty((chains, 14), dtype=np.int64)
    counts[:, 0] = rs.binomial(runs, eta, size=chains)
    for k in range(1, 14):
        counts[:, k] = rs.binomial(counts[:, k - 1], eta)
    fits = [rate_fit(c, duration=runs * 1.1e-3).eta for c in counts]
    z = np.array([(f.value - eta) / f.stderr for f in fits])
    assert 0.9 <= z.std() <= 1.1


def test_decay_fit_exact_line():
    ns = [2, 4, 6, 8]
    ests = [Estimate(1.004 - 0.0104 * n, 0.005, 1000) for n in ns]
    fit = decay_fit(ns, ests)
    assert fit.slope.value == pytest.approx(0.0104, abs=1e-9)
    assert fit.intercept.value == pytest.approx(1.004, abs=1e-9)
    assert fit.crossing.value == pytest.approx((1.004 - 0.5) / 0.0104,
                                               abs=1e-6)
    assert fit.crossing.stderr > 0


def test_decay_fit_no_crossing_when_flat():
    ns = [2, 3, 4]
    ests = [Estimate(0.9, 0.01, 100) for _ in ns]
    fit = decay_fit(ns, ests)
    assert fit.crossing is None
    with pytest.raises(FitError):
        decay_fit([2, 3], ests[:2])


def test_decay_fit_refuses_single_photon_number():
    with pytest.raises(FitError):
        decay_fit([3, 3, 3], [Estimate(0.5, 0.1, 100)] * 3)


def test_parity_curve_duplicate_phi_rejected():
    e = Estimate(1.0, 0.0, 10)
    with pytest.raises(ValueError):
        ParityCurve(((0.1, e), (0.1, e)))


def test_parity_curve_builder():
    groups = [(phi, ghz_batch(2, [MeasBasis.equator(phi)] * 2, shots=500,
                              seed=i))
              for i, phi in enumerate(np.linspace(0, np.pi, 9))]
    curve = parity_curve(groups)
    assert len(curve.points) == 9
    fit = fit_coherence(curve, 2)
    assert fit.amplitude.value == pytest.approx(1.0, abs=0.05)


def test_cluster_witness_refuses_equator_off_x():
    # Equator(0.9) on the X slots is neither alternating setting: the
    # witness must refuse it rather than read it as XZXZ... / ZXZX...
    n = 4
    odd, even = ([MeasBasis.equator(0.9) if b.kind == "E" else b
                  for b in alternating(n, c)] for c in (1, 0))
    with pytest.raises(ValueError):
        cluster_witness(cluster_batch(n, odd, shots=500),
                        cluster_batch(n, even, shots=500, seed=1), n)
