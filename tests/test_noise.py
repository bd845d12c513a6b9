"""Noise model validation, calibration helpers, and the statistics of
each noise channel as the engine samples it."""

import math

import numpy as np
import pytest

from photonchain.engine import run_batch
from photonchain.levels import MeasBasis
from photonchain.noise import (
    NoiseConfig,
    calibrate_field,
    coherence_envelope,
    raman_sigma_for_infidelity,
)
from photonchain.schedule import ProtocolConfig

GHZ2 = ProtocolConfig("ghz", 2)


def test_defaults_are_noiseless():
    cfg = NoiseConfig()
    assert cfg.eta == 1.0
    assert cfg.raman_sigma == 0.0
    assert cfg.b_sigma == 0.0


def test_eta_is_product():
    cfg = NoiseConfig(eta0=0.6, eta_d=0.7)
    assert cfg.eta == pytest.approx(0.42)


def test_validation():
    with pytest.raises(ValueError):
        NoiseConfig(eta0=1.2)
    with pytest.raises(ValueError):
        NoiseConfig(raman_sigma=-0.1)
    with pytest.raises(ValueError):
        NoiseConfig(b_model="fast")


@pytest.mark.parametrize("width", ["raman_sigma", "b_sigma"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_non_finite_widths_refused(width, value):
    with pytest.raises(ValueError, match=width):
        NoiseConfig(**{width: value})


def test_raman_sigma_for_one_percent():
    # E[sin^2(eps/2)] ~ sigma^2/4 = 0.01  =>  sigma = 0.2
    sigma = raman_sigma_for_infidelity(0.01)
    assert sigma == pytest.approx(0.2)
    eps = np.random.default_rng(1).normal(0, sigma, 500000)
    infid = np.mean(np.sin(eps / 2.0) ** 2)
    assert infid == pytest.approx(0.01, rel=0.02)


def test_calibrate_field_closed_form():
    b = calibrate_field(1.2e-3, 0.66)
    # frozen value of the closed-form inversion at the operating point
    assert b == pytest.approx(1.0010791e-3, rel=1e-6)
    # closure: the envelope crosses the threshold at the requested time
    assert coherence_envelope(1.2e-3, b) == pytest.approx(0.66, abs=1e-12)


def test_calibrate_field_validation():
    with pytest.raises(ValueError):
        calibrate_field(-1.0)
    with pytest.raises(ValueError):
        calibrate_field(1e-3, threshold=0.4)


def test_envelope_limits():
    b = 1e-3
    assert coherence_envelope(0.0, b) == pytest.approx(1.0)
    assert coherence_envelope(1.0, b) == pytest.approx(0.5)
    t = np.linspace(0, 5e-3, 50)
    env = coherence_envelope(t, b)
    assert np.all(np.diff(env) <= 0)


def test_sample_field_statistics():
    # quasi-static field offsets: one N(0, b_sigma) draw per shot
    batch = run_batch(GHZ2, NoiseConfig(b_sigma=1e-3), [MeasBasis.z()] * 2,
                      20000, seed=2)
    assert abs(batch.deltas.mean()) < 3e-5
    assert batch.deltas.std() == pytest.approx(1e-3, rel=0.05)
    quiet = run_batch(GHZ2, NoiseConfig(), [MeasBasis.z()] * 2, 100, seed=2)
    assert not quiet.deltas.any()


def test_perturb_rotation():
    # after slot 0 one pi pulse moves the qubit into the closing levels;
    # an angle error eps ~ N(0, sigma) leaves cos^2(eps/2) there, so the
    # closing photon is emitted with mean probability (1 + e^{-sigma^2/2})/2
    sigma, shots = 0.5, 40000
    batch = run_batch(GHZ2, NoiseConfig(raman_sigma=sigma),
                      [MeasBasis.z()] * 2, shots, seed=3)
    want = (1.0 + np.exp(-sigma ** 2 / 2.0)) / 2.0
    got = batch.detected[:, 1].mean()
    assert abs(got - want) < 4 * np.sqrt(want * (1 - want) / shots)
    exact = run_batch(GHZ2, NoiseConfig(), [MeasBasis.z()] * 2, 1000, seed=3)
    assert exact.detected.all()


def test_random_span_state():
    # a scattered closing qubit is a uniformly random state on
    # span{|2,+1>, |2,-1>}: the closing photon reads R with probability
    # 1/2 whatever slot 0 read, and its X outcome averages to 0
    noise = NoiseConfig(closing_scatter_p=1.0)
    shots = 40000
    tol = 4.0 / np.sqrt(shots)
    z = run_batch(GHZ2, noise, [MeasBasis.z()] * 2, shots, seed=4)
    z0, z1 = z.outcomes[:, 0].astype(int), z.outcomes[:, 1].astype(int)
    assert abs(z1.mean()) < tol
    assert abs(np.mean(z0 * z1)) < tol
    x = run_batch(GHZ2, noise, [MeasBasis.z(), MeasBasis.x()], shots, seed=5)
    assert abs(x.outcomes[:, 1].astype(int).mean()) < tol


def test_closing_scatter():
    # the photon is still emitted and detected, but a scattered shot
    # loses the pair's X correlation: <X X> = 1 - p
    p, shots = 0.3, 40000
    batch = run_batch(GHZ2, NoiseConfig(closing_scatter_p=p),
                      [MeasBasis.x()] * 2, shots, seed=6)
    assert batch.detected.all()
    xx = np.mean(batch.outcomes[:, 0].astype(int) * batch.outcomes[:, 1])
    assert abs(xx - (1 - p)) < 4 * np.sqrt((1 - (1 - p) ** 2) / shots)


def test_sample_detection_rate():
    # after the first photon each photon is detected with eta0 * eta_d
    cfg = NoiseConfig(eta0=0.6, eta_d=0.7)
    batch = run_batch(GHZ2, cfg, [MeasBasis.z()] * 2, 20000, seed=5)
    started = batch.detected[:, 0]
    assert batch.detected[started, 1].mean() == pytest.approx(0.42, abs=0.012)
