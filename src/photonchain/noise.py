"""Noise parameters and their calibration helpers.

:class:`NoiseConfig` sets the imperfections that the engine samples
(:mod:`photonchain.engine`):

* ``eta0``, ``eta_d`` — photon loss, one Bernoulli trial per photon with
  success probability eta0 * eta_d (losses commute with polarization
  measurement, so only the product matters to the engine);
* ``raman_sigma`` — a coherent angle error theta -> theta + eps,
  eps ~ N(0, raman_sigma), on every Raman pulse;
* ``closing_scatter_p`` — the probability that the closing qubit is
  replaced by a random state on span{|2,+1>, |2,-1>} with uniformly
  random population split and relative phase;
* ``b_sigma``, ``b_model`` — a fractional Larmor-frequency offset delta
  ~ N(0, b_sigma), drawn once per shot (quasi-static, the default) or
  once per photon cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .levels import OMEGA_L


@dataclass(frozen=True)
class NoiseConfig:
    eta0: float = 1.0                 # source efficiency
    eta_d: float = 1.0                # detection efficiency
    raman_sigma: float = 0.0          # rad, std dev of the angle error
    closing_scatter_p: float = 0.0
    b_sigma: float = 0.0              # fractional Larmor-frequency std dev
    b_model: str = "quasi-static"     # or "per-cycle"

    def __post_init__(self):
        for name in ("eta0", "eta_d", "closing_scatter_p"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name}={p} outside [0, 1]")
        for name in ("raman_sigma", "b_sigma"):
            w = getattr(self, name)
            if not 0.0 <= w < math.inf:
                raise ValueError(f"{name}={w} must be finite and "
                                 "non-negative")
        if self.b_model not in ("quasi-static", "per-cycle"):
            raise ValueError(f"unknown b_model {self.b_model!r}")

    @property
    def eta(self) -> float:
        """Per-photon generation-and-detection probability."""
        return self.eta0 * self.eta_d


def raman_sigma_for_infidelity(infidelity: float) -> float:
    """Angle-error width giving the requested mean pi-pulse infidelity.

    The mean gate infidelity of a pi pulse with angle error eps is
    E[sin^2(eps/2)] ~= sigma^2 / 4 for small sigma.
    """
    if infidelity < 0:
        raise ValueError("infidelity must be non-negative")
    return 2.0 * math.sqrt(infidelity)


def coherence_envelope(t: float | np.ndarray, b_sigma: float):
    """Upper envelope of the two-photon overlap for an idle qubit.

    Quasi-static Gaussian field noise averages cos(2 w_L delta t) to
    exp(-(2 w_L b_sigma t)^2 / 2), so the overlap envelope is
    (1 + exp(-(2 w_L b_sigma t)^2 / 2)) / 2.
    """
    return 0.5 * (1.0 + np.exp(-0.5 * (2.0 * OMEGA_L * b_sigma * np.asarray(t)) ** 2))


def calibrate_field(target_coherence_time: float,
                    threshold: float = 0.66) -> float:
    """b_sigma for which the overlap envelope crosses ``threshold`` at the
    given time.  Closed form from inverting the Gaussian envelope."""
    if target_coherence_time <= 0:
        raise ValueError("coherence time must be positive")
    if not 0.5 < threshold < 1.0:
        raise ValueError("threshold must lie in (0.5, 1)")
    # envelope = threshold  <=>  exp(-x^2/2) = 2*threshold - 1
    x = math.sqrt(2.0 * math.log(1.0 / (2.0 * threshold - 1.0)))
    return x / (2.0 * OMEGA_L * target_coherence_time)
