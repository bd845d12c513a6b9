"""Estimators and fits over shot records.

Every estimator reads :class:`~photonchain.engine.RecordBatch` columns:
one batch per measurement setting, or a sequence of batches for the
multi-setting estimators.  Estimates carry a value, a 1-sigma standard
error and the post-selected event count.  The full-detection
estimators take their events from :func:`setting_events`, which checks
the batch's basis plan against its measurement setting.

Witness product terms (the (1+S)/2 factors of the fidelity bounds) are
estimated per event -- the product observable is evaluated shot by shot
within one measurement setting and then averaged -- rather than as a
product of per-stabilizer averages.  The per-event product of (1+S_k)/2
factors is an indicator (all involved stabilizers read +1), which keeps
the bound statistically valid in the presence of correlations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .levels import MeasBasis, plan_matches, setting_plan


class InsufficientDataError(RuntimeError):
    """No post-selected events available for the requested estimator."""


class FitError(RuntimeError):
    """Degenerate design matrix or too few usable points."""


@dataclass(frozen=True)
class Estimate:
    value: float
    stderr: float
    n_events: int

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("stderr must be non-negative")

    def __str__(self):
        return f"{self.value:.6f} +- {self.stderr:.6f} (n={self.n_events})"


@dataclass(frozen=True)
class ParityCurve:
    points: tuple  # ((phi, Estimate), ...)

    def __post_init__(self):
        phis = [p for p, _ in self.points]
        if len(set(phis)) != len(phis):
            raise ValueError("duplicate phi values in parity curve")

    @property
    def phis(self) -> np.ndarray:
        return np.array([p for p, _ in self.points])


@dataclass(frozen=True)
class CoherenceFit:
    amplitude: Estimate
    phase: float          # fitted offset delta, diagnostic only


@dataclass(frozen=True)
class WitnessResult:
    bound: Estimate
    settings_used: tuple
    components: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# post-selection

def setting_events(records, setting: str, n_photons: int, phi: float = 0.0,
                   phi_tol: float = 0.0) -> np.ndarray:
    """Outcomes of the full-detection events of a batch measured in one
    setting (:func:`~photonchain.levels.setting_plan`), one row per event.

    Every full-detection estimator reads its events here: a shot counts
    only when every photon was detected.  Raises ``ValueError`` when the
    batch's basis plan is not the setting's on ``n_photons`` photons (its
    equator angles within ``phi_tol``) and :class:`InsufficientDataError`
    when no shot detected every photon.
    """
    label = f"equator({phi})" if setting == "equator" else setting
    if not plan_matches(records.bases, setting_plan(setting, n_photons, phi),
                        phi_tol):
        got = " ".join(b.code() for b in records.bases)
        raise ValueError(f"expected {label} records on {n_photons} photons, "
                         f"got [{got}]")
    events = records.outcomes[records.full_detection]
    if len(events) == 0:
        raise InsufficientDataError(
            f"no full-detection events in the {label} records")
    return events


def _mean_estimate(indicator: np.ndarray) -> Estimate:
    n = len(indicator)
    p = float(indicator.mean())
    return Estimate(p, float(np.sqrt(max(p * (1.0 - p), 0.0) / n)), n)


# ---------------------------------------------------------------------------
# GHZ-style estimators

def populations(records, n_photons: int) -> Estimate:
    """P_N: fraction of full-detection Z^N events with all outcomes equal."""
    o = setting_events(records, "z", n_photons)
    return _mean_estimate(np.all(o == o[:, :1], axis=1))


def parity(records, phi: float) -> Estimate:
    """Mean product of the N equator-basis outcomes at angle phi."""
    o = setting_events(records, "equator", len(records.bases), phi,
                       phi_tol=1e-12)
    return _signed(np.prod(o.astype(np.int64), axis=1))


def parity_curve(groups) -> ParityCurve:
    """Assemble a parity curve from (phi, records) pairs."""
    return ParityCurve(tuple((float(phi), parity(records, phi))
                             for phi, records in groups))


def _weighted_lsq(x: np.ndarray, estimates, degenerate: str = "") -> tuple:
    """Weighted least-squares coefficients of the columns of ``x`` for
    the estimates' values, and their covariance.  Weights are 1/stderr^2,
    the variance floored at 1/n_events^2 so exact (zero-stderr) points
    stay finite; an ill-conditioned fit raises ``FitError(degenerate)``
    when a message is given."""
    y = np.array([e.value for e in estimates])
    sig = np.array([e.stderr for e in estimates])
    nev = np.array([e.n_events for e in estimates], dtype=float)
    var = np.maximum(sig ** 2, 1.0 / np.maximum(nev, 1.0) ** 2)
    w = 1.0 / var
    xtw = x.T * w
    gram = xtw @ x
    if degenerate and np.linalg.cond(gram) > 1e12:
        raise FitError(degenerate)
    cov = np.linalg.inv(gram)
    return cov @ (xtw @ y), cov


def fit_coherence(curve: ParityCurve, n_photons: int) -> CoherenceFit:
    """Visibility of the parity oscillation from a fixed-frequency fit.

    Weighted least squares of a*cos(N phi) + b*sin(N phi); the amplitude
    A = sqrt(a^2 + b^2) is the coherence C_N and delta = atan2(-b, a)
    the (diagnostic) phase offset.
    """
    phis = curve.phis
    if len(phis) < 8:
        raise FitError("need at least 8 phi points spanning [0, pi]")
    ests = [e for _, e in curve.points]
    x = np.vstack([np.cos(n_photons * phis), np.sin(n_photons * phis)]).T
    (a, b), cov = _weighted_lsq(
        x, ests, "degenerate phi grid for the requested frequency")
    amp = float(np.hypot(a, b))
    if amp > 0:
        grad = np.array([a, b]) / amp
        se = float(np.sqrt(grad @ cov @ grad))
    else:
        se = float(np.sqrt(np.trace(cov)))
    phase = float(np.arctan2(-b, a))
    return CoherenceFit(Estimate(amp, se, sum(e.n_events for e in ests)),
                        phase)


def ghz_fidelity(p: Estimate, c: Estimate) -> Estimate:
    """F_N = (P_N + C_N) / 2 with quadrature-propagated stderr."""
    return Estimate((p.value + c.value) / 2.0,
                    float(np.hypot(p.stderr, c.stderr) / 2.0),
                    p.n_events + c.n_events)


def ghz_witness(records_x, records_z, n_photons: int) -> WitnessResult:
    """GHZ fidelity lower bound from the X^N and Z^N settings.

    F >= (1 + S_1)/2 + prod_{k>=2} (1 + S_k)/2 - 1 with S_1 the full X
    product and S_k the Z_{k-1} Z_k pairs.  Both product terms are
    estimated per event: the first is P(X product = +1), the second is
    P(all Z outcomes equal) -- i.e. the population estimator.
    """
    x_ev = setting_events(records_x, "x", n_photons)
    z_ev = setting_events(records_z, "z", n_photons)

    x_prod = np.prod(x_ev.astype(np.int64), axis=1)
    term1 = _mean_estimate(x_prod > 0)
    term2 = _mean_estimate(np.all(z_ev == z_ev[:, :1], axis=1))
    bound = term1.value + term2.value - 1.0
    se = float(np.hypot(term1.stderr, term2.stderr))

    components = {"S1": _signed(x_prod)}
    for k in range(2, n_photons + 1):
        pair = (z_ev[:, k - 2].astype(np.int64) * z_ev[:, k - 1])
        components[f"S{k}"] = _signed(pair)
    return WitnessResult(
        Estimate(bound, se, term1.n_events + term2.n_events),
        settings_used=("X" * n_photons, "Z" * n_photons),
        components=components)


def _signed(prod: np.ndarray) -> Estimate:
    n = len(prod)
    m = float(prod.mean())
    return Estimate(m, float(np.sqrt(max(1.0 - m * m, 0.0) / n)), n)


# ---------------------------------------------------------------------------
# cluster-state estimators

def _stabilizer_window(k: int, n: int) -> tuple:
    """0-based slots of S_k = Z_{k-1} X_k Z_{k+1} and their bases."""
    slots = [s for s in (k - 2, k - 1, k) if 0 <= s < n]
    return slots, [MeasBasis.x() if s == k - 1 else MeasBasis.z()
                   for s in slots]


def stabilizers(records, n_photons: int) -> list:
    """Per-k cluster stabilizer expectations with sliding windows.

    ``records`` may be one setting or a sequence of settings; S_k is
    accumulated from every setting whose basis plan matches its window
    (X on photon k, Z on the neighbours).  Only the window photons must
    be detected, not the whole string.
    """
    batches = [records] if hasattr(records, "outcomes") else list(records)
    if not batches:
        raise InsufficientDataError("empty record collection")
    if any(len(b.bases) != n_photons for b in batches):
        raise ValueError("record width does not match n_photons")
    out = []
    for k in range(1, n_photons + 1):
        slots, window = _stabilizer_window(k, n_photons)
        prods = []
        for b in batches:
            if not plan_matches([b.bases[s] for s in slots], window):
                continue
            sel = b.detected[:, slots].all(axis=1)
            if np.any(sel):
                prods.append(np.prod(b.outcomes[np.ix_(sel, slots)]
                                     .astype(np.int64), axis=1))
        out.append(_signed(np.concatenate(prods)) if prods else None)
    return out


def cluster_bound_value(s_values) -> float:
    """Eq.-style bound from given stabilizer values (1-based order):
    prod_odd (1+S_k)/2 + prod_even (1+S_k)/2 - 1."""
    s = list(s_values)
    odd = np.prod([(1.0 + s[k - 1]) / 2.0 for k in range(1, len(s) + 1)
                   if k % 2 == 1])
    even = np.prod([(1.0 + s[k - 1]) / 2.0 for k in range(1, len(s) + 1)
                    if k % 2 == 0])
    return float(odd + even - 1.0)


def cluster_witness(records_odd, records_even,
                    n_photons: int) -> WitnessResult:
    """Cluster fidelity lower bound from the two alternating settings.

    ``records_odd`` must use XZXZ... (X on odd photons, measuring the
    odd-k stabilizers) and ``records_even`` ZXZX...  Each product term
    prod (1+S_k)/2 is estimated per event as the indicator that every
    stabilizer of that parity class reads +1.
    """
    terms, settings = [], []
    for first, setting, records in ((1, "alternating-odd", records_odd),
                                    (2, "alternating-even", records_even)):
        ev = setting_events(records, setting, n_photons)
        settings.append("".join(b.code() for b in records.bases))
        all_plus = np.ones(len(ev), dtype=bool)
        for k in range(first, n_photons + 1, 2):
            slots, _ = _stabilizer_window(k, n_photons)
            all_plus &= np.prod(ev[:, slots].astype(np.int64), axis=1) == 1
        terms.append(_mean_estimate(all_plus))

    bound = terms[0].value + terms[1].value - 1.0
    se = float(np.hypot(terms[0].stderr, terms[1].stderr))
    comps = {f"S{k}": est for k, est in enumerate(
        stabilizers([records_odd, records_even], n_photons), start=1)
        if est is not None}
    return WitnessResult(
        Estimate(bound, se, terms[0].n_events + terms[1].n_events),
        settings_used=tuple(settings), components=comps)


# ---------------------------------------------------------------------------
# rate and decay fits

@dataclass(frozen=True)
class RateFit:
    eta: Estimate
    n_values: tuple
    rates: tuple               # events per second
    corrected_rates: tuple     # loss-corrected with the supplied eta_d


def rate_fit(counts, duration: float, eta_detection: float = 1.0) -> RateFit:
    """Per-photon efficiency from coincidence counts vs N.

    ``counts[k]`` counts the runs whose photons 1 .. k+1 were all
    detected, so the counts form a binomial chain, count_{k+1} ~
    Bin(count_k, eta).  Its maximum-likelihood estimate is
    eta = sum_k count_{k+1} / sum_k count_k (k < N), with the binomial
    stderr sqrt(eta (1 - eta) / sum_k count_k); zero counts enter like
    any other.  The loss-corrected rates divide eta_detection^N out of
    counts / duration, and eta_detection must lie in (0, 1].  On
    :func:`engine.rate_benchmark` counts, which omit the Raman leakage of
    ``run_batch``, the fitted eta is the model's eta0 * eta_d, the
    efficiency per emitted photon; on measured counts, such as the
    paper's 43.18 %, it includes any emission leakage.
    """
    if not 0.0 < eta_detection <= 1.0:
        raise ValueError(f"eta_detection {eta_detection} outside (0, 1]")
    counts = np.asarray(counts, dtype=float)
    if len(counts) < 3:
        raise FitError("need at least 3 coincidence orders")
    if not (counts[0] > 0 and counts[-1] >= 0
            and np.all(np.diff(counts) <= 0)):
        raise FitError("coincidence counts must fall with N from a "
                       "non-zero first order")
    trials = float(counts[:-1].sum())
    eta = float(counts[1:].sum() / trials)
    se = float(np.sqrt(eta * (1.0 - eta) / trials))
    ns = np.arange(1, len(counts) + 1)
    rates = counts / duration
    corrected = rates / eta_detection ** ns
    return RateFit(Estimate(eta, se, int(counts.sum())),
                   tuple(int(n) for n in ns), tuple(rates),
                   tuple(corrected))


@dataclass(frozen=True)
class DecayFit:
    slope: Estimate            # decay per photon (positive = decaying)
    intercept: Estimate
    crossing: Estimate | None  # N where the line reaches 0.5


def decay_fit(n_values, estimates) -> DecayFit:
    """Weighted linear fit of a figure of merit against photon number.

    Fits value = intercept - slope * N with weights 1/stderr^2 and
    extrapolates the 50% crossing (intercept - 0.5)/slope; the crossing
    is None when the fitted slope is not positive.
    """
    ns = np.asarray(n_values, dtype=float)
    if len(ns) < 3:
        raise FitError("need at least 3 points for a decay fit")
    if len(np.unique(ns)) < 2:
        raise FitError("a decay fit needs at least 2 distinct photon numbers")
    x = np.vstack([np.ones_like(ns), -ns]).T
    coef, cov = _weighted_lsq(x, estimates)
    intercept, slope = float(coef[0]), float(coef[1])
    se_i, se_s = float(np.sqrt(cov[0, 0])), float(np.sqrt(cov[1, 1]))
    n_tot = sum(max(e.n_events, 1) for e in estimates)
    if slope <= 0.0:
        crossing = None
    else:
        cN = (intercept - 0.5) / slope
        grad = np.array([1.0 / slope, -(intercept - 0.5) / slope ** 2])
        # sign convention: d/d(coef1) includes the built-in minus via x
        var_c = float(grad @ cov @ grad)
        crossing = Estimate(float(cN), float(np.sqrt(max(var_c, 0.0))),
                            n_tot)
    return DecayFit(Estimate(slope, se_s, n_tot),
                    Estimate(intercept, se_i, n_tot), crossing)
