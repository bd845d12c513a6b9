"""Correctness checks of the benchmark, as pure functions of their inputs.

Every check compares program output against a computation made apart from
the engine (closed-form loss statistics, the exact operator-folding oracle
averaged over the field offset) or against a property the method must
have.  None compares against stored output.  Each returns
``(ok, detail)``.

Interval checks use K standard errors.  With K = 5 a correct program fails
one check in about 1.7 million, so the thousands of checks made in a set
of benchmark runs raise no false alarm in practice.
"""

from __future__ import annotations

import math

import numpy as np

K = 5.0
GH_ORDER = 13   # odd, so the node set includes delta = 0


def gh_nodes(b_sigma: float, order: int = GH_ORDER):
    """Gauss-Hermite nodes and weights for averaging over delta ~ N(0,
    b_sigma^2).  The weights sum to one."""
    x, w = np.polynomial.hermite_e.hermegauss(order)
    return b_sigma * x, w / w.sum()


def loss_only_yield(eta: float, n: int, max_first_attempts: int = 7) -> float:
    """Full-detection probability with loss as the only imperfection: a
    first photon within the attempt budget, then n - 1 detections."""
    return (1.0 - (1.0 - eta) ** max_first_attempts) * eta ** (n - 1)


def _binomial_sigma(p: float, n: float) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


# -- GHZ --------------------------------------------------------------------

def yield_below_loss_bound(events: int, shots: int, eta: float, n: int):
    """Leakage can only lower the full-detection yield below the loss-only
    value, so events/shots may exceed it by binomial noise alone."""
    p0 = loss_only_yield(eta, n)
    bound = p0 + K * _binomial_sigma(p0, shots)
    y = events / shots
    return y <= bound, f"yield {y:.3e} vs loss-only {p0:.3e} (+{K:g}sigma)"


def yield_matches_loss_only(events: int, shots: int, eta: float, n: int):
    """Without leaking channels the yield is the loss-only value."""
    p0 = loss_only_yield(eta, n)
    sigma = math.sqrt(shots * p0 * (1.0 - p0))
    ok = abs(events - shots * p0) <= K * sigma
    return ok, f"{events} events vs {shots * p0:.1f} expected"


def in_interval(est, lo: float, hi: float, name: str):
    """``est`` (value, stderr) lies in [lo, hi] within K standard errors."""
    v, se = est.value, est.stderr
    ok = lo - K * se <= v <= hi + K * se
    return ok, f"{name} = {v:.4f} +- {se:.4f}"


def probability_matches(value: float, n_events: int, expected: float,
                        name: str):
    """An event fraction against its exact probability; the binomial error
    is taken from the expected value."""
    tol = K * _binomial_sigma(expected, n_events) + 1e-9
    return (abs(value - expected) <= tol,
            f"{name} {value:.4f} vs oracle {expected:.4f} (n={n_events})")


def parity_matches(value: float, n_events: int, expected: float, name: str):
    """A mean of +-1 products against its exact expectation m; the error of
    one event is sqrt(1 - m^2)."""
    tol = K * math.sqrt(max(1.0 - expected ** 2, 0.0) / n_events) + 1e-9
    return (abs(value - expected) <= tol,
            f"{name} {value:+.4f} vs oracle {expected:+.4f} (n={n_events})")


# -- cluster records ----------------------------------------------------------

RECORD_COLUMNS = ("detected", "outcomes", "attempts", "deltas", "run_ids")


def records_equal(written, read):
    """Every written column comes back unchanged.  ``period`` is left out:
    the records header does not store it."""
    bad = [c for c in RECORD_COLUMNS
           if not np.array_equal(getattr(written, c), getattr(read, c))]
    if written.bases != read.bases:
        bad.insert(0, "bases")
    return not bad, ("all columns equal" if not bad
                     else f"columns differ: {', '.join(bad)}")


def all_exactly_one(values: dict):
    """Loss-only cluster data: every stabilizer window reads +1."""
    bad = {k: v for k, v in values.items() if v != 1.0}
    return not bad, ("all +1" if not bad else f"not +1: {bad}")


# -- rate counting ------------------------------------------------------------

def counts_binomial(counts, n_runs: int, eta: float):
    """count_k ~ Bin(n_runs, eta^k) for every coincidence order k."""
    counts = np.asarray(counts, dtype=float)
    p = eta ** np.arange(1, len(counts) + 1)
    z = (counts - n_runs * p) / np.sqrt(n_runs * p * (1.0 - p))
    worst = float(np.max(np.abs(z)))
    return worst <= K, f"worst count deviation {worst:.2f} sigma"


def eta_recovered(fit_eta, eta: float):
    ok = abs(fit_eta.value - eta) <= K * fit_eta.stderr
    return ok, f"fitted eta {fit_eta.value:.6f} +- {fit_eta.stderr:.6f}"


def top_rate_poisson(count: int, duration: float, period: float, eta: float,
                     n: int):
    """The n-fold rate per minute against 60*eta^n/period, Poisson error."""
    expected = duration / period * eta ** n
    ok = abs(count - expected) <= K * math.sqrt(expected)
    per_min = 60.0 * count / duration
    return ok, (f"{n}-fold {per_min:.4f}/min vs "
                f"{60.0 * eta ** n / period:.4f}/min")


# -- oracle identities --------------------------------------------------------

def exact(values, expected, name: str):
    """Values that the method fixes exactly, to rounding: the oracle at
    delta = 0 gives a GHZ parity of cos(N phi) and P_N = 1."""
    dev = float(np.max(np.abs(np.asarray(values) - np.asarray(expected))))
    return dev <= 1e-9, f"max |{name} - exact| {dev:.1e}"


# The benchmark's own code inside a traced round (seed derivation, row
# masks, reading the summary back, the checks) costs less than this.
BENCH_SHARE, BENCH_FLOOR_S = 0.02, 0.005


def trace_accounts(layer_self: dict, wall: float):
    """The program layers and the tracer's bookkeeping claim the traced
    wall time except for the benchmark's own code.  A program call that
    escapes the tracer is billed to ``bench`` and fails this check."""
    unclaimed = layer_self["bench"]
    allowed = BENCH_SHARE * wall + BENCH_FLOOR_S
    return unclaimed <= allowed, (
        f"unclaimed {unclaimed:.4f} s of traced wall {wall:.4f} s "
        f"(allowed {allowed:.4f} s)")
