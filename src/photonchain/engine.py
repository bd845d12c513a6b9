"""Monte-Carlo execution of pulse schedules with measure-on-emit.

Each photon is measured (or lost) immediately after its emission, so a
shot only ever carries the 8-component atomic state plus one transient
atom-photon pair.  This is statistically identical to measuring the full
N-photon state at the end, because emitted photons undergo no further
joint operations; the equivalence is enforced against the dense oracle by
the test suite.

Shots are independent and all randomness is addressed through the
counter-based streams in :mod:`photonchain.rng`, so results are
byte-identical for a given (config, noise, seed) regardless of batching
or thread count.  Internally shots are evolved in vectorized blocks.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng as crng
from .levels import PUMPED, MeasBasis, Sublevel
from .noise import NoiseConfig
from .schedule import (COHERENCE, DDSCAN, EmitOp, PrecessOp, ProtocolConfig,
                       PulseOp, PulseSchedule, PumpOp, ScatterOp,
                       build_schedule, compile_schedule, run_period)

_SCAT_A = Sublevel(2, 1).index
_SCAT_B = Sublevel(2, -1).index

CHUNK = 1 << 15
PLAN_SEED_STRIDE = 1000003   # distinct stream block per basis plan


class NumericalIntegrityError(RuntimeError):
    """Internal norm drift beyond tolerance."""


@dataclass
class RecordBatch:
    """Column-wise shot records, one row per shot."""

    bases: tuple[MeasBasis, ...]
    detected: np.ndarray    # (shots, N) bool
    outcomes: np.ndarray    # (shots, N) int8; 0 marks "no outcome"
    attempts: np.ndarray    # (shots,) int16
    deltas: np.ndarray      # (shots,) float
    run_ids: np.ndarray     # (shots,) int64
    period: float           # wall-clock period of one run

    @property
    def n_shots(self) -> int:
        return self.detected.shape[0]

    @property
    def n_photons(self) -> int:
        return self.detected.shape[1]

    def concat(self, other: "RecordBatch") -> "RecordBatch":
        if other.bases != self.bases:
            raise ValueError("cannot concatenate batches with different bases")
        return RecordBatch(
            self.bases,
            np.concatenate([self.detected, other.detected]),
            np.concatenate([self.outcomes, other.outcomes]),
            np.concatenate([self.attempts, other.attempts]),
            np.concatenate([self.deltas, other.deltas]),
            np.concatenate([self.run_ids, other.run_ids]),
            self.period,
        )


def _field_deltas(noise, seed, shots):
    """Per-shot quasi-static field offsets (None in other modes)."""
    if noise.b_sigma == 0.0 or noise.b_model != "quasi-static":
        return None
    return noise.b_sigma * crng.normal(seed, shots, crng.FIELD_DRAW)


def _simulate_chunk(sched: PulseSchedule, ops: tuple, noise: NoiseConfig,
                    bases, seed: int, lo: int, hi: int,
                    abort_on_loss: bool) -> RecordBatch:
    shots = np.arange(lo, hi, dtype=np.uint64)
    size = hi - lo
    n = sched.n_photons
    eta = noise.eta

    detected = np.zeros((size, n), dtype=bool)
    outcomes = np.zeros((size, n), dtype=np.int8)

    # first-photon retry loop, truncated at max_first_attempts
    n_att = sched.max_first_attempts
    if n_att > crng.FIELD_DRAW:
        raise ValueError("max_first_attempts exceeds the reserved draw block")
    att_u = np.stack([crng.uniform(seed, shots, crng.FIRST_ATTEMPT_BASE + j)
                      for j in range(n_att)], axis=1)
    att_hit = att_u < eta
    any_hit = att_hit.any(axis=1)
    attempts = np.where(any_hit, att_hit.argmax(axis=1) + 1, n_att)
    attempts = attempts.astype(np.int16)

    per_cycle = noise.b_sigma > 0.0 and noise.b_model == "per-cycle"
    delta_static = _field_deltas(noise, seed, shots)
    if delta_static is not None:
        deltas_out = delta_static
    elif per_cycle:
        deltas_out = noise.b_sigma * crng.normal(
            seed, shots, crng.slot_draw(0, crng.SLOT_FIELD))
    else:
        deltas_out = np.zeros(size)

    # void shots (no first photon in n_att attempts) never enter the
    # cycling stage; drop them from state evolution right away
    cur = np.flatnonzero(any_hit)
    amps = np.zeros((len(cur), 8), dtype=complex)

    def cur_shots():
        return shots[cur]

    def cur_delta(cycle):
        # per-cycle draws are counter-addressed, so they can be generated
        # lazily for just the still-active shots
        if per_cycle:
            return noise.b_sigma * crng.normal(
                seed, shots[cur], crng.slot_draw(cycle, crng.SLOT_FIELD))
        if delta_static is not None:
            return delta_static[cur]
        return None

    for op in ops:
        if len(cur) == 0:
            break
        if isinstance(op, PrecessOp):
            d = cur_delta(op.cycle)
            # without a field offset the co-rotating frame has no phase
            if op.lab_frame or d is not None:
                amps *= op.phases(np.zeros(len(cur)) if d is None else d)

        elif isinstance(op, PumpOp):
            amps[:] = 0.0
            amps[:, PUMPED] = 1.0

        elif isinstance(op, PulseOp):
            for (ia, ib, theta, phase, draw) in op.pulses:
                if noise.raman_sigma > 0.0:
                    th = theta + noise.raman_sigma * crng.normal(
                        seed, cur_shots(), draw)
                    c = np.cos(th / 2.0)
                    s = -1j * np.sin(th / 2.0)
                else:
                    c = np.cos(theta / 2.0)
                    s = -1j * np.sin(theta / 2.0)
                ep = np.exp(1j * phase)
                va = amps[:, ia].copy()
                vb = amps[:, ib]
                amps[:, ia] = c * va + s * np.conj(ep) * vb
                amps[:, ib] = s * ep * va + c * vb

        elif isinstance(op, ScatterOp):
            if noise.closing_scatter_p > 0.0:
                u = crng.uniform(seed, cur_shots(), crng.SCATTER_DECISION)
                hit = u < noise.closing_scatter_p
                if np.any(hit):
                    u1 = crng.uniform(seed, cur_shots()[hit], crng.SCATTER_POP)
                    u2 = crng.uniform(seed, cur_shots()[hit],
                                      crng.SCATTER_PHASE)
                    amps[hit] = 0.0
                    amps[hit, _SCAT_A] = np.sqrt(u1)
                    amps[hit, _SCAT_B] = (np.sqrt(1.0 - u1)
                                          * np.exp(2j * np.pi * u2))

        elif isinstance(op, EmitOp):
            slot = op.slot
            dom = op.domain
            sub = amps[:, dom]
            p_emit = np.sum(np.abs(sub) ** 2, axis=1)
            joint = (sub @ op.vdom.T).reshape(-1, 8, 2)

            if slot == 0:
                det = np.ones(len(cur), dtype=bool)
                emitted = det
            else:
                u = crng.uniform(seed, cur_shots(),
                                 crng.slot_draw(slot, crng.SLOT_DETECT))
                det = u < p_emit * eta
                emitted = u < p_emit

            u_o = crng.uniform(seed, cur_shots(),
                               crng.slot_draw(slot, crng.SLOT_OUTCOME))

            # collapse in the plan basis (detected shots); the joint state
            # already carries the slot's measurement frame
            bp = bases[slot].plus_state().conj()
            bm = bases[slot].minus_state().conj()
            a_plus = joint @ bp
            a_minus = joint @ bm
            p_plus = np.sum(np.abs(a_plus) ** 2, axis=1)
            take_plus = u_o * p_emit < p_plus

            # fictitious Z collapse (emitted but lost shots)
            pz = np.sum(np.abs(joint[:, :, 0]) ** 2, axis=1)
            take_r = u_o * p_emit < pz

            branch_plus = np.where(det[:, None], a_plus, joint[:, :, 0])
            branch_minus = np.where(det[:, None], a_minus, joint[:, :, 1])
            sel_plus = np.where(det, take_plus, take_r)

            chosen = np.where(sel_plus[:, None], branch_plus, branch_minus)
            nrm = np.linalg.norm(chosen, axis=1)
            collapsed = chosen / np.where(nrm > 0, nrm, 1.0)[:, None]

            # not emitted: project onto the out-of-domain remainder
            if np.any(~emitted):
                res = amps.copy()
                res[:, dom] = 0.0
                rn = np.sqrt(np.maximum(1.0 - p_emit, 1e-300))
                res = res / rn[:, None]
                new_amps = np.where(emitted[:, None], collapsed, res)
            else:
                new_amps = collapsed
            amps = new_amps

            detected[cur, slot] = det
            sign = np.where(sel_plus, 1, -1).astype(np.int8)
            outcomes[cur, slot] = np.where(det, sign, 0)

            if abort_on_loss:
                keep = det
                cur = cur[keep]
                amps = amps[keep]

    if len(cur):
        norms = np.linalg.norm(amps, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise NumericalIntegrityError(
                f"state norm drifted to {norms[np.argmax(np.abs(norms-1))]}")

    return RecordBatch(
        bases=tuple(bases),
        detected=detected,
        outcomes=outcomes,
        attempts=attempts,
        deltas=deltas_out,
        run_ids=np.arange(lo, hi, dtype=np.int64),
        period=run_period(sched),
    )


def run_batch(cfg, noise: NoiseConfig, basis_plan, shots: int, seed: int,
              threads: int = 1, abort_on_loss: bool = False,
              flip_f2_sign: bool = True) -> RecordBatch:
    """Simulate ``shots`` independent runs of the protocol.

    ``cfg`` may be a :class:`ProtocolConfig` or a prebuilt
    :class:`PulseSchedule`.  With ``abort_on_loss`` a shot stops evolving
    at its first undetected photon (valid whenever the downstream analysis
    post-selects on full detection; later slots stay unmeasured).
    """
    sched = cfg if isinstance(cfg, PulseSchedule) else build_schedule(cfg)
    if len(basis_plan) != sched.n_photons:
        raise ValueError(
            f"basis plan has {len(basis_plan)} entries for "
            f"{sched.n_photons} photons")
    if shots < 1:
        raise ValueError("shots must be >= 1")
    ops = compile_schedule(sched, flip_f2_sign)
    ranges = [(lo, min(lo + CHUNK, shots)) for lo in range(0, shots, CHUNK)]

    # preallocate the full batch and let each chunk fill its slice: at
    # criterion-scale shot counts (tens of millions), accumulating chunk
    # batches and concatenating would transiently hold several copies
    n = sched.n_photons
    detected = np.empty((shots, n), dtype=bool)
    outcomes = np.empty((shots, n), dtype=np.int8)
    attempts = np.empty(shots, dtype=np.int16)
    deltas = np.empty(shots, dtype=np.float64)
    run_ids = np.empty(shots, dtype=np.int64)

    def work(rg):
        lo, hi = rg
        c = _simulate_chunk(sched, ops, noise, basis_plan, seed, lo, hi,
                            abort_on_loss)
        detected[lo:hi] = c.detected
        outcomes[lo:hi] = c.outcomes
        attempts[lo:hi] = c.attempts
        deltas[lo:hi] = c.deltas
        run_ids[lo:hi] = c.run_ids
        return c.bases, c.period

    if threads > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            meta = list(ex.map(work, ranges))
    else:
        meta = [work(rg) for rg in ranges]

    bases, period = meta[0]
    return RecordBatch(bases, detected, outcomes, attempts, deltas,
                       run_ids, period)


def run_shot(schedule, noise: NoiseConfig, bases, seed: int,
             shot_index: int = 0) -> RecordBatch:
    """Single shot, drawn from the stream (seed, shot_index), as a one-row
    batch equal to row ``shot_index`` of :func:`run_batch`."""
    sched = schedule if isinstance(schedule, PulseSchedule) \
        else build_schedule(schedule)
    return _simulate_chunk(sched, compile_schedule(sched), noise, bases,
                           seed, shot_index, shot_index + 1, False)


def run_plans(cfg, noise: NoiseConfig, plans, shots: int, seed: int,
              **run_batch_kwargs):
    """Yield one :func:`run_batch` of ``shots`` per basis plan, plan ``i``
    drawn from the seed ``seed + i * PLAN_SEED_STRIDE``; the keywords go
    to every :func:`run_batch` call."""
    for i, plan in enumerate(plans):
        yield run_batch(cfg, noise, plan, shots, seed + i * PLAN_SEED_STRIDE,
                        **run_batch_kwargs)


# ---------------------------------------------------------------------------
# benchmark and coherence probes

@dataclass
class RateResult:
    counts: np.ndarray       # coincidences for N = 1 .. n_photons
    n_runs: int
    duration: float          # total simulated wall-clock time, s
    period: float

    @property
    def rates(self) -> np.ndarray:
        """Coincidence rates in events per second."""
        return self.counts / self.duration


def rate_benchmark(cfg: ProtocolConfig, noise: NoiseConfig, duration: float,
                   seed: int) -> RateResult:
    """Coincidence counting: runs every repetition period, each making
    ``cfg.n_photons`` consecutive generation attempts; an N-fold
    coincidence needs photons 1..N all detected starting from the first
    attempt.

    Detection is independent of the measured polarizations, so this path
    samples only the detection Bernoulli chain.
    """
    if cfg.kind != "rate":
        raise ValueError("rate_benchmark needs a RateBenchmark config")
    period = cfg.repetition_period
    n_runs = int(duration / period)
    if n_runs < 1:
        raise ValueError("duration shorter than one repetition period")
    eta = noise.eta
    counts = np.zeros(cfg.n_photons, dtype=np.int64)
    for lo in range(0, n_runs, CHUNK * 4):
        hi = min(lo + CHUNK * 4, n_runs)
        runs = np.arange(lo, hi, dtype=np.uint64)
        alive = np.ones(hi - lo, dtype=bool)
        for k in range(cfg.n_photons):
            u = crng.uniform(seed, runs, crng.slot_draw(k, crng.SLOT_DETECT))
            alive &= u < eta
            counts[k] += int(np.count_nonzero(alive))
    return RateResult(counts, n_runs, n_runs * period, period)


def coherence_probe(delay: float, noise: NoiseConfig, shots: int, seed: int):
    """Two-photon overlap probe of the idle qubit coherence.

    Photon 1 is measured in the linear basis, the atom precesses for
    ``delay`` under field noise, the qubit is mapped onto photon 2 and
    measured in the same basis.  Returns ``(p_match, stderr, n_events)``.
    """
    if delay < 0:
        raise ValueError("delay must be non-negative")
    cfg = ProtocolConfig(COHERENCE, 2, probe_delay=delay)
    bases = [MeasBasis.x(), MeasBasis.x()]
    batch = run_batch(cfg, noise, bases, shots, seed, abort_on_loss=True)
    full = batch.detected.all(axis=1)
    o = batch.outcomes[full]
    n_ev = int(full.sum())
    if n_ev == 0:
        return float("nan"), float("nan"), 0
    match = o[:, 0] == o[:, 1]
    p = match.mean()
    return float(p), float(np.sqrt(max(p * (1 - p), 0.0) / n_ev)), n_ev


def parity_visibility_run(cfg, noise: NoiseConfig, shots: int, seed: int,
                          **run_batch_kwargs):
    """Measure the parity curve over a 25-angle equator grid in [0, pi]
    and fit its visibility.  Shots are split evenly over the grid; grid
    point i is plan i of :func:`run_plans`, and the other keywords go to
    :func:`run_batch`."""
    from .analysis import ParityCurve, fit_coherence, parity

    n = cfg.n_photons
    phis = np.linspace(0.0, np.pi, 25)
    plans = [[MeasBasis.equator(phi)] * n for phi in phis]
    batches = run_plans(cfg, noise, plans, max(shots // len(plans), 1), seed,
                        abort_on_loss=True, **run_batch_kwargs)
    # reduce each grid point as it arrives: at criterion-scale shot
    # counts, holding all 25 record batches at once is GB-scale
    pts = [(float(phi), parity(batch, float(phi)))
           for phi, batch in zip(phis, batches)]
    return fit_coherence(ParityCurve(tuple(pts)), n)


def dd_scan(tau_values, noise: NoiseConfig, shots: int, seed: int,
            **run_batch_kwargs):
    """Parity visibility of a stretched-cycle 6-photon GHZ state versus
    the transfer-to-emission delay tau; scan point j is a
    :func:`parity_visibility_run` at ``seed + 31 j PLAN_SEED_STRIDE``.
    Returns [(tau, visibility Estimate)].
    """
    return [(float(tau), parity_visibility_run(
        ProtocolConfig(DDSCAN, 6, dd_tau=float(tau)), noise, shots,
        seed + 31 * j * PLAN_SEED_STRIDE, **run_batch_kwargs).amplitude)
        for j, tau in enumerate(tau_values)]
