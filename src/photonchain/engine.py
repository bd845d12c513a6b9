"""Monte-Carlo execution of pulse schedules with measure-on-emit.

Each photon is measured (or lost) immediately after its emission, so a
shot only ever carries the 8-component atomic state plus one transient
atom-photon pair.  This is statistically identical to measuring the full
N-photon state at the end, because emitted photons undergo no further
joint operations; the equivalence is enforced against the dense oracle by
the test suite.

Shots are independent and all randomness is addressed through the
counter-based streams in :mod:`photonchain.rng`, so results are
byte-identical for a given (config, noise, seed) regardless of batching.
Internally shots are evolved in vectorized blocks, one after another.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as crng
from .levels import PUMPED, MeasBasis, Sublevel, setting_plan
from .noise import NoiseConfig
from .schedule import (COHERENCE, DDSCAN, EmitOp, PrecessOp, ProtocolConfig,
                       PulseOp, PulseSchedule, PumpOp, ScatterOp,
                       build_schedule, compile_schedule, run_period)

_SCAT_A = Sublevel(2, 1).index
_SCAT_B = Sublevel(2, -1).index

CHUNK = 1 << 13
# p_emit <= |state|^2 <= (1 + 1e-9)^2 within the norm check's tolerance,
# so a detection uniform u >= eta (1 + LOSS_MARGIN) implies u >= eta p_emit:
# that photon is lost whatever the state, and abort_on_loss never evolves
# its shot
LOSS_MARGIN = 1e-6
RATE_TILE = 1 << 14          # runs per detection draw of rate_benchmark
PLAN_SEED_STRIDE = 1000003   # distinct stream block per basis plan


class NumericalIntegrityError(RuntimeError):
    """Internal norm drift beyond tolerance."""


@dataclass
class RecordBatch:
    """Column-wise shot records, one row per shot.

    The (shots, N) arrays that :func:`run_batch` returns are column-major
    (Fortran order), so a photon's column and a row reduction such as
    :attr:`full_detection` read contiguous memory.
    """

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

    @property
    def full_detection(self) -> np.ndarray:
        """(shots,) bool: the shots with every photon detected, the only
        ones a post-selected estimator keeps."""
        return self.detected.all(axis=1)

    def concat(self, other: "RecordBatch") -> "RecordBatch":
        if other.bases != self.bases:
            raise ValueError("cannot concatenate batches with different bases")
        if other.period != self.period:
            raise ValueError("cannot concatenate batches with different run "
                             f"periods ({self.period} s, {other.period} s)")
        return RecordBatch(
            self.bases,
            np.concatenate([self.detected, other.detected]),
            np.concatenate([self.outcomes, other.outcomes]),
            np.concatenate([self.attempts, other.attempts]),
            np.concatenate([self.deltas, other.deltas]),
            np.concatenate([self.run_ids, other.run_ids]),
            self.period,
        )


@dataclass(frozen=True, eq=False)
class _Emission:
    """An :class:`EmitOp` contracted with its slot's measurement basis.

    ``terms[b][i]`` lists the amplitude of outcome ``b`` (0: +, 1: -) on
    atomic level ``targets[i]`` as ``(source column, detected coefficient,
    lost coefficient)`` triples: the non-zero entries of ``vdom`` against
    the plan basis's +/- states (a detected photon) and the Z +/- states
    (an emitted but lost one).  An emission has at most two source
    columns and two target levels.
    """

    slot: int
    domain: np.ndarray
    targets: tuple
    terms: tuple

    def amplitudes(self, src: list, det: np.ndarray) -> list:
        """The unnormalised amplitudes ``[plus, minus]``, each a list over
        ``targets``, of shots whose source columns are ``src`` (one array
        per ``domain`` level) and whose photon was detected where ``det``
        holds."""
        return [[sum(src[k] * (c_det if c_det == c_lost
                               else np.where(det, c_det, c_lost))
                     for k, c_det, c_lost in target_terms)
                 for target_terms in branch]
                for branch in self.terms]


def _emission(op: EmitOp, basis: MeasBasis) -> _Emission:
    joint = op.vdom.reshape(8, 2, -1)        # (atom, photon, source)
    targets = tuple(int(t) for t in np.flatnonzero(joint.any(axis=(1, 2))))
    z = MeasBasis.z()
    terms = []
    for det, lost in ((basis.plus_state(), z.plus_state()),
                      (basis.minus_state(), z.minus_state())):
        c_det = np.einsum("tpk,p->tk", joint, det.conj())
        c_lost = np.einsum("tpk,p->tk", joint, lost.conj())
        terms.append(tuple(
            tuple((k, c_det[t, k], c_lost[t, k])
                  for k in range(joint.shape[2])
                  if c_det[t, k] != 0 or c_lost[t, k] != 0)
            for t in targets))
    return _Emission(op.slot, op.domain, targets, tuple(terms))


def _abs2(x):
    return x.real * x.real + x.imag * x.imag


def _occupancy(ops: tuple) -> list:
    """``occ[i]``: the levels a shot's state can occupy when op ``i``
    starts (``occ[len(ops)]``: after the last op).

    A pump leaves {F=2, mF=0}, a pulse on (a, b) adds both levels when
    either is occupied, a scatter point adds the two scatter levels and an
    emission leaves its targets plus the occupied levels outside its
    domain.  Every other level holds an exact zero, so no op touches it.
    """
    occ = [frozenset()]
    for op in ops:
        levels = occ[-1]
        if isinstance(op, PumpOp):
            levels = frozenset((PUMPED,))
        elif isinstance(op, PulseOp):
            for ia, ib, *_ in op.pulses:
                if ia in levels or ib in levels:
                    levels = levels | {ia, ib}
        elif isinstance(op, ScatterOp):
            levels = levels | {_SCAT_A, _SCAT_B}
        elif isinstance(op, _Emission):
            levels = frozenset(op.targets) | levels.difference(op.domain)
        occ.append(levels)
    return occ


def _precess(amps: np.ndarray, op: PrecessOp, levels, offsets: np.ndarray,
             cache: dict) -> None:
    """Multiply the rows of ``amps`` named by ``levels`` (entries of
    ``op.levels``) by their Larmor factors, bit for bit the entries of
    ``op.phases(offsets)``.

    ``cache`` holds the exponentials already taken for these shots and
    offsets, one per (magnitude, frame), so a level pair at +/-r and
    every window with the same magnitude share one.
    """
    for level, col, neg in levels:
        key = (op.mags[col], op.lab_frame)
        e = cache.get(key)
        if e is None:
            scale = 1.0 + offsets if op.lab_frame else offsets
            e = cache[key] = np.exp(-1j * (scale * op.mags[col]))
        amps[level] *= e.conj() if neg else e


def _evolve(ops: tuple, touch: tuple, n_att: int, noise: NoiseConfig,
            seed: int, out: RecordBatch, a: int, b: int,
            abort_on_loss: bool):
    """Evolve the shots of rows ``a .. b-1`` of ``out``, write their
    records into those rows and yield ``(i, cur, amps)`` after each op
    ``i``: the chunk rows still evolving and their (8, shots) state.

    ``ops`` is the compiled schedule with each emission contracted with
    its slot's basis (:func:`_emission`) and ``touch`` the levels each op
    reads (:func:`_compile`).  The state is level-major, so each level's
    amplitudes are contiguous, and only the occupied levels are touched:
    a precession multiplies the occupied levels with a non-zero rate (a
    window with none is not run), and an emission evaluates the non-zero
    entries of ``vdom`` on its source rows, collapses and renormalises
    over its target rows and writes them, and the not-emitted remainder,
    into a zeroed state.

    With ``abort_on_loss`` the shots are screened before any state is
    evolved: slot k's detection uniforms (k = 1 .. N-1) are drawn for the
    shots that passed slots 1 .. k-1, and a shot is kept only if every
    one lies below ``eta (1 + LOSS_MARGIN)``; any other shot loses some
    photon whatever its state.  Each emission reads the kept shots'
    uniforms of its slot and drops the shots whose photon it does not
    detect.  A screened-out or dropped shot's cells keep their zeros from
    where it stopped, so only full-detection rows are complete.  A shot
    whose emission probability is not finite is never dropped: the
    evolution ends at that emission, and its last yield holds only those
    shots and their state as they reached it.
    """
    shots = out.run_ids[a:b].astype(np.uint64)
    detected, outcomes = out.detected[a:b], out.outcomes[a:b]
    deltas = out.deltas[a:b]
    eta = noise.eta

    # first-photon retries: attempt j only for the shots that missed 0..j-1
    out.attempts[a:b] = n_att
    miss = np.arange(b - a)
    for j in range(n_att):
        u = crng.uniform(seed, shots[miss], crng.FIRST_ATTEMPT_BASE + j)
        hit = u < eta
        out.attempts[a + miss[hit]] = j + 1
        miss = miss[~hit]

    # the recorded offset: the quasi-static sample, or the cycle-0 one
    per_cycle = noise.b_sigma > 0.0 and noise.b_model == "per-cycle"
    if noise.b_sigma > 0.0:
        deltas[:] = noise.b_sigma * crng.normal(
            seed, shots, crng.slot_draw(0, crng.SLOT_FIELD) if per_cycle
            else crng.FIELD_DRAW)

    # void shots (no first photon in n_att attempts) never enter the
    # cycling stage; drop them from state evolution right away
    cur = np.setdiff1d(np.arange(b - a), miss, assume_unique=True)
    if abort_on_loss:
        # u_det[k - 1]: the slot-k detection uniforms of the shots in cur,
        # drawn for the shots that may still detect photons 1 .. k - 1
        u_det = np.empty((0, len(cur)))
        for k in range(1, detected.shape[1]):
            u = crng.uniform(seed, shots[cur],
                             crng.slot_draw(k, crng.SLOT_DETECT))
            live = np.flatnonzero(u < eta * (1.0 + LOSS_MARGIN))
            cur, u_det = cur[live], np.vstack((u_det[:, live], u[live]))
    amps = np.zeros((8, len(cur)), dtype=complex)

    # the active shots' field offsets (of the current cycle under
    # per-cycle noise) and the exponentials taken for them, kept until a
    # new cycle's sample or an abort_on_loss emission replaces the shots
    cycle, offsets, store = 0, deltas[cur], {}

    for i, op in enumerate(ops):
        if len(cur) == 0:
            return
        if isinstance(op, PrecessOp):
            # without a field offset the co-rotating frame has no phase
            if touch[i] and (op.lab_frame or noise.b_sigma > 0.0):
                if per_cycle and op.cycle != cycle:
                    # a past cycle's sample never comes back
                    cycle, store = op.cycle, {}
                    offsets = noise.b_sigma * crng.normal(
                        seed, shots[cur], crng.slot_draw(cycle,
                                                         crng.SLOT_FIELD))
                _precess(amps, op, touch[i], offsets, store)

        elif isinstance(op, PumpOp):
            amps[:] = 0.0
            amps[PUMPED] = 1.0

        elif isinstance(op, PulseOp):
            for (ia, ib, theta, phase, draw) in op.pulses:
                if noise.raman_sigma > 0.0:
                    theta = theta + noise.raman_sigma * crng.normal(
                        seed, shots[cur], draw)
                c = np.cos(theta / 2.0)
                s = -1j * np.sin(theta / 2.0)
                ep = np.exp(1j * phase)
                va = amps[ia].copy()
                vb = amps[ib]
                amps[ia] = c * va + s * np.conj(ep) * vb
                amps[ib] = s * ep * va + c * vb

        elif isinstance(op, ScatterOp):
            if noise.closing_scatter_p > 0.0:
                u = crng.uniform(seed, shots[cur], crng.SCATTER_DECISION)
                hit = np.flatnonzero(u < noise.closing_scatter_p)
                if len(hit):
                    u1 = crng.uniform(seed, shots[cur[hit]], crng.SCATTER_POP)
                    u2 = crng.uniform(seed, shots[cur[hit]],
                                      crng.SCATTER_PHASE)
                    amps[:, hit] = 0.0
                    amps[_SCAT_A, hit] = np.sqrt(u1)
                    amps[_SCAT_B, hit] = (np.sqrt(1.0 - u1)
                                          * np.exp(2j * np.pi * u2))

        elif isinstance(op, _Emission):
            slot = op.slot
            src = [amps[k] for k in op.domain]
            p_emit = sum(_abs2(row) for row in src)
            if abort_on_loss and not np.isfinite(p_emit.sum()):
                # a NaN p_emit reads as a lost photon, and a lost shot
                # would leave unchecked: end here with the broken shots,
                # so the norm check sees them
                bad = np.flatnonzero(~np.isfinite(p_emit))
                yield i, cur[bad], amps[:, bad]
                return

            if slot == 0:
                det = emitted = np.ones(len(cur), dtype=bool)
            else:
                u = u_det[slot - 1] if abort_on_loss else crng.uniform(
                    seed, shots[cur], crng.slot_draw(slot, crng.SLOT_DETECT))
                det = u < p_emit * eta
                emitted = u < p_emit
            u_o = crng.uniform(seed, shots[cur],
                               crng.slot_draw(slot, crng.SLOT_OUTCOME))

            # a detected photon collapses in the plan basis (vdom already
            # carries the slot's measurement frame), an emitted but lost
            # one in Z
            branches = op.amplitudes(src, det)
            plus = u_o * p_emit < sum(_abs2(amp) for amp in branches[0])
            chosen = [np.where(plus, ap, am) for ap, am in zip(*branches)]
            nrm = np.sqrt(sum(_abs2(amp) for amp in chosen))
            nrm = np.where(nrm > 0, nrm, 1.0)

            detected[cur, slot] = det
            outcomes[cur, slot] = np.where(det, np.where(plus, 1, -1), 0)

            if abort_on_loss:
                # keep the detected shots (a kept shot was emitted, so no
                # remainder is kept)
                keep = np.flatnonzero(det)
                cur, offsets, store = cur[keep], offsets[keep], {}
                u_det = u_det[:, keep]
                chosen, nrm = [amp[keep] for amp in chosen], nrm[keep]

            new = np.zeros((8, len(cur)), dtype=complex)
            for t, amp in zip(op.targets, chosen):
                new[t] = amp / nrm

            # not emitted: the out-of-domain remainder, renormalised
            stay = np.flatnonzero(~emitted) if not abort_on_loss else ()
            if len(stay):
                den = np.sqrt(np.maximum(1.0 - p_emit[stay], 1e-300))
                for t in op.targets:
                    new[t, stay] = 0.0
                for level in touch[i]:
                    new[level, stay] = amps[level, stay] / den
            amps = new

        yield i, cur, amps


def _compile(sched: PulseSchedule, basis_plan, flip_f2_sign: bool):
    """The ops the engine runs, each emission contracted with its slot's
    basis, and the levels each op touches, from their :func:`_occupancy`:
    a precession's occupied levels with a non-zero rate (entries of
    ``op.levels``), an emission's occupied levels outside its domain (the
    not-emitted remainder), and nothing for any other op."""
    ops = tuple(_emission(op, basis_plan[op.slot]) if isinstance(op, EmitOp)
                else op for op in compile_schedule(sched, flip_f2_sign))
    touch = tuple(
        tuple(lv for lv in op.levels if lv[0] in occ)
        if isinstance(op, PrecessOp) else
        tuple(sorted(occ.difference(op.domain.tolist())))
        if isinstance(op, _Emission) else ()
        for op, occ in zip(ops, _occupancy(ops)))
    return ops, touch


_OP_KINDS = {PrecessOp: "precess", PumpOp: "pump", PulseOp: "pulse",
             ScatterOp: "scatter", _Emission: "emit"}


def _simulate_chunk(ops: tuple, touch: tuple, n_att: int, noise: NoiseConfig,
                    seed: int, out: RecordBatch, a: int, b: int,
                    abort_on_loss: bool) -> None:
    """Run :func:`_evolve` over rows ``a .. b-1`` of ``out`` and check the
    norm of every shot still evolving at the end.

    A drifted norm replays the worst shot alone with a norm check after
    each op, and the error names the first op that broke it.
    """
    cur = ()
    for _, cur, amps in _evolve(ops, touch, n_att, noise, seed, out, a, b,
                                abort_on_loss):
        pass
    if not len(cur):
        return
    drift = np.abs(np.linalg.norm(amps, axis=0) - 1.0)
    if np.all(drift <= 1e-9):    # a NaN norm fails too
        return
    worst = np.argmax(drift)    # the first NaN, if any
    row = a + cur[worst]
    msg = (f"state norm drifted by {drift[worst]} (seed {seed}, run "
           f"{out.run_ids[row]})")
    for i, _, amps in _evolve(ops, touch, n_att, noise, seed, out, row,
                              row + 1, abort_on_loss):
        if not abs(np.linalg.norm(amps) - 1.0) <= 1e-9:
            op = ops[i]
            where = (f"slot {op.slot}" if isinstance(op, _Emission) else
                     "cycle " + str(sum(isinstance(o, _Emission)
                                        for o in ops[:i])))
            msg += f" after op {i} ({_OP_KINDS[type(op)]}, {where})"
            break
    raise NumericalIntegrityError(msg)


def _run_range(cfg, noise: NoiseConfig, basis_plan, seed: int, lo: int,
               hi: int, abort_on_loss: bool,
               flip_f2_sign: bool) -> RecordBatch:
    """The records of shots ``lo .. hi-1``: one batch, preallocated and
    filled in place chunk by chunk (at criterion-scale shot counts, tens
    of millions, batches per chunk would transiently hold two copies)."""
    sched = cfg if isinstance(cfg, PulseSchedule) else build_schedule(cfg)
    n = sched.n_photons
    if len(basis_plan) != n:
        raise ValueError(
            f"basis plan has {len(basis_plan)} entries for {n} photons")
    if hi <= lo:
        raise ValueError("shots must be >= 1")
    n_att = sched.max_first_attempts
    if n_att > crng.FIELD_DRAW:
        raise ValueError("max_first_attempts exceeds the reserved draw block")
    ops, touch = _compile(sched, basis_plan, flip_f2_sign)
    size = hi - lo
    try:
        out = RecordBatch(tuple(basis_plan),
                          np.zeros((size, n), dtype=bool, order="F"),
                          np.zeros((size, n), dtype=np.int8, order="F"),
                          np.empty(size, dtype=np.int16), np.zeros(size),
                          np.arange(lo, hi, dtype=np.int64), run_period(sched))
    except MemoryError as exc:
        raise ValueError(f"records of {size} shots x {n} photons do not fit "
                         "in memory") from exc

    # the detection screen leaves an abort_on_loss chunk about
    # eta^(N-1) of its shots to evolve, so its per-op overhead, not its
    # memory, sets its size
    chunk = CHUNK * 4 if abort_on_loss else CHUNK
    for a in range(0, size, chunk):
        _simulate_chunk(ops, touch, n_att, noise, seed, out, a,
                        min(a + chunk, size), abort_on_loss)
    return out


def run_batch(cfg, noise: NoiseConfig, basis_plan, shots: int, seed: int,
              abort_on_loss: bool = False,
              flip_f2_sign: bool = True) -> RecordBatch:
    """Simulate ``shots`` independent runs of the protocol.

    ``cfg`` may be a :class:`ProtocolConfig` or a prebuilt
    :class:`PulseSchedule`.  With ``abort_on_loss`` only the shots that
    can detect every photon are evolved: a shot whose detection draw of
    any slot rules that photon out is never evolved and its row stays
    empty, and any other shot stops at its first undetected photon, its
    later slots unmeasured.  Full-detection rows, ``attempts`` and
    ``deltas`` equal those without it, so it is valid whenever the
    downstream analysis post-selects on full detection.  ``detected`` and
    ``outcomes`` are column-major.
    """
    return _run_range(cfg, noise, basis_plan, seed, 0, shots, abort_on_loss,
                      flip_f2_sign)


def run_shot(schedule, noise: NoiseConfig, bases, seed: int,
             shot_index: int = 0) -> RecordBatch:
    """Single shot, drawn from the stream (seed, shot_index), as a one-row
    batch equal to row ``shot_index`` of :func:`run_batch`."""
    return _run_range(schedule, noise, bases, seed, shot_index,
                      shot_index + 1, False, True)


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
    """Coincidence counting: one run per :func:`schedule.run_period` (the
    repetition period, or the schedule plus overhead when that is
    longer), each making ``cfg.n_photons`` consecutive generation
    attempts; an N-fold coincidence needs photons 1..N all detected
    starting from the first attempt.

    Detection is independent of the measured polarizations, so this path
    samples detection only, from one uniform per run, its slot-0
    detection draw u: photons 1..k are all detected exactly when
    u < eta^k, which has probability eta^k, as for k Bernoulli(eta)
    trials.  Runs are drawn ``RATE_TILE`` at a time, so each draw stays
    cache-sized; draws are addressed by (seed, run, draw), so the
    counts do not depend on the tile size.
    """
    if cfg.kind != "rate":
        raise ValueError("rate_benchmark needs a RateBenchmark config")
    period = run_period(build_schedule(cfg))
    runs = duration / period
    # run ids address the counter streams, so they must fit in [0, 2^63)
    if not 1.0 <= runs < 2.0 ** 63:
        raise ValueError(f"duration {duration} s is {runs} run periods; "
                         "the run count must lie in [1, 2^63)")
    n_runs = int(runs)
    n = cfg.n_photons
    counts = np.zeros(n, dtype=np.int64)
    bounds = noise.eta ** np.arange(1, n + 1)
    d0 = crng.slot_draw(0, crng.SLOT_DETECT)
    for lo in range(0, n_runs, RATE_TILE):
        u = crng.uniform(seed, np.arange(lo, min(lo + RATE_TILE, n_runs),
                                         dtype=np.uint64), d0)
        for k in range(n):
            # a count over the whole tile is cheaper than thinning u
            hits = np.count_nonzero(u < bounds[k])
            if hits == 0:
                break
            counts[k] += hits
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
    batch = run_batch(cfg, noise, setting_plan("x", 2), shots, seed,
                      abort_on_loss=True)
    o = batch.outcomes[batch.full_detection]
    n_ev = len(o)
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
    plans = [setting_plan("equator", n, phi) for phi in phis]
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
