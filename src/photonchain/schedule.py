"""Protocol recipes, their timed pulse schedules and the compiled op list.

A schedule is an ordered list of steps.  Each step has a duration and an
action applied at the *end* of its time window: the atom precesses for the
step duration first, then the pulses / emission fire instantaneously.  The
two hyperfine-transfer pi pulses of a cycle are grouped into one step, so
during the transfer window the qubit still precesses at its pre-transfer
rate on both branches.  This precess-then-fire convention is what fixes
the dwell-time bookkeeping behind the built-in spin echo.

Precession within a schedule is evaluated in the frame co-rotating with
the deterministic Zeeman evolution (the Raman drives and the detection
phases are locked to the nominal splittings), so only the fractional
field offset delta contributes phase.  A step may opt out with
``lab_frame=True`` -- used for the coherence probe's variable delay,
which is deliberately uncompensated and therefore shows the bare Larmor
oscillation.

Timing follows the experimental sequence: a photon production cycle is

    [rotation program] [slack wait] [transfer to F=2, 42 us] [vSTIRAP]

padded by the slack wait to the stated cycle totals (50 us GHZ, 200 us
cluster, 300 us for the stretched dynamical-decoupling scan, where the
scan delay tau is inserted between transfer and vSTIRAP).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import rng as crng
from .levels import (OMEGA_L, InvalidPulseError, Sublevel, emission_map,
                     precession_coefficients)

GHZ = "ghz"
CLUSTER = "cluster"
CUSTOM = "custom"
RATE = "rate"
COHERENCE = "coherence"
DDSCAN = "ddscan"

KINDS = (GHZ, CLUSTER, CUSTOM, RATE, COHERENCE, DDSCAN)


class ScheduleError(ValueError):
    """Inconsistent timing table or recipe."""


@dataclass(frozen=True)
class TimingTable:
    """Pulse durations in seconds.  Defaults are the experimental values."""

    pump: float = 5e-6
    vstirap_control: float = 1.5e-6
    pi_11_to_20: float = 53e-6
    qubit_gate_total: float = 132.5e-6
    transfer_to_f2_each: float = 21e-6
    closing_transfer: float = 55e-6
    cycle_ghz: float = 50e-6
    cycle_cluster: float = 200e-6
    cycle_dd: float = 300e-6
    overhead: float = 300e-6             # calibration + cooling per run

    def __post_init__(self):
        for name in ("pump", "vstirap_control", "pi_11_to_20",
                     "qubit_gate_total", "transfer_to_f2_each",
                     "closing_transfer", "cycle_ghz", "cycle_cluster",
                     "cycle_dd"):
            if getattr(self, name) <= 0:
                raise ScheduleError(f"timing {name} must be positive")
        if self.overhead < 0:
            raise ScheduleError("timing overhead must not be negative")
        if self.pi_half <= 0:
            raise ScheduleError("qubit_gate_total leaves no room for the "
                                "pi/2 pulse")

    @property
    def pi_half(self) -> float:
        return self.qubit_gate_total - 2.0 * self.pi_11_to_20

    @property
    def transfer_total(self) -> float:
        return 2.0 * self.transfer_to_f2_each

    def cycle_slack(self, cycle_total: float, rotation: float,
                    tau: float = 0.0) -> float:
        slack = cycle_total - rotation - self.transfer_total \
            - self.vstirap_control - tau
        if slack < 0:
            raise ScheduleError(
                f"cycle components ({cycle_total * 1e6:.1f} us total) do not "
                f"fit: deficit {-slack * 1e6:.2f} us")
        return slack


@dataclass(frozen=True)
class ProtocolConfig:
    kind: str
    n_photons: int = 2
    thetas: tuple[float, ...] | None = None   # custom rotation per cycle
    timings: TimingTable = field(default_factory=TimingTable)
    max_first_attempts: int = 7
    repetition_period: float = 1.1e-3
    dd_tau: float = 0.0            # transfer -> vSTIRAP delay (ddscan)
    probe_delay: float = 0.0       # idle delay (coherence probe)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ScheduleError(f"unknown protocol kind {self.kind!r}")
        if self.n_photons < 1:
            raise ScheduleError("n_photons must be >= 1")
        if self.max_first_attempts < 1:
            raise ScheduleError("max_first_attempts must be >= 1")
        if self.kind == CUSTOM:
            if self.thetas is None or len(self.thetas) != self.n_photons - 1:
                raise ScheduleError(
                    "custom protocol needs one rotation angle per cycle "
                    f"({self.n_photons - 1} expected)")
        if min(self.probe_delay, self.dd_tau, self.repetition_period) < 0:
            raise ScheduleError("delays and the repetition period must be "
                                "non-negative")

    def rotation_angle(self, cycle: int) -> float:
        if self.kind == GHZ or self.kind == DDSCAN or self.kind == RATE:
            return 0.0
        if self.kind == CLUSTER:
            return np.pi / 2.0
        if self.kind == CUSTOM:
            return self.thetas[cycle - 1]
        return 0.0


# step kinds
PUMP = "pump"
WAIT = "wait"
PULSE = "pulse"
EMIT = "emit"


@dataclass(frozen=True)
class Step:
    kind: str
    duration: float
    cycle: int                  # photon slot this step belongs to
    pulses: tuple = ()          # ((ia, ib, theta, phase, draw_id), ...)
    emit_kind: str = ""         # initial | cycling | closing
    slot: int = -1              # photon slot for emit steps
    scatter_point: bool = False  # closing transfer: scatter channel here
    lab_frame: bool = False     # uncompensated delay: full Larmor phase


@dataclass(frozen=True)
class PulseSchedule:
    steps: tuple[Step, ...]
    n_photons: int
    kind: str
    timings: TimingTable
    frame_phases: tuple[float, ...]   # per-slot measurement-frame Z phase
    max_first_attempts: int
    repetition_period: float

    @property
    def total_duration(self) -> float:
        return sum(s.duration for s in self.steps)


_L11 = Sublevel(1, 1).index
_L1M1 = Sublevel(1, -1).index
_L20 = Sublevel(2, 0).index
_L22 = Sublevel(2, 2).index
_L2M2 = Sublevel(2, -2).index
_L21 = Sublevel(2, 1).index
_L2M1 = Sublevel(2, -1).index

PI = np.pi


def _rotation_program(cfg: ProtocolConfig, cycle: int) -> tuple[list[Step], float]:
    """Single-qubit gate as a pi / theta / pi Raman composite.

    The qubit amplitude in |1,1> is parked in |2,0>, the theta pulse acts
    on |1,-1> <-> |2,0>, and the parking pulse is undone.  GHZ skips the
    gate entirely.
    """
    if cfg.kind in (GHZ, DDSCAN, RATE):
        return [], 0.0
    t = cfg.timings
    theta = cfg.rotation_angle(cycle)
    d0 = crng.slot_draw(cycle, crng.SLOT_PULSE0)
    dp = crng.SLOT_PULSE_STRIDE
    steps = [
        Step(PULSE, t.pi_11_to_20, cycle,
             pulses=((_L11, _L20, PI, 0.0, d0),)),
        Step(PULSE, t.pi_half, cycle,
             pulses=((_L1M1, _L20, theta, 0.0, d0 + dp),)),
        Step(PULSE, t.pi_11_to_20, cycle,
             pulses=((_L11, _L20, PI, 0.0, d0 + 2 * dp),)),
    ]
    return steps, t.qubit_gate_total


def _cycle_total(cfg: ProtocolConfig) -> float:
    if cfg.kind == DDSCAN:
        return cfg.timings.cycle_dd
    if cfg.kind in (CLUSTER, CUSTOM):
        return cfg.timings.cycle_cluster
    return cfg.timings.cycle_ghz


def frame_phases(kind: str, n_photons: int) -> tuple[float, ...]:
    """Per-photon measurement-frame Z phases.

    The cluster protocol's output equals the canonical linear cluster
    state after a Z correction on the first and last photon, which the
    detection frame absorbs; ``test_cluster_run_exact_in_frame`` and
    acceptance criterion 2 pin it.  Other recipes need no correction.
    """
    phases = [0.0] * n_photons
    if kind == CLUSTER and n_photons >= 1:
        phases[0] = np.pi
        phases[-1] = np.pi
    return tuple(phases)


def build_schedule(cfg: ProtocolConfig) -> PulseSchedule:
    """Compile a protocol recipe into its timed step list."""
    t = cfg.timings
    n = cfg.n_photons

    if cfg.kind == COHERENCE:
        steps = [
            Step(PUMP, t.pump, 0),
            Step(EMIT, t.vstirap_control, 0, emit_kind="initial", slot=0),
            Step(WAIT, cfg.probe_delay, 1, lab_frame=True),
            _closing_transfer_step(cfg, cycle=1),
            Step(EMIT, t.vstirap_control, 1, emit_kind="closing", slot=1),
        ]
        return PulseSchedule(tuple(steps), 2, cfg.kind, t,
                             frame_phases(cfg.kind, 2),
                             cfg.max_first_attempts, cfg.repetition_period)

    if cfg.kind == RATE:
        base = replace(cfg, kind=GHZ, n_photons=max(n, 2))
        sched = build_schedule(base)
        return replace(sched, kind=RATE)

    steps: list[Step] = [
        Step(PUMP, t.pump, 0),
        Step(EMIT, t.vstirap_control, 0, emit_kind="initial", slot=0),
    ]

    # cycling: photon slots 1 .. n-2
    for cycle in range(1, n - 1):
        rot, rot_dur = _rotation_program(cfg, cycle)
        tau = cfg.dd_tau if cfg.kind == DDSCAN else 0.0
        slack = t.cycle_slack(_cycle_total(cfg), rot_dur, tau)
        steps.extend(rot)
        steps.append(Step(WAIT, slack, cycle))
        d0 = crng.slot_draw(cycle, crng.SLOT_PULSE0
                            + 3 * crng.SLOT_PULSE_STRIDE)
        steps.append(Step(PULSE, t.transfer_total, cycle, pulses=(
            (_L11, _L22, PI, 0.0, d0),
            (_L1M1, _L2M2, PI, 0.0, d0 + crng.SLOT_PULSE_STRIDE),
        )))
        if tau > 0:
            steps.append(Step(WAIT, tau, cycle))
        steps.append(Step(EMIT, t.vstirap_control, cycle,
                          emit_kind="cycling", slot=cycle))

    # closing: photon slot n-1
    if n >= 2:
        rot, _ = _rotation_program(cfg, n - 1)
        steps.extend(rot)
        steps.append(_closing_transfer_step(cfg, cycle=n - 1))
        steps.append(Step(EMIT, t.vstirap_control, n - 1,
                          emit_kind="closing", slot=n - 1))
    else:
        # single-photon run: emit and immediately close on the same photon
        raise ScheduleError("n_photons=1 not expressible: the protocol "
                            "needs a closing photon (use n_photons >= 2)")

    return PulseSchedule(tuple(steps), n, cfg.kind, t,
                         frame_phases(cfg.kind, n),
                         cfg.max_first_attempts, cfg.repetition_period)


def _closing_transfer_step(cfg: ProtocolConfig, cycle: int) -> Step:
    d0 = crng.slot_draw(cycle, crng.SLOT_PULSE0
                        + 3 * crng.SLOT_PULSE_STRIDE)
    return Step(PULSE, cfg.timings.closing_transfer, cycle, pulses=(
        (_L11, _L2M1, PI, 0.0, d0),
        (_L1M1, _L21, PI, 0.0, d0 + crng.SLOT_PULSE_STRIDE),
    ), scatter_point=True)


def run_period(schedule: PulseSchedule) -> float:
    """Wall-clock period of one run: the schedule plus overhead, but at
    least the repetition period."""
    return max(schedule.total_duration + schedule.timings.overhead,
               schedule.repetition_period)


# ---------------------------------------------------------------------------
# compiled schedules: the one op list that the engine and both oracles run


@dataclass(frozen=True, eq=False)
class PrecessOp:
    """Diagonal Larmor evolution over one step window."""

    rate: np.ndarray   # s_F mF * OMEGA_L * duration, per sublevel
    lab_frame: bool    # uncompensated delay: full Larmor phase
    cycle: int         # photon cycle, selects the per-cycle field sample
    key: tuple         # (duration, lab_frame): equal keys, equal rates
    mags: np.ndarray   # the distinct non-zero |rate| values
    levels: tuple      # ((sublevel, index into mags, rate < 0), ...)

    def phases(self, delta):
        """Phase factors exp(-i rate s), with s = 1 + delta in the lab
        frame and s = delta in the co-rotating one; an array of per-shot
        offsets ``delta`` gives one row of factors per shot.

        ``rate`` is s_F mF times one window phase, so it takes at most two
        magnitudes (|mF| = 1, 2).  One exponential per magnitude gives
        every factor: a level at -r takes the conjugate of the one at +r
        (cos is even and sin odd, so this is exact) and an mF = 0 level
        takes 1, equal to exp(-i rate s) level by level.
        """
        scale = 1.0 + delta if self.lab_frame else delta
        e = np.exp(-1j * np.multiply.outer(scale, self.mags))
        out = np.ones(e.shape[:-1] + (8,), dtype=complex)
        for level, col, neg in self.levels:
            out[..., level] = e[..., col].conj() if neg else e[..., col]
        return out


def _precess_op(rate: np.ndarray, lab_frame: bool, cycle: int,
                key: tuple) -> PrecessOp:
    mags = np.unique(np.abs(rate[rate != 0]))
    levels = tuple((i, int(np.searchsorted(mags, abs(r))), bool(r < 0))
                   for i, r in enumerate(rate) if r != 0)
    return PrecessOp(rate, lab_frame, cycle, key, mags, levels)


@dataclass(frozen=True)
class PumpOp:
    """Reset the atom to the pumped level."""


@dataclass(frozen=True)
class PulseOp:
    """Two-level Raman rotations fired in order."""

    pulses: tuple      # ((ia, ib, theta, phase, draw_id), ...)


@dataclass(frozen=True)
class ScatterOp:
    """The closing transfer's scatter channel acts here."""


@dataclass(frozen=True, eq=False)
class EmitOp:
    """Photon emission into ``slot`` from the levels in ``domain``."""

    slot: int
    domain: np.ndarray  # source sublevel indices
    vdom: np.ndarray    # (16, len(domain)) map into atom * 2 + photon


def compile_schedule(sched: PulseSchedule,
                     flip_f2_sign: bool = True) -> tuple:
    """Flatten a schedule into the ops that every simulator executes.

    Each step becomes its precession (when it has a duration, pumping
    aside) followed by its action, which is the precess-then-fire order
    described in the module docstring.  Each emission carries its slot's
    measurement frame, so every simulator measures the framed photon.
    """
    coeff = precession_coefficients(flip_f2_sign)
    ops = []
    for step in sched.steps:
        if step.duration < 0:
            raise ScheduleError(f"negative duration in a {step.kind} step")
        if step.duration > 0 and step.kind != PUMP:
            ops.append(_precess_op(coeff * (OMEGA_L * step.duration),
                                   step.lab_frame, step.cycle,
                                   (step.duration, step.lab_frame)))
        if step.kind == PUMP:
            ops.append(PumpOp())
        elif step.kind == PULSE:
            for ia, ib, *_ in step.pulses:
                if ia == ib:
                    raise InvalidPulseError(
                        f"pulse levels coincide: index {ia}")
            ops.append(PulseOp(step.pulses))
            if step.scatter_point:
                ops.append(ScatterOp())
        elif step.kind == EMIT:
            domain, vdom = emission_map(step.emit_kind)
            # the slot's measurement frame diag(1, e^{i phi}) on the photon
            vdom[1::2] *= np.exp(1j * sched.frame_phases[step.slot])
            ops.append(EmitOp(step.slot, domain, vdom))
    return tuple(ops)
