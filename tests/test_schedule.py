"""Schedule compilation: timing bookkeeping, dwell integrals, framing."""

import numpy as np
import pytest

from photonchain.levels import Sublevel
from photonchain.schedule import (
    EMIT,
    PULSE,
    PUMP,
    WAIT,
    ProtocolConfig,
    ScheduleError,
    TimingTable,
    build_schedule,
    frame_phases,
    run_period,
)

T = TimingTable()


def test_timing_defaults():
    assert T.pi_half == pytest.approx(26.5e-6)
    assert T.transfer_total == pytest.approx(42e-6)
    assert T.qubit_gate_total == pytest.approx(132.5e-6)


def test_timing_validation():
    with pytest.raises(ScheduleError):
        TimingTable(pump=0.0)
    with pytest.raises(ScheduleError):
        TimingTable(qubit_gate_total=100e-6)   # pi/2 pulse would be < 0
    with pytest.raises(ScheduleError):
        T.cycle_slack(50e-6, 132.5e-6)         # gate does not fit GHZ cycle


def test_protocol_validation():
    with pytest.raises(ScheduleError):
        ProtocolConfig("ghz", 0)
    with pytest.raises(ScheduleError):
        build_schedule(ProtocolConfig("ghz", 1))
    with pytest.raises(ScheduleError):
        ProtocolConfig("bell", 2)
    with pytest.raises(ScheduleError):
        ProtocolConfig("custom", 4)             # missing thetas
    with pytest.raises(ScheduleError):
        ProtocolConfig("custom", 4, thetas=(0.1,))
    ProtocolConfig("custom", 4, thetas=(0.1, 0.2, 0.3))


def cycle_duration(sched, cycle):
    return sum(s.duration for s in sched.steps if s.cycle == cycle)


@pytest.mark.parametrize("kind,cycle", [("ghz", 50e-6), ("cluster", 200e-6),
                                        ("ddscan", 300e-6)])
def test_cycle_durations(kind, cycle):
    sched = build_schedule(ProtocolConfig(kind, 6))
    # cycling slots 1 .. n-2 must each fill the nominal cycle exactly
    for c in range(1, 5):
        assert cycle_duration(sched, c) == pytest.approx(cycle)


def test_total_duration_ghz():
    sched = build_schedule(ProtocolConfig("ghz", 4))
    expected = T.pump + T.vstirap_control \
        + 2 * 50e-6 + T.closing_transfer + T.vstirap_control
    assert sched.total_duration == pytest.approx(expected)


def test_dd_tau_inserted_before_emission():
    cfg = ProtocolConfig("ddscan", 4, dd_tau=98.5e-6)
    sched = build_schedule(cfg)
    assert cycle_duration(sched, 1) == pytest.approx(300e-6)
    steps1 = [s for s in sched.steps if s.cycle == 1]
    kinds = [s.kind for s in steps1]
    # ... transfer pulse, tau wait, emission
    assert kinds[-3:] == [PULSE, WAIT, EMIT]
    assert steps1[-2].duration == pytest.approx(98.5e-6)


def test_transfer_pulses_grouped():
    sched = build_schedule(ProtocolConfig("ghz", 4))
    transfers = [s for s in sched.steps
                 if s.kind == PULSE and len(s.pulses) == 2
                 and not s.scatter_point]
    assert transfers, "cycling transfer step missing"
    for s in transfers:
        assert s.duration == pytest.approx(42e-6)
        (ia, _, th1, _, d1), (ib, _, th2, _, d2) = s.pulses
        assert {ia, ib} == {Sublevel(1, 1).index, Sublevel(1, -1).index}
        assert th1 == th2 == pytest.approx(np.pi)
        assert d1 != d2


def test_closing_transfer_is_scatter_point():
    sched = build_schedule(ProtocolConfig("ghz", 3))
    closing = [s for s in sched.steps if s.scatter_point]
    assert len(closing) == 1
    assert closing[0].duration == pytest.approx(55e-6)
    targets = {p[1] for p in closing[0].pulses}
    assert targets == {Sublevel(2, 1).index, Sublevel(2, -1).index}


def test_rotation_program_only_on_cluster():
    ghz = build_schedule(ProtocolConfig("ghz", 5))
    assert not any(len(s.pulses) == 1 for s in ghz.steps)
    cl = build_schedule(ProtocolConfig("cluster", 5))
    singles = [s for s in cl.steps if s.kind == PULSE and len(s.pulses) == 1]
    # pi / theta / pi composite per qubit gate, cycles 1..4
    assert len(singles) == 3 * 4
    thetas = [s.pulses[0][2] for s in singles[1::3]]
    assert all(t == pytest.approx(np.pi / 2) for t in thetas)


def test_custom_thetas_reach_pulses():
    cfg = ProtocolConfig("custom", 4, thetas=(0.3, 1.1, 2.2))
    sched = build_schedule(cfg)
    singles = [s for s in sched.steps
               if s.kind == PULSE and len(s.pulses) == 1]
    assert [s.pulses[0][2] for s in singles[1::3]] == [0.3, 1.1, 2.2]


def test_pulse_draw_ids_unique():
    for kind in ("ghz", "cluster"):
        sched = build_schedule(ProtocolConfig(kind, 8))
        draws = [p[4] for s in sched.steps for p in s.pulses]
        assert len(set(draws)) == len(draws)


def test_coherence_schedule():
    cfg = ProtocolConfig("coherence", 2, probe_delay=1.2e-3)
    sched = build_schedule(cfg)
    kinds = [s.kind for s in sched.steps]
    assert kinds == [PUMP, EMIT, WAIT, PULSE, EMIT]
    wait = sched.steps[2]
    assert wait.lab_frame and wait.duration == pytest.approx(1.2e-3)
    # everything else stays in the co-rotating frame
    assert all(not s.lab_frame for s in sched.steps if s.kind != WAIT)


def test_frame_phases_frozen():
    assert frame_phases("ghz", 6) == (0.0,) * 6
    cl = frame_phases("cluster", 6)
    assert cl[0] == cl[-1] == np.pi
    assert cl[1:-1] == (0.0,) * 4


def test_echo_dwell_integral_vanishes():
    """The signed F-manifold dwell time of each stored qubit cancels.

    Per cycle the qubit spends the slack in F=1 (+) and the transfer +
    emission window in F=2 (-); at the dd-optimal tau the two integrals
    cancel exactly, which is the built-in echo condition."""
    t = TimingTable()
    tau_opt = (t.cycle_dd - 3.0 * t.vstirap_control) / 3.0
    # precess-then-fire: the pulses of the 42 us transfer window act at
    # its end, so the qubit is still in F=1 during the transfer and only
    # spends tau + the vSTIRAP window in F=2, where it precesses at -2x
    f1 = t.cycle_dd - tau_opt - t.vstirap_control
    f2 = tau_opt + t.vstirap_control
    assert f1 == pytest.approx(2.0 * f2, rel=1e-12)
    assert tau_opt == pytest.approx(98.5e-6)


def test_run_period_floor():
    sched = build_schedule(ProtocolConfig("ghz", 2))
    assert run_period(sched) == pytest.approx(1.1e-3)
    long = build_schedule(ProtocolConfig("cluster", 12))
    assert run_period(long) == pytest.approx(long.total_duration + 300e-6)


def test_rate_schedule_mirrors_ghz():
    r = build_schedule(ProtocolConfig("rate", 14))
    g = build_schedule(ProtocolConfig("ghz", 14))
    assert r.kind == "rate"
    assert r.total_duration == pytest.approx(g.total_duration)
