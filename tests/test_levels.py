"""Unit tests for the 8-level primitives: sublevels, pulses, the emission
table, the compiled precession rates and the photon measurement."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from photonchain import levels
from photonchain.engine import run_batch
from photonchain.levels import (
    OMEGA_L,
    EmissionLevelError,
    InvalidPulseError,
    MeasBasis,
    Sublevel,
    emission_map,
    precession_coefficients,
    rotation_matrix,
)
from photonchain.noise import NoiseConfig
from photonchain.oracle import dense_run, product_expectation
from photonchain.schedule import (
    PULSE,
    PrecessOp,
    ProtocolConfig,
    ScheduleError,
    Step,
    build_schedule,
    compile_schedule,
)

S2 = 1.0 / np.sqrt(2.0)
EMIT_KINDS = ("initial", "cycling", "closing")


def idx(F, mF):
    return Sublevel(F, mF).index


def ket(F, mF):
    amps = np.zeros(8, dtype=complex)
    amps[idx(F, mF)] = 1.0
    return amps


def emit(kind, amps):
    """(atom, photon) amplitudes after an emission from an 8-level state."""
    domain, vdom = emission_map(kind)
    return (vdom @ amps[domain]).reshape(8, 2)


def test_sublevel_ordering():
    labels = [(s.F, s.mF) for s in levels.SUBLEVELS]
    assert labels == [(1, -1), (1, 0), (1, 1),
                      (2, -2), (2, -1), (2, 0), (2, 1), (2, 2)]
    for i, s in enumerate(levels.SUBLEVELS):
        assert s.index == i


def test_invalid_sublevels_rejected():
    with pytest.raises(ValueError):
        Sublevel(3, 0)
    with pytest.raises(ValueError):
        Sublevel(1, 2)


def test_precession_coefficients():
    coeff = precession_coefficients()
    for s, c in zip(levels.SUBLEVELS, coeff):
        expected = (+1 if s.F == 1 else -1) * s.mF
        assert c == expected
    # without the manifold flip both manifolds share the F=1 sign
    no_flip = precession_coefficients(flip_f2_sign=False)
    for s, c in zip(levels.SUBLEVELS, no_flip):
        assert c == s.mF


@given(theta=st.floats(-2 * np.pi, 2 * np.pi),
       phase=st.floats(-np.pi, np.pi))
def test_rotation_matrix_unitary(theta, phase):
    u = rotation_matrix(idx(1, 1), idx(2, 0), theta, phase)
    assert np.allclose(u.conj().T @ u, np.eye(8), atol=1e-12)


@given(t1=st.floats(-np.pi, np.pi), t2=st.floats(-np.pi, np.pi),
       phase=st.floats(-np.pi, np.pi))
def test_rotation_composition(t1, t2, phase):
    # same axis: angles add
    a, b = idx(1, -1), idx(2, 0)
    u1 = rotation_matrix(a, b, t1, phase)
    u2 = rotation_matrix(a, b, t2, phase)
    u12 = rotation_matrix(a, b, t1 + t2, phase)
    assert np.allclose(u2 @ u1, u12, atol=1e-12)


def test_pi_pulse_transfers_population():
    out = rotation_matrix(idx(1, 1), idx(2, 0), np.pi) @ ket(1, 1)
    assert abs(out[idx(2, 0)]) ** 2 == pytest.approx(1.0)


def test_identical_pulse_levels_rejected():
    sched = build_schedule(ProtocolConfig("cluster", 3))
    i = idx(1, 0)
    bad = Step(PULSE, 1e-6, 1, pulses=((i, i, np.pi, 0.0, 40),))
    with pytest.raises(InvalidPulseError):
        compile_schedule(replace(sched, steps=sched.steps + (bad,)))


@pytest.mark.parametrize("iso,dom",
                         [emission_map(k)[::-1] for k in EMIT_KINDS])
def test_emission_isometries(iso, dom):
    # an exact isometry from the domain levels into the joint space
    assert iso.shape == (16, len(dom))
    assert np.allclose(iso.conj().T @ iso, np.eye(len(dom)), atol=1e-14)


def test_emit_initial_amplitudes():
    # |2,0> -> (|1,1>|R> - |1,-1>|L>)/sqrt(2)
    joint = emit("initial", ket(2, 0))
    assert joint[idx(1, 1), 0] == pytest.approx(S2)
    assert joint[idx(1, -1), 1] == pytest.approx(-S2)
    assert np.count_nonzero(joint) == 2


def test_emit_cycling_amplitudes():
    j = emit("cycling", ket(2, 2))
    assert j[idx(1, 1), 0] == pytest.approx(1.0)
    j = emit("cycling", ket(2, -2))
    assert j[idx(1, -1), 1] == pytest.approx(1.0)


def test_emit_closing_amplitudes():
    j = emit("closing", ket(2, -1))
    assert j[idx(1, 0), 0] == pytest.approx(1.0)
    j = emit("closing", ket(2, 1))
    assert j[idx(1, 0), 1] == pytest.approx(-1.0)


def test_emission_domains():
    assert list(emission_map("initial")[0]) == [idx(2, 0)]
    assert set(emission_map("cycling")[0]) == {idx(2, -2), idx(2, 2)}
    assert set(emission_map("closing")[0]) == {idx(2, -1), idx(2, 1)}


def test_off_domain_emission_rejected():
    # without a transfer step an emission reads the wrong levels; the
    # noiseless oracle refuses instead of dropping that population
    sched = build_schedule(ProtocolConfig("ghz", 3))
    transfers = [i for i, s in enumerate(sched.steps) if s.kind == PULSE]
    assert len(transfers) == 2        # cycling and closing transfer
    for i in transfers:
        steps = sched.steps[:i] + sched.steps[i + 1:]
        with pytest.raises(EmissionLevelError):
            dense_run(replace(sched, steps=steps))
    dense_run(sched)


@given(st.lists(st.floats(-1, 1), min_size=16, max_size=16),
       st.sampled_from(EMIT_KINDS))
def test_emission_preserves_norm_on_domain(re, which):
    dom = emission_map(which)[0]
    amps = np.zeros(8, dtype=complex)
    for j, i in enumerate(dom):
        amps[i] = re[2 * j] + 1j * re[2 * j + 1]
    nrm = np.linalg.norm(amps)
    if nrm < 1e-6:
        return
    joint = emit(which, amps / nrm)
    assert np.linalg.norm(joint) == pytest.approx(1.0)


def lab_wait_op(t):
    """The compiled precession of a coherence probe's idle delay ``t``."""
    sched = build_schedule(ProtocolConfig("coherence", 2, probe_delay=t))
    (op,) = [o for o in compile_schedule(sched)
             if isinstance(o, PrecessOp) and o.lab_frame]
    return op


def test_precession_phase_values():
    # |1,1> advances at +omega_L, |2,2> at -2 omega_L
    t = 1.25e-6
    op = lab_wait_op(t)
    assert op.rate[idx(1, 1)] == pytest.approx(OMEGA_L * t)
    assert op.rate[idx(2, 2)] == pytest.approx(-2.0 * OMEGA_L * t)
    ph = op.phases(0.0)
    assert ph[idx(1, 1)] == pytest.approx(np.exp(-1j * OMEGA_L * t))
    assert ph[idx(2, 2)] == pytest.approx(np.exp(+2j * OMEGA_L * t))
    assert ph[idx(1, 0)] == pytest.approx(1.0)


def test_rotating_frame_phases_delta_only():
    t, d = 37e-6, 3e-4
    lab = lab_wait_op(t)
    rot = replace(lab, lab_frame=False)
    assert np.allclose(rot.phases(0.0), np.ones(8))
    assert np.allclose(rot.phases(d), lab.phases(d) / lab.phases(0.0))
    # per-shot offsets give one row of phases per shot
    rows = rot.phases(np.array([d, 0.0]))
    assert np.array_equal(rows[0], rot.phases(d))
    assert np.array_equal(rows[1], rot.phases(0.0))


@pytest.mark.parametrize("flip_f2_sign", [True, False])
@pytest.mark.parametrize("lab_frame", [False, True])
def test_phases_equal_direct_exponential(lab_frame, flip_f2_sign):
    # one exponential per |rate| and conjugates for the negative rates
    # reproduce exp(-i rate s) bit for bit, for scalar and per-shot offsets
    sched = build_schedule(ProtocolConfig("cluster", 4))
    sched = replace(sched, steps=tuple(replace(s, lab_frame=lab_frame)
                                       for s in sched.steps))
    ops = [op for op in compile_schedule(sched, flip_f2_sign)
           if isinstance(op, PrecessOp)]
    offsets = (0.0, -3e-4, 2.5e-3,
               np.random.default_rng(4).normal(0.0, 1e-3, 257))
    for op in ops:
        for delta in offsets:
            scale = 1.0 + delta if lab_frame else delta
            want = np.exp(-1j * np.multiply.outer(scale, op.rate))
            assert np.array_equal(op.phases(delta), want)


def test_negative_duration_rejected():
    sched = build_schedule(ProtocolConfig("ghz", 2))
    bad = replace(sched.steps[-1], duration=-1e-6)
    with pytest.raises(ScheduleError):
        compile_schedule(replace(sched, steps=sched.steps[:-1] + (bad,)))


def test_basis_states():
    z = MeasBasis.z()
    assert np.allclose(z.plus_state(), [1, 0])
    x = MeasBasis.x()
    assert np.allclose(x.plus_state(), [S2, S2])
    e = MeasBasis.equator(np.pi / 2)
    assert np.allclose(e.minus_state(), [S2, -1j * S2])
    # plus/minus are orthonormal
    for b in (z, x, e, MeasBasis.equator(0.77)):
        assert abs(np.vdot(b.plus_state(), b.minus_state())) < 1e-12


@given(st.floats(-np.pi, np.pi))
def test_basis_code_roundtrip(phi):
    b = MeasBasis.equator(phi)
    assert MeasBasis.from_code(b.code()) == b
    assert MeasBasis.from_code("Z") == MeasBasis.z()
    assert MeasBasis.from_code("X") == MeasBasis.x()


def test_measure_photon_born_statistics():
    # a theta rotation before the closing photon makes the two Z outcomes
    # agree with probability (1 + <Z Z>)/2, strictly between 0 and 1
    cfg = ProtocolConfig("custom", 2, thetas=(1.1,))
    want = (1.0 + product_expectation(cfg, ["Z", "Z"])) / 2.0
    assert 0.1 < want < 0.9
    shots = 20000
    batch = run_batch(cfg, NoiseConfig(), [MeasBasis.z()] * 2, shots, seed=5)
    same = np.mean(batch.outcomes[:, 0] == batch.outcomes[:, 1])
    assert abs(same - want) < 4 * np.sqrt(want * (1 - want) / shots)


def test_measure_photon_collapse():
    # measuring the first photon collapses the atom, so the second photon
    # of a GHZ pair repeats its outcome in Z and in X
    for basis in (MeasBasis.z(), MeasBasis.x()):
        batch = run_batch(ProtocolConfig("ghz", 2), NoiseConfig(),
                          [basis] * 2, 2000, seed=1)
        assert np.all(batch.outcomes[:, 0] == batch.outcomes[:, 1])
        assert 0 < np.mean(batch.outcomes[:, 0] == 1) < 1
