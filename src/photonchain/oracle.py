"""Dense reference simulator and canonical target states.

Two exact paths are provided:

* :func:`dense_run` evolves the full atom (x) photon-string state vector
  for small photon numbers (hard cap 12, i.e. 8 * 4096 amplitudes) and is
  the ground truth the trajectory engine is validated against;
* :func:`product_expectation` computes <prod_k m_k> for per-photon
  observables by folding the protocol steps backwards over 8x8 operator
  space, which is exact at any photon number and O(N).

Both run the op list of :func:`~photonchain.schedule.compile_schedule`,
the one the trajectory engine runs, so all three measure each photon in
its slot's measurement frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .levels import (DOMAIN_TOL, PUMPED, EmissionLevelError, MeasBasis,
                     rotation_matrix)
from .schedule import (EmitOp, PrecessOp, ProtocolConfig, PulseOp,
                       PulseSchedule, PumpOp, build_schedule,
                       compile_schedule)

MAX_DENSE_PHOTONS = 12

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class DenseSizeError(ValueError):
    """Photon number above the dense-simulation cap."""


@dataclass
class DenseState:
    """Exact amplitudes, shape (8, 2, ..., 2): atom then photon slots."""

    amps: np.ndarray
    n_photons: int

    def __post_init__(self):
        norm = np.linalg.norm(self.amps)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"DenseState norm {norm} deviates from 1")

    def register_matrix(self) -> np.ndarray:
        """Amplitudes as an (8, 2^N) matrix."""
        return self.amps.reshape(8, -1)

    def atom_purity(self) -> float:
        m = self.register_matrix()
        rho = m @ m.conj().T
        return float(np.real(np.trace(rho @ rho)))

    def photon_register(self) -> np.ndarray:
        """Photon-factor state vector; requires a disentangled atom."""
        m = self.register_matrix()
        u, s, vh = np.linalg.svd(m, full_matrices=False)
        if s[0] ** 2 < 1.0 - 1e-9:
            raise ValueError("atom is entangled with the photons "
                             f"(leading Schmidt weight {s[0]**2:.6f})")
        # fix the arbitrary SVD phase so the register inherits the overall
        # phase of the dominant atom component
        a = int(np.argmax(np.abs(u[:, 0])))
        phase = u[a, 0] / abs(u[a, 0])
        return phase * s[0] * vh[0, :]


@dataclass(frozen=True)
class CanonicalTarget:
    kind: str   # "ghz" | "cluster"
    n: int

    def __post_init__(self):
        if self.kind not in ("ghz", "cluster"):
            raise ValueError(f"unknown target kind {self.kind!r}")
        if self.n < 2:
            raise ValueError("targets need at least 2 qubits")

    def vector(self) -> np.ndarray:
        if self.kind == "ghz":
            v = np.zeros(2 ** self.n, dtype=complex)
            v[0] = v[-1] = 1.0 / np.sqrt(2)
            return v
        return cluster_state(self.n)

    def stabilizer_strings(self) -> list[str]:
        n = self.n
        if self.kind == "ghz":
            gens = ["X" * n]
            for k in range(2, n + 1):
                s = ["I"] * n
                s[k - 2] = s[k - 1] = "Z"
                gens.append("".join(s))
            return gens
        gens = []
        for k in range(1, n + 1):
            s = ["I"] * n
            s[k - 1] = "X"
            if k >= 2:
                s[k - 2] = "Z"
            if k <= n - 1:
                s[k] = "Z"
            gens.append("".join(s))
        return gens


def ghz_state(n: int) -> np.ndarray:
    return CanonicalTarget("ghz", n).vector()


def cluster_state(n: int) -> np.ndarray:
    """Linear cluster state: CZ chain on |+>^n, the unique joint +1
    eigenstate of Z_{k-1} X_k Z_{k+1} in the R <-> 0 convention."""
    bits = np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1) & 1
    sign = (-1.0) ** np.sum(bits[:, :-1] * bits[:, 1:], axis=1)
    return sign.astype(complex) / np.sqrt(2 ** n)


def _as_schedule(cfg) -> PulseSchedule:
    if isinstance(cfg, PulseSchedule):
        return cfg
    if isinstance(cfg, ProtocolConfig):
        return build_schedule(cfg)
    raise TypeError(f"expected ProtocolConfig or PulseSchedule, got {cfg!r}")


def dense_run(cfg, delta: float = 0.0,
              flip_f2_sign: bool = True) -> DenseState:
    """Exact noiseless protocol run (optionally at a fixed field offset).

    Emitted photons accumulate as qubit axes, each in its slot's
    measurement frame; the returned state carries the atom axis first and
    photon slots in emission order.  An emission with population outside
    its source levels means a mis-sequenced schedule and raises
    :class:`EmissionLevelError`.
    """
    sched = _as_schedule(cfg)
    if sched.n_photons > MAX_DENSE_PHOTONS:
        raise DenseSizeError(
            f"n_photons={sched.n_photons} exceeds the dense cap "
            f"{MAX_DENSE_PHOTONS}")
    amps = np.zeros(8, dtype=complex)
    n_ph = 0
    for op in compile_schedule(sched, flip_f2_sign):
        if isinstance(op, PrecessOp):
            amps = amps * op.phases(delta).reshape((8,) + (1,) * n_ph)
        elif isinstance(op, PumpOp):
            amps = np.zeros((8,) + (2,) * n_ph, dtype=complex)
            amps[(PUMPED,) + (0,) * n_ph] = 1.0
        elif isinstance(op, PulseOp):
            for (ia, ib, theta, phase, _draw) in op.pulses:
                u = rotation_matrix(ia, ib, theta, phase)
                amps = np.tensordot(u, amps, axes=(1, 0))
        elif isinstance(op, EmitOp):
            sub = amps[op.domain]
            pop_out = 1.0 - float(np.sum(np.abs(sub) ** 2))
            if pop_out > DOMAIN_TOL:
                raise EmissionLevelError(
                    f"slot {op.slot}: population {pop_out:.3e} outside the "
                    "emission levels (mis-sequenced schedule?)")
            amps = np.tensordot(op.vdom.reshape(8, 2, -1), sub, axes=(2, 0))
            # new photon axis sits at position 1; move it behind the
            # previously emitted slots
            amps = np.moveaxis(amps, 1, 1 + n_ph)
            n_ph += 1
    return DenseState(amps, n_ph)


def fidelity(state: DenseState, target: CanonicalTarget | np.ndarray) -> float:
    """<target| rho_photons |target> of the photon factor."""
    t = target.vector() if isinstance(target, CanonicalTarget) else np.asarray(target)
    m = state.register_matrix()
    if m.shape[1] != t.shape[0]:
        raise ValueError("target dimension does not match the photon register")
    overlaps = m @ t.conj()
    return float(np.sum(np.abs(overlaps) ** 2))


def basis_rotation(basis: MeasBasis) -> np.ndarray:
    """2x2 map sending the basis eigenstates to the computational basis
    (row 0 = +1 outcome, row 1 = -1 outcome)."""
    return np.vstack([basis.plus_state().conj(), basis.minus_state().conj()])


def basis_observable(basis: MeasBasis) -> np.ndarray:
    p = basis.plus_state()[:, None]
    m = basis.minus_state()[:, None]
    return p @ p.conj().T - m @ m.conj().T


def outcome_distribution(state: DenseState, bases) -> np.ndarray:
    """Exact Born probabilities over outcome strings.

    Returns a flat array of length 2^N, indexed by the outcome bits with
    slot 0 as the most significant bit and bit 0 meaning outcome +1.
    """
    if len(bases) != state.n_photons:
        raise ValueError("one basis per photon required")
    amps = state.amps
    for k, basis in enumerate(bases):
        amps = np.tensordot(basis_rotation(basis), amps, axes=(1, 1 + k))
        amps = np.moveaxis(amps, 0, 1 + k)
    probs = np.sum(np.abs(amps) ** 2, axis=0)
    return probs.reshape(-1)


def register_distribution(psi: np.ndarray, bases) -> np.ndarray:
    """Outcome distribution for a bare photon-register state vector."""
    n = len(bases)
    amps = np.asarray(psi, dtype=complex).reshape((2,) * n)
    for k, basis in enumerate(bases):
        amps = np.moveaxis(
            np.tensordot(basis_rotation(basis), amps, axes=(1, k)), 0, k)
    return (np.abs(amps) ** 2).reshape(-1)


def product_expectation(cfg, slot_ops, delta: float = 0.0,
                        flip_f2_sign: bool = True) -> float:
    """Exact expectation of a product of single-photon observables.

    ``slot_ops`` is one 2x2 Hermitian (or Pauli label) per photon slot.
    Folding V^dag (X (x) m) V backwards keeps everything in the 8x8 atom
    operator space, so this scales linearly in N and has no dense cap.
    """
    sched = _as_schedule(cfg)
    if len(slot_ops) != sched.n_photons:
        raise ValueError("one observable per photon slot required")
    ops = [PAULI[o] if isinstance(o, str) else np.asarray(o, dtype=complex)
           for o in slot_ops]
    x = np.eye(8, dtype=complex)
    for op in reversed(compile_schedule(sched, flip_f2_sign)):
        if isinstance(op, PulseOp):
            for (ia, ib, theta, phase, _d) in reversed(op.pulses):
                u = rotation_matrix(ia, ib, theta, phase)
                x = u.conj().T @ x @ u
        elif isinstance(op, EmitOp):
            big = np.kron(x, ops[op.slot])
            x = np.zeros((8, 8), dtype=complex)
            x[np.ix_(op.domain, op.domain)] = op.vdom.conj().T @ big @ op.vdom
        elif isinstance(op, PrecessOp):
            p = op.phases(delta)
            x = np.conj(p)[:, None] * x * p[None, :]
    return float(np.real(x[PUMPED, PUMPED]))
