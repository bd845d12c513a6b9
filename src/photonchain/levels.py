"""Level structure of the 8-level emitter and its polarization photons.

The emitter lives in the 8 ground Zeeman sublevels |F, mF> with F in {1, 2}.
Photons are polarization qubits in the circular basis (R, L), with R playing
the role of logical 0 (Z eigenvalue +1).

Sublevel ordering used everywhere (index 0..7):

    (1,-1) (1,0) (1,1) (2,-2) (2,-1) (2,0) (2,1) (2,2)

Joint atom+photon vectors have 16 components indexed ``atom * 2 + photon``
with photon 0 = R, 1 = L.

This module holds the physical constants every simulator shares: the
Larmor phase rates, the two-level Raman rotation, the emission table, the
measurement bases and the basis plan of each measurement setting.  The step semantics built from them live in the
compiled schedule (:func:`photonchain.schedule.compile_schedule`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OMEGA_L = 2.0 * np.pi * 100e3  # Larmor angular frequency, rad/s

DOMAIN_TOL = 1e-9


class InvalidPulseError(ValueError):
    """Raised for an ill-formed Raman pulse (e.g. identical levels)."""


class EmissionLevelError(RuntimeError):
    """Raised when population sits outside an emission map's domain."""


@dataclass(frozen=True)
class Sublevel:
    """Ground-state Zeeman sublevel |F, mF>."""

    F: int
    mF: int

    def __post_init__(self):
        if self.F not in (1, 2) or abs(self.mF) > self.F:
            raise ValueError(f"invalid sublevel |{self.F},{self.mF}>")

    @property
    def index(self) -> int:
        return _INDEX[(self.F, self.mF)]

    def __repr__(self):
        return f"|{self.F},{self.mF:+d}>".replace("+0", "0")


SUBLEVELS = tuple(
    Sublevel(F, mF) for F in (1, 2) for mF in range(-F, F + 1)
)
_INDEX = {(s.F, s.mF): i for i, s in enumerate(SUBLEVELS)}

# Optical pumping prepares |2,0>, the source level of the first emission.
PUMPED = _INDEX[(2, 0)]

# Manifold sign of the Larmor phase: opposite in the two hyperfine manifolds.
MANIFOLD_SIGN = {1: +1.0, 2: -1.0}


def precession_coefficients(flip_f2_sign: bool = True) -> np.ndarray:
    """Per-sublevel phase-rate coefficients s_F * mF.

    With ``flip_f2_sign`` False the F=2 manifold precesses with the same
    sign as F=1, which disables the built-in spin-echo (used for A/B
    comparisons of the dynamical-decoupling effect).
    """
    coeff = np.empty(8)
    for i, s in enumerate(SUBLEVELS):
        sign = MANIFOLD_SIGN[s.F] if (flip_f2_sign or s.F == 1) else MANIFOLD_SIGN[1]
        coeff[i] = sign * s.mF
    return coeff


@dataclass(frozen=True)
class MeasBasis:
    """Single-photon measurement basis: Z, or an equator basis at angle phi.

    Equator(phi) projects onto (|R> +- e^{i phi} |L>)/sqrt(2); X is
    Equator(0).  Z is the (R, L) basis itself, outcome +1 for R.
    """

    kind: str  # "Z" or "E"
    phi: float = 0.0

    def __post_init__(self):
        if self.kind not in ("Z", "E"):
            raise ValueError(f"unknown basis kind {self.kind!r}")

    @classmethod
    def z(cls):
        return cls("Z")

    @classmethod
    def x(cls):
        return cls("E", 0.0)

    @classmethod
    def equator(cls, phi: float):
        return cls("E", float(phi))

    def plus_state(self) -> np.ndarray:
        if self.kind == "Z":
            return np.array([1.0, 0.0], dtype=complex)
        return np.array([1.0, np.exp(1j * self.phi)], dtype=complex) / np.sqrt(2)

    def minus_state(self) -> np.ndarray:
        if self.kind == "Z":
            return np.array([0.0, 1.0], dtype=complex)
        return np.array([1.0, -np.exp(1j * self.phi)], dtype=complex) / np.sqrt(2)

    def code(self) -> str:
        """Short text code used in records files."""
        if self.kind == "Z":
            return "Z"
        if self.phi == 0.0:
            return "X"
        return f"E:{self.phi!r}"

    @classmethod
    def from_code(cls, code: str) -> "MeasBasis":
        if code == "Z":
            return cls.z()
        if code == "X":
            return cls.x()
        if code.startswith("E:"):
            return cls.equator(float(code[2:]))
        raise ValueError(f"unknown basis code {code!r}")


# measurement setting -> the per-photon pattern its basis plan repeats
_SETTINGS = {"z": "Z", "x": "X", "equator": "E",
             "alternating-odd": "XZ", "alternating-even": "ZX"}


def setting_plan(setting: str, n: int,
                 phi: float = 0.0) -> list[MeasBasis]:
    """The basis plan of a measurement setting on ``n`` photons: "z"
    (Z^N), "x" (X^N), "equator" (Equator(phi)^N), "alternating-odd"
    (XZXZ..., X on the odd photons) or "alternating-even" (ZXZX...)."""
    bases = {"Z": MeasBasis.z(), "X": MeasBasis.x(),
             "E": MeasBasis.equator(phi)}
    pattern = _SETTINGS[setting]
    return [bases[pattern[k % len(pattern)]] for k in range(n)]


def plan_matches(bases, plan, phi_tol: float = 0.0) -> bool:
    """Whether ``bases`` is ``plan``: the same length and basis kinds, and
    every equator angle within ``phi_tol``."""
    return len(bases) == len(plan) and all(
        b.kind == p.kind and (b.kind == "Z" or abs(b.phi - p.phi) <= phi_tol)
        for b, p in zip(bases, plan))


def rotation_matrix(ia: int, ib: int, theta: float,
                    phase: float = 0.0) -> np.ndarray:
    """8x8 unitary exp(-i theta/2 (cos phase X + sin phase Y)) on
    span{ia, ib}, identity elsewhere."""
    u = np.eye(8, dtype=complex)
    c = np.cos(theta / 2.0)
    s = -1j * np.sin(theta / 2.0)
    u[ia, ia] = c
    u[ib, ib] = c
    u[ia, ib] = s * np.exp(-1j * phase)
    u[ib, ia] = s * np.exp(1j * phase)
    return u


R, L = 0, 1
_s2 = 1.0 / np.sqrt(2.0)

# Emission table: kind -> {source (F, mF): ((target (F, mF), photon, amp), ...)}
EMISSIONS = {
    # |2,0> -> (|1,1>|R> - |1,-1>|L>)/sqrt(2)
    "initial": {(2, 0): (((1, 1), R, _s2), ((1, -1), L, -_s2))},
    # |2,+2> -> |1,+1>|R>,  |2,-2> -> |1,-1>|L>   (both with + sign)
    "cycling": {(2, 2): (((1, 1), R, 1.0),),
                (2, -2): (((1, -1), L, 1.0),)},
    # |2,-1> -> +|1,0>|R>,  |2,+1> -> -|1,0>|L>
    # The sign/assignment is the unique choice (verified against the dense
    # oracle) for which the full protocol yields (R^N + L^N)/sqrt(2) exactly.
    "closing": {(2, -1): (((1, 0), R, 1.0),),
                (2, 1): (((1, 0), L, -1.0),)},
}


def emission_map(kind: str) -> tuple[np.ndarray, np.ndarray]:
    """``(domain, vdom)`` of one emission kind.

    ``domain`` holds the source sublevel indices in ascending order and
    ``vdom`` the (16, len(domain)) map from their amplitudes into the
    joint atom (x) photon space, an exact isometry.  Population outside
    the domain cannot emit.
    """
    table = EMISSIONS[kind]
    domain = sorted(_INDEX[src] for src in table)
    v = np.zeros((16, 8), dtype=complex)
    for src, branches in table.items():
        for tgt, photon, amp in branches:
            v[_INDEX[tgt] * 2 + photon, _INDEX[src]] = amp
    return np.array(domain), v[:, domain]
