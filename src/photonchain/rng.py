"""Counter-based random streams for reproducible parallel Monte Carlo.

Every random draw in a simulation is addressed by ``(seed, shot, draw)``
and computed by a stateless 64-bit mixing function.  A draw depends on
those three indices only, so results are byte-identical no matter how
shots are batched or spread over threads, drawing for any subset of shots
gives those shots the same values as drawing for all of them, and no
generator state ever has to be carried around or split.

The mixer is the SplitMix64 finalizer applied twice to a combination of
the three indices.  That is plenty for Monte Carlo work; statistical
quality is checked by the Born-rule tests in the suite.

Draw-index layout used by the engine (per shot):

====================  =======================================
draw index            purpose
====================  =======================================
0 .. 6                first-photon attempt detection
8, 9                  quasi-static field sample (Box-Muller pair)
10, 11, 12            closing scatter: decision, population, phase
32 + 24*k + 0         detection of photon slot k
32 + 24*k + 1         measurement outcome of photon slot k
32 + 24*k + 2 .. 11   rotation-angle noise, pulses of cycle k
                      (each pulse owns a 2-wide block, since a normal
                      consumes the Box-Muller pair (d, d+1))
32 + 24*k + 20, 21    per-cycle field sample (per-cycle mode)
====================  =======================================
"""

from __future__ import annotations

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_C_SHOT = np.uint64(0xD6E8FEB86659FD93)
_C_DRAW = np.uint64(0xA5A5B9E3779B97F5)

# draw-index constants (see table above)
FIRST_ATTEMPT_BASE = 0
MAX_FIRST_ATTEMPTS = 7
FIELD_DRAW = 8
SCATTER_DECISION = 10
SCATTER_POP = 11
SCATTER_PHASE = 12
SLOT_BASE = 32
SLOT_STRIDE = 24
SLOT_DETECT = 0
SLOT_OUTCOME = 1
SLOT_PULSE0 = 2
SLOT_PULSE_STRIDE = 2
SLOT_FIELD = 20


def _mix64(x):
    x ^= x >> np.uint64(30)
    x *= _M1
    x ^= x >> np.uint64(27)
    x *= _M2
    x ^= x >> np.uint64(31)
    return x


def raw(seed, shot, draw):
    """Deterministic uint64 for the triple (seed, shot, draw).

    ``shot`` may be an integer or an integer ndarray; the result has the
    broadcast shape of the inputs.
    """
    with np.errstate(over="ignore"):
        # uint64 wraps mod 2^64; the product is a fresh array, updated in place
        x = np.asarray(shot, dtype=np.uint64) * _C_SHOT
        x ^= np.uint64(seed) * _GAMMA
        x += np.uint64(draw) * _C_DRAW + _GAMMA
        x = _mix64(x)
        x += _GAMMA
        x = _mix64(x)
    return x


def uniform(seed, shot, draw):
    """Uniform float64 in [0, 1) addressed by (seed, shot, draw)."""
    return (raw(seed, shot, draw) >> np.uint64(11)) * (1.0 / (1 << 53))


def normal(seed, shot, draw):
    """Standard-normal float64 via Box-Muller on draws (draw, draw+1)."""
    u1 = uniform(seed, shot, draw)
    u2 = uniform(seed, shot, np.uint64(draw) + np.uint64(1))
    # guard the log against an exact zero
    u1 = np.maximum(u1, 1e-300)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def slot_draw(slot, offset):
    """Draw index for photon slot ``slot`` at the given in-slot offset."""
    return SLOT_BASE + SLOT_STRIDE * slot + offset
