"""Counter-based RNG: determinism, stream independence, distribution."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from photonchain import rng as crng

U64 = st.integers(0, 2 ** 63 - 1)
M64 = (1 << 64) - 1


def _mix_ref(x):
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & M64
    return x ^ (x >> 31)


def raw_ref(seed, shot, draw):
    """SplitMix64-based raw draw in pure Python integers."""
    x = ((seed * 0x9E3779B97F4A7C15) & M64) ^ ((shot * 0xD6E8FEB86659FD93)
                                               & M64)
    x = (x + draw * 0xA5A5B9E3779B97F5 + 0x9E3779B97F4A7C15) & M64
    x = _mix_ref(x)
    return _mix_ref((x + 0x9E3779B97F4A7C15) & M64)


@given(seed=U64, shot=U64, draw=st.integers(0, 2 ** 20))
def test_raw_deterministic(seed, shot, draw):
    assert crng.raw(seed, shot, draw) == crng.raw(seed, shot, draw)


@given(seed=U64, shot=U64, draw=st.integers(0, 2 ** 20))
def test_uniform_in_unit_interval(seed, shot, draw):
    u = crng.uniform(seed, shot, draw)
    assert 0.0 <= u < 1.0


@pytest.mark.parametrize("seed", [0, 7, 2 ** 32 - 1, 2 ** 63 - 1])
@pytest.mark.parametrize("draw", [0, 33, 2 ** 20])
def test_raw_matches_integer_reference(seed, draw):
    shots = [0, 1, 5, 2 ** 32, 12345678901234567, 2 ** 63 - 1]
    got = crng.raw(seed, np.array(shots, dtype=np.uint64), draw)
    assert got.dtype == np.uint64
    assert [int(v) for v in got] == [raw_ref(seed, s, draw) for s in shots]
    for s in shots:
        one = crng.raw(seed, s, draw)
        assert isinstance(one, np.uint64)
        assert int(one) == raw_ref(seed, s, draw)


def test_raw_leaves_shot_array_untouched():
    shots = np.arange(10, dtype=np.uint64)
    crng.raw(3, shots, 4)
    assert np.array_equal(shots, np.arange(10, dtype=np.uint64))


def test_vectorized_matches_scalar():
    shots = np.arange(100, dtype=np.uint64)
    vec = crng.uniform(3, shots, 17)
    for i in range(100):
        assert vec[i] == crng.uniform(3, i, 17)


def test_streams_differ():
    shots = np.arange(1000, dtype=np.uint64)
    a = crng.raw(1, shots, 0)
    b = crng.raw(2, shots, 0)
    c = crng.raw(1, shots, 1)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # no collisions inside a single stream slice
    assert len(np.unique(a)) == len(a)


def test_uniform_moments():
    shots = np.arange(200000, dtype=np.uint64)
    u = crng.uniform(42, shots, 5)
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.005


def test_normal_moments():
    shots = np.arange(200000, dtype=np.uint64)
    z = crng.normal(7, shots, 8)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    # tails exist but are sane
    assert np.abs(z).max() < 7.0


def test_normal_uses_boxmuller_pair():
    # draws d and d+1 feed one normal; a normal at d+2 is fresh
    z1 = crng.normal(0, 10, 4)
    z2 = crng.normal(0, 10, 6)
    assert z1 != z2


def test_slot_draw_layout():
    assert crng.slot_draw(0, 0) == crng.SLOT_BASE
    assert crng.slot_draw(2, 5) == crng.SLOT_BASE + 2 * crng.SLOT_STRIDE + 5
    # the per-slot block must hold detection, outcome, 5 pulse pairs and
    # the field pair without overlap
    assert crng.SLOT_PULSE0 + 5 * crng.SLOT_PULSE_STRIDE <= crng.SLOT_FIELD
    assert crng.SLOT_FIELD + 2 <= crng.SLOT_STRIDE


def test_first_attempt_block_reserved():
    assert crng.FIRST_ATTEMPT_BASE + crng.MAX_FIRST_ATTEMPTS <= crng.FIELD_DRAW
