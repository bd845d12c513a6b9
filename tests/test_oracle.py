"""Dense reference simulator: exact protocol algebra in the compiled
measurement frames."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonchain.levels import MeasBasis, Sublevel
from photonchain.oracle import (
    MAX_DENSE_PHOTONS,
    PAULI,
    CanonicalTarget,
    DenseSizeError,
    basis_observable,
    cluster_state,
    dense_run,
    fidelity,
    ghz_state,
    outcome_distribution,
    product_expectation,
    register_distribution,
)
from photonchain.schedule import ProtocolConfig


def test_targets():
    g = ghz_state(3)
    assert g[0] == g[-1] == pytest.approx(1 / np.sqrt(2))
    assert np.count_nonzero(g) == 2
    c = cluster_state(2)
    # CZ |++> = (|00>+|01>+|10>-|11>)/2
    assert np.allclose(c, [0.5, 0.5, 0.5, -0.5])
    with pytest.raises(ValueError):
        CanonicalTarget("ghz", 1)
    with pytest.raises(ValueError):
        CanonicalTarget("w", 3)


def test_stabilizer_strings():
    assert CanonicalTarget("ghz", 3).stabilizer_strings() == \
        ["XXX", "ZZI", "IZZ"]
    assert CanonicalTarget("cluster", 3).stabilizer_strings() == \
        ["XZI", "ZXZ", "IZX"]


def pauli_string_expectation(psi, string):
    op = PAULI[string[0]]
    for ch in string[1:]:
        op = np.kron(op, PAULI[ch])
    return float(np.real(np.vdot(psi, op @ psi)))


@pytest.mark.parametrize("n", range(2, 9))
def test_ghz_run_exact(n):
    state = dense_run(ProtocolConfig("ghz", n))
    assert state.atom_purity() == pytest.approx(1.0, abs=1e-12)
    assert fidelity(state, CanonicalTarget("ghz", n)) == \
        pytest.approx(1.0, abs=1e-12)
    # the atom closes into |1,0>
    m = state.register_matrix()
    pops = np.sum(np.abs(m) ** 2, axis=1)
    assert pops[Sublevel(1, 0).index] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", range(2, 9))
def test_cluster_run_exact_in_frame(n):
    framed_state = dense_run(ProtocolConfig("cluster", n))
    assert fidelity(framed_state, CanonicalTarget("cluster", n)) == \
        pytest.approx(1.0, abs=1e-12)


def test_cluster_stabilizers_plus_one():
    n = 6
    psi = dense_run(ProtocolConfig("cluster", n)).photon_register()
    for s in CanonicalTarget("cluster", n).stabilizer_strings():
        assert pauli_string_expectation(psi, s) == pytest.approx(1.0,
                                                                 abs=1e-12)


def test_ghz2_cluster2_orthogonal():
    # frozen constant: the 2-photon GHZ and cluster outputs are orthogonal
    overlap = abs(np.vdot(ghz_state(2), cluster_state(2))) ** 2
    assert overlap == pytest.approx(0.0, abs=1e-12)


def test_dense_cap():
    with pytest.raises(DenseSizeError):
        dense_run(ProtocolConfig("ghz", MAX_DENSE_PHOTONS + 1))


@pytest.mark.parametrize("n", [13, 14])
def test_parity_beyond_dense_cap(n):
    # product_expectation has no size cap; parity must follow cos(N phi)
    cfg = ProtocolConfig("ghz", n)
    for phi in (0.0, 0.3, np.pi / 2, 2.0):
        ops = [basis_observable(MeasBasis.equator(phi))] * n
        assert product_expectation(cfg, ops) == \
            pytest.approx(np.cos(n * phi), abs=1e-9)


def test_product_expectation_matches_dense():
    cfg = ProtocolConfig("cluster", 4)
    rs = np.random.default_rng(8)
    psi = dense_run(cfg).photon_register()
    for _ in range(5):
        labels = rs.choice(["I", "X", "Y", "Z"], size=4)
        want = pauli_string_expectation(psi, "".join(labels))
        got = product_expectation(cfg, list(labels))
        assert got == pytest.approx(want, abs=1e-10)


def test_outcome_distribution_normalized():
    state = dense_run(ProtocolConfig("ghz", 3))
    bases = [MeasBasis.z(), MeasBasis.x(), MeasBasis.equator(1.1)]
    probs = outcome_distribution(state, bases)
    assert probs.shape == (8,)
    assert probs.sum() == pytest.approx(1.0)


def test_outcome_distribution_ghz_z():
    state = dense_run(ProtocolConfig("ghz", 3))
    probs = outcome_distribution(state, [MeasBasis.z()] * 3)
    # only all-R (index 0) and all-L (index 7) survive
    assert probs[0] == pytest.approx(0.5, abs=1e-12)
    assert probs[-1] == pytest.approx(0.5, abs=1e-12)
    assert np.all(probs[1:-1] < 1e-12)


def test_register_distribution_matches_outcome_distribution():
    state = dense_run(ProtocolConfig("ghz", 4))
    psi = state.photon_register()
    bases = [MeasBasis.equator(0.4)] * 4
    assert np.allclose(register_distribution(psi, bases),
                       outcome_distribution(state, bases), atol=1e-12)


@settings(deadline=None, max_examples=10)
@given(delta=st.floats(-5e-3, 5e-3))
def test_dense_run_norm_preserved(delta):
    state = dense_run(ProtocolConfig("ghz", 3), delta=delta)
    assert np.linalg.norm(state.amps) == pytest.approx(1.0)


def test_field_offset_dephases_standard_cycle():
    # the compact 50 us cycle leaves a dwell-time imbalance, so a static
    # field offset costs fidelity ...
    f_fast = fidelity(dense_run(ProtocolConfig("ghz", 6), delta=1e-3),
                      CanonicalTarget("ghz", 6))
    assert f_fast < 0.99
    assert fidelity(dense_run(ProtocolConfig("ghz", 6), delta=5e-3),
                    CanonicalTarget("ghz", 6)) < 0.7
    # ... while the stretched cycle at the echo-matched tau rephases
    cfg = ProtocolConfig("ddscan", 6, dd_tau=98.5e-6)
    f_echo = fidelity(dense_run(cfg, delta=1e-3),
                      CanonicalTarget("ghz", 6))
    assert f_echo > 0.995


def test_echo_needs_manifold_sign_flip():
    f = fidelity(dense_run(ProtocolConfig("ghz", 4), delta=2e-3,
                           flip_f2_sign=False),
                 CanonicalTarget("ghz", 4))
    assert f < 0.999
