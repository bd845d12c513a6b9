"""Acceptance gate: end-to-end criteria with pinned tolerance bands.

Each test prints a single PASS/FAIL line (bypassing capture) so the gate
status is visible in any pytest run.
"""

import numpy as np
import pytest

from photonchain.analysis import (
    cluster_witness,
    decay_fit,
    ghz_fidelity,
    parity_curve,
    fit_coherence,
    populations,
    rate_fit,
    stabilizers,
)
from photonchain.engine import (
    coherence_probe,
    dd_scan,
    parity_visibility_run,
    rate_benchmark,
    run_batch,
)
from photonchain.levels import MeasBasis
from photonchain.noise import (
    NoiseConfig,
    calibrate_field,
    raman_sigma_for_infidelity,
)
from photonchain.oracle import (
    CanonicalTarget,
    basis_observable,
    dense_run,
    product_expectation,
    register_distribution,
)
from photonchain.schedule import ProtocolConfig, build_schedule

ETA = 0.4318

# the calibrated operating point used for the decay criteria
CAL = NoiseConfig(
    eta0=ETA / 0.7, eta_d=0.7,
    raman_sigma=raman_sigma_for_infidelity(0.01),
    closing_scatter_p=0.05,
    b_sigma=calibrate_field(1.2e-3, 0.66),
    b_model="quasi-static",
)
FIELD_ONLY = NoiseConfig(b_sigma=calibrate_field(1.2e-3, 0.66))
NOISELESS = NoiseConfig()

PHIS = np.linspace(0.0, np.pi, 25)


def report(capsys, num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n[criterion {num}] {name}: {tag}"
              + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}): {detail}"


def projector(sign):
    return 0.5 * (np.eye(2) + sign * np.array([[1, 0], [0, -1]]))


# ---------------------------------------------------------------------------
# 1. exact GHZ algebra

def test_criterion_1_exact_ghz(capsys):
    worst = 0.0
    for n in range(2, 15):
        cfg = ProtocolConfig("ghz", n)
        # populations: P(all R) + P(all L) as products of Z projectors
        p = (product_expectation(cfg, [projector(+1)] * n)
             + product_expectation(cfg, [projector(-1)] * n))
        worst = max(worst, abs(p - 1.0))
        for phi in PHIS:
            ops = [basis_observable(MeasBasis.equator(phi))] * n
            m = product_expectation(cfg, ops)
            worst = max(worst, abs(m - np.cos(n * phi)))
    analytic_ok = worst < 1e-9

    # trajectory path at 1e5 shots
    n = 14
    cfg = ProtocolConfig("ghz", n)
    zb = run_batch(cfg, NOISELESS, [MeasBasis.z()] * n, 50000, seed=100)
    p_est = populations(zb, n)
    traj_ok = p_est.value == 1.0
    per_phi = 2000
    for phi in PHIS:
        batch = run_batch(cfg, NOISELESS, [MeasBasis.equator(phi)] * n,
                          per_phi, seed=101 + int(phi * 1000))
        m = np.prod(batch.outcomes.astype(np.int64), axis=1).mean()
        want = np.cos(n * phi)
        sig = max(np.sqrt((1 - want ** 2) / per_phi), 1.0 / per_phi)
        traj_ok &= abs(m - want) < 4 * sig
    report(capsys, 1, "exact GHZ algebra", analytic_ok and traj_ok,
           f"max analytic deviation {worst:.2e}")


# ---------------------------------------------------------------------------
# 2. exact cluster algebra

def test_criterion_2_exact_cluster(capsys):
    worst = 0.0
    for n in range(2, 13):
        cfg = ProtocolConfig("cluster", n)
        for s in CanonicalTarget("cluster", n).stabilizer_strings():
            val = product_expectation(cfg, list(s))
            worst = max(worst, abs(val - 1.0))
    oracle_ok = worst < 1e-9

    n = 15
    cfg = ProtocolConfig("cluster", n)
    odd = run_batch(cfg, NOISELESS,
                    [MeasBasis.x() if k % 2 == 0 else MeasBasis.z()
                     for k in range(n)], 20000, seed=200)
    even = run_batch(cfg, NOISELESS,
                     [MeasBasis.z() if k % 2 == 0 else MeasBasis.x()
                      for k in range(n)], 20000, seed=201)
    ests = stabilizers([odd, even], n)
    traj_ok = all(e is not None and abs(e.value - 1.0) <= 4 * max(e.stderr,
                                                                  1e-4)
                  for e in ests)
    bound = cluster_witness(odd, even, n).bound
    bound_ok = abs(bound.value - 1.0) <= 4 * max(bound.stderr, 1e-4)
    report(capsys, 2, "exact cluster algebra",
           oracle_ok and traj_ok and bound_ok,
           f"max oracle deviation {worst:.2e}, "
           f"N=15 trajectory bound {bound.value:.4f}")


# ---------------------------------------------------------------------------
# 3. oracle equivalence on random basis plans

def test_criterion_3_oracle_equivalence(capsys):
    rs = np.random.default_rng(321)
    worst = 0.0
    shots = 100000
    for trial in range(20):
        n = int(rs.integers(2, 7))
        kind = ["ghz", "cluster", "custom"][trial % 3]
        kwargs = {}
        if kind == "custom":
            kwargs["thetas"] = tuple(rs.uniform(0, np.pi, n - 1))
        cfg = ProtocolConfig(kind, n, **kwargs)
        bases = []
        for _ in range(n):
            r = rs.random()
            if r < 0.3:
                bases.append(MeasBasis.z())
            elif r < 0.6:
                bases.append(MeasBasis.x())
            else:
                bases.append(MeasBasis.equator(float(rs.uniform(0, np.pi))))
        sched = build_schedule(cfg)
        state = dense_run(sched)
        ref = register_distribution(state.photon_register(), bases)

        batch = run_batch(sched, NOISELESS, bases, shots,
                          seed=400 + trial)
        bits = (batch.outcomes < 0).astype(np.int64)
        idx = bits @ (1 << np.arange(n - 1, -1, -1))
        emp = np.bincount(idx, minlength=2 ** n) / shots
        tvd = 0.5 * np.abs(emp - ref).sum()
        worst = max(worst, tvd)
    report(capsys, 3, "oracle equivalence", worst < 0.02,
           f"worst TVD {worst:.4f} over 20 plans")


# ---------------------------------------------------------------------------
# 4. rate scaling

def test_criterion_4_rate_scaling(capsys):
    noise = NoiseConfig(eta0=ETA / 0.7, eta_d=0.7)
    duration = 24 * 3600.0
    result = rate_benchmark(ProtocolConfig("rate", 14), noise, duration,
                            seed=500)
    per_minute = result.rates[13] * 60.0
    fit = rate_fit(result.counts, result.duration, eta_detection=0.7)
    rate_ok = abs(per_minute - 0.43) < 0.05
    eta_ok = abs(fit.eta.value - ETA) < 0.005
    report(capsys, 4, "rate scaling", rate_ok and eta_ok,
           f"14-fold {per_minute:.3f}/min, eta {fit.eta.value:.4f}")


# ---------------------------------------------------------------------------
# 5. witness soundness on sampled noisy states

def _outcome_signs(n):
    bits = np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1) & 1
    return 1 - 2 * bits          # (2^n, n) entries +-1


def ghz_bound_exact(psi, n):
    signs = _outcome_signs(n)
    px = register_distribution(psi, [MeasBasis.x()] * n)
    t1 = float(px[np.prod(signs, axis=1) == 1].sum())
    pz = register_distribution(psi, [MeasBasis.z()] * n)
    allsame = np.abs(signs.sum(axis=1)) == n
    t2 = float(pz[allsame].sum())
    return t1 + t2 - 1.0


def cluster_bound_exact(psi, n):
    signs = _outcome_signs(n)
    terms = []
    for parity_class in (1, 0):
        bases = [MeasBasis.x() if (k % 2 == 0) == (parity_class == 1)
                 else MeasBasis.z() for k in range(n)]
        probs = register_distribution(psi, bases)
        ok = np.ones(2 ** n, dtype=bool)
        for k in range(1, n + 1):
            if k % 2 != parity_class:
                continue
            window = [k - 1]
            if k >= 2:
                window.append(k - 2)
            if k <= n - 1:
                window.append(k)
            ok &= np.prod(signs[:, window], axis=1) == 1
        terms.append(float(probs[ok].sum()))
    return terms[0] + terms[1] - 1.0


def _random_local_unitary(rs, strength):
    axis = rs.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rs.normal(0.0, strength)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.diag([1.0, -1.0]).astype(complex)
    h = axis[0] * sx + axis[1] * sy + axis[2] * sz
    return (np.cos(angle / 2) * np.eye(2)
            - 1j * np.sin(angle / 2) * h)


def test_criterion_5_witness_soundness(capsys):
    rs = np.random.default_rng(654)
    worst_gap = -np.inf
    for trial in range(200):
        n = 2 + trial % 4
        kind = "ghz" if trial % 2 == 0 else "cluster"
        sched = build_schedule(ProtocolConfig(kind, n))
        state = dense_run(sched)
        psi = state.photon_register().reshape(-1)
        # local coherent errors plus a global admixture
        psi = psi.reshape((2,) * n)
        for k in range(n):
            u = _random_local_unitary(rs, strength=0.35)
            psi = np.moveaxis(np.tensordot(u, psi, axes=(1, k)), 0, k)
        psi = psi.reshape(-1)
        chi = rs.normal(size=2 ** n) + 1j * rs.normal(size=2 ** n)
        chi /= np.linalg.norm(chi)
        eps = rs.uniform(0.0, 0.5)
        psi = psi + eps * chi
        psi /= np.linalg.norm(psi)

        target = CanonicalTarget(kind, n).vector()
        fid = abs(np.vdot(target, psi)) ** 2
        bound = (ghz_bound_exact(psi, n) if kind == "ghz"
                 else cluster_bound_exact(psi, n))
        worst_gap = max(worst_gap, bound - fid)
    # exact expectations: the bound may never exceed the fidelity
    report(capsys, 5, "witness soundness", worst_gap <= 1e-9,
           f"max (bound - fidelity) = {worst_gap:.2e} over 200 states")


# ---------------------------------------------------------------------------
# 6 + 7. calibrated-noise decay

# Quasi-static field noise gives a Gaussian-in-N coherence decay, so the
# curve is still flat at N = 2-3; the linear decay law is fitted over the
# regime where it actually holds (N >= 4), with equal event targets per
# point so no region dominates the weighted fit.
GHZ_NS = (4, 6, 8, 10, 12)
GHZ_EVENTS = {4: 2500, 6: 2500, 8: 2500, 10: 2500, 12: 2500}

# records do not depend on the thread count (criterion 9), so the long
# decay runs of criteria 6-7 split their chunks over two worker threads
DECAY_THREADS = 2


@pytest.fixture(scope="module")
def ghz_decay():
    fids = []
    for n in GHZ_NS:
        cfg = ProtocolConfig("ghz", n)
        shots = int(GHZ_EVENTS[n] / ETA ** n) + 1
        zb = run_batch(cfg, CAL, [MeasBasis.z()] * n, shots, seed=600 + n,
                       threads=DECAY_THREADS, abort_on_loss=True)
        p = populations(zb, n)
        del zb  # tens of millions of shots at N = 12; free before parity
        fit = parity_visibility_run(cfg, CAL, shots, seed=700 + n,
                                    threads=DECAY_THREADS)
        fids.append(ghz_fidelity(p, fit.amplitude))
    return decay_fit(GHZ_NS, fids), fids


@pytest.mark.slow
def test_criterion_6_ghz_decay(capsys, ghz_decay):
    fit, _ = ghz_decay
    slope = fit.slope.value
    crossing = fit.crossing.value if fit.crossing else float("nan")
    ok = 0.005 <= slope <= 0.020 and 30.0 <= crossing <= 60.0
    report(capsys, 6, "calibrated GHZ decay", ok,
           f"slope {100 * slope:.2f}%/photon, 50% crossing {crossing:.1f}")


@pytest.mark.slow
def test_criterion_7_cluster_vs_ghz(capsys, ghz_decay):
    ghz_fit, _ = ghz_decay
    ns = (2, 3, 4, 5, 6)
    bounds = []
    for n in ns:
        cfg = ProtocolConfig("cluster", n)
        shots = int(6000 / ETA ** n) + 1
        odd = run_batch(cfg, CAL,
                        [MeasBasis.x() if k % 2 == 0 else MeasBasis.z()
                         for k in range(n)], shots, seed=800 + n,
                        threads=DECAY_THREADS, abort_on_loss=True)
        even = run_batch(cfg, CAL,
                         [MeasBasis.z() if k % 2 == 0 else MeasBasis.x()
                          for k in range(n)], shots, seed=850 + n,
                         threads=DECAY_THREADS, abort_on_loss=True)
        bounds.append(cluster_witness(odd, even, n).bound)
    cl_fit = decay_fit(ns, bounds)
    ratio = cl_fit.slope.value / ghz_fit.slope.value
    report(capsys, 7, "cluster-vs-GHZ decay ordering", ratio >= 2.0,
           f"cluster slope {100 * cl_fit.slope.value:.2f}%/photon = "
           f"{ratio:.1f}x GHZ")


# ---------------------------------------------------------------------------
# 8. dynamical decoupling

def test_criterion_8_dynamical_decoupling(capsys):
    # (a) calibration closure: the probe's 0.66 crossing sits at 1.2 ms
    # within 10%; probe at envelope peaks (multiples of 5 us)
    delays = np.arange(900, 1450, 50) * 1e-6
    ps = []
    for i, t in enumerate(delays):
        p, se, _ = coherence_probe(float(t), FIELD_ONLY, 30000,
                                   seed=900 + i)
        ps.append(p)
    ps = np.array(ps)
    cross = None
    for i in range(len(delays) - 1):
        if ps[i] >= 0.66 > ps[i + 1]:
            frac = (ps[i] - 0.66) / (ps[i] - ps[i + 1])
            cross = delays[i] + frac * (delays[i + 1] - delays[i])
            break
    a_ok = cross is not None and abs(cross - 1.2e-3) < 0.12e-3

    # (b) interior visibility maximum within 30% of 85 us
    taus = np.arange(0.0, 251e-6, 25e-6)
    scan = dd_scan(taus, FIELD_ONLY, 37500, seed=950)
    vis = np.array([v.value for _, v in scan])
    k = int(np.argmax(vis))
    tau_star = scan[k][0]
    b_ok = 0 < k < len(taus) - 1 and abs(tau_star - 85e-6) <= 0.3 * 85e-6

    # (c) disabling the manifold sign flip kills the rephasing
    on = dd_scan([tau_star], FIELD_ONLY, 100000, seed=960)[0][1]
    off = dd_scan([tau_star], FIELD_ONLY, 100000, seed=961,
                  flip_f2_sign=False)[0][1]
    sigma = float(np.hypot(on.stderr, off.stderr))
    c_ok = (on.value - off.value) >= 5 * sigma

    detail = (f"crossing {1e3 * (cross or np.nan):.3f} ms, "
              f"tau* {1e6 * tau_star:.0f} us, "
              f"echo on/off {on.value:.3f}/{off.value:.3f}")
    report(capsys, 8, "dynamical decoupling", a_ok and b_ok and c_ok,
           detail)


# ---------------------------------------------------------------------------
# 9. determinism and round-trip

def test_criterion_9_determinism_roundtrip(capsys, tmp_path):
    from photonchain.io import read_records, write_records, write_summary

    noise = NoiseConfig(eta0=0.8, raman_sigma=0.1, closing_scatter_p=0.05,
                        b_sigma=1e-3, b_model="per-cycle")
    cfg = ProtocolConfig("cluster", 4)
    bases = [MeasBasis.x(), MeasBasis.z(), MeasBasis.equator(0.7),
             MeasBasis.z()]
    shots = (1 << 15) + 500
    a = run_batch(cfg, noise, bases, shots, seed=42, threads=1)
    b = run_batch(cfg, noise, bases, shots, seed=42, threads=4)
    det_ok = (np.array_equal(a.outcomes, b.outcomes)
              and np.array_equal(a.detected, b.detected)
              and np.array_equal(a.deltas, b.deltas)
              and np.array_equal(a.attempts, b.attempts))

    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_records(p1, a, "feedc0de00000000", seed=42)
    write_records(p2, b, "feedc0de00000000", seed=42)
    file_ok = p1.read_bytes() == p2.read_bytes()

    _, back = read_records(p1)
    rt = back[0]
    rt_ok = (rt.bases == a.bases
             and np.array_equal(rt.outcomes, a.outcomes)
             and np.array_equal(rt.detected, a.detected)
             and np.array_equal(rt.deltas, a.deltas)
             and np.array_equal(rt.attempts, a.attempts)
             and np.array_equal(rt.run_ids, a.run_ids))

    # summaries from original and round-tripped records are byte-identical
    from photonchain.analysis import stabilizers as stabs

    s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
    write_summary(s1, {"stabs": [e for e in stabs(a, 4) if e]})
    write_summary(s2, {"stabs": [e for e in stabs(rt, 4) if e]})
    sum_ok = s1.read_bytes() == s2.read_bytes()

    report(capsys, 9, "determinism and round-trip",
           det_ok and file_ok and rt_ok and sum_ok)
