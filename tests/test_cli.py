"""End-to-end CLI: simulate -> analyze pipelines and exit codes."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from photonchain.cli import main, operating_noise
from photonchain.engine import PLAN_SEED_STRIDE
from photonchain.io import (ExecutionPlan, MeasurementPlan, RunConfig,
                            read_records)
from photonchain.schedule import ProtocolConfig


def run(argv):
    return main(argv)


def test_simulate_analyze_ghz(tmp_path):
    out = str(tmp_path)
    assert run(["simulate", "--kind", "ghz", "--n", "3", "--shots", "2000",
                "--seed", "7", "--measurement", "z", "--noiseless",
                "--outdir", out, "--out", "z.csv"]) == 0
    assert run(["simulate", "--kind", "ghz", "--n", "3", "--shots", "500",
                "--seed", "8", "--measurement", "parity-grid",
                "--phi-points", "9", "--noiseless",
                "--outdir", out, "--out", "grid.csv"]) == 0
    assert run(["analyze", "--records", f"{out}/z.csv", f"{out}/grid.csv",
                "--outdir", out, "--out", "summary.json"]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    n3 = summary["n3"]
    assert n3["population"]["value"] == 1.0
    assert n3["coherence"]["value"] == pytest.approx(1.0, abs=0.05)
    assert n3["fidelity"]["value"] == pytest.approx(1.0, abs=0.03)


def test_simulate_analyze_cluster_witness(tmp_path):
    out = str(tmp_path)
    for preset, name, seed in (("alternating-odd", "odd.csv", "1"),
                               ("alternating-even", "even.csv", "2")):
        assert run(["simulate", "--kind", "cluster", "--n", "4",
                    "--shots", "1500", "--seed", seed,
                    "--measurement", preset, "--noiseless",
                    "--outdir", out, "--out", name]) == 0
    assert run(["analyze", "--records", f"{out}/odd.csv", f"{out}/even.csv",
                "--outdir", out, "--out", "s.json"]) == 0
    summary = json.loads((tmp_path / "s.json").read_text())
    assert summary["n4"]["cluster_witness"]["bound"]["value"] == 1.0
    stabs = summary["n4"]["stabilizers"]
    assert all(stabs[f"S{k}"]["value"] == 1.0 for k in range(1, 5))


def test_rate_mode_and_counts_analysis(tmp_path):
    out = str(tmp_path)
    assert run(["simulate", "--kind", "rate", "--n", "6", "--shots", "1",
                "--duration", "600", "--seed", "3",
                "--outdir", out, "--out", "counts.csv"]) == 0
    assert run(["analyze", "--counts", f"{out}/counts.csv",
                "--eta-d", "1.0",
                "--outdir", out, "--out", "rate.json"]) == 0
    summary = json.loads((tmp_path / "rate.json").read_text())
    # noiseless: every attempt succeeds
    assert summary["rate"]["eta"]["value"] == pytest.approx(1.0, abs=1e-6)
    # the rates are read at the file's own 600 s, not at a default
    rows = np.genfromtxt(tmp_path / "counts.csv", delimiter=",", names=True)
    assert summary["rate"]["rates_per_s"] == pytest.approx(
        list(rows["rate_per_s"]), rel=1e-12)


def test_config_file_and_hash_guard(tmp_path):
    out = str(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "protocol": {"kind": "ghz", "n_photons": 2},
        "execution": {"shots": 200, "seed": 1},
    }))
    assert run(["simulate", "--config", str(cfg), "--outdir", out,
                "--out", "r.csv"]) == 0
    assert run(["analyze", "--records", f"{out}/r.csv",
                "--config", str(cfg), "--outdir", out]) == 0
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"kind": "ghz", "n_photons": 5}))
    assert run(["analyze", "--records", f"{out}/r.csv",
                "--config", str(other), "--outdir", out]) == 2


def test_invalid_usage_exit_codes(tmp_path):
    out = str(tmp_path)
    assert run(["simulate", "--outdir", out]) == 2          # no kind/config
    bad = tmp_path / "bad.json"
    bad.write_text('{"protocol": {"kind": "ghz", "zzz": 1}}')
    assert run(["simulate", "--config", str(bad), "--outdir", out]) == 2
    assert run(["analyze", "--outdir", out]) == 2            # nothing given
    assert run(["analyze", "--records", f"{out}/missing.csv",
                "--outdir", out]) == 3


def test_phi_points_below_two_exit_code(tmp_path, capsys):
    # 0 is an override like any other value, not "flag not given"
    for points in ("0", "1"):
        assert run(["simulate", "--kind", "ghz", "--n", "2", "--shots", "10",
                    "--measurement", "parity-grid", "--phi-points", points,
                    "--outdir", str(tmp_path)]) == 2
        assert "phi grid" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("keep", ["header", "custom"])
def test_no_estimator_exit_code(tmp_path, capsys, keep):
    # a records file without rows, or holding only a custom plan, gives
    # its photon number no estimate
    out = str(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "protocol": {"kind": "ghz", "n_photons": 3},
        "measurement": {"preset": "custom", "bases": ["Z", "X", "X"]},
        "execution": {"shots": 50, "seed": 1}}))
    assert run(["simulate", "--config", str(cfg), "--noiseless",
                "--outdir", out, "--out", "r.csv"]) == 0
    path = tmp_path / "r.csv"
    if keep == "header":
        path.write_text("".join(path.read_text().splitlines(True)[:2]))
    capsys.readouterr()
    assert run(["analyze", "--records", str(path), "--outdir", out]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "N=3" in err
    assert not (tmp_path / "summary.json").exists()


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("PHOTONCHAIN_OUTDIR", str(tmp_path / "envout"))
    assert run(["simulate", "--kind", "ghz", "--n", "2", "--shots", "100",
                "--seed", "0", "--noiseless", "--out", "r.csv"]) == 0
    assert (tmp_path / "envout" / "r.csv").exists()


def test_malformed_records_cell_exit_code(tmp_path, capsys):
    out = str(tmp_path)
    assert run(["simulate", "--kind", "ghz", "--n", "2", "--shots", "10",
                "--seed", "0", "--noiseless", "--outdir", out,
                "--out", "r.csv"]) == 0
    path = tmp_path / "r.csv"
    lines = path.read_text().splitlines()
    lines[3] = lines[3][:-2] + "+9"     # last outcome cell of file line 4
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["analyze", "--records", str(path), "--outdir", out]) == 2
    assert "r.csv:4: malformed cell" in capsys.readouterr().err


def test_seed_out_of_range_exit_code(tmp_path, capsys):
    assert run(["simulate", "--kind", "ghz", "--n", "2", "--shots", "10",
                "--seed", "-1", "--outdir", str(tmp_path)]) == 2
    assert "seed" in capsys.readouterr().err


def test_no_events_exit_code(tmp_path, capsys):
    # at operating noise 64 shots per setting leave an alternating
    # setting of the 6-photon cluster witness without a full detection
    out = str(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "protocol": {"kind": "cluster", "n_photons": 6},
        "noise": asdict(operating_noise()),
        "execution": {"shots": 64, "seed": 208}}))
    for preset in ("alternating-odd", "alternating-even"):
        assert run(["simulate", "--config", str(cfg),
                    "--measurement", preset, "--outdir", out,
                    "--out", f"{preset}.csv"]) == 0
    capsys.readouterr()
    assert run(["analyze", "--records", f"{out}/alternating-odd.csv",
                f"{out}/alternating-even.csv", "--outdir", out]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_degenerate_fit_exit_code(tmp_path, capsys):
    counts = tmp_path / "counts.csv"
    counts.write_text("n,counts,rate_per_s\n1,40,1.0\n2,3,0.1\n")
    assert run(["analyze", "--counts", str(counts),
                "--outdir", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("text", ["", "\n\n"])
def test_empty_counts_file_refused(tmp_path, capsys, text):
    counts = tmp_path / "counts.csv"
    counts.write_text(text)
    assert run(["analyze", "--counts", str(counts),
                "--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("eta_d", ["0", "-1", "nan", "1.5"])
def test_eta_d_outside_unit_interval_refused(tmp_path, capsys, eta_d):
    counts = tmp_path / "counts.csv"
    counts.write_text("n,counts,rate_per_s\n1,40,1.0\n2,16,0.4\n"
                      "3,7,0.175\n")
    assert run(["analyze", "--counts", str(counts), "--eta-d", eta_d,
                "--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "summary.json").exists()


def test_shots_beyond_address_space_refused(tmp_path, capsys):
    # 10^15 x 2 bytes of flags exceed the address space: the allocation
    # fails at once, without touching memory
    assert run(["simulate", "--kind", "ghz", "--n", "2",
                "--shots", str(10 ** 15), "--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("duration", ["inf", "1e30"])
def test_absurd_rate_duration_refused(tmp_path, capsys, duration):
    # inf is refused by the config; 1e30 s holds more runs than the run-id
    # range [0, 2^63), refused before any run is drawn
    assert run(["simulate", "--kind", "rate", "--n", "14", "--duration",
                duration, "--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_rate_config_with_zero_period_runs(tmp_path, capsys):
    # a zero repetition period leaves the schedule plus overhead, 0.963 ms
    # at N = 14, as the run period
    config = tmp_path / "rate.json"
    config.write_text(json.dumps({
        "protocol": {"kind": "rate", "n_photons": 14,
                     "repetition_period": 0},
        "execution": {"duration": 60.0}}))
    assert run(["simulate", "--config", str(config),
                "--outdir", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert err == "" and "Traceback" not in out
    assert out.startswith(f"simulated {int(60.0 / 0.963e-3)} runs over 60 s")
    config.write_text(config.read_text().replace('"repetition_period": 0',
                                                 '"repetition_period": -1'))
    assert run(["simulate", "--config", str(config),
                "--outdir", str(tmp_path)]) == 2
    assert "repetition period" in capsys.readouterr().err


def test_integrity_error_exit_code(tmp_path, monkeypatch):
    from photonchain import engine
    from photonchain.engine import NumericalIntegrityError

    def drifting(*args, **kwargs):
        raise NumericalIntegrityError("state norm drifted to 1.1")

    monkeypatch.setattr(engine, "run_batch", drifting)
    assert run(["simulate", "--kind", "ghz", "--n", "2", "--shots", "10",
                "--outdir", str(tmp_path)]) == 4


@pytest.mark.parametrize("text", [
    '{"kind": "custom", "n_photons": 3, "thetas": 1.5}',
    '{"kind": "ghz", "timings": 5}',
    '{"protocol": {"kind": "ghz"}, "noise": {"detection_chain": 0.7}}',
    '{"protocol": {"kind": "ghz"}, "measurement": {"bases": 5}}',
    '{"protocol": 5}',
    '{"protocol": {"kind": "ghz"}, "execution": {"shots": 2.5}}',
    '{"protocol": {"kind": "ghz"}, "execution": {"shots": 1e400}}',
])
def test_malformed_config_file_exit_code(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert run(["simulate", "--config", str(cfg),
                "--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("figure", ["fig2", "fig3", "fig4", "edfig3"])
def test_reproduce_seed_out_of_range_exit_code(tmp_path, capsys, figure):
    assert run(["reproduce", figure, "--seed", "-1",
                "--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "seed" in err


def test_reproduce_fig3_records_provenance(tmp_path, capsys):
    seed = 5
    assert run(["reproduce", "fig3", "--seed", str(seed),
                "--outdir", str(tmp_path)]) == 0
    assert len(list(tmp_path.glob("*records*"))) == 2
    for i, preset in enumerate(("alternating-odd", "alternating-even")):
        cfg = RunConfig(ProtocolConfig("cluster", 5), operating_noise(),
                        MeasurementPlan(preset=preset),
                        ExecutionPlan(shots=400000,
                                      seed=seed + i * PLAN_SEED_STRIDE,
                                      abort_on_loss=True))
        path = tmp_path / f"fig3_records_n5_{preset}.csv"
        header, batches = read_records(path, expect_hash=cfg.hash())
        assert header["seed"] == cfg.execution.seed
        assert [b.bases for b in batches] == [
            tuple(cfg.measurement.plans(5)[0])]
        assert batches[0].n_shots == 400000
    summary = json.loads((tmp_path / "fig3_summary.json").read_text())
    assert sorted(summary["stabilizers"]) == [f"S{k}" for k in range(1, 6)]
    assert -1.0 <= summary["cluster_witness"]["bound"]["value"] <= 1.0


def test_analyze_merges_every_file_of_one_plan(tmp_path):
    # two alternating-odd/even file pairs: the witness reads all four files
    out, events, paths = str(tmp_path), {}, []
    for i, preset in enumerate(("alternating-odd", "alternating-even") * 2):
        name = f"{preset}_{i}.csv"
        assert run(["simulate", "--kind", "cluster", "--n", "4",
                    "--shots", "800", "--seed", str(20 + i),
                    "--measurement", preset, "--outdir", out,
                    "--out", name]) == 0
        paths.append(f"{out}/{name}")
        _, (batch,) = read_records(paths[-1])
        events[preset] = (events.get(preset, 0)
                          + int(batch.detected.all(axis=1).sum()))
    assert run(["analyze", "--records", *paths, "--outdir", out,
                "--out", "s.json"]) == 0
    bound = json.loads((tmp_path / "s.json").read_text())["n4"][
        "cluster_witness"]["bound"]
    assert bound["n_events"] == sum(events.values())


def test_analyze_refuses_one_plan_at_two_run_periods(tmp_path, capsys):
    out = str(tmp_path)
    for name, period in (("a.csv", 1.1e-3), ("b.csv", 2.2e-3)):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"kind": "ghz", "n_photons": 3,
                                   "repetition_period": period}))
        assert run(["simulate", "--config", str(cfg), "--shots", "100",
                    "--measurement", "z", "--outdir", out,
                    "--out", name]) == 0
    capsys.readouterr()
    assert run(["analyze", "--records", f"{out}/a.csv", f"{out}/b.csv",
                "--outdir", out]) == 2
    assert "run periods" in capsys.readouterr().err
