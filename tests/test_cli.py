"""End-to-end CLI: simulate -> analyze pipelines and exit codes."""

import json
from dataclasses import asdict

import pytest

from photonchain.cli import main, operating_noise


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
                "--duration", "600", "--eta-d", "1.0",
                "--outdir", out, "--out", "rate.json"]) == 0
    summary = json.loads((tmp_path / "rate.json").read_text())
    # noiseless: every attempt succeeds
    assert summary["rate"]["eta"]["value"] == pytest.approx(1.0, abs=1e-6)


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


def test_degenerate_fit_exit_code(tmp_path):
    counts = tmp_path / "counts.csv"
    counts.write_text("n,counts,rate_per_s\n1,40,1.0\n2,3,0.1\n3,0,0.0\n")
    with pytest.warns(UserWarning, match="zero-count"):
        code = run(["analyze", "--counts", str(counts),
                    "--outdir", str(tmp_path)])
    assert code == 4


def test_integrity_error_exit_code(tmp_path, monkeypatch):
    from photonchain import cli
    from photonchain.engine import NumericalIntegrityError

    def drifting(*args, **kwargs):
        raise NumericalIntegrityError("state norm drifted to 1.1")

    monkeypatch.setattr(cli, "run_batch", drifting)
    assert run(["simulate", "--kind", "ghz", "--n", "2", "--shots", "10",
                "--outdir", str(tmp_path)]) == 4
