"""Config parsing, records round-trips and deterministic summaries."""

import json
from dataclasses import replace

import numpy as np
import pytest

from photonchain.analysis import Estimate
from photonchain.engine import run_batch
from photonchain.io import (
    ConfigError,
    ExecutionPlan,
    MeasurementPlan,
    RecordsFormatError,
    RunConfig,
    load_config,
    parse_config,
    read_records,
    write_curve,
    write_records,
    write_summary,
)
from photonchain.levels import MeasBasis
from photonchain.noise import NoiseConfig
from photonchain.schedule import ProtocolConfig


def test_parse_sectioned_config():
    cfg = parse_config({
        "protocol": {"kind": "cluster", "n_photons": 5,
                     "timings": {"cycle_cluster": 250e-6}},
        "noise": {"eta0": 0.8, "b_sigma": 1e-3, "b_model": "per-cycle"},
        "measurement": {"preset": "parity-grid", "phi_points": 13},
        "execution": {"shots": 777, "seed": 3, "threads": 2},
    })
    assert cfg.protocol.kind == "cluster"
    assert cfg.protocol.timings.cycle_cluster == pytest.approx(250e-6)
    assert cfg.noise.b_model == "per-cycle"
    assert cfg.measurement.phi_points == 13
    assert cfg.execution.shots == 777


def test_parse_flat_shorthand():
    cfg = parse_config({"kind": "ghz", "n_photons": 8})
    assert cfg.protocol.n_photons == 8
    assert cfg.noise == NoiseConfig()


def test_unknown_keys_rejected_by_name():
    with pytest.raises(ConfigError, match="frobnicate"):
        parse_config({"protocol": {"kind": "ghz", "frobnicate": 1}})
    with pytest.raises(ConfigError, match="extras"):
        parse_config({"protocol": {"kind": "ghz"}, "extras": {}})
    with pytest.raises(ConfigError, match="kind"):
        parse_config({"protocol": {"n_photons": 3}})
    with pytest.raises(ConfigError):
        parse_config({"kind": "bell"})
    with pytest.raises(ConfigError):
        parse_config([1, 2])


def test_invalid_section_values_rejected():
    with pytest.raises(ConfigError):
        parse_config({"kind": "ghz", "n_photons": 0})
    with pytest.raises(ConfigError):
        parse_config({"protocol": {"kind": "ghz"},
                      "execution": {"shots": -5}})
    with pytest.raises(ConfigError):
        parse_config({"protocol": {"kind": "ghz"},
                      "measurement": {"preset": "diagonal"}})


def test_load_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "ghz", "n_photons": 4}))
    assert load_config(path).protocol.n_photons == 4
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_config_hash_stable_and_sensitive():
    a = parse_config({"kind": "ghz", "n_photons": 4})
    b = parse_config({"kind": "ghz", "n_photons": 4})
    c = parse_config({"kind": "ghz", "n_photons": 5})
    assert a.hash() == b.hash()
    assert a.hash() != c.hash()
    assert len(a.hash()) == 16


def test_measurement_plans():
    assert MeasurementPlan("z").plans(3) == [[MeasBasis.z()] * 3]
    grid = MeasurementPlan("parity-grid", phi_points=9).plans(2)
    assert len(grid) == 9
    assert grid[0][0] == MeasBasis.equator(0.0)
    assert grid[-1][0] == MeasBasis.equator(np.pi)
    odd = MeasurementPlan("alternating-odd").plans(4)[0]
    assert [b.kind for b in odd] == ["E", "Z", "E", "Z"]
    custom = MeasurementPlan("custom", bases=("Z", "X", "E:0.5"))
    assert custom.plans(3)[0][2] == MeasBasis.equator(0.5)
    with pytest.raises(ConfigError):
        custom.plans(2)
    with pytest.raises(ConfigError):
        MeasurementPlan("custom")


def sample_batches(noise=NoiseConfig(eta0=0.7, b_sigma=1e-3)):
    cfg = ProtocolConfig("ghz", 3)
    return [
        run_batch(cfg, noise, [MeasBasis.z()] * 3, 300, seed=5),
        run_batch(cfg, noise, [MeasBasis.equator(0.4)] * 3, 300, seed=6),
    ]


def test_records_roundtrip(tmp_path):
    path = tmp_path / "records.csv"
    batches = sample_batches()
    write_records(path, batches, "cafe0123cafe0123", seed=5)
    header, back = read_records(path, expect_hash="cafe0123cafe0123")
    assert header["n"] == 3 and header["seed"] == 5
    assert header["period"] == batches[0].period
    assert len(back) == 2
    for orig, rt in zip(batches, back):
        assert rt.bases == orig.bases
        assert np.array_equal(rt.detected, orig.detected)
        assert np.array_equal(rt.outcomes, orig.outcomes)
        assert np.array_equal(rt.attempts, orig.attempts)
        assert np.array_equal(rt.deltas, orig.deltas)   # repr round-trip
        assert np.array_equal(rt.run_ids, orig.run_ids)
        assert rt.period == orig.period


def test_records_mixed_periods_rejected(tmp_path):
    batch = sample_batches()[0]
    with pytest.raises(ValueError, match="period"):
        write_records(tmp_path / "r.csv",
                      [batch, replace(batch, period=2 * batch.period)], "h", 1)


def test_records_hash_guard(tmp_path):
    path = tmp_path / "records.csv"
    write_records(path, sample_batches()[:1], "aaaa", seed=0)
    with pytest.raises(RecordsFormatError, match="config hash"):
        read_records(path, expect_hash="bbbb")
    read_records(path)   # no expectation: fine


def test_records_format_guards(tmp_path):
    bad = tmp_path / "x.csv"
    bad.write_text("not a records file\n")
    with pytest.raises(RecordsFormatError):
        read_records(bad)
    with pytest.raises(ValueError):
        write_records(tmp_path / "y.csv", [], "h", 0)


@pytest.mark.parametrize("col,cell", [(3, "yes"), (5, "+2"), (0, "x")])
def test_malformed_cell_names_its_line(tmp_path, col, cell):
    path = tmp_path / "records.csv"
    write_records(path, sample_batches()[:1], "h", seed=0)
    lines = path.read_text().splitlines()
    row = lines[4].split(",")      # file line 5: the third shot
    row[col] = cell
    lines[4] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(RecordsFormatError, match=":5: malformed cell"):
        read_records(path)


def test_seed_range():
    ExecutionPlan(seed=2 ** 63 - 1)
    for seed in (-1, 2 ** 63):
        with pytest.raises(ConfigError, match="seed"):
            ExecutionPlan(seed=seed)


def test_summary_deterministic(tmp_path):
    summary = {"b": Estimate(0.5, 0.01, 100),
               "a": {"nested": [1.0, np.float64(2.5)]}}
    p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
    write_summary(p1, summary)
    write_summary(p2, dict(reversed(list(summary.items()))))
    assert p1.read_bytes() == p2.read_bytes()
    loaded = json.loads(p1.read_text())
    assert loaded["b"] == {"value": 0.5, "stderr": 0.01, "n_events": 100}


def test_write_curve(tmp_path):
    path = tmp_path / "curve.csv"
    write_curve(path, {"x": [0.0, 0.1], "y": [1.0, 0.5]})
    rows = np.genfromtxt(path, delimiter=",", names=True)
    assert rows["x"][1] == pytest.approx(0.1)
    with pytest.raises(ValueError):
        write_curve(path, {"x": [0.0], "y": [1.0, 2.0]})


def test_runconfig_defaults():
    cfg = RunConfig(ProtocolConfig("ghz", 2))
    assert cfg.execution == ExecutionPlan()
    d = cfg.canonical()
    assert set(d) == {"protocol", "noise", "measurement", "execution"}
