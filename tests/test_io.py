"""Config parsing, records round-trips and deterministic summaries."""

import csv
import functools
import json
import math
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonchain.analysis import Estimate
from photonchain.cli import main
from photonchain.engine import RecordBatch, run_batch
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
        "execution": {"shots": 777, "seed": 3, "abort_on_loss": True},
    })
    assert cfg.protocol.kind == "cluster"
    assert cfg.protocol.timings.cycle_cluster == pytest.approx(250e-6)
    assert cfg.noise.b_model == "per-cycle"
    assert cfg.measurement.phi_points == 13
    assert cfg.execution.shots == 777
    assert cfg.execution.abort_on_loss


def test_parse_flat_shorthand():
    cfg = parse_config({"kind": "ghz", "n_photons": 8})
    assert cfg.protocol.n_photons == 8
    assert cfg.noise == NoiseConfig()


def test_unknown_keys_rejected_by_name():
    with pytest.raises(ConfigError, match="frobnicate"):
        parse_config({"protocol": {"kind": "ghz", "frobnicate": 1}})
    with pytest.raises(ConfigError, match="extras"):
        parse_config({"protocol": {"kind": "ghz"}, "extras": {}})
    with pytest.raises(ConfigError, match="threads"):
        parse_config({"protocol": {"kind": "ghz"},
                      "execution": {"threads": 2}})
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
    batch = sample_batches()[0]
    with pytest.raises(ValueError, match="outcomes"):
        write_records(tmp_path / "z.csv",
                      replace(batch, outcomes=2 * batch.outcomes), "h", 0)


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


@pytest.mark.parametrize("duration", [0.0, -1.0, math.inf, math.nan])
def test_duration_positive_and_finite(duration):
    with pytest.raises(ConfigError, match="duration"):
        ExecutionPlan(duration=duration)


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


def test_write_curve_keeps_integer_columns(tmp_path):
    # counts files hold integer photon numbers and counts; files written
    # before integers were kept (every cell a float) fit the same
    n = np.arange(1, 5)
    counts = np.array([54545, 23552, 10170, 4391], dtype=np.int64)
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_curve(new, {"n": n, "counts": counts, "rate_per_s": counts / 60.0})
    assert new.read_text().splitlines()[1:3] == [
        f"1,54545,{54545 / 60.0!r}", f"2,23552,{23552 / 60.0!r}"]
    write_curve(old, {"n": n.astype(float), "counts": counts.astype(float),
                      "rate_per_s": counts / 60.0})
    assert old.read_text().splitlines()[1] == f"1.0,54545.0,{54545 / 60.0!r}"
    for path in (new, old):
        assert main(["analyze", "--counts", str(path), "--outdir",
                     str(tmp_path), "--out", f"{path.stem}.json"]) == 0
    assert (tmp_path / "new.json").read_bytes() == \
        (tmp_path / "old.json").read_bytes()


def test_runconfig_defaults():
    cfg = RunConfig(ProtocolConfig("ghz", 2))
    assert cfg.execution == ExecutionPlan()
    d = cfg.canonical()
    assert set(d) == {"protocol", "noise", "measurement", "execution"}


# ---------------------------------------------------------------------------
# outside input raises only the declared errors

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)


def _section_strategy(cls):
    """Objects with some of ``cls``'s field names, set to any JSON value."""
    keys = st.sampled_from([f.name for f in fields(cls)])
    return st.dictionaries(keys, JSON_VALUES, max_size=4)


CONFIG_DOCUMENTS = JSON_VALUES | st.fixed_dictionaries({}, optional={
    "protocol": _section_strategy(ProtocolConfig).map(
        lambda d: {"kind": "custom", **d}) | _section_strategy(
            ProtocolConfig),
    "noise": _section_strategy(NoiseConfig),
    "measurement": _section_strategy(MeasurementPlan),
    "execution": _section_strategy(ExecutionPlan),
})


@settings(deadline=None, max_examples=300)
@given(data=CONFIG_DOCUMENTS)
def test_parse_config_raises_only_config_error(data):
    try:
        parse_config(data)
    except ConfigError:
        pass


@pytest.mark.parametrize("data", [
    {"kind": "custom", "n_photons": 3, "thetas": 1.5},
    {"kind": "ghz", "timings": 5},
    {"protocol": {"kind": "ghz"}, "noise": {"detection_chain": 0.7}},
    {"protocol": {"kind": "ghz"}, "measurement": {"preset": "custom",
                                                  "bases": "ZZ"}},
    {"protocol": 5},
    {"protocol": {"kind": "ghz"}, "execution": {"shots": 2.5}},
    {"protocol": {"kind": "ghz"}, "execution": {"shots": float("inf")}},
    {"protocol": {"kind": "ghz"}, "execution": {"seed": True}},
    {"kind": "ghz", "n_photons": 2.5},
    {"protocol": {"kind": "ghz"}, "noise": {"eta0": float("nan")}},
])
def test_malformed_config_values_rejected(data):
    with pytest.raises(ConfigError):
        parse_config(data)


def _valid_records_bytes():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "r.csv"
        write_records(path, sample_batches(), "cafe0123cafe0123", seed=5)
        return path.read_bytes()


VALID_RECORDS = _valid_records_bytes()
VALID_PREFIX = b"\n".join(VALID_RECORDS.split(b"\n")[:2]) + b"\n"


@st.composite
def _mutated_records(draw):
    data = bytearray(VALID_RECORDS)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data) - 1))
        data[at:at + draw(st.integers(0, 8))] = draw(st.binary(max_size=8))
    return bytes(data)


@settings(deadline=None, max_examples=300)
@given(content=st.binary(max_size=200)
       | st.binary(max_size=200).map(lambda b: VALID_PREFIX + b)
       | _mutated_records())
def test_read_records_raises_only_declared_errors(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "r.csv"
        path.write_bytes(content)
        try:
            read_records(path)
        except (RecordsFormatError, OSError):
            pass


@pytest.mark.parametrize("content", [
    VALID_PREFIX.split(b"\n")[0] + b"\n",                  # header only
    VALID_RECORDS.replace(b"seed=5", b"seed=x"),
    VALID_RECORDS.replace(b"n=3", b"n=0"),
    VALID_PREFIX + b"\xff\xfe,1,0.0\n",                    # not UTF-8
    VALID_PREFIX + b"0,40000,0.0" + b",1,Z,+1" * 3 + b"\n",   # int16 range
])
def test_malformed_records_file_rejected(tmp_path, content):
    path = tmp_path / "r.csv"
    path.write_bytes(content)
    with pytest.raises(RecordsFormatError):
        read_records(path)


# ---------------------------------------------------------------------------
# the block writer and reader against the row-at-a-time csv format

def _csv_write_records(path, batches, config_hash, seed):
    """Reference only: the row-by-row ``csv.writer`` loop that defined the
    records format; ``write_records`` must write the same bytes."""
    outcome_code = {1: "+1", -1: "-1", 0: "."}
    n = batches[0].n_photons
    with open(path, "w", newline="") as fh:
        fh.write(f"# photonchain-records v1 config={config_hash} seed={seed} "
                 f"n={n} period={batches[0].period!r}\n")
        writer = csv.writer(fh)
        header = ["run_id", "attempts", "delta"]
        for k in range(n):
            header += [f"det{k}", f"basis{k}", f"out{k}"]
        writer.writerow(header)
        for batch in batches:
            codes = [b.code() for b in batch.bases]
            for i in range(batch.n_shots):
                row = [int(batch.run_ids[i]), int(batch.attempts[i]),
                       repr(float(batch.deltas[i]))]
                for k in range(n):
                    row += ["1" if batch.detected[i, k] else "0",
                            codes[k],
                            outcome_code[int(batch.outcomes[i, k])]]
                writer.writerow(row)


LOSSY = NoiseConfig(eta0=0.6, b_sigma=2e-3)


def _batch(kind, n, shots, bases, noise=LOSSY, seed=3, **kwargs):
    return run_batch(ProtocolConfig(kind, n), noise, bases, shots, seed,
                     **kwargs)


def _first_photon(batch):
    """The records of photon 1 alone: the schedules need N >= 2, while a
    records file holds any N >= 1."""
    return replace(batch, bases=batch.bases[:1],
                   detected=batch.detected[:, :1],
                   outcomes=batch.outcomes[:, :1])


WRITER_CASES = {
    # 9000 rows: more than one write block
    "n1": lambda: [_first_photon(_batch("ghz", 2, 9000,
                                        [MeasBasis.x()] * 2))],
    "n6": lambda: [_batch("cluster", 6, 400, MeasurementPlan(
        "alternating-odd").plans(6)[0])],
    "n12": lambda: [_batch("ghz", 12, 200, [MeasBasis.z()] * 12)],
    "several plans": lambda: sample_batches(),
    "equator codes": lambda: [_batch(
        "ghz", 3, 200, [MeasBasis.equator(np.pi / 7), MeasBasis.equator(
            0.1 + 0.2), MeasBasis.equator(-2.5e-17)])],
    "abort_on_loss": lambda: [_batch("ghz", 4, 400, [MeasBasis.z()] * 4,
                                     abort_on_loss=True)],
    "b_sigma 0": lambda: [_batch("ghz", 2, 200, [MeasBasis.z()] * 2,
                                 noise=NoiseConfig(eta0=0.6))],
    "run ids near 2^63": lambda: [replace(b, run_ids=np.arange(
        2 ** 63 - b.n_shots, 2 ** 63, dtype=np.int64)) for b in [
            _batch("ghz", 2, 300, [MeasBasis.z()] * 2)]],
}


@pytest.mark.parametrize("case", list(WRITER_CASES))
def test_write_records_matches_csv_writer(tmp_path, case):
    batches = WRITER_CASES[case]()
    codes = {b.code() for batch in batches for b in batch.bases}
    deltas = np.concatenate([b.deltas for b in batches])
    unmeasured = np.concatenate([b.outcomes == 0 for b in batches])
    # each case shows the feature it is named for; n6 the negative deltas
    assert {"n1": batches[0].n_shots > 8192,
            "n6": (deltas < 0).any(),
            "equator codes": any(c.startswith("E:") for c in codes),
            "abort_on_loss": unmeasured.any(),
            "b_sigma 0": (deltas == 0.0).all(),
            "run ids near 2^63": batches[0].run_ids[-1] == 2 ** 63 - 1,
            }.get(case, True)
    ref, new = tmp_path / "ref.csv", tmp_path / "new.csv"
    _csv_write_records(ref, batches, "cafe0123cafe0123", 11)
    write_records(new, batches, "cafe0123cafe0123", 11)
    assert new.read_bytes() == ref.read_bytes()


def _assert_same_read(a, b):
    (ha, ba), (hb, bb) = a, b
    assert ha == hb and len(ba) == len(bb)
    for x, y in zip(ba, bb):
        assert x.bases == y.bases and x.period == y.period
        for col in ("detected", "outcomes", "attempts", "deltas", "run_ids"):
            u, v = getattr(x, col), getattr(y, col)
            assert u.dtype == v.dtype and np.array_equal(u, v), col


def test_lf_only_records_read_back_identically(tmp_path):
    path, lf = tmp_path / "crlf.csv", tmp_path / "lf.csv"
    write_records(path, sample_batches(), "cafe0123cafe0123", seed=5)
    data = path.read_bytes()
    assert data.count(b"\r\n") == 601
    lf.write_bytes(data.replace(b"\r\n", b"\n"))
    _assert_same_read(read_records(path), read_records(lf))


def _records_lines(tmp_path, batches):
    path = tmp_path / "r.csv"
    write_records(path, batches, "h", seed=0)
    return path, path.read_bytes().decode().splitlines(keepends=True)


@pytest.mark.parametrize("at,text", [(4, "\r\n"), (6, "1,2,0.0\r\n")])
def test_blank_or_short_row_is_ragged(tmp_path, at, text):
    path, lines = _records_lines(tmp_path, sample_batches()[:1])
    lines.insert(at, text)
    path.write_text("".join(lines), newline="")
    with pytest.raises(RecordsFormatError,
                       match=f":{at + 1}: ragged row"):
        read_records(path)


@functools.cache
def _big_batch():
    """One N = 1 batch of 9000 rows: more than one read block."""
    return _first_photon(_batch("ghz", 2, 9000, [MeasBasis.x()] * 2))


@pytest.mark.parametrize("row", [0, 8999, 8192, 8500])
@pytest.mark.parametrize("col,cell", [(0, "x"), (2, "0.5.1"), (3, "2"),
                                      (4, "Q"), (5, "+2"), (0, '"7"')])
def test_bad_cell_names_its_file_line(tmp_path, row, col, cell):
    path, lines = _records_lines(tmp_path, [_big_batch()])
    cells = lines[2 + row].rstrip("\r\n").split(",")
    cells[col] = cell
    lines[2 + row] = ",".join(cells) + "\r\n"
    path.write_text("".join(lines), newline="")
    with pytest.raises(RecordsFormatError,
                       match=f":{row + 3}: malformed cell"):
        read_records(path)


def test_first_bad_row_of_a_block_is_named(tmp_path):
    path, lines = _records_lines(tmp_path, [_big_batch()])
    lines[8300] = "1,2\r\n"
    cells = lines[8200].split(",")
    cells[3] = "7"
    lines[8200] = ",".join(cells)
    path.write_text("".join(lines), newline="")
    with pytest.raises(RecordsFormatError, match=":8201: malformed cell"):
        read_records(path)


def test_attempts_overflow_is_refused(tmp_path):
    path, lines = _records_lines(tmp_path, sample_batches()[:1])
    cells = lines[7].split(",")
    cells[1] = "40000"
    lines[7] = ",".join(cells)
    path.write_text("".join(lines), newline="")
    with pytest.raises(RecordsFormatError, match=":8: malformed cell"):
        read_records(path)


@pytest.mark.parametrize("col,cell", [(0, "2\x0c0"), (4, "Z\x0c"),
                                      (5, "+\x0c1")])
def test_form_feed_in_a_cell_is_not_a_line_break(tmp_path, col, cell):
    # str.splitlines would break line 5 in two and call it ragged
    path, lines = _records_lines(tmp_path, sample_batches()[:1])
    cells = lines[4].split(",")
    cells[col] = cell
    lines[4] = ",".join(cells)
    path.write_text("".join(lines), newline="")
    with pytest.raises(RecordsFormatError, match=":5: malformed cell"):
        read_records(path)


@st.composite
def _record_batches(draw):
    """1-3 batches with distinct basis plans and any cell values."""
    n = draw(st.integers(1, 4))
    basis = st.sampled_from([MeasBasis.z(), MeasBasis.x()]) | st.floats(
        -10.0, 10.0).map(MeasBasis.equator)
    plans = draw(st.lists(st.tuples(*[basis] * n), min_size=1, max_size=3,
                          unique_by=lambda p: tuple(b.code() for b in p)))
    batches = []
    for plan in plans:
        shots = draw(st.integers(1, 20))
        ints = st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=shots,
                        max_size=shots)
        batches.append(RecordBatch(
            bases=plan,
            detected=np.array(draw(st.lists(st.lists(
                st.booleans(), min_size=n, max_size=n), min_size=shots,
                max_size=shots)), dtype=bool),
            outcomes=np.array(draw(st.lists(st.lists(
                st.sampled_from([-1, 0, 1]), min_size=n, max_size=n),
                min_size=shots, max_size=shots)), dtype=np.int8),
            attempts=np.array(draw(st.lists(st.integers(-2 ** 15, 2 ** 15 - 1),
                                            min_size=shots, max_size=shots)),
                              dtype=np.int16),
            deltas=np.array(draw(st.lists(st.floats(allow_nan=False),
                                          min_size=shots, max_size=shots))),
            run_ids=np.array(draw(ints), dtype=np.int64),
            period=1.1e-3))
    return batches


@settings(deadline=None, max_examples=200)
@given(batches=_record_batches())
def test_records_roundtrip_property(batches):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "r.csv"
        write_records(path, batches, "cafe0123cafe0123", seed=9)
        _assert_same_read(read_records(path), (
            {"config": "cafe0123cafe0123", "seed": 9,
             "n": batches[0].n_photons, "period": 1.1e-3}, batches))
