"""Run-configuration, shot-record and summary file formats.

Records are delimited text, one row per shot (run_id, attempts, delta,
then per-photon triples detected/basis/outcome), with a header line
carrying the format version, a hash of the generating config, the seed,
the photon count and the run period.  The hash is checked on re-load so records are never analyzed
against the wrong post-selection assumptions.  Summaries are JSON with
sorted keys, so re-running an analysis on the same records reproduces
the summary byte-identically.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .engine import RecordBatch
from .levels import MeasBasis
from .noise import NoiseConfig
from .schedule import KINDS, ProtocolConfig, TimingTable

FORMAT_VERSION = "photonchain-records v1"


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


class RecordsFormatError(ValueError):
    """Malformed records file or config-hash mismatch."""


@dataclass(frozen=True)
class MeasurementPlan:
    """How the photons are measured.

    ``preset`` is one of: z, x, parity-grid (an equator-angle grid of
    ``phi_points`` settings in [0, pi]), alternating-odd (XZXZ...),
    alternating-even (ZXZX...), or custom (explicit ``bases`` codes).
    """

    preset: str = "z"
    phi_points: int = 25
    bases: tuple[str, ...] = ()

    PRESETS = ("z", "x", "parity-grid", "alternating-odd",
               "alternating-even", "custom")

    def __post_init__(self):
        if self.preset not in self.PRESETS:
            raise ConfigError(f"unknown measurement preset {self.preset!r}")
        if self.preset == "custom" and not self.bases:
            raise ConfigError("custom measurement needs explicit bases")
        if self.phi_points < 2:
            raise ConfigError("phi grid needs at least 2 points")

    def plans(self, n_photons: int) -> list[list[MeasBasis]]:
        """The basis plans this measurement expands to (one per run)."""
        if self.preset == "z":
            return [[MeasBasis.z()] * n_photons]
        if self.preset == "x":
            return [[MeasBasis.x()] * n_photons]
        if self.preset == "parity-grid":
            return [[MeasBasis.equator(phi)] * n_photons
                    for phi in np.linspace(0.0, np.pi, self.phi_points)]
        if self.preset == "alternating-odd":
            return [[MeasBasis.x() if k % 2 == 0 else MeasBasis.z()
                     for k in range(n_photons)]]
        if self.preset == "alternating-even":
            return [[MeasBasis.z() if k % 2 == 0 else MeasBasis.x()
                     for k in range(n_photons)]]
        plan = [MeasBasis.from_code(c) for c in self.bases]
        if len(plan) != n_photons:
            raise ConfigError(
                f"custom plan has {len(plan)} bases for {n_photons} photons")
        return [plan]


@dataclass(frozen=True)
class ExecutionPlan:
    shots: int = 10000
    seed: int = 0
    threads: int = 1
    duration: float = 3600.0        # rate mode, simulated seconds
    abort_on_loss: bool = False

    def __post_init__(self):
        if self.shots < 1 or self.threads < 1:
            raise ConfigError("shots and threads must be positive")
        if not 0 <= self.seed < 2 ** 63:
            raise ConfigError(f"seed {self.seed} outside [0, 2^63)")
        if self.duration <= 0:
            raise ConfigError("duration must be positive")


@dataclass(frozen=True)
class RunConfig:
    protocol: ProtocolConfig
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    measurement: MeasurementPlan = field(default_factory=MeasurementPlan)
    execution: ExecutionPlan = field(default_factory=ExecutionPlan)

    def canonical(self) -> dict:
        d = {
            "protocol": asdict(self.protocol),
            "noise": asdict(self.noise),
            "measurement": asdict(self.measurement),
            "execution": asdict(self.execution),
        }
        return d

    def hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True, default=list)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _build_section(cls, data: dict, section: str):
    allowed = {f.name for f in fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid [{section}] section: {exc}") from exc


def parse_config(data: dict) -> RunConfig:
    """Build a RunConfig from a parsed JSON document.

    Accepts either the sectioned form ({"protocol": {...}, ...}) or the
    flat shorthand with protocol fields at top level; unknown keys are
    rejected with the offending names.
    """
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    data = dict(data)
    sections = {"protocol", "noise", "measurement", "execution"}
    if not (sections & set(data)):
        data = {"protocol": data}       # flat shorthand
    unknown = set(data) - sections
    if unknown:
        raise ConfigError(f"unknown section(s): {', '.join(sorted(unknown))}")

    proto = dict(data.get("protocol", {}))
    if "kind" not in proto:
        raise ConfigError("protocol.kind is required")
    if proto["kind"] not in KINDS:
        raise ConfigError(f"unknown protocol kind {proto['kind']!r} "
                          f"(choose from {', '.join(KINDS)})")
    if "thetas" in proto and proto["thetas"] is not None:
        proto["thetas"] = tuple(float(t) for t in proto["thetas"])
    if "timings" in proto:
        proto["timings"] = _build_section(TimingTable, dict(proto["timings"]),
                                          "protocol.timings")
    protocol = _build_section(ProtocolConfig, proto, "protocol")

    noise_d = dict(data.get("noise", {}))
    if "detection_chain" in noise_d:
        noise_d["detection_chain"] = tuple(
            (str(name), float(p)) for name, p in noise_d["detection_chain"])
    noise = _build_section(NoiseConfig, noise_d, "noise")

    meas_d = dict(data.get("measurement", {}))
    if "bases" in meas_d:
        meas_d["bases"] = tuple(str(b) for b in meas_d["bases"])
    measurement = _build_section(MeasurementPlan, meas_d, "measurement")
    execution = _build_section(ExecutionPlan, dict(data.get("execution", {})),
                               "execution")
    return RunConfig(protocol, noise, measurement, execution)


def load_config(path) -> RunConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return parse_config(data)


# ---------------------------------------------------------------------------
# records files

_OUTCOME_CODE = {1: "+1", -1: "-1", 0: "."}
_OUTCOME_VALUE = {"+1": 1, "-1": -1, ".": 0}
_DETECTED_VALUE = {"1": True, "0": False}


def write_records(path, batches, config_hash: str, seed: int) -> None:
    """Write one or more batches (e.g. one per grid angle) to a file."""
    if isinstance(batches, RecordBatch):
        batches = [batches]
    if not batches:
        raise ValueError("nothing to write")
    n = batches[0].n_photons
    period = batches[0].period
    if any(b.period != period for b in batches):
        raise ValueError("mixed run periods in one records file")
    with open(path, "w", newline="") as fh:
        fh.write(f"# {FORMAT_VERSION} config={config_hash} seed={seed} "
                 f"n={n} period={period!r}\n")
        writer = csv.writer(fh)
        header = ["run_id", "attempts", "delta"]
        for k in range(n):
            header += [f"det{k}", f"basis{k}", f"out{k}"]
        writer.writerow(header)
        for batch in batches:
            if batch.n_photons != n:
                raise ValueError("mixed photon counts in one records file")
            codes = [b.code() for b in batch.bases]
            for i in range(batch.n_shots):
                row = [int(batch.run_ids[i]), int(batch.attempts[i]),
                       repr(float(batch.deltas[i]))]
                for k in range(n):
                    row += ["1" if batch.detected[i, k] else "0",
                            codes[k],
                            _OUTCOME_CODE[int(batch.outcomes[i, k])]]
                writer.writerow(row)


def read_records(path, expect_hash: str | None = None):
    """Read a records file back into batches grouped by basis plan.

    Returns ``(header, batches)`` where header is a dict with the config
    hash, seed, photon count and run period.  A mismatching
    ``expect_hash`` raises :class:`RecordsFormatError` rather than
    silently mis-analyzing, and so does a malformed cell, naming its line.
    """
    with open(path) as fh:
        first = fh.readline().strip()
        if not first.startswith(f"# {FORMAT_VERSION}"):
            raise RecordsFormatError(f"{path}: not a {FORMAT_VERSION} file")
        meta = dict(tok.split("=", 1)
                    for tok in first.split()[3:] if "=" in tok)
        header = {"config": meta.get("config", ""),
                  "seed": int(meta.get("seed", 0)),
                  "n": int(meta.get("n", 0)),
                  "period": float(meta.get("period", 0.0))}
        if expect_hash is not None and header["config"] != expect_hash:
            raise RecordsFormatError(
                f"{path}: config hash {header['config']} does not match "
                f"expected {expect_hash}")
        reader = csv.reader(fh)
        cols = next(reader)
        n = (len(cols) - 3) // 3
        if n != header["n"]:
            raise RecordsFormatError(f"{path}: column count disagrees with "
                                     f"header n={header['n']}")
        groups: dict[tuple, tuple] = {}   # codes -> (bases, rows)
        # errors name the file line: reader.line_num + 1, since the
        # header line was read before the csv reader started
        for row in reader:
            if len(row) != 3 + 3 * n:
                raise RecordsFormatError(
                    f"{path}:{reader.line_num + 1}: ragged row {row[:2]}")
            try:
                codes = tuple(row[3 + 3 * k + 1] for k in range(n))
                if codes not in groups:
                    groups[codes] = (
                        tuple(MeasBasis.from_code(c) for c in codes), [])
                det = [_DETECTED_VALUE[row[3 + 3 * k]] for k in range(n)]
                out = [_OUTCOME_VALUE[row[3 + 3 * k + 2]] for k in range(n)]
                entry = (int(row[0]), int(row[1]), float(row[2]), det, out)
            except (KeyError, ValueError) as exc:
                raise RecordsFormatError(
                    f"{path}:{reader.line_num + 1}: malformed cell "
                    f"({exc})") from exc
            groups[codes][1].append(entry)
    batches = []
    for bases, rows in groups.values():
        batches.append(RecordBatch(
            bases=bases,
            detected=np.array([r[3] for r in rows], dtype=bool),
            outcomes=np.array([r[4] for r in rows], dtype=np.int8),
            attempts=np.array([r[1] for r in rows], dtype=np.int16),
            deltas=np.array([r[2] for r in rows]),
            run_ids=np.array([r[0] for r in rows], dtype=np.int64),
            period=header["period"],
        ))
    return header, batches


# ---------------------------------------------------------------------------
# summaries

def _jsonable(obj):
    from .analysis import Estimate

    if isinstance(obj, Estimate):
        return {"value": obj.value, "stderr": obj.stderr,
                "n_events": obj.n_events}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    return obj


def write_summary(path, summary: dict) -> None:
    """Deterministic JSON summary (sorted keys, native float repr)."""
    with open(path, "w") as fh:
        json.dump(_jsonable(summary), fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_curve(path, columns: dict) -> None:
    """Plot-ready delimited text: named columns of equal length."""
    names = list(columns)
    arrays = [np.asarray(columns[c], dtype=float) for c in names]
    if len({len(a) for a in arrays}) != 1:
        raise ValueError("curve columns must have equal length")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for i in range(len(arrays[0])):
            writer.writerow([repr(float(a[i])) for a in arrays])
