"""Run-configuration, shot-record and summary file formats.

Records are comma-separated text, one row per shot (run_id, attempts,
delta, then per-photon triples detected/basis/outcome), with a ``#``
header line carrying the format version, a hash of the generating config,
the seed, the photon count and the run period.  The header line ends in
``\\n``; the column-name line and every shot row end in ``\\r\\n``, and
no cell is quoted.  Rows are written and parsed a block at a time.  The
hash is checked on re-load so records are never analyzed against the
wrong post-selection assumptions.
Summaries are JSON with sorted keys, so re-running an analysis on the
same records reproduces the summary byte-identically.  The readers of
outside input raise only their declared errors: :func:`parse_config` a
:class:`ConfigError`, :func:`read_records` a :class:`RecordsFormatError`
(or ``OSError`` when the file cannot be read).
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
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
        if not 0 < self.duration < math.inf:
            raise ConfigError(f"duration {self.duration} must be positive "
                              "and finite")


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


def _number(value) -> float:
    """A finite JSON number as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise ValueError(f"{value!r} is not a finite number")
    return float(value)


def _list(section: dict, key: str, item) -> tuple:
    """The list ``section[key]`` converted item by item."""
    value = section[key]
    try:
        if not isinstance(value, list):
            raise TypeError(f"must be a list, got {value!r}")
        return tuple(item(v) for v in value)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"invalid {key}: {exc}") from exc


# field default type -> the JSON types a config may give for the field
_JSON_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def _build_section(cls, data: dict, section: str):
    allowed = {f.name for f in fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}")
    try:
        for f in fields(cls):
            types = _JSON_TYPES.get(type(f.default), ())
            value = data.get(f.name, f.default)
            if types and (not isinstance(value, types)
                          or isinstance(value, bool) != (bool in types)):
                raise TypeError(f"{f.name} must be {types[-1].__name__}, "
                                f"got {value!r}")
            if float in types:
                _number(value)
        return cls(**data)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"invalid [{section}] section: {exc}") from exc


def parse_config(data) -> RunConfig:
    """Build a RunConfig from a parsed JSON document.

    Accepts either the sectioned form ({"protocol": {...}, ...}) or the
    flat shorthand with protocol fields at top level; unknown keys are
    rejected with the offending names.  Whatever the document, the only
    error raised is :class:`ConfigError`.
    """
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    sections = ("protocol", "noise", "measurement", "execution")
    if not (set(sections) & set(data)):
        data = {"protocol": data}       # flat shorthand
    unknown = set(data) - set(sections)
    if unknown:
        raise ConfigError(f"unknown section(s): {', '.join(sorted(unknown))}")
    bad = [name for name in data if not isinstance(data[name], dict)]
    if bad:
        raise ConfigError(f"section [{bad[0]}] must be a JSON object")
    proto, noise_d, meas_d, exec_d = (dict(data.get(name, {}))
                                      for name in sections)

    if "kind" not in proto:
        raise ConfigError("protocol.kind is required")
    if proto["kind"] not in KINDS:
        raise ConfigError(f"unknown protocol kind {proto['kind']!r} "
                          f"(choose from {', '.join(KINDS)})")
    if proto.get("thetas") is not None:
        proto["thetas"] = _list(proto, "thetas", _number)
    if "timings" in proto:
        if not isinstance(proto["timings"], dict):
            raise ConfigError("protocol.timings must be a JSON object")
        proto["timings"] = _build_section(TimingTable, proto["timings"],
                                          "protocol.timings")
    if "bases" in meas_d:
        meas_d["bases"] = _list(meas_d, "bases", str)
    return RunConfig(_build_section(ProtocolConfig, proto, "protocol"),
                     _build_section(NoiseConfig, noise_d, "noise"),
                     _build_section(MeasurementPlan, meas_d, "measurement"),
                     _build_section(ExecutionPlan, exec_d, "execution"))


def load_config(path) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return parse_config(data)


# ---------------------------------------------------------------------------
# records files

_ROW_END = "\r\n"        # row terminator of the column line and shot rows
_BLOCK = 8192           # shot rows written or parsed at a time
_OUTCOME_VALUE = {"+1": 1, "-1": -1, ".": 0}
_DETECTED_VALUE = {"1": True, "0": False}


class _RaggedRow(Exception):
    """A row without 3 + 3N cells."""


def _photon_cells(code: str) -> np.ndarray:
    """The six ``det,basis,out`` cells of a photon measured in ``code``,
    indexed by ``detected * 3 + outcome + 1``."""
    return np.array([f"{det},{code},{out}" for det in "01"
                     for out in ("-1", ".", "+1")], dtype=object)


def _row_text(batch, cells, lo: int, hi: int) -> str:
    """Rows ``lo .. hi-1`` of ``batch`` as records text."""
    index = batch.detected[lo:hi] * 3 + batch.outcomes[lo:hi] + 1
    columns = [map(str, batch.run_ids[lo:hi].tolist()),
               map(str, batch.attempts[lo:hi].tolist()),
               map(repr, batch.deltas[lo:hi].tolist()),
               *(table[index[:, k]].tolist()
                 for k, table in enumerate(cells))]
    return _ROW_END.join(map(",".join, zip(*columns))) + _ROW_END


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
        fh.write(",".join(["run_id", "attempts", "delta",
                           *(f"{col}{k}" for k in range(n)
                             for col in ("det", "basis", "out"))]) + _ROW_END)
        for batch in batches:
            if batch.n_photons != n:
                raise ValueError("mixed photon counts in one records file")
            if ((batch.outcomes < -1) | (batch.outcomes > 1)).any():
                raise ValueError("outcomes must be -1, 0 or +1")
            cells = [_photon_cells(b.code()) for b in batch.bases]
            for lo in range(0, batch.n_shots, _BLOCK):
                fh.write(_row_text(batch, cells, lo, lo + _BLOCK))


def read_records(path, expect_hash: str | None = None):
    """Read a records file back into batches grouped by basis plan.

    Returns ``(header, batches)`` where header is a dict with the config
    hash, seed, photon count and run period.  A mismatching
    ``expect_hash`` raises :class:`RecordsFormatError` rather than
    silently mis-analyzing, and so does any malformed content, naming its
    line where it can; only a failure to read the file raises ``OSError``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            header, groups = _read_groups(path, fh, expect_hash)
    except UnicodeDecodeError as exc:
        raise RecordsFormatError(f"{path}: malformed records ({exc})") \
            from exc
    return header, [RecordBatch(
        bases, *map(np.concatenate, zip(*blocks)), period=header["period"])
        for bases, blocks in groups.values()]


def _read_groups(path, fh, expect_hash):
    """The header dict and the column blocks of each basis plan, as
    ``{codes: (bases, [(detected, outcomes, attempts, deltas, run_ids),
    ...])}``, the plans in order of first appearance."""
    first = fh.readline().strip()
    if not first.startswith(f"# {FORMAT_VERSION}"):
        raise RecordsFormatError(f"{path}: not a {FORMAT_VERSION} file")
    meta = dict(tok.split("=", 1) for tok in first.split()[3:] if "=" in tok)
    try:
        header = {"config": meta.get("config", ""),
                  "seed": int(meta.get("seed", 0)),
                  "n": int(meta.get("n", 0)),
                  "period": float(meta.get("period", 0.0))}
    except ValueError as exc:
        raise RecordsFormatError(f"{path}:1: malformed header ({exc})") \
            from exc
    if expect_hash is not None and header["config"] != expect_hash:
        raise RecordsFormatError(
            f"{path}: config hash {header['config']} does not match "
            f"expected {expect_hash}")
    n = (len(fh.readline().split(",")) - 3) // 3
    if n != header["n"] or n < 1:
        raise RecordsFormatError(f"{path}: column count disagrees with "
                                 f"header n={header['n']}")
    groups: dict[tuple, tuple] = {}
    tails: dict[str, tuple] = {}
    line = 3                            # file line of the block's first row
    for block in iter(lambda: list(itertools.islice(fh, _BLOCK)), []):
        if len(tails) > _BLOCK:         # hold at most two blocks' tails
            tails.clear()
        try:
            _add_block(block, n, tails, groups)
        except (_RaggedRow, KeyError, ValueError, OverflowError) as exc:
            _raise_first_bad_row(path, block, line, n)
            raise RecordsFormatError(f"{path}: malformed records "
                                     f"({exc!r})") from exc
        line += len(block)
    return header, groups


def _decode_tail(text: str, n: int) -> tuple:
    """The basis codes, detections and outcomes of a row's photon cells."""
    cells = text.rstrip("\n").split(",")
    if len(cells) != 3 * n:
        raise _RaggedRow
    return (tuple(cells[1::3]),
            [_DETECTED_VALUE[c] for c in cells[0::3]],
            [_OUTCOME_VALUE[c] for c in cells[2::3]])


def _add_block(lines, n: int, tails: dict, groups: dict) -> None:
    """Parse a block of row lines and append its columns to ``groups``.

    Each distinct photon-cell tail is decoded once, through ``tails``; the
    numeric cells are converted column by column.  Raises
    :class:`_RaggedRow`, ``KeyError``, ``ValueError`` or ``OverflowError``
    on a bad row, without saying which.
    """
    try:
        run_ids, attempts, deltas, row_tails = zip(
            *(line.split(",", 3) for line in lines))
    except ValueError:
        raise _RaggedRow from None
    distinct = list(dict.fromkeys(row_tails))
    for text in distinct:
        if text not in tails:
            tails[text] = _decode_tail(text, n)
            codes = tails[text][0]
            if codes not in groups:
                groups[codes] = (tuple(map(MeasBasis.from_code, codes)), [])
    position = {text: i for i, text in enumerate(distinct)}
    index = np.fromiter(map(position.__getitem__, row_tails), dtype=np.intp,
                        count=len(row_tails))
    decoded = [tails[text] for text in distinct]
    columns = (np.array([d[1] for d in decoded], dtype=bool)[index],
               np.array([d[2] for d in decoded], dtype=np.int8)[index],
               np.array(list(map(int, attempts)), dtype=np.int16),
               np.array(list(map(float, deltas))),
               np.array(list(map(int, run_ids)), dtype=np.int64))
    keys = list(dict.fromkeys(d[0] for d in decoded))
    if len(keys) == 1:
        groups[keys[0]][1].append(columns)
        return
    plan = np.array([keys.index(d[0]) for d in decoded])[index]
    for i, codes in enumerate(keys):
        rows = plan == i
        groups[codes][1].append(tuple(col[rows] for col in columns))


def _raise_first_bad_row(path, lines, first: int, n: int) -> None:
    """Raise the :class:`RecordsFormatError` of the first bad row among
    ``lines``, which start at file line ``first``."""
    for line_no, line in enumerate(lines, start=first):
        try:
            _add_block([line], n, {}, {})
        except _RaggedRow:
            cells = line.rstrip("\n").split(",")
            raise RecordsFormatError(
                f"{path}:{line_no}: ragged row {cells[:2]}") from None
        except (KeyError, ValueError, OverflowError) as exc:
            raise RecordsFormatError(
                f"{path}:{line_no}: malformed cell ({exc})") from exc


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
    """Plot-ready delimited text: named columns of equal length, integer
    columns as integers and the rest as floats."""
    names = list(columns)
    arrays = [np.asarray(columns[c]) for c in names]
    arrays = [a if a.dtype.kind in "iu" else a.astype(float) for a in arrays]
    if len({len(a) for a in arrays}) != 1:
        raise ValueError("curve columns must have equal length")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows(zip(*(map(repr, a.tolist()) for a in arrays)))
