"""Monte-Carlo simulator and analysis toolkit for sequential photonic
graph-state generation from a single cavity-coupled emitter."""

from .analysis import (
    CoherenceFit,
    DecayFit,
    Estimate,
    FitError,
    InsufficientDataError,
    ParityCurve,
    RateFit,
    WitnessResult,
    cluster_witness,
    decay_fit,
    fit_coherence,
    ghz_fidelity,
    ghz_witness,
    parity,
    parity_curve,
    populations,
    rate_fit,
    stabilizers,
)
from .engine import (
    NumericalIntegrityError,
    RateResult,
    RecordBatch,
    coherence_probe,
    dd_scan,
    parity_visibility_run,
    rate_benchmark,
    run_batch,
    run_shot,
)
from .io import (
    ConfigError,
    ExecutionPlan,
    MeasurementPlan,
    RecordsFormatError,
    RunConfig,
    load_config,
    parse_config,
    read_records,
    write_records,
    write_summary,
)
from .levels import MeasBasis, Sublevel
from .noise import NoiseConfig, calibrate_field, coherence_envelope
from .oracle import CanonicalTarget, dense_run, fidelity, local_frame_fit
from .schedule import (
    ProtocolConfig,
    PulseSchedule,
    ScheduleError,
    TimingTable,
    build_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalTarget", "CoherenceFit", "ConfigError", "DecayFit",
    "Estimate", "ExecutionPlan", "FitError", "InsufficientDataError",
    "MeasBasis", "MeasurementPlan", "NoiseConfig",
    "NumericalIntegrityError", "ParityCurve", "ProtocolConfig",
    "PulseSchedule", "RateFit", "RateResult", "RecordBatch",
    "RecordsFormatError", "RunConfig", "ScheduleError",
    "Sublevel", "TimingTable", "WitnessResult", "build_schedule",
    "calibrate_field", "cluster_witness", "coherence_envelope",
    "coherence_probe", "dd_scan", "decay_fit", "dense_run", "fidelity",
    "fit_coherence", "ghz_fidelity", "ghz_witness", "load_config",
    "local_frame_fit", "parity", "parity_curve", "parity_visibility_run",
    "parse_config", "populations", "rate_benchmark", "rate_fit",
    "read_records", "run_batch", "run_shot", "stabilizers",
    "write_records", "write_summary",
]
