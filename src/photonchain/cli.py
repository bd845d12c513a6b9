"""Command-line driver: simulate | analyze | reproduce.

``simulate`` runs the basis plans of one run config (plan i from the
seed ``seed + i * PLAN_SEED_STRIDE``, see :func:`engine.run_plans`) and
writes one records file stamped with that config's hash.  ``analyze``
summarizes records per photon number.  ``reproduce`` builds the figure
pipelines from the same two steps: every records file it writes comes
from one run config, named ``<figure>_records_n<N>_<preset>.csv`` and
stamped with that config's hash.

Output files land in --outdir (or the PHOTONCHAIN_OUTDIR environment
variable, or the working directory).  Exit codes: 0 success, 2 invalid
configuration, usage or records file, 3 I/O failure, 4 the data support
no estimate (no post-selected events, a degenerate fit) or the
simulation lost numerical integrity.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analysis as an
from . import io as pio
from .engine import (PLAN_SEED_STRIDE, NumericalIntegrityError,
                     coherence_probe, dd_scan, rate_benchmark, run_plans)
from .levels import plan_matches, setting_plan
from .noise import NoiseConfig, calibrate_field, raman_sigma_for_infidelity
from .schedule import ProtocolConfig


def operating_noise(b_model: str = "quasi-static") -> NoiseConfig:
    """The calibrated default noise set used by the reproduce commands:
    1% rotation infidelity, 5% closing scatter, field noise calibrated to
    the 1.2 ms / 0.66 coherence crossing, and eta = 0.4318 total."""
    return NoiseConfig(
        eta0=0.4318 / 0.7, eta_d=0.7,
        raman_sigma=raman_sigma_for_infidelity(0.01),
        closing_scatter_p=0.05,
        b_sigma=calibrate_field(1.2e-3, 0.66),
        b_model=b_model)


def _outdir(args) -> Path:
    env = os.environ.get("PHOTONCHAIN_OUTDIR")
    out = Path(args.outdir or env or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# simulate

# simulate flag -> (config section, field) it overrides
_OVERRIDES = {
    "kind": ("protocol", "kind"), "n": ("protocol", "n_photons"),
    "measurement": ("measurement", "preset"),
    "phi_points": ("measurement", "phi_points"),
    "shots": ("execution", "shots"), "seed": ("execution", "seed"),
    "threads": ("execution", "threads"),
    "duration": ("execution", "duration"),
}


def _merged_config(args) -> pio.RunConfig:
    if args.config:
        cfg = pio.load_config(args.config)
    elif args.kind:
        cfg = pio.parse_config({"kind": args.kind})
    else:
        raise pio.ConfigError("either --config or --kind is required")
    parts = {"protocol": cfg.protocol,
             "noise": NoiseConfig() if args.noiseless else cfg.noise,
             "measurement": cfg.measurement, "execution": cfg.execution}
    for flag, (section, name) in _OVERRIDES.items():
        value = getattr(args, flag)
        if value is not None:
            parts[section] = replace(parts[section], **{name: value})
    return pio.RunConfig(**parts)


def simulate(cfg: pio.RunConfig, path: Path) -> list:
    """Run every basis plan of ``cfg`` and write their records to ``path``,
    stamped with the config's hash; returns the record batches."""
    ex, chash = cfg.execution, cfg.hash()
    plans = cfg.measurement.plans(cfg.protocol.n_photons)
    batches = []
    for batch in run_plans(cfg.protocol, cfg.noise, plans, ex.shots, ex.seed,
                           threads=ex.threads,
                           abort_on_loss=ex.abort_on_loss):
        batches.append(batch)
        codes = "".join(b.code() if b.kind == "Z" else "E"
                        for b in batch.bases)
        full = np.count_nonzero(batch.full_detection)
        print(f"plan {len(batches)}/{len(plans)} [{codes}]: "
              f"{batch.n_shots} shots, {full} full-detection events")
    pio.write_records(path, batches, chash, ex.seed)
    print(f"records written to {path} (config {chash})")
    return batches


def cmd_simulate(args) -> int:
    cfg = _merged_config(args)
    outdir = _outdir(args)
    ex = cfg.execution

    if cfg.protocol.kind == "rate":
        result = rate_benchmark(cfg.protocol, cfg.noise, ex.duration,
                                ex.seed)
        path = outdir / (args.out or "rate_counts.csv")
        pio.write_curve(path, {
            "n": np.arange(1, len(result.counts) + 1),
            "counts": result.counts,
            "rate_per_s": result.rates,
        })
        print(f"simulated {result.n_runs} runs over "
              f"{result.duration:.0f} s; counts written to {path}")
        return 0

    simulate(cfg, outdir / (args.out or f"records_{cfg.protocol.kind}"
                            f"_n{cfg.protocol.n_photons}.csv"))
    return 0


# ---------------------------------------------------------------------------
# analyze

def analyze_batches(all_batches, n: int) -> dict:
    """Everything computable from the given record groups.  Batches with
    identical basis plans, say one plan from several records files, are
    merged first, so every estimator reads all of their events.

    A batch enters an estimator when its plan is that estimator's setting
    (:func:`levels.setting_plan`): Z^N the populations, Equator(phi)^N the
    parity curve, X^N with Z^N the GHZ witness, the alternating pair the
    cluster witness and its stabilizers.  The estimators themselves keep
    only the full-detection events (:func:`analysis.setting_events`).
    """
    summary: dict = {"n_photons": n}
    merged: dict = {}
    for b in all_batches:
        merged[b.bases] = (merged[b.bases].concat(b) if b.bases in merged
                           else b)
    batches = list(merged.values())

    def find(setting):
        plan = setting_plan(setting, n)
        return next((b for b in batches if plan_matches(b.bases, plan)),
                    None)

    z, x = find("z"), find("x")
    odd, even = find("alternating-odd"), find("alternating-even")
    eq = {b.bases[0].phi: b for b in batches if plan_matches(
        b.bases, setting_plan("equator", n, b.bases[0].phi))}

    p_est = c_est = None
    if z is not None:
        p_est = an.populations(z, n)
        summary["population"] = p_est
    if len(eq) >= 8:
        curve = an.parity_curve(eq.items())
        fit = an.fit_coherence(curve, n)
        c_est = fit.amplitude
        summary["coherence"] = c_est
        summary["coherence_phase"] = fit.phase
        summary["parity_curve"] = [
            {"phi": phi, "parity": est} for phi, est in curve.points]
    if p_est and c_est:
        summary["fidelity"] = an.ghz_fidelity(p_est, c_est)
    if x is not None and z is not None:
        w = an.ghz_witness(x, z, n)
        summary["ghz_witness"] = {"bound": w.bound,
                                  "components": w.components}
    if odd is not None and even is not None:
        w = an.cluster_witness(odd, even, n)
        summary["cluster_witness"] = {"bound": w.bound,
                                      "settings": list(w.settings_used)}
        summary["stabilizers"] = w.components
    return summary


def summarize(per_n: dict) -> dict:
    """:func:`analyze_batches` for each photon number, plus the fidelity
    decay fit once three or more photon numbers give a fidelity."""
    summary = {f"n{n}": analyze_batches(per_n[n], n) for n in sorted(per_n)}
    fids = [(n, summary[f"n{n}"]["fidelity"]) for n in sorted(per_n)
            if "fidelity" in summary[f"n{n}"]]
    if len(fids) >= 3:
        fit = an.decay_fit([n for n, _ in fids], [f for _, f in fids])
        summary["decay"] = {
            "slope_per_photon": fit.slope,
            "intercept": fit.intercept,
            "crossing_n50": fit.crossing if fit.crossing else "n/a"}
    return summary


def cmd_analyze(args) -> int:
    outdir = _outdir(args)
    expect = None
    if args.config:
        expect = pio.load_config(args.config).hash()
    per_n: dict[int, list] = {}
    for path in args.records or []:
        header, batches = pio.read_records(path, expect_hash=expect)
        per_n.setdefault(header["n"], []).extend(batches)
    summary = summarize(per_n)
    for n in per_n:
        if len(summary[f"n{n}"]) == 1:     # only its photon count
            raise an.InsufficientDataError(
                f"the records for N={n} support no estimator")

    if args.counts:
        text = Path(args.counts).read_text()
        if not text.strip():
            raise ValueError(f"{args.counts}: the counts file is empty")
        rows = np.atleast_1d(
            np.genfromtxt(io.StringIO(text), delimiter=",", names=True))
        # the file's own duration, from its first non-zero order
        hit = rows[rows["counts"] > 0]
        if len(hit) == 0:
            raise an.InsufficientDataError("the counts file holds no "
                                           "coincidences")
        fit = an.rate_fit(rows["counts"],
                          hit["counts"][0] / hit["rate_per_s"][0],
                          eta_detection=args.eta_d)
        summary["rate"] = {
            "eta": fit.eta,
            "rates_per_s": list(fit.rates),
            "loss_corrected_per_s": list(fit.corrected_rates)}

    if not summary:
        print("nothing to analyze: no records or counts given",
              file=sys.stderr)
        return 2
    path = outdir / (args.out or "summary.json")
    pio.write_summary(path, summary)
    print(f"summary written to {path}")
    return 0


# ---------------------------------------------------------------------------
# reproduce

def _reproduce_run(outdir: Path, fig: str, protocol: ProtocolConfig,
                   noise: NoiseConfig, preset: str, shots: int,
                   seed: int) -> list:
    """:func:`simulate` one measurement preset into its own records file."""
    cfg = pio.RunConfig(protocol, noise, pio.MeasurementPlan(preset=preset),
                        pio.ExecutionPlan(shots=shots, seed=seed,
                                          abort_on_loss=True))
    return simulate(cfg, outdir / f"{fig}_records_n{protocol.n_photons}"
                                  f"_{preset}.csv")


def _reproduce_fig2(outdir: Path, noise: NoiseConfig, seed: int) -> None:
    """GHZ P/C/F versus N at the calibrated operating point.

    Shot counts (200k Z, 25x20k parity grid per N) resolve each estimate
    to well under a percent after loss post-selection.
    """
    per_n = {}
    for n in (2, 4, 6):
        ghz = ProtocolConfig("ghz", n)
        per_n[n] = (
            _reproduce_run(outdir, "fig2", ghz, noise, "z", 200000, seed)
            + _reproduce_run(outdir, "fig2", ghz, noise, "parity-grid",
                             20000, seed + PLAN_SEED_STRIDE))
    summary = summarize(per_n)
    pio.write_summary(outdir / "fig2_summary.json", summary)
    fids = [summary[f"n{n}"]["fidelity"] for n in per_n]
    pio.write_curve(outdir / "fig2_fidelity.csv", {
        "n": list(per_n),
        "fidelity": [f.value for f in fids],
        "stderr": [f.stderr for f in fids]})


def _reproduce_fig3(outdir: Path, noise: NoiseConfig, seed: int) -> None:
    """Cluster stabilizers and the two-setting witness bound at N=5."""
    n = 5
    batches = []
    for i, preset in enumerate(("alternating-odd", "alternating-even")):
        batches += _reproduce_run(outdir, "fig3", ProtocolConfig("cluster", n),
                                  noise, preset, 400000,
                                  seed + i * PLAN_SEED_STRIDE)
    summary = analyze_batches(batches, n)
    pio.write_summary(outdir / "fig3_summary.json", summary)
    stabs = summary.get("stabilizers", {})
    pio.write_curve(outdir / "fig3_stabilizers.csv", {
        "k": list(range(1, len(stabs) + 1)),
        "s_k": [stabs[f"S{k}"].value for k in range(1, len(stabs) + 1)],
        "stderr": [stabs[f"S{k}"].stderr for k in range(1, len(stabs) + 1)]})


def _reproduce_fig4(outdir: Path, noise: NoiseConfig, seed: int) -> None:
    """Coincidence-rate scaling over six simulated hours."""
    cfg = ProtocolConfig("rate", 14)
    duration = 6 * 3600.0
    result = rate_benchmark(cfg, noise, duration, seed)
    pio.write_curve(outdir / "fig4_counts.csv", {
        "n": np.arange(1, 15), "counts": result.counts,
        "rate_per_s": result.rates})
    fit = an.rate_fit(result.counts, result.duration, eta_detection=0.7)
    pio.write_summary(outdir / "fig4_summary.json", {
        "eta": fit.eta,
        "duration_s": duration,
        "fourteen_fold_per_min": result.rates[13] * 60.0})
    print(f"fig4: eta = {fit.eta} "
          f"(14-fold {result.rates[13] * 60.0:.3f}/min)")


def _reproduce_edfig3(outdir: Path, noise: NoiseConfig, seed: int) -> None:
    """Idle-qubit coherence decay and the dynamical-decoupling tau scan."""
    delays = np.arange(0, 33) * 50e-6    # envelope peaks every 5 us
    overlaps, errs = [], []
    for i, t in enumerate(delays):
        p, se, _ = coherence_probe(float(t), noise, 20000, seed + i)
        overlaps.append(p)
        errs.append(se)
    pio.write_curve(outdir / "edfig3_coherence.csv", {
        "delay_s": delays, "overlap": overlaps, "stderr": errs})
    taus = np.linspace(0.0, 250e-6, 11)
    scan = dd_scan(taus, noise, 37500, seed + 1000)
    pio.write_curve(outdir / "edfig3_ddscan.csv", {
        "tau_s": [t for t, _ in scan],
        "visibility": [v.value for _, v in scan],
        "stderr": [v.stderr for _, v in scan]})
    best = max(scan, key=lambda tv: tv[1].value)
    pio.write_summary(outdir / "edfig3_summary.json", {
        "best_tau_s": best[0], "best_visibility": best[1]})
    print(f"edfig3: visibility maximum at tau = {best[0] * 1e6:.1f} us")


def cmd_reproduce(args) -> int:
    seed = pio.ExecutionPlan(seed=args.seed).seed
    outdir = _outdir(args)
    fn = {"fig2": _reproduce_fig2, "fig3": _reproduce_fig3,
          "fig4": _reproduce_fig4, "edfig3": _reproduce_edfig3}[args.figure]
    fn(outdir, NoiseConfig() if args.noiseless else operating_noise(), seed)
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="photonchain",
        description="Monte-Carlo simulator and analysis toolkit for "
                    "sequential photonic graph-state generation")
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the protocol engine")
    sim.add_argument("--config", help="JSON run configuration")
    sim.add_argument("--kind", choices=["ghz", "cluster", "custom", "rate",
                                        "coherence", "ddscan"])
    sim.add_argument("--n", type=int, help="number of photons")
    sim.add_argument("--shots", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--threads", type=int)
    sim.add_argument("--duration", type=float,
                     help="simulated seconds (rate mode)")
    sim.add_argument("--measurement",
                     choices=list(pio.MeasurementPlan.PRESETS))
    sim.add_argument("--phi-points", type=int, dest="phi_points")
    sim.add_argument("--noiseless", action="store_true")
    sim.add_argument("--out", help="output file name")
    sim.add_argument("--outdir")
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="estimate figures of merit")
    ana.add_argument("--records", nargs="*", help="records files")
    ana.add_argument("--counts", help="rate-mode counts file")
    ana.add_argument("--eta-d", type=float, default=1.0, dest="eta_d",
                     help="detection efficiency in (0, 1]")
    ana.add_argument("--config",
                     help="config whose hash the records must match")
    ana.add_argument("--out", help="summary file name")
    ana.add_argument("--outdir")
    ana.set_defaults(func=cmd_analyze)

    rep = sub.add_parser("reproduce", help="desk-scale figure pipelines")
    rep.add_argument("figure", choices=["fig2", "fig3", "fig4", "edfig3"])
    rep.add_argument("--noiseless", action="store_true")
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument("--outdir")
    rep.set_defaults(func=cmd_reproduce)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (pio.ConfigError, pio.RecordsFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except (an.InsufficientDataError, an.FitError,
            NumericalIntegrityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
