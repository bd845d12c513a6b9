"""Command-line driver: simulate | analyze | reproduce.

Output files land in --outdir (or the PHOTONCHAIN_OUTDIR environment
variable, or the working directory).  Exit codes: 0 success, 2 invalid
configuration, usage or records file, 3 I/O failure, 4 the data support
no estimate (no post-selected events, a degenerate fit) or the
simulation lost numerical integrity.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analysis as an
from . import io as pio
from .engine import (NumericalIntegrityError, coherence_probe, dd_scan,
                     rate_benchmark, run_batch)
from .noise import NoiseConfig, calibrate_field, raman_sigma_for_infidelity
from .schedule import ProtocolConfig

PLAN_SEED_STRIDE = 1000003   # distinct stream block per basis plan


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

def _merged_config(args) -> pio.RunConfig:
    data = {}
    if args.config:
        cfg = pio.load_config(args.config)
    else:
        if not args.kind:
            raise pio.ConfigError("either --config or --kind is required")
        cfg = pio.parse_config({"kind": args.kind, "n_photons": args.n})
    proto, meas, execu = cfg.protocol, cfg.measurement, cfg.execution
    if args.config and args.kind:
        proto = replace(proto, kind=args.kind)
    if args.config and args.n is not None:
        proto = replace(proto, n_photons=args.n)
    if args.measurement:
        meas = replace(meas, preset=args.measurement)
    if args.phi_points:
        meas = replace(meas, phi_points=args.phi_points)
    over = {}
    for name in ("shots", "seed", "threads", "duration"):
        v = getattr(args, name)
        if v is not None:
            over[name] = v
    if over:
        execu = replace(execu, **over)
    noise = cfg.noise
    if args.noiseless:
        noise = NoiseConfig()
    return pio.RunConfig(proto, noise, meas, execu)


def cmd_simulate(args) -> int:
    cfg = _merged_config(args)
    outdir = _outdir(args)
    chash = cfg.hash()
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

    plans = cfg.measurement.plans(cfg.protocol.n_photons)
    batches = []
    for i, plan in enumerate(plans):
        batch = run_batch(cfg.protocol, cfg.noise, plan, ex.shots,
                          ex.seed + i * PLAN_SEED_STRIDE,
                          threads=ex.threads,
                          abort_on_loss=ex.abort_on_loss)
        batches.append(batch)
        full = int(batch.detected.all(axis=1).sum())
        print(f"plan {i + 1}/{len(plans)} "
              f"[{''.join(b.code() if b.kind == 'Z' else 'E' for b in plan)}]"
              f": {batch.n_shots} shots, {full} full-detection events")
    path = outdir / (args.out or f"records_{cfg.protocol.kind}"
                     f"_n{cfg.protocol.n_photons}.csv")
    pio.write_records(path, batches, chash, ex.seed)
    print(f"records written to {path} (config {chash})")
    return 0


# ---------------------------------------------------------------------------
# analyze

def _is_uniform(bases, kind, phi=None):
    return all(b.kind == kind and (phi is None or b.phi == phi)
               for b in bases)


def _alternating(bases, parity_class):
    return all((b.kind == "E" and b.phi == 0.0)
               if (k % 2 == 0) == (parity_class == 1) else b.kind == "Z"
               for k, b in enumerate(bases))


def analyze_batches(all_batches, n: int) -> dict:
    """Everything computable from the given record groups."""
    summary: dict = {"n_photons": n}
    z_batches = [b for b in all_batches if _is_uniform(b.bases, "Z")]
    x_batches = [b for b in all_batches if _is_uniform(b.bases, "E", 0.0)]
    eq, seen_phi = [], set()
    for b in all_batches:
        if b.bases[0].kind == "E" and _is_uniform(b.bases, "E",
                                                  b.bases[0].phi):
            if b.bases[0].phi not in seen_phi:
                seen_phi.add(b.bases[0].phi)
                eq.append((b.bases[0].phi, b))
    odd = [b for b in all_batches if _alternating(b.bases, 1)]
    even = [b for b in all_batches if _alternating(b.bases, 0)]

    p_est = c_est = None
    if z_batches:
        merged = z_batches[0]
        for b in z_batches[1:]:
            merged = merged.concat(b)
        p_est = an.populations(merged, n)
        summary["population"] = p_est
    if len(eq) >= 8:
        curve = an.parity_curve(eq)
        fit = an.fit_coherence(curve, n)
        c_est = fit.amplitude
        summary["coherence"] = c_est
        summary["coherence_phase"] = fit.phase
        summary["parity_curve"] = [
            {"phi": phi, "parity": est} for phi, est in curve.points]
    if p_est and c_est:
        summary["fidelity"] = an.ghz_fidelity(p_est, c_est)
    if x_batches and z_batches:
        w = an.ghz_witness(x_batches[0], z_batches[0], n)
        summary["ghz_witness"] = {"bound": w.bound,
                                  "components": w.components}
    if odd and even:
        w = an.cluster_witness(odd[0], even[0], n)
        summary["cluster_witness"] = {"bound": w.bound,
                                      "settings": list(w.settings_used)}
        summary["stabilizers"] = {
            f"S{k}": est for k, est in
            enumerate(an.stabilizers([odd[0], even[0]], n), start=1)
            if est is not None}
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
    summary: dict = {}
    for n in sorted(per_n):
        summary[f"n{n}"] = analyze_batches(per_n[n], n)

    fids = [(n, summary[f"n{n}"]["fidelity"]) for n in sorted(per_n)
            if "fidelity" in summary[f"n{n}"]]
    if len(fids) >= 3:
        fit = an.decay_fit([n for n, _ in fids], [f for _, f in fids])
        summary["decay"] = {
            "slope_per_photon": fit.slope,
            "intercept": fit.intercept,
            "crossing_n50": fit.crossing if fit.crossing else "n/a"}

    if args.counts:
        rows = np.genfromtxt(args.counts, delimiter=",", names=True)
        fit = an.rate_fit(np.atleast_1d(rows["counts"]), args.duration,
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

def _reproduce_fig2(outdir: Path, noiseless: bool, seed: int) -> None:
    """GHZ P/C/F versus N at the calibrated operating point.

    Shot counts (200k Z, 25x20k parity grid per N) resolve each estimate
    to well under a percent after loss post-selection.
    """
    noise = NoiseConfig() if noiseless else operating_noise()
    paths = []
    for n in (2, 4, 6):
        cfg = pio.RunConfig(
            ProtocolConfig("ghz", n), noise,
            pio.MeasurementPlan(preset="z"),
            pio.ExecutionPlan(shots=200000, seed=seed, abort_on_loss=True))
        plans = cfg.measurement.plans(n)
        batches = [run_batch(cfg.protocol, noise, plans[0], 200000, seed,
                             abort_on_loss=True)]
        grid = pio.MeasurementPlan(preset="parity-grid").plans(n)
        for i, plan in enumerate(grid):
            batches.append(run_batch(cfg.protocol, noise, plan, 20000,
                                     seed + (i + 1) * PLAN_SEED_STRIDE,
                                     abort_on_loss=True))
        path = outdir / f"fig2_records_n{n}.csv"
        pio.write_records(path, batches, cfg.hash(), seed)
        paths.append(path)
        print(f"fig2: N={n} records at {path}")
    per_n = {}
    for path in paths:
        header, batches = pio.read_records(path)
        per_n[header["n"]] = batches
    summary = {f"n{n}": analyze_batches(bs, n) for n, bs in per_n.items()}
    fids = [(n, summary[f"n{n}"]["fidelity"]) for n in sorted(per_n)]
    fit = an.decay_fit([n for n, _ in fids], [f for _, f in fids])
    summary["decay"] = {"slope_per_photon": fit.slope,
                        "intercept": fit.intercept,
                        "crossing_n50": fit.crossing if fit.crossing
                        else "n/a"}
    pio.write_summary(outdir / "fig2_summary.json", summary)
    pio.write_curve(outdir / "fig2_fidelity.csv", {
        "n": [n for n, _ in fids],
        "fidelity": [f.value for _, f in fids],
        "stderr": [f.stderr for _, f in fids]})


def _reproduce_fig3(outdir: Path, noiseless: bool, seed: int) -> None:
    """Cluster stabilizers and the two-setting witness bound at N=5."""
    noise = NoiseConfig() if noiseless else operating_noise()
    n = 5
    cfg = pio.RunConfig(ProtocolConfig("cluster", n), noise,
                        pio.MeasurementPlan(preset="alternating-odd"),
                        pio.ExecutionPlan(shots=400000, seed=seed,
                                          abort_on_loss=True))
    batches = []
    for i, preset in enumerate(("alternating-odd", "alternating-even")):
        plan = pio.MeasurementPlan(preset=preset).plans(n)[0]
        batches.append(run_batch(cfg.protocol, noise, plan, 400000,
                                 seed + i * PLAN_SEED_STRIDE,
                                 abort_on_loss=True))
    path = outdir / f"fig3_records_n{n}.csv"
    pio.write_records(path, batches, cfg.hash(), seed)
    summary = analyze_batches(batches, n)
    pio.write_summary(outdir / "fig3_summary.json", summary)
    stabs = summary.get("stabilizers", {})
    pio.write_curve(outdir / "fig3_stabilizers.csv", {
        "k": list(range(1, len(stabs) + 1)),
        "s_k": [stabs[f"S{k}"].value for k in range(1, len(stabs) + 1)],
        "stderr": [stabs[f"S{k}"].stderr for k in range(1, len(stabs) + 1)]})
    print(f"fig3: records at {path}")


def _reproduce_fig4(outdir: Path, noiseless: bool, seed: int) -> None:
    """Coincidence-rate scaling over six simulated hours."""
    noise = NoiseConfig() if noiseless else operating_noise()
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


def _reproduce_edfig3(outdir: Path, noiseless: bool, seed: int) -> None:
    """Idle-qubit coherence decay and the dynamical-decoupling tau scan."""
    noise = NoiseConfig() if noiseless else operating_noise("quasi-static")
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
    outdir = _outdir(args)
    fn = {"fig2": _reproduce_fig2, "fig3": _reproduce_fig3,
          "fig4": _reproduce_fig4, "edfig3": _reproduce_edfig3}[args.figure]
    fn(outdir, args.noiseless, args.seed)
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
    ana.add_argument("--duration", type=float, default=3600.0,
                     help="simulated duration of the counts file")
    ana.add_argument("--eta-d", type=float, default=1.0, dest="eta_d",
                     help="detection efficiency for loss correction")
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
