"""The benchmark workloads.

Each workload drives photonchain only through public functions, looked up
on their modules at call time (so a traced run sees every call).  Every
program input is derived from the run's ``--seed``; round ``r`` of a run
draws its inputs from ``derive(seed, r, ...)``, so a round can be repeated
exactly.  ``round`` is the timed unit of work at the workload's fixed
target; ``predict`` (exact oracle predictions) and ``finish`` (checks that
need extra program calls) run once per run, after the timed rounds.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
from dataclasses import asdict, dataclass, replace
from functools import reduce
from pathlib import Path

import numpy as np

from photonchain import analysis, cli, engine, oracle, schedule
from photonchain import io as pio
from photonchain.engine import RecordBatch
from photonchain.levels import MeasBasis
from photonchain.noise import NoiseConfig

import checks

# stream keys outside any round index
WARM, CONTROL = 1 << 20, (1 << 20) + 1

PHIS = np.linspace(0.0, np.pi, 25)   # the parity-grid preset


def derive(seed: int, *keys: int) -> int:
    """An engine seed for (run seed, keys), well mixed and below 2^32."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


class OperationFailed(RuntimeError):
    """A program call raised or returned a failure exit code."""


class Ops:
    """Counts operations (program calls and correctness checks)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.check_failures: list[str] = []

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            raise OperationFailed(f"{fn.__name__}: {exc!r}") from exc

    def cli(self, argv: list[str]) -> None:
        """``photonchain.cli.main(argv)``, its progress lines discarded."""
        with contextlib.redirect_stdout(_stdio.StringIO()):
            rc = self.call(lambda: cli.main(argv))
        if rc != 0:
            self.failed += 1
            raise OperationFailed(f"cli {argv[0]} exited {rc}")

    def check(self, name: str, result) -> None:
        self.attempted += 1
        ok, detail = result
        if not ok:
            self.check_failures.append(f"{name}: {detail}")

    @property
    def correct(self) -> bool:
        return not self.check_failures


@dataclass
class RoundResult:
    events: int        # full-detection (post-selected) events delivered
    sim_s: float       # simulated lab time covered


def _rows(batch: RecordBatch, mask) -> RecordBatch:
    return RecordBatch(batch.bases, batch.detected[mask],
                       batch.outcomes[mask], batch.attempts[mask],
                       batch.deltas[mask], batch.run_ids[mask], batch.period)


class Workload:
    name = ""
    # the reference kernel whose speed the round's speed follows on the
    # shared host (see hostspeed.py)
    HOST_KERNEL = "alloc"

    def __init__(self, seed: int, outdir: Path, reduced: bool = False):
        self.seed = seed
        self.outdir = outdir
        self.reduced = reduced
        outdir.mkdir(parents=True, exist_ok=True)

    def setup(self, ops: Ops) -> None:
        raise NotImplementedError

    def round(self, r: int, ops: Ops) -> RoundResult:
        raise NotImplementedError

    def predict(self, ops: Ops) -> None:
        """Once-per-run exact predictions that ``finish`` checks against."""

    def finish(self, ops: Ops) -> None:
        pass


# ---------------------------------------------------------------------------

class Ghz12PostSelect(Workload):
    """GHZ N=12 under the operating noise, Z^N plan plus the 25-angle parity
    grid with ``abort_on_loss``, to a fixed count of full-detection events
    per plan; then P_N, the parity curve, C_N and F_N as fig2 computes them.
    """

    name = "ghz12_postselect"
    # shots per engine call while collecting events: half an engine chunk,
    # fine enough that the shots drawn per round follow the events closely
    BLOCK = 16384
    # control slices: every plan at eta = 1, and 8 blocks of 131072 Z^N
    # shots at the operating eta (about 100 events at N = 12)
    CONTROL_SHOTS, YIELD_BLOCKS, YIELD_BLOCK = 5000, 8, 131072

    def setup(self, ops):
        self.n = 6 if self.reduced else 12
        self.target = 2 if self.reduced else 3       # events per plan
        self.block = 512 if self.reduced else self.BLOCK
        self.control_shots = 1000 if self.reduced else self.CONTROL_SHOTS
        self.yield_block = 2500 if self.reduced else self.YIELD_BLOCK
        self.noise = cli.operating_noise()
        self.cfg = schedule.ProtocolConfig("ghz", self.n)
        self.sched = schedule.build_schedule(self.cfg)
        self.period = schedule.run_period(self.sched)
        self.plans = [[MeasBasis.z()] * self.n] + [
            [MeasBasis.equator(phi)] * self.n for phi in PHIS]
        z = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        self.observables = [[m] * self.n for m in z] + [
            [oracle.basis_observable(MeasBasis.equator(phi))] * self.n
            for phi in PHIS]
        self.nodes, self.weights = checks.gh_nodes(self.noise.b_sigma)
        ops.call(engine.run_batch, self.cfg, self.noise, self.plans[0], 1024,
                 derive(self.seed, WARM), abort_on_loss=True)
        ops.call(oracle.product_expectation, self.sched, self.observables[0])

    def predict(self, ops):
        """P_N and the parity grid from the exact oracle with field noise
        only, averaged over delta (27 observables x 13 nodes), and the
        delta = 0 identities P_N = 1 and parity cos(N phi)."""
        vals = np.array([[ops.call(oracle.product_expectation, self.sched,
                                   obs, delta=d) for d in self.nodes]
                         for obs in self.observables])
        avg = vals @ self.weights
        zero = vals[:, len(self.nodes) // 2]
        self.pop_predicted = avg[0] + avg[1]
        self.parity_predicted = avg[2:]
        ops.check("oracle at delta=0: P_N 1", checks.exact(
            [zero[0] + zero[1]], [1.0], "P_N"))
        ops.check("oracle at delta=0: parity cos(N phi)", checks.exact(
            zero[2:], np.cos(self.n * PHIS), "parity"))

    def _collect(self, bases, key, ops):
        """Draw shot blocks until ``target`` events; returns the
        full-detection rows, their count and the shots drawn."""
        parts, got, shots, b = [], 0, 0, 0
        while got < self.target:
            batch = ops.call(engine.run_batch, self.cfg, self.noise, bases,
                             self.block, derive(self.seed, *key, b),
                             abort_on_loss=True)
            full = batch.detected.all(axis=1)
            n_ev = int(np.count_nonzero(full))
            if n_ev:
                parts.append(_rows(batch, full))
            got, shots, b = got + n_ev, shots + self.block, b + 1
        return reduce(RecordBatch.concat, parts), got, shots

    def round(self, r, ops):
        kept, events, shots = [], 0, 0
        for p, bases in enumerate(self.plans):
            rows, got, drawn = self._collect(bases, (r, p), ops)
            kept.append(rows)
            events, shots = events + got, shots + drawn
        n = self.n
        pop = ops.call(analysis.populations, kept[0], n)
        curve = ops.call(analysis.parity_curve, list(zip(PHIS, kept[1:])))
        coh = ops.call(analysis.fit_coherence, curve, n).amplitude
        fid = ops.call(analysis.ghz_fidelity, pop, coh)
        ops.call(pio.write_summary, self.outdir / "ghz_summary.json", {
            "n": n, "population": pop, "coherence": coh, "fidelity": fid,
            "parity_curve": [{"phi": phi, "parity": est}
                             for phi, est in curve.points]})
        for name, est in (("P_N", pop), ("C_N", coh), ("F_N", fid)):
            ops.check(f"{name} in [0, 1]", checks.in_interval(est, 0.0, 1.0,
                                                               name))
        ops.check("yield below loss-only bound", checks.yield_below_loss_bound(
            events, shots, self.noise.eta, n))
        return RoundResult(events, shots * self.period)

    def finish(self, ops):
        """Control slices with Raman and scatter noise off, so nothing leaks.
        At the operating eta, a fixed number of Z^N shots reaches the
        loss-only yield.  At eta = 1 (field noise only, every shot a
        full-detection event, and loss does not bias the post-selected
        outcomes), P_N and every parity point match the delta-averaged
        oracle prediction."""
        n = self.n
        ctl = replace(self.noise, raman_sigma=0.0, closing_scatter_p=0.0)
        events = shots = 0
        for b in range(self.YIELD_BLOCKS):
            batch = ops.call(engine.run_batch, self.cfg, ctl, self.plans[0],
                             self.yield_block,
                             derive(self.seed, CONTROL, 0, b),
                             abort_on_loss=True)
            events += int(np.count_nonzero(batch.detected.all(axis=1)))
            shots += self.yield_block
        ops.check("control yield is loss-only",
                  checks.yield_matches_loss_only(events, shots, ctl.eta, n))

        field = NoiseConfig(b_sigma=self.noise.b_sigma,
                            b_model=self.noise.b_model)
        for p, bases in enumerate(self.plans):
            batch = ops.call(engine.run_batch, self.cfg, field, bases,
                             self.control_shots,
                             derive(self.seed, CONTROL, 1, p))
            if p == 0:
                est = ops.call(analysis.populations, batch, n)
                ops.check("control P_N vs oracle", checks.probability_matches(
                    est.value, est.n_events, self.pop_predicted, "P_N"))
                continue
            phi = float(PHIS[p - 1])
            est = ops.call(analysis.parity, batch, phi)
            ops.check(f"control parity({phi:.4f}) vs oracle",
                      checks.parity_matches(est.value, est.n_events,
                                            self.parity_predicted[p - 1],
                                            "parity"))


# ---------------------------------------------------------------------------

class Cluster6Records(Workload):
    """The command-line path: ``simulate`` for both alternating settings of
    a 6-photon cluster state from a generated JSON config (operating noise,
    no abort_on_loss), then ``analyze`` over both records files."""

    name = "cluster6_records"
    N = 6
    PRESETS = ("alternating-odd", "alternating-even")

    def setup(self, ops):
        self.shots = 2000 if self.reduced else 20000
        self.noise = cli.operating_noise()
        self.config = self.outdir / "cluster6.json"
        self.config.write_text(json.dumps({
            "protocol": {"kind": "cluster", "n_photons": self.N},
            "noise": asdict(self.noise),
            "measurement": {"preset": self.PRESETS[0]},
            "execution": {"shots": self.shots, "seed": 0}}, indent=2))
        self.period = schedule.run_period(schedule.build_schedule(
            schedule.ProtocolConfig("cluster", self.N)))
        # the warm-up leaves out `analyze`: on 256-shot files it fails
        # whenever a setting has no full-detection event
        self._simulate(ops, derive(self.seed, WARM), shots=256)

    def _paths(self):
        return [self.outdir / f"{p}.csv" for p in self.PRESETS]

    def _simulate(self, ops, seed, shots=None):
        for preset, path in zip(self.PRESETS, self._paths()):
            argv = ["simulate", "--config", str(self.config),
                    "--measurement", preset, "--seed", str(seed),
                    "--outdir", str(self.outdir), "--out", path.name]
            if shots:
                argv += ["--shots", str(shots)]
            ops.cli(argv)

    def round(self, r, ops):
        self.last_seed = derive(self.seed, r)
        self._simulate(ops, self.last_seed)
        ops.cli(["analyze", "--records", *map(str, self._paths()),
                 "--outdir", str(self.outdir), "--out", "summary.json"])
        summary = json.loads(
            (self.outdir / "summary.json").read_text())[f"n{self.N}"]
        bound = summary["cluster_witness"]["bound"]
        for name, est in [*summary["stabilizers"].items(), ("bound", bound)]:
            ops.check(f"{name} in [-1, 1]", checks.in_interval(
                analysis.Estimate(**est), -1.0, 1.0, name))
        return RoundResult(bound["n_events"], 2 * self.shots * self.period)

    def finish(self, ops):
        """Round-trip and summary checks on the last round's files, against
        batches simulated in memory with the same inputs; then a loss-only
        control slice."""
        cfg = schedule.ProtocolConfig("cluster", self.N)
        plans = [pio.MeasurementPlan(preset=p).plans(self.N)[0]
                 for p in self.PRESETS]
        # cmd_simulate seeds plan i with seed + i * PLAN_SEED_STRIDE; each
        # file holds one plan, so both use the round seed itself
        mem = [ops.call(engine.run_batch, cfg, self.noise, plan, self.shots,
                        self.last_seed) for plan in plans]
        headers = []
        for preset, path, batch in zip(self.PRESETS, self._paths(), mem):
            header, back = ops.call(pio.read_records, path)
            headers.append(header)
            ops.check(f"{preset} records round-trip",
                      checks.records_equal(batch, back[0]))
        try:
            pio.read_records(self._paths()[0],
                             expect_hash=headers[1]["config"])
            refused = False
        except pio.RecordsFormatError:
            refused = True
        ops.check("mismatched config hash refused",
                  (refused, "records read under another config's hash"))
        mem_summary = self.outdir / "summary_in_memory.json"
        ops.call(pio.write_summary, mem_summary, {
            f"n{self.N}": ops.call(cli.analyze_batches, mem, self.N)})
        same = (mem_summary.read_bytes()
                == (self.outdir / "summary.json").read_bytes())
        ops.check("summary from records == summary from memory",
                  (same, "summaries differ" if not same else "identical"))

        lossy = NoiseConfig(eta0=self.noise.eta0, eta_d=self.noise.eta_d)
        ctl = [ops.call(engine.run_batch, cfg, lossy, plan,
                        2000 if self.reduced else 20000,
                        derive(self.seed, CONTROL, i))
               for i, plan in enumerate(plans)]
        stabs = ops.call(analysis.stabilizers, ctl, self.N)
        bound = ops.call(analysis.cluster_witness, ctl[0], ctl[1], self.N)
        values = {f"S{k}": s.value for k, s in enumerate(stabs, start=1)}
        values["bound"] = bound.bound.value
        ops.check("loss-only stabilizers and bound read +1",
                  checks.all_exactly_one(values))


# ---------------------------------------------------------------------------

class RateDay(Workload):
    """Coincidence counting for a 14-photon rate run over one simulated day,
    then the eta fit, as fig4 and criterion 4 do."""

    name = "rate_day"
    N = 14
    HOST_KERNEL = "stream"

    def setup(self, ops):
        self.duration = 3600.0 if self.reduced else 86400.0
        self.noise = cli.operating_noise()
        self.cfg = schedule.ProtocolConfig("rate", self.N)
        self.period = self.cfg.repetition_period
        ops.call(engine.rate_benchmark, self.cfg, self.noise, 1.0,
                 derive(self.seed, WARM))

    def round(self, r, ops):
        res = ops.call(engine.rate_benchmark, self.cfg, self.noise,
                       self.duration, derive(self.seed, r))
        fit = ops.call(analysis.rate_fit, res.counts, res.duration,
                       eta_detection=self.noise.eta_d)
        ops.call(pio.write_curve, self.outdir / "rate_counts.csv", {
            "n": np.arange(1, self.N + 1), "counts": res.counts,
            "rate_per_s": res.rates})
        ops.call(pio.write_summary, self.outdir / "rate_summary.json", {
            "eta": fit.eta, "duration_s": res.duration,
            "top_fold_per_min": res.rates[-1] * 60.0})
        eta = self.noise.eta
        ops.check("counts binomial", checks.counts_binomial(
            res.counts, res.n_runs, eta))
        ops.check("eta recovered", checks.eta_recovered(fit.eta, eta))
        ops.check("top-fold rate", checks.top_rate_poisson(
            int(res.counts[-1]), res.duration, res.period, eta, self.N))
        return RoundResult(int(res.counts[-1]), res.duration)


WORKLOADS = {cls.name: cls for cls in (Ghz12PostSelect, Cluster6Records,
                                       RateDay)}
