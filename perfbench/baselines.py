"""Reference figures quoted in README.md, measured in one process.

    python3 perfbench/run.py --workload baselines

times GHZ N=12 per shot with and without ``abort_on_loss``, the CSV write
and read of 200k N=6 cluster shots, one simulated day of rate counting and
the wall time of each ``photonchain reproduce`` target (run through
``cli.main``, output in ``.perfbench_run/baselines``).
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
import time

from photonchain import cli, engine, schedule
from photonchain import io as pio
from photonchain.levels import MeasBasis

SHOTS = 200_000


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def main(outdir) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    noise = cli.operating_noise()
    fig = {}

    ghz = schedule.ProtocolConfig("ghz", 12)
    z12 = [MeasBasis.z()] * 12
    engine.run_batch(ghz, noise, z12, 1024, 0, abort_on_loss=True)  # warm-up
    for abort in (True, False):
        batch, dt = _timed(engine.run_batch, ghz, noise, z12, SHOTS, 1,
                           abort_on_loss=abort)
        key = "ghz12_abort" if abort else "ghz12_no_abort"
        fig[f"{key}_us_per_shot"] = dt / SHOTS * 1e6
        fig[f"{key}_events"] = int(batch.detected.all(axis=1).sum())
        fig[f"{key}_events_per_s"] = fig[f"{key}_events"] / dt

    plan = pio.MeasurementPlan(preset="alternating-odd").plans(6)[0]
    batch, dt = _timed(engine.run_batch, schedule.ProtocolConfig("cluster", 6),
                       noise, plan, SHOTS, 2)
    fig["cluster6_200k_simulate_s"] = dt
    path = outdir / "records_200k.csv"
    _, fig["cluster6_200k_write_s"] = _timed(pio.write_records, path, batch,
                                             "0" * 16, 2)
    _, fig["cluster6_200k_read_s"] = _timed(pio.read_records, path)
    fig["cluster6_200k_bytes_per_shot"] = path.stat().st_size / SHOTS
    path.unlink()

    _, fig["rate_day_s"] = _timed(engine.rate_benchmark,
                                  schedule.ProtocolConfig("rate", 14), noise,
                                  86400.0, 3)

    for target in ("fig2", "fig3", "fig4", "edfig3"):
        with contextlib.redirect_stdout(_stdio.StringIO()):
            rc, dt = _timed(cli.main, ["reproduce", target, "--outdir",
                                       str(outdir / target)])
        if rc != 0:
            raise RuntimeError(f"reproduce {target} exited {rc}")
        fig[f"reproduce_{target}_s"] = dt

    for k, v in fig.items():
        print(f"{k:36s} {v:12.4g}")
    print(json.dumps(fig))
    return 0
