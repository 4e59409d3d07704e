"""Self-test of the benchmark harness on tiny inputs.

    python3 bench/selftest.py

Covers the self-time arithmetic, the redraw-ratio key counting, metrics
reported absent when a wrapped name disappears, corrupted CSVs counted as
failed operations, and BENCHMARK.json naming what the harness produces.
Exits non-zero on the first failed check.
"""

import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import run  # sets the BLAS thread count before numpy loads

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402
import yaml  # noqa: E402

import arisim.channel  # noqa: E402
import arisim.transceiver  # noqa: E402
from arisim.budget import Mode, SystemConfig, resolve_budget  # noqa: E402
from arisim.transceiver import PhaseConfig  # noqa: E402
from tracing import METRICS, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, PowerSweep, _rows  # noqa: E402


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok   {what}")


def test_self_times():
    # root [0, 10] holds a [1, 3] and b [4, 8]; b holds c [5, 6]
    spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 3.0, 0], ["b", 4.0, 8.0, 0], ["c", 5.0, 6.0, 2]]
    check(self_times(spans) == [4.0, 2.0, 3.0, 1.0], "self time is span minus direct children")
    tracer = Tracer()
    tracer.spans.extend([["optimize_phases", 0.0, 10.0, -1], ["compute_stats", 1.0, 5.0, 0],
                         ["los_components", 2.0, 4.0, 1], ["array_response", 2.5, 3.0, 2]])
    m = tracer.metrics()
    check(m["ga.self_s"] == 6.0 and m["analytic.stats_self_s"] == 2.0,
          "layer self time excludes the other layers' children")
    check(m["channel.los_s"] == 2.0 and m["channel.los_calls"] == 2,
          "inclusive time does not count a nested span of the same group twice")


def test_redraw_ratio():
    cfg = SystemConfig(M=4, N=4, K=2, epsilon=(10.0, 10.0), seed=5)
    geom = arisim.channel.make_geometry(cfg)
    budget = resolve_budget(cfg, geom.alpha, Mode.ACTIVE)
    phases = PhaseConfig(np.zeros(cfg.N))
    original = arisim.transceiver.monte_carlo_rate
    tracer = Tracer()
    tracer.install()
    try:
        mc = arisim.transceiver.monte_carlo_rate
        mc(geom, cfg, phases, budget, trials=16)
        mc(geom, cfg, phases, budget, trials=16)                    # same batch again
        mc(geom, replace(cfg, seed=6), phases, budget, trials=16)   # another seed
        mc(geom, cfg, phases, budget, trials=600)                   # batch 0 again, batch 1 new
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    check(arisim.transceiver.monte_carlo_rate is original, "uninstall restores the functions")
    check(m["channel.draw_calls"] == 5, "five fading batches drawn")
    check(m["channel.redraw_ratio"] == 5 / 3, "redraw ratio is draws over distinct keys (5 / 3)")
    check(m["transceiver.mc_calls"] == 4 and m["transceiver.trial_points"] == 648,
          "Monte Carlo calls and trial-points counted")


def test_absent_names():
    saved = arisim.channel.crandn
    del arisim.channel.crandn
    tracer = Tracer()
    try:
        tracer.install()
        tracer.uninstall()
    finally:
        arisim.channel.crandn = saved
    m = tracer.metrics()
    check("crandn" in tracer.absent and "channel.crandn_s" not in m
          and "channel.crandn_mb" not in m and "channel.los_s" in m,
          "a vanished name makes only its metrics absent")
    tracer = Tracer()
    renamed = tracer._wrap("sample_channel_batch", lambda geom, cfg, gen, count: None, "_on_draw")
    renamed(None, None, None, 1)
    check("channel.redraw_ratio" not in tracer.metrics(),
          "an observer that cannot read its argument makes its metrics absent")


def corrupt(outputs, row, column, value):
    lines = outputs["total_power.csv"].decode().split("\r\n")
    cells = lines[row + 1].split(",")
    cells[lines[0].split(",").index(column)] = value
    lines[row + 1] = ",".join(cells)
    return {"total_power.csv": "\r\n".join(lines).encode()}


def test_corrupted_csv():
    # 4 elements: active starts up above ~2.2 dBm, passive above ~-4 dBm
    wl = PowerSweep("tiny", "total-power", trials=8, block={"N": 4, "P_T_dbm_grid": [0.0, 30.0]},
                    outputs=("total_power.csv",))
    raw = wl.config(3)
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        cfg_path = Path(tmp) / "config.yaml"
        cfg_path.write_text(yaml.safe_dump(raw))
        _, rc, out = run.cli_call(wl, cfg_path, Path(tmp) / "out")
    check(rc == 0 and wl.failures(raw, out, out, None) == 0, "clean rerun has no failures")
    rows = [(0.0, "active"), (0.0, "passive"), (30.0, "active"), (30.0, "passive")]
    check(wl.keys(raw) == rows, "tiny grid covers a dead and a live surface")
    stored = [[float(r["mc_sum_rate"]), float(r["mc_stderr"])] for r in _rows(out["total_power.csv"])]
    mc = stored[3][0]
    cases = [
        ("negative rate", corrupt(out, 3, "mc_sum_rate", "-1.0"), 1),
        ("non-finite rate", corrupt(out, 2, "analytic_sum_rate", "nan"), 1),
        ("startup flag off its threshold", corrupt(out, 0, "startup_met", "true"), 1),
        ("rerun differs from the first call", corrupt(out, 3, "mc_sum_rate", repr(mc * 1.0001)), 1),
        ("missing row", {"total_power.csv": b"\r\n".join(out["total_power.csv"].split(b"\r\n")[:-2])}, 4),
        ("missing file", {}, 4),
    ]
    for what, bad, expected in cases:
        check(wl.failures(raw, bad, out, None) == expected,
              f"corrupted CSV counted as failed: {what}")
    check(wl.failures(raw, out, None, stored) == 0, "rows match their stored reference")
    stored[2][0] += 10.0 * stored[2][1]
    check(wl.failures(raw, out, None, stored) == 1,
          "a Monte Carlo rate 10 SE off its stored reference fails")


def test_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json lists the harness workloads")
    check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
          == [m[:3] for m in METRICS], "BENCHMARK.json lists tracing.METRICS")
    check([m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"],
          "BENCHMARK.json lists the end-to-end metrics")


if __name__ == "__main__":
    test_self_times()
    test_redraw_ratio()
    test_absent_names()
    test_corrupted_csv()
    test_benchmark_json()
    print("selftest passed")
