"""Benchmark workloads: seeded inputs for the arisim CLI and checks on its outputs.

Each workload is one CLI experiment at a fixed size.  Its YAML config is
generated from the benchmark seed alone, so the program only ever sees
generated inputs.  An operation is one output row of a sweep or one GA
run; it fails when the call raises or when a check on its
output fails, including a row that differs from the same row of the first
call in the run (results depend only on seed and trial count, so reruns
must be byte-identical).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

# The seed picks one of TABLE input sets; the stored Monte Carlo references
# cover every one of them.
TABLE = 32

BASE_SYSTEM = {
    "M": 64, "N": 16, "K": 4, "b": 1,
    "epsilon": 10.0, "delta": 1.0,
    "sigma_n2_dbm": -90.0, "sigma_v2_dbm": -70.0,
    "P_T_dbm": 30.0, "P_SW_dbm": -10.0, "P_DC_dbm": -5.0,
    "split": 0.5,
    "pathloss_exp_user": 2.8, "pathloss_exp_ris": 2.8,
    "bs_pos": [0.0, 0.0, 25.0], "ris_pos": [5.0, 100.0, 30.0],
    "user_center": [5.0, 100.0, 1.6], "user_radius": 5.0,
    "d_over_lambda": 0.5,
}

RATE_COLUMNS = ("analytic_sum_rate", "mc_sum_rate", "mc_stderr")


def config_digest(raw: dict) -> str:
    """Digest of a generated config, stored beside its reference values."""
    return hashlib.sha256(json.dumps(raw, sort_keys=True).encode()).hexdigest()


def read_outputs(out_dir: Path, names) -> dict[str, bytes]:
    return {n: (out_dir / n).read_bytes() for n in names if (out_dir / n).is_file()}


def _rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def _lines(data: bytes | None) -> list[bytes] | None:
    return None if data is None else data.splitlines()[1:]


def _finite_nonneg(*values: float) -> bool:
    return all(math.isfinite(v) and v >= 0.0 for v in values)


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    trials: int
    block: dict = field(default_factory=dict)

    outputs: tuple = ()
    work_unit: str = ""

    def config(self, seed: int) -> dict:
        system = dict(BASE_SYSTEM, seed=seed % TABLE, trials=self.trials)
        return {"system": system, "experiments": {self.experiment: dict(self.block)}}

    def ops(self, raw: dict) -> int:
        raise NotImplementedError

    def work(self, outputs: dict[str, bytes]) -> int:
        raise NotImplementedError

    def failures(self, raw, outputs, baseline, reference) -> int:
        """Failed operations of one call, given its CSVs (name -> bytes), the
        CSVs of the run's first call (None for that call) and the stored
        reference rows (None where there are none)."""
        raise NotImplementedError


class Sweep(Workload):
    """Common checks of the two sweep CSVs: the row grid, finite non-negative
    rates, Monte Carlo sum rates within max(4 combined SE, 1e-9 relative) of
    the stored reference, and byte-identical reruns."""

    def keys(self, raw: dict) -> list[tuple]:
        raise NotImplementedError

    def row_key(self, row: dict) -> tuple:
        raise NotImplementedError

    def row_ok(self, raw: dict, row: dict) -> bool:
        return True

    def ops(self, raw):
        return len(self.keys(raw))

    def work(self, outputs):
        rows = _rows(outputs[self.outputs[0]])
        return self.trials * sum(float(r["mc_stderr"]) > 0.0 for r in rows)

    def failures(self, raw, outputs, baseline, reference):
        expected = self.keys(raw)
        data = outputs.get(self.outputs[0])
        try:
            rows = _rows(data)
            if [self.row_key(r) for r in rows] != expected:
                return len(expected)
        except (AttributeError, KeyError, ValueError, TypeError):
            return len(expected)
        lines = _lines(data)
        base = _lines(baseline[self.outputs[0]]) if baseline else None
        failed = 0
        for i, row in enumerate(rows):
            try:
                a, mc, se = (float(row[c]) for c in RATE_COLUMNS)
                ok = _finite_nonneg(a, mc, se) and self.row_ok(raw, row)
                if reference is not None:
                    ref, ref_se = reference[i]
                    ok = ok and abs(mc - ref) <= max(4.0 * math.hypot(se, ref_se), 1e-9 * abs(ref))
            except (KeyError, ValueError, TypeError):
                ok = False
            if base is not None and (i >= len(base) or lines[i] != base[i]):
                ok = False
            failed += not ok
        return failed


class PowerSweep(Sweep):
    """`total-power`: one geometry, both modes at every total budget.  Also
    checks that startup_met flips where `circuit_power` puts the threshold
    and that every rate is exactly 0 below it."""

    def keys(self, raw):
        grid = sorted(float(p) for p in self.block["P_T_dbm_grid"])
        return [(p, mode) for p in grid for mode in ("active", "passive")]

    def row_key(self, row):
        return float(row["P_T_dbm"]), row["mode"]

    def row_ok(self, raw, row):
        from arisim.budget import Mode, circuit_power, dbm_to_watts
        from arisim.cli import build_system

        p_t = float(row["P_T_dbm"])
        point = replace(build_system(raw), N=int(self.block["N"]), P_T_dbm=p_t)
        live = dbm_to_watts(p_t) >= circuit_power(point, Mode(row["mode"]))
        if row["startup_met"] != ("true" if live else "false"):
            return False
        return live or all(float(row[c]) == 0.0 for c in RATE_COLUMNS)


class SizeSweep(Sweep):
    """`antennas-elements`: one geometry per (M, N), both modes."""

    def keys(self, raw):
        return [(m, n, mode) for m in sorted(self.block["M_grid"])
                for n in sorted(self.block["N_grid"]) for mode in ("active", "passive")]

    def row_key(self, row):
        return int(row["M"]), int(row["N"]), row["mode"]


class GASearch(Workload):
    """`optimize`: one GA run is one operation.  Best fitness must be
    monotone, the optimised closed-form rate at least the baseline one, the
    summary consistent with the history, and reruns byte-identical."""

    def ops(self, raw):
        return 1

    def work(self, outputs):
        return int(self.block["n_total"]) * len(_rows(outputs["ga_history.csv"]))

    def failures(self, raw, outputs, baseline, reference):
        if len(outputs) != len(self.outputs):
            return 1
        if baseline is not None and outputs != baseline:
            return 1
        try:
            history = _rows(outputs["ga_history.csv"])
            best = [float(r["best_fitness"]) for r in history]
            mean = [float(r["mean_fitness"]) for r in history]
            (summary,) = _rows(outputs["optimize_summary.csv"])
            theta = [float(r["theta"]) for r in _rows(outputs["best_phases.csv"])]
            base = float(summary["baseline_analytic_sum_rate"])
            opt = float(summary["optimized_analytic_sum_rate"])
            ok = (
                len(best) >= 2
                and int(summary["generations"]) == len(best)
                and _finite_nonneg(*best, *mean, base, opt)
                and all(b1 >= b0 for b0, b1 in zip(best, best[1:]))
                and opt >= base
                and _finite_nonneg(float(summary["optimized_mc_sum_rate"]),
                                   float(summary["optimized_mc_stderr"]))
                and len(theta) == raw["system"]["N"]
                and all(0.0 <= t < 2.0 * math.pi for t in theta)
            )
        except (KeyError, ValueError, TypeError):
            return 1
        return 0 if ok else 1


WORKLOADS = {
    w.name: w for w in (
        PowerSweep(
            "power_sweep", "total-power", trials=128,
            block={"N": 128, "P_T_dbm_grid": [float(p) for p in range(0, 32, 2)]},
            outputs=("total_power.csv",), work_unit="trial-points",
        ),
        SizeSweep(
            "size_sweep", "antennas-elements", trials=256,
            block={"M_grid": [16, 36, 64, 100, 144], "N_grid": [4, 16, 36, 64]},
            outputs=("antennas_elements.csv",), work_unit="trial-points",
        ),
        GASearch(
            "ga_search", "optimize", trials=128,
            # f_tol = 0 runs every generation, so the work does not depend on the seed
            block={"n_total": 200, "n_elite": 20, "n_parents": 40, "n_crossover": 144,
                   "n_mutation": 36, "max_iters": 20, "f_tol": 0.0, "window": 10},
            outputs=("ga_history.csv", "best_phases.csv", "optimize_summary.csv"),
            work_unit="fitness evaluations",
        ),
    )
}
