"""Experiment runner: parameter sweeps, verification reports and phase search.

Each experiment reads one YAML config (a `system` section mirroring
SystemConfig plus per-experiment blocks), runs at the configured scale and
writes CSV files plus a run manifest into the output directory.  Identical
config and seed produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import yaml

from .analytic import closed_form_rates, closed_form_site, compute_stats
from .budget import (
    ConfigurationError,
    LinkBudget,
    Mode,
    SystemConfig,
    _is_integer,
    checked_block,
    circuit_power,
    resolve_budget,
    watts_to_dbm,
)
from .channel import STREAM_PHASES, make_geometry, substream
from .ga import GAParams, optimize_phases
from .transceiver import (
    Moments,
    PhaseConfig,
    _sample_mean,
    estimate_moments,
    log_rates,
    measured_ris_power,
    moments_at,
    shared_trial_statistics,
    sinr_matrix,
    sinr_terms,
)

def load_config(path: str) -> dict:
    """The parsed YAML config, by libyaml's safe loader where PyYAML was
    built with it (about five times faster than the pure-Python one).  Its
    top level holds the `system` section and, optionally, `experiments`."""
    with open(path, "r") as fh:
        raw = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    raw = checked_block(raw, ("system", "experiments"), "top-level")
    if "system" not in raw:
        raise ConfigurationError(f"config {path} must contain a 'system' section")
    return raw


def build_system(raw: dict, **overrides) -> SystemConfig:
    """Construct a SystemConfig from the config's system section.

    A scalar `epsilon` is broadcast to all K users, and without one every
    user takes the default's first entry; the section must be a mapping
    of SystemConfig fields, and SystemConfig checks every value.
    """
    section = dict(checked_block(raw["system"], SystemConfig.__dataclass_fields__, "system"))
    section.update({k: v for k, v in overrides.items() if v is not None})
    eps = section.get("epsilon", SystemConfig.epsilon[0])
    K = section.get("K", SystemConfig.K)
    if not isinstance(eps, (list, tuple)) and _is_integer(K):
        section["epsilon"] = (eps,) * K
    return SystemConfig(**section)


def _list(value, name: str, length: int | None = None) -> list:
    """A nonempty list from an experiment block, of `length` entries when
    given; a scalar, a mapping or an empty grid is an error."""
    if not isinstance(value, list) or not value or length not in (None, len(value)):
        shape = "a nonempty list" if length is None else f"a list of {length} entries"
        raise ConfigurationError(f"{name} must be {shape}, got {value!r}")
    return value


def _fmt(value) -> str:
    if isinstance(value, Mode):
        return value.value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _resize(cfg: SystemConfig, **kw) -> SystemConfig:
    """Replace dimensions, keeping epsilon consistent with an integer K
    (SystemConfig rejects any other)."""
    if _is_integer(kw.get("K")) and kw["K"] != cfg.K:
        base = cfg.epsilon[0]
        kw.setdefault("epsilon", (base,) * kw["K"])
    return replace(cfg, **kw)


def _by_size(cfg: SystemConfig, sizes) -> list:
    """`cfg` resized to each (M, N) of `sizes`, in (M, N) order; each
    config checks its values before they are sorted."""
    return sorted((_resize(cfg, M=M, N=N) for M, N in sizes), key=lambda c: (c.M, c.N))


def experiment_phases(cfg: SystemConfig) -> PhaseConfig:
    """Baseline random phases, deterministic per (seed, N)."""
    return PhaseConfig.random(cfg.N, substream(cfg.seed, STREAM_PHASES, cfg.N))


class Rates(NamedTuple):
    """The rates of one sweep point at its budget; every field but the
    last, `budget`, is a CSV column of the same name."""

    analytic_sum_rate: float
    mc_sum_rate: float
    mc_stderr: float
    budget: LinkBudget


def _score(geom, closed, cfg, phase_sets, points) -> list:
    """`Rates` of `points`, in order, on the site of `cfg`: its geometry
    `geom`, its closed-form site `closed` and its phase vectors
    `phase_sets`, the second one, when given, for `optimized` points.

    A point whose surface is down has zero rates, as its closed form would
    give, without evaluating either route.  The fading statistics are drawn
    once, for every phase vector that a live point needs, and serve every
    point (common random numbers), so the rates still depend only on
    (seed, cfg.trials).  Each live point's budget is one SINR matrix,
    which gives the SINR terms of the point's closed form, one row of
    (points, 2K) terms, and the sum rate of each of its T trials, one row
    of (points, T) sums.  One log2 over the closed-form terms and one mean
    over the sums' last, contiguous axis then serve every point, and each
    point's cells keep the bits they would have alone: its Monte Carlo
    cells are those of `monte_carlo_rate`.
    """
    budgets = [resolve_budget(point.cfg, geom.alpha, point.mode) for point in points]
    rates = [Rates(0.0, 0.0, 0.0, budget) for budget in budgets]
    live = [i for i, budget in enumerate(budgets) if budget.startup_met]
    if not live:
        return rates
    used = sorted({points[i].optimized for i in live})
    fading = shared_trial_statistics(geom, cfg, [phase_sets[j] for j in used])
    moments = {j: (closed.flat_phasor_stats(phase_sets[j].phi), per_trial)
               for j, per_trial in zip(used, fading)}
    closed_terms = np.empty((len(live), 2 * cfg.K))
    sums = np.empty((len(live), cfg.trials))
    for n, i in enumerate(live):
        S = sinr_matrix(budgets[i], points[i].cfg)
        expected, per_trial = moments[points[i].optimized]
        closed_terms[n] = sinr_terms(expected, S)
        log_rates(sinr_terms(per_trial, S)).sum(axis=-1, out=sums[n])
    closed_sums = log_rates(closed_terms).sum(axis=-1)
    mean, std_err = _sample_mean(sums, axis=-1)
    for i, closed_sum, mc_sum, mc_err in zip(live, closed_sums, mean, std_err):
        rates[i] = Rates(float(closed_sum), float(mc_sum), float(mc_err), budgets[i])
    return rates


def ga_params(cfg: SystemConfig, block: dict | None = None) -> GAParams:
    """GA settings from a mapping of GAParams fields; the seed defaults to
    the system's."""
    return GAParams(**{"seed": cfg.seed,
                       **checked_block(block, GAParams.__dataclass_fields__, "GA")})


class Point(NamedTuple):
    """One CSV row of a sweep, scored at its site's GA-optimised phases
    when `optimized`, else at the site's baseline phases."""

    cfg: SystemConfig
    mode: Mode
    optimized: bool = False


class Site(NamedTuple):
    """One array size of a sweep and its points: `cfg` sets the sizes, and
    so the closed-form site and the baseline phases, on the run's one
    geometry.  With `ga`, the site also searches the phases at `cfg` for
    an active surface and scores its `optimized` points there."""

    cfg: SystemConfig
    points: tuple
    ga: GAParams | None = None


def _site_job(site: Site, geom) -> list:
    """`Rates` of every point of `site`, in point order, at the run's
    geometry `geom`, which depends on no sweep value (M, N, b, P_T_dbm,
    trials).  The closed-form site is built once, and the GA runs only when
    the site has one."""
    closed = closed_form_site(geom, site.cfg)
    phase_sets = [experiment_phases(site.cfg)]
    if site.ga is not None:
        budget = resolve_budget(site.cfg, geom.alpha, Mode.ACTIVE)
        phase_sets.append(optimize_phases(geom, site.cfg, budget, site.ga, site=closed)[0])
    return _score(geom, closed, site.cfg, phase_sets, site.points)


def site_workers(sites: int) -> int:
    """Pool size for `sites` site jobs: one worker per usable CPU."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, sites))


def run_sites(sites: list, geom) -> list:
    """Results of every site job at the geometry `geom`, in site order.

    Sites run on a thread pool; numpy releases the GIL in the fading draws
    and the matmuls, which are most of a site's time.  Every site draws
    from its own seeded streams, so the results do not depend on the
    number of workers.
    """
    workers = site_workers(len(sites))
    if workers == 1:
        return [_site_job(site, geom) for site in sites]
    # imported here: at module level it would add to every start-up
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_site_job, sites, [geom] * len(sites)))


def write_sweep(path: str, leading: tuple, sites: list, geom) -> list:
    """Run `sites` at the geometry `geom` and write one CSV row per point:
    the `leading` columns, then the `Rates` columns, then `optimized`.
    Each cell is read by name from the point's `Rates`, the `Point`, its
    config or its budget; every row holds the same four records, so each
    column's record is found once, on the first row."""
    header = (*leading, *Rates._fields[:-1], "optimized")
    rows = [(rates, point, point.cfg, rates.budget)
            for site, results in zip(sites, run_sites(sites, geom))
            for point, rates in zip(site.points, results)]
    source = [next(i for i, record in enumerate(rows[0]) if hasattr(record, name))
              for name in header]
    os.makedirs(os.path.dirname(path), exist_ok=True)  # every point is checked by now
    write_csv(path, header, [[getattr(row[i], name) for i, name in zip(source, header)]
                             for row in rows])
    return [path]


def run_antennas_elements(cfg, geom, block, out_dir, optimize, mode):
    m_grid = _list(block.get("M_grid", [16, 36, 64, 100, 144]), "M_grid")
    n_grid = _list(block.get("N_grid", [4, 16, 36, 64]), "N_grid")
    ga = ga_params(cfg, block.get("ga"))  # checked with or without --optimize
    # an active and a passive row per (M, N), and with --optimize the GA's row
    kinds = [(Mode.ACTIVE, False), (Mode.PASSIVE, False)] + [(Mode.ACTIVE, True)] * optimize
    sites = [Site(point, tuple(Point(point, *kind) for kind in kinds), ga if optimize else None)
             for point in _by_size(cfg, [(M, N) for M in m_grid for N in n_grid])]
    return write_sweep(os.path.join(out_dir, "antennas_elements.csv"),
                       ("M", "N", "mode", "b"), sites, geom)


def run_total_power(cfg, geom, block, out_dir, optimize, mode):
    cfg = replace(cfg, N=block.get("N", 128))
    grid = _list(block.get("P_T_dbm_grid", list(range(0, 31, 2))), "P_T_dbm_grid")
    points = tuple(Point(point, point_mode)
                   for point in sorted((replace(cfg, P_T_dbm=p_t) for p_t in grid),
                                       key=lambda c: c.P_T_dbm)
                   for point_mode in (Mode.ACTIVE, Mode.PASSIVE))
    return write_sweep(os.path.join(out_dir, "total_power.csv"),
                       ("P_T_dbm", "N", "mode", "b", "startup_met", "eta"), [Site(cfg, points)],
                       geom)


def run_adc_bits(cfg, geom, block, out_dir, optimize, mode):
    bits = _list(block.get("bits", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, "ideal"]), "bits")
    pairs = [_list(mn, "pairs entry", 2)
             for mn in _list(block.get("pairs", [[64, 16], [100, 36]]), "pairs")]
    sites = [Site(point, tuple(Point(replace(point, b=b), Mode.ACTIVE) for b in bits))
             for point in _by_size(cfg, pairs)]
    return write_sweep(os.path.join(out_dir, "adc_bits.csv"), ("b", "M", "N", "mode"), sites,
                       geom)


def run_verify(cfg, geom, block, out_dir, optimize, mode):
    """Numerical certification at a desk-scale instance: every moment of the
    closed form against the oracle, and the surface-power identity.  Fails
    the run when any check fails."""
    point = _resize(cfg, M=block.get("M", 8), N=block.get("N", 4), K=block.get("K", 2),
                    trials=block.get("trials", cfg.trials))
    geom = make_geometry(point)  # the desk-scale point's own geometry
    phases = experiment_phases(point)
    budget = resolve_budget(point, geom.alpha, Mode.ACTIVE)
    if not budget.startup_met:
        raise ConfigurationError("cannot verify a surface that does not start up")
    os.makedirs(out_dir, exist_ok=True)
    reference = moments_at(compute_stats(geom, point, phases), budget, point)
    mean, se = estimate_moments(geom, point, phases, budget, point.trials, point.seed + 1)

    rows = []

    def check(name, user, estimate, std_err, expected, tol_rel):
        dev = abs(estimate - expected)
        ok = dev <= max(tol_rel * abs(expected), 4.0 * std_err)
        rows.append((name, user, estimate, std_err, expected, dev / abs(expected), tol_rel,
                     "PASS" if ok else "FAIL"))

    for k in range(point.K):
        for name, *moment in zip(Moments._fields, mean, se, reference):
            # user k's interference row, without its zero diagonal
            entries = [np.delete(x[k], k) if name == "interference" else x[k:k + 1]
                       for x in moment]
            for estimate, std_err, expected in zip(*entries):
                check(name, k, estimate, std_err, expected, 0.03)

    # the 1% identity bound assumes the full 1e5-draw average
    measured = measured_ris_power(geom, point, phases, budget, 100000)
    expected = budget.eta**2 * point.N * (float(budget.p @ geom.alpha) + budget.sigma_v2_w)
    check("surface_power", -1, measured, 0.0, expected, 0.01)

    path = os.path.join(out_dir, "verify.csv")
    write_csv(path, ["check", "user", "estimate", "std_err", "reference",
                     "rel_deviation", "tolerance", "status"], rows)
    for row in rows:
        print(f"{row[0]:>18s} k={row[1]:>2} rel_dev={row[5]:.4%} -> {row[7]}")
    failures = sum(row[-1] == "FAIL" for row in rows)
    if failures:
        raise ConfigurationError(f"{failures} verification checks failed (see {path})")
    return [path]


def run_optimize(cfg, geom, block, out_dir, optimize, mode):
    budget = resolve_budget(cfg, geom.alpha, mode)
    params = ga_params(cfg, block)
    closed = closed_form_site(geom, cfg)
    best, history = optimize_phases(geom, cfg, budget, params, site=closed)
    os.makedirs(out_dir, exist_ok=True)  # the GA has checked its budget by now
    baseline = closed.stats(experiment_phases(cfg).theta)
    a_base = float(closed_form_rates(baseline, budget, cfg).sum())
    (optimized,) = _score(geom, closed, cfg, [best], [Point(cfg, mode)])

    hist_path = os.path.join(out_dir, "ga_history.csv")
    write_csv(hist_path, ["generation", "best_fitness", "mean_fitness"], history.rows())
    phase_path = os.path.join(out_dir, "best_phases.csv")
    write_csv(phase_path, ["element", "theta"], list(enumerate(best.theta)))
    summary_path = os.path.join(out_dir, "optimize_summary.csv")
    write_csv(
        summary_path,
        ["generations", "baseline_analytic_sum_rate", "optimized_analytic_sum_rate",
         "optimized_mc_sum_rate", "optimized_mc_stderr", "stop_reason"],
        [(history.generations, a_base, optimized.analytic_sum_rate, optimized.mc_sum_rate,
          optimized.mc_stderr, history.stop_reason)],
    )
    return [hist_path, phase_path, summary_path]


# each experiment's runner and the keys its block may hold
EXPERIMENTS = {
    "antennas-elements": (run_antennas_elements, ("M_grid", "N_grid", "ga")),
    "total-power": (run_total_power, ("N", "P_T_dbm_grid")),
    "adc-bits": (run_adc_bits, ("bits", "pairs")),
    "verify": (run_verify, ("M", "N", "K", "trials")),
    "optimize": (run_optimize, GAParams.__dataclass_fields__),
}


def write_manifest(out_dir, cfg, geom, args, artifacts):
    """Echo of the fully resolved run, including budget and startup status."""
    lines = [f"experiment: {args.experiment}", f"config: {os.path.abspath(args.config)}"]
    for name in sorted(SystemConfig.__dataclass_fields__):
        lines.append(f"system.{name}: {getattr(cfg, name)}")
    lines.append(f"resolved.dist_ris_m: {_fmt(geom.dist_ris)}")
    lines.append(f"resolved.beta: {_fmt(geom.beta)}")
    lines.append("resolved.alpha: " + " ".join(_fmt(a) for a in geom.alpha))
    for mode in (Mode.ACTIVE, Mode.PASSIVE):
        threshold = circuit_power(cfg, mode)
        lines.append(f"resolved.{mode.value}.startup_threshold_dbm: {_fmt(watts_to_dbm(threshold))}")
        try:
            budget = resolve_budget(cfg, geom.alpha, mode)
            lines.append(f"resolved.{mode.value}.startup_met: {_fmt(budget.startup_met)}")
            lines.append(f"resolved.{mode.value}.eta: {_fmt(budget.eta)}")
            lines.append(f"resolved.{mode.value}.P_A_w: {_fmt(budget.P_A)}")
            lines.append("resolved.{}.p_w: {}".format(mode.value, " ".join(_fmt(p) for p in budget.p)))
        except ConfigurationError as exc:
            lines.append(f"resolved.{mode.value}.error: {exc}")
    lines.append(f"flags.trials: {args.trials}")
    lines.append(f"flags.seed: {args.seed}")
    lines.append(f"flags.mode: {args.mode}")
    lines.append(f"flags.optimize: {_fmt(args.optimize)}")
    for art in artifacts:
        lines.append(f"artifact: {os.path.basename(art)}")
    path = os.path.join(out_dir, "run_manifest.txt")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arisim",
        description="Active-RIS massive MIMO uplink simulator and rate engine",
    )
    parser.add_argument("--config", required=True, help="YAML config path")
    parser.add_argument("--experiment", required=True, choices=EXPERIMENTS)
    parser.add_argument("--trials", type=int, default=None, help="Monte Carlo trials override")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--output", default=".", help="output directory")
    parser.add_argument("--mode", choices=[m.value for m in Mode], default=None,
                        help="operating mode of the optimize experiment (default active)")
    parser.add_argument("--optimize", action="store_true",
                        help="add GA-optimized points to the antennas-elements sweep")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # each flag has one reader; elsewhere it would be silently ignored
        if args.optimize and args.experiment != "antennas-elements":
            raise ConfigurationError("--optimize applies only to the antennas-elements experiment")
        if args.mode is not None and args.experiment != "optimize":
            raise ConfigurationError("--mode applies only to the optimize experiment")
        raw = load_config(args.config)
        cfg = build_system(raw, seed=args.seed, trials=args.trials)
        mode = Mode(args.mode or Mode.ACTIVE.value)
        experiments = raw.get("experiments", {}) or {}
        if not isinstance(experiments, dict):
            raise ConfigurationError("experiments must map experiment names to blocks")
        misspelt = set(experiments) - set(EXPERIMENTS)
        if misspelt:
            raise ConfigurationError(f"unknown experiments sections: {sorted(misspelt)}")
        runner, keys = EXPERIMENTS[args.experiment]
        block = checked_block(experiments.get(args.experiment), keys, args.experiment)

        geom = make_geometry(cfg)
        artifacts = runner(cfg, geom, block, args.output, args.optimize, mode)
        manifest = write_manifest(args.output, cfg, geom, args, artifacts)
        print(f"wrote {len(artifacts)} artifact(s) + {os.path.basename(manifest)} to {args.output}")
        return 0
    except (ConfigurationError, OSError, yaml.YAMLError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
