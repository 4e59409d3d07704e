import csv
import gc
import os
import tracemalloc

import numpy as np
import pytest
import yaml

import arisim.cli
import arisim.transceiver
from arisim import (
    ConfigurationError,
    Mode,
    SystemConfig,
    make_geometry,
    monte_carlo_rate,
    resolve_budget,
)
from arisim.cli import build_system, experiment_phases, ga_params, load_config, main
from arisim.transceiver import BATCH, reduced_draw_applies

TINY_SYSTEM = {
    "M": 4, "N": 4, "K": 2, "b": 1,
    "epsilon": 10.0,
    "delta": 1.0,
    "sigma_n2_dbm": -90.0, "sigma_v2_dbm": -70.0,
    "P_T_dbm": 30.0, "P_SW_dbm": -10.0, "P_DC_dbm": -5.0,
    "split": 0.5,
    "pathloss_exp_user": 2.8, "pathloss_exp_ris": 2.8,
    "bs_pos": [0.0, 0.0, 25.0], "ris_pos": [5.0, 100.0, 30.0],
    "user_center": [5.0, 100.0, 1.6], "user_radius": 5.0,
    "d_over_lambda": 0.5,
    "trials": 40, "seed": 11,
}


def write_config(tmp_path, name="config.yaml", system=None, experiments=None):
    payload = {"system": system or dict(TINY_SYSTEM)}
    if experiments:
        payload["experiments"] = experiments
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def read_rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_antennas_elements_run(tmp_path):
    config = write_config(
        tmp_path, experiments={"antennas-elements": {"M_grid": [4, 16], "N_grid": [4]}}
    )
    out = tmp_path / "out"
    assert main(["--config", config, "--experiment", "antennas-elements",
                 "--output", str(out)]) == 0
    rows = read_rows(out / "antennas_elements.csv")
    assert rows[0] == ["M", "N", "mode", "b", "analytic_sum_rate", "mc_sum_rate",
                       "mc_stderr", "optimized"]
    assert len(rows) == 1 + 2 * 2  # two grid points, two modes
    ms = [int(r[0]) for r in rows[1:]]
    assert ms == sorted(ms)
    manifest = (out / "run_manifest.txt").read_text()
    assert "resolved.active.eta" in manifest
    assert "resolved.active.startup_met" in manifest


def test_csv_outputs_are_reproducible(tmp_path):
    config = write_config(
        tmp_path, experiments={"antennas-elements": {"M_grid": [4], "N_grid": [4]}}
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["--config", config, "--experiment", "antennas-elements",
                     "--output", str(out)]) == 0
    assert (out_a / "antennas_elements.csv").read_bytes() == \
        (out_b / "antennas_elements.csv").read_bytes()


def test_total_power_marks_startup_cutoff(tmp_path):
    config = write_config(
        tmp_path,
        experiments={"total-power": {"N": 16, "P_T_dbm_grid": [0.0, 5.0, 30.0]}},
    )
    out = tmp_path / "out"
    assert main(["--config", config, "--experiment", "total-power",
                 "--output", str(out)]) == 0
    rows = read_rows(out / "total_power.csv")
    header = rows[0]
    by = {(float(r[0]), r[2]): r for r in rows[1:]}
    i_started = header.index("startup_met")
    i_sum = header.index("mc_sum_rate")
    # 16 elements need ~8.23 dBm (active) and ~2 dBm (passive)
    assert by[(0.0, "active")][i_started] == "false"
    assert float(by[(0.0, "active")][i_sum]) == 0.0
    assert by[(0.0, "active")][header.index("analytic_sum_rate")] == "0.0"
    assert by[(5.0, "active")][i_started] == "false"
    assert by[(5.0, "passive")][i_started] == "true"
    assert float(by[(5.0, "passive")][i_sum]) > 0.0
    assert by[(30.0, "active")][i_started] == "true"
    assert float(by[(30.0, "active")][i_sum]) > 0.0


def test_total_power_at_circuit_draw_is_a_cutoff_row(tmp_path):
    # 10 elements at the -10 dBm switch draw need exactly 0 dBm to run passive
    config = write_config(
        tmp_path,
        experiments={"total-power": {"N": 10, "P_T_dbm_grid": [-4.0, 0.0, 4.0]}},
    )
    out = tmp_path / "out"
    assert main(["--config", config, "--experiment", "total-power",
                 "--output", str(out)]) == 0
    rows = read_rows(out / "total_power.csv")
    header = rows[0]
    by = {(float(r[0]), r[2]): r for r in rows[1:]}
    for mode in ("active", "passive"):
        row = by[(0.0, mode)]
        assert row[header.index("startup_met")] == "false"
        assert float(row[header.index("analytic_sum_rate")]) == 0.0
        assert float(row[header.index("mc_sum_rate")]) == 0.0
    assert by[(4.0, "passive")][header.index("startup_met")] == "true"


# the first draw of a fading batch, in Gram form or in full, and the draw
# of each slice of its M-sized part
FIRST_DRAWS = ("sample_gram_first_hop", "sample_user_channels")
ROW_DRAWS = ("sample_gram_rows", "sample_h2_plane")


@pytest.fixture
def draws(monkeypatch):
    """(draw, M, N, spawn key, trials) of every `FIRST_DRAWS` and
    `ROW_DRAWS` call that the Monte Carlo kernel makes while the test runs."""
    seen = []

    def counting(draw):
        def counted(*args, **kwargs):
            cfg = next(a for a in args if isinstance(a, SystemConfig))
            rng = next(a for a in args if isinstance(a, np.random.Generator))
            result = draw(*args, **kwargs)
            trials = len(result[0] if isinstance(result, tuple) else result)
            seen.append((draw.__name__, cfg.M, cfg.N, rng.bit_generator.seed_seq.spawn_key,
                         trials))
            return result
        return counted

    for name in FIRST_DRAWS + ROW_DRAWS:
        monkeypatch.setattr(arisim.transceiver, name, counting(getattr(arisim.transceiver, name)))
    return seen


SMALL_GA = {"n_total": 12, "n_elite": 2, "n_parents": 4, "n_crossover": 8,
            "n_mutation": 2, "max_iters": 3, "f_tol": 0.0}


@pytest.mark.parametrize("experiment, block, sites", [
    # one geometry; 3 live points of 6 (both modes at 30 dBm, passive at 5 dBm)
    ("total-power", {"N": 16, "P_T_dbm_grid": [0.0, 5.0, 30.0]}, 1),
    ("antennas-elements", {"M_grid": [4, 16], "N_grid": [4]}, 2),
    ("adc-bits", {"bits": [1, 4, "ideal"], "pairs": [[4, 4], [8, 4]]}, 2),
    # run with --optimize: the baseline and the GA's phases share each batch
    ("antennas-elements", {"M_grid": [4, 16], "N_grid": [4], "ga": SMALL_GA}, 2),
])
def test_sweeps_draw_each_fading_batch_once(tmp_path, draws, experiment, block, sites):
    # two batches per geometry: every point of a geometry shares them; every
    # site here has N > K + 1 and M >= K, so each batch is a Gram-form draw,
    # whose M-sized rows are drawn once, slice by slice
    config = write_config(tmp_path, experiments={experiment: block})
    flags = ["--optimize"] if "ga" in block else []
    assert main(["--config", config, "--experiment", experiment, "--output",
                 str(tmp_path / "out"), "--trials", str(BATCH + 1), *flags]) == 0
    if flags:
        rows = read_rows(tmp_path / "out" / "antennas_elements.csv")
        assert [r[-1] for r in rows[1:]].count("true") == sites
    batches = [d for d in draws if d[0] in FIRST_DRAWS]
    assert len(batches) == 2 * sites
    assert len({d[1:4] for d in batches}) == len(batches)
    assert all(reduced_draw_applies(M, N, TINY_SYSTEM["K"]) for _, M, N, _, _ in batches)
    assert {d[0] for d in batches} == {"sample_gram_first_hop"}
    for _, M, N, key, trials in batches:
        rows = [d[4] for d in draws if d[0] in ROW_DRAWS and d[1:4] == (M, N, key)]
        assert {d[0] for d in draws if d[1:4] == (M, N, key)} == {
            "sample_gram_first_hop", "sample_gram_rows"}
        assert sum(rows) == trials


@pytest.mark.parametrize("N", [16, 3], ids=["reduced", "literal"])
def test_sweep_rates_match_monte_carlo_rate(tmp_path, N):
    # N = 3 at K = 2 leaves no complement, so the site takes the literal
    # route there
    assert reduced_draw_applies(TINY_SYSTEM["M"], N, TINY_SYSTEM["K"]) == (N == 16)
    config = write_config(
        tmp_path,
        experiments={"total-power": {"N": N, "P_T_dbm_grid": [5.0, 30.0]}},
    )
    out = tmp_path / "out"
    assert main(["--config", config, "--experiment", "total-power",
                 "--output", str(out)]) == 0
    rows = read_rows(out / "total_power.csv")
    header = rows[0]
    raw = load_config(config)
    cfg = build_system(raw, N=N)
    geom = make_geometry(cfg)
    phases = experiment_phases(cfg)
    for row in rows[1:]:
        point = build_system(raw, N=N, P_T_dbm=float(row[0]))
        budget = resolve_budget(point, geom.alpha, Mode(row[header.index("mode")]))
        report = monte_carlo_rate(geom, point, phases, budget)
        assert row[header.index("mc_sum_rate")] == repr(report.sum_rate)
        assert row[header.index("mc_stderr")] == repr(report.sum_std_err)


@pytest.mark.parametrize("experiment, alone, grid, csv_name, key", [
    # total-power's one site scores its 16 budgets at once; adc-bits each
    # pair's 11 bit widths
    ("total-power", {"N": 16, "P_T_dbm_grid": [30.0]}, {"N": 16}, "total_power.csv", "30.0"),
    ("adc-bits", {"bits": [4], "pairs": [[8, 4]]}, {"pairs": [[8, 4]]}, "adc_bits.csv", "4"),
])
def test_a_row_keeps_its_bytes_beside_other_points(tmp_path, experiment, alone, grid, csv_name,
                                                   key):
    lines = {}
    for name, block in (("alone", alone), ("grid", grid)):
        config = write_config(tmp_path, name=f"{name}.yaml", experiments={experiment: block})
        out = tmp_path / name
        assert main(["--config", config, "--experiment", experiment, "--output", str(out)]) == 0
        lines[name] = [ln for ln in (out / csv_name).read_text().splitlines()[1:]
                       if ln.split(",")[0] == key]
    assert len(lines["grid"]) > 0
    assert lines["alone"] == lines["grid"]


def test_scoring_memory_is_the_moments_and_one_row_per_point(tmp_path):
    # 32 live points at 8000 trials: the scoring holds the per-trial
    # moments, one row of per-trial sum rates per point, whose standard
    # errors are taken in place, and one point's SINR denominators and
    # rates at a time, never every point's at once
    T, K, points = 8000, TINY_SYSTEM["K"], 32
    grid = [float(p) for p in range(10, 10 + points, 2)]
    config = write_config(tmp_path, experiments={"total-power": {"N": 16, "P_T_dbm_grid": grid}})
    argv = ["--config", config, "--experiment", "total-power", "--output", str(tmp_path / "out"),
            "--trials", str(T)]
    assert main(argv[:-1] + ["1"]) == 0  # any first-call allocations are made here
    gc.collect()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = read_rows(tmp_path / "out" / "total_power.csv")
    assert [r[4] for r in rows[1:]] == ["true"] * points
    moments, terms = 5 * K, 2 * K
    assert peak <= 8 * T * (moments + points + 2 * terms)


def test_repeated_runs_retain_no_memory(tmp_path):
    # every call's arrays are freed with it: what stays traced after
    # repeated calls is a few interpreter buffers, far below one call's
    # arrays
    config = write_config(tmp_path, experiments={
        "antennas-elements": {"M_grid": [4], "N_grid": [4, 9], "ga": SMALL_GA}})
    argv = ["--config", config, "--experiment", "antennas-elements", "--optimize",
            "--output", str(tmp_path / "out")]
    assert main(argv) == 0
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(10):
            assert main(argv) == 0
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024


@pytest.mark.parametrize("experiment, block, flags, csv_name", [
    ("total-power", {"N": 16, "P_T_dbm_grid": [0.0, 5.0, 30.0]}, [], "total_power.csv"),
    ("adc-bits", {"bits": [1, 4, "ideal"], "pairs": [[4, 4], [8, 4], [8, 9]]}, [],
     "adc_bits.csv"),
    ("antennas-elements", {"M_grid": [4, 16], "N_grid": [4, 9], "ga": SMALL_GA},
     ["--optimize"], "antennas_elements.csv"),
])
def test_sweep_csvs_do_not_depend_on_worker_count(tmp_path, monkeypatch, experiment, block,
                                                  flags, csv_name):
    config = write_config(tmp_path, experiments={experiment: block})
    outputs = []
    for workers in (1, 2):
        monkeypatch.setattr(arisim.cli, "site_workers", lambda sites, n=workers: min(n, sites))
        out = tmp_path / f"workers-{workers}"
        assert main(["--config", config, "--experiment", experiment, "--output", str(out),
                     "--trials", str(BATCH + 3), *flags]) == 0
        outputs.append((out / csv_name).read_bytes())
    assert outputs[0] == outputs[1]
    rows = read_rows(tmp_path / "workers-1" / csv_name)
    if "--optimize" in flags:
        assert [r[-1] for r in rows[1:]].count("true") == 4  # one per (M, N)


@pytest.mark.parametrize("experiment, block, csv_name", [
    ("antennas-elements", {"M_grid": [4], "N_grid": [4]}, "antennas_elements.csv"),
    ("total-power", {"N": 4, "P_T_dbm_grid": [30.0]}, "total_power.csv"),
    ("adc-bits", {"bits": [1], "pairs": [[4, 4]]}, "adc_bits.csv"),
])
def test_sweeps_share_their_trailing_columns(tmp_path, experiment, block, csv_name):
    config = write_config(tmp_path, experiments={experiment: block})
    out = tmp_path / "out"
    assert main(["--config", config, "--experiment", experiment, "--output", str(out)]) == 0
    header = read_rows(out / csv_name)[0]
    assert header[-4:] == ["analytic_sum_rate", "mc_sum_rate", "mc_stderr", "optimized"]


def test_sweep_ga_row_matches_the_optimize_experiment(tmp_path):
    # the optimized point of an (M, N) site searches and scores the phases
    # exactly as the optimize experiment does at the same system
    system = dict(TINY_SYSTEM, M=16, N=9, b=3, seed=5, trials=700)
    config = write_config(tmp_path, system=system, experiments={
        "antennas-elements": {"M_grid": [16], "N_grid": [9], "ga": SMALL_GA},
        "optimize": SMALL_GA,
    })
    sweep, optimize = tmp_path / "sweep", tmp_path / "optimize"
    assert main(["--config", config, "--experiment", "antennas-elements", "--optimize",
                 "--output", str(sweep)]) == 0
    assert main(["--config", config, "--experiment", "optimize", "--output", str(optimize)]) == 0
    header, *rows = read_rows(sweep / "antennas_elements.csv")
    (row,) = [r for r in rows if r[header.index("optimized")] == "true"]
    assert row[header.index("mode")] == "active"
    summary_header, summary = read_rows(optimize / "optimize_summary.csv")
    for column in ("analytic_sum_rate", "mc_sum_rate", "mc_stderr"):
        assert row[header.index(column)] == summary[summary_header.index(f"optimized_{column}")]


def test_optimized_sweep_writes_a_zero_ga_row_where_the_surface_is_down(tmp_path):
    # at 10 dBm the active surface starts up at N = 4 but not at N = 64; the
    # sweep used to fail whole with "cannot optimize a surface that does
    # not start up" and write nothing
    system = {"M": 16, "N": 16, "K": 4, "epsilon": 10.0, "trials": 64, "P_T_dbm": 10.0}
    config = write_config(tmp_path, system=system, experiments={
        "antennas-elements": {"M_grid": [16], "N_grid": [4, 64], "ga": SMALL_GA}})
    rows = {}
    for flags in ((), ("--optimize",)):
        out = tmp_path / ("ga" if flags else "plain")
        assert main(["--config", config, "--experiment", "antennas-elements",
                     "--output", str(out), *flags]) == 0
        rows[flags] = read_rows(out / "antennas_elements.csv")
    plain, ga = rows[()], rows[("--optimize",)]
    header = ga[0]
    rates = [header.index(c) for c in ("analytic_sum_rate", "mc_sum_rate", "mc_stderr")]
    searched = {r[1]: r for r in ga[1:] if r[-1] == "true"}
    assert all(r[2] == "active" for r in searched.values())
    assert [searched["64"][i] for i in rates] == ["0.0"] * 3
    assert float(searched["4"][rates[0]]) > 0.0
    # the down site's active row is zero without --optimize too, and every
    # row but the GA's keeps its bytes
    assert [r[i] for r in plain[1:] if r[1:3] == ["64", "active"] for i in rates] == ["0.0"] * 3
    assert [r for r in ga if r[-1] != "true"] == plain


def test_site_workers_bounds():
    assert arisim.cli.site_workers(1) == 1
    assert 1 <= arisim.cli.site_workers(1000) <= max(os.cpu_count() or 1, 1)


def test_site_errors_fail_the_run(tmp_path, monkeypatch, capsys):
    # an error raised inside a pooled site job fails the run like any other
    closed_form_site = arisim.cli.closed_form_site

    def failing(geom, cfg):
        if cfg.M == 16:
            raise ConfigurationError("no site at M = 16")
        return closed_form_site(geom, cfg)

    monkeypatch.setattr(arisim.cli, "closed_form_site", failing)
    monkeypatch.setattr(arisim.cli, "site_workers", lambda sites: min(2, sites))
    config = write_config(tmp_path, experiments={
        "antennas-elements": {"M_grid": [4, 16], "N_grid": [4, 9]}})
    assert main(["--config", config, "--experiment", "antennas-elements",
                 "--output", str(tmp_path / "out")]) == 1
    assert "no site at M = 16" in capsys.readouterr().err
    assert not (tmp_path / "out" / "antennas_elements.csv").exists()


def test_adc_bits_run(tmp_path):
    config = write_config(
        tmp_path, experiments={"adc-bits": {"bits": [1, 4, "ideal"], "pairs": [[4, 4]]}}
    )
    out = tmp_path / "out"
    assert main(["--config", config, "--experiment", "adc-bits",
                 "--output", str(out)]) == 0
    rows = read_rows(out / "adc_bits.csv")
    assert [r[0] for r in rows[1:]] == ["1", "4", "ideal"]
    # every row is an active surface; ideal ADCs are the b column alone
    assert [r[3] for r in rows[1:]] == ["active"] * 3


def test_optimize_run(tmp_path):
    config = write_config(
        tmp_path,
        experiments={"optimize": {
            "n_total": 12, "n_elite": 2, "n_parents": 4, "n_crossover": 8,
            "n_mutation": 2, "max_iters": 3, "f_tol": 0.0,
        }},
    )
    out = tmp_path / "out"
    assert main(["--config", config, "--experiment", "optimize",
                 "--output", str(out)]) == 0
    hist = read_rows(out / "ga_history.csv")
    assert hist[0] == ["generation", "best_fitness", "mean_fitness"]
    assert len(hist) == 1 + 4  # header + initial population + 3 iterations
    best = [float(r[1]) for r in hist[1:]]
    assert best == sorted(best)
    phases = read_rows(out / "best_phases.csv")
    assert len(phases) == 1 + TINY_SYSTEM["N"]
    summary = read_rows(out / "optimize_summary.csv")
    assert float(summary[1][2]) >= 0.0


def test_optimize_summary_records_stop_reason(tmp_path):
    config = write_config(
        tmp_path,
        experiments={"optimize": {
            "n_total": 12, "n_elite": 2, "n_parents": 4, "n_crossover": 8,
            "n_mutation": 2, "max_iters": 3, "f_tol": 0.0,
        }},
    )
    out = tmp_path / "out"
    assert main(["--config", config, "--experiment", "optimize",
                 "--output", str(out)]) == 0
    summary = read_rows(out / "optimize_summary.csv")
    assert summary[0] == ["generations", "baseline_analytic_sum_rate",
                          "optimized_analytic_sum_rate", "optimized_mc_sum_rate",
                          "optimized_mc_stderr", "stop_reason"]
    assert summary[1][-1] == "max_iters"


def test_unknown_ga_key_fails(tmp_path, capsys):
    config = write_config(
        tmp_path,
        experiments={"optimize": {
            "n_total": 12, "n_elite": 2, "n_parents": 4, "n_crossover": 8,
            "n_mutation": 2, "max_iter": 3,
        }},
    )
    assert main(["--config", config, "--experiment", "optimize",
                 "--output", str(tmp_path / "out")]) == 1
    assert "max_iter" in capsys.readouterr().err


def test_ga_params_seed_defaults_to_system_seed():
    cfg = build_system({"system": dict(TINY_SYSTEM)})
    assert ga_params(cfg, {"max_iters": 3}).seed == TINY_SYSTEM["seed"]
    assert ga_params(cfg, {"seed": 5}).seed == 5
    with pytest.raises(ConfigurationError, match="max_iter"):
        ga_params(cfg, {"max_iter": 3})


# seed 42 is the geometry the acceptance gate certifies
VERIFY_BLOCK = {"M": 8, "N": 4, "K": 2, "trials": 40000}


def test_verify_run(tmp_path, capsys):
    system = dict(TINY_SYSTEM, seed=42)
    config = write_config(tmp_path, system=system, experiments={"verify": VERIFY_BLOCK})
    out = tmp_path / "out"
    assert main(["--config", config, "--experiment", "verify",
                 "--output", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "PASS" in stdout and "FAIL" not in stdout
    rows = read_rows(out / "verify.csv")
    want = []
    for k in range(2):
        want += [("signal", str(k)), ("interference", str(k)), ("dynamic_noise", str(k)),
                 ("channel_gain", str(k)), ("quantization", str(k))]
    want += [("surface_power", "-1")]
    assert [(r[0], r[1]) for r in rows[1:]] == want
    assert all(r[-1] == "PASS" for r in rows[1:])
    # every moment is held to the one 3% tolerance, and the surface power
    # to 1%, with its standard error reported beside it
    assert {r[6] for r in rows[1:-1]} == {"0.03"}
    power = rows[-1]
    assert power[6] == "0.01"
    assert 0.0 < float(power[3]) < 0.005 * float(power[2])


def test_verify_surface_power_passes_within_one_percent_alone(tmp_path, monkeypatch):
    # a 1.5% deviation fails the surface-power row even with a standard
    # error of 1%: its bound is not widened to 4 standard errors
    def off(geom, cfg, phases, budget, trials):
        power = budget.eta**2 * cfg.N * (budget.p * float(geom.alpha.sum()) + budget.sigma_v2_w)
        return 1.015 * power, 0.01 * power

    monkeypatch.setattr(arisim.cli, "measured_ris_power", off)
    system = dict(TINY_SYSTEM, seed=42)
    config = write_config(tmp_path, system=system, experiments={"verify": VERIFY_BLOCK})
    out = tmp_path / "out"
    assert main(["--config", config, "--experiment", "verify", "--output", str(out)]) == 1
    rows = read_rows(out / "verify.csv")
    assert all(r[-1] == "PASS" for r in rows[1:-1])
    assert rows[-1][0] == "surface_power" and rows[-1][-1] == "FAIL"


def test_verify_run_with_one_user(tmp_path):
    # a lone user's interference is exactly 0 in the closed form and in
    # every oracle trial: its deviation reads 0, with no 0/0
    system = dict(TINY_SYSTEM, seed=42)
    block = {"M": 8, "N": 5, "K": 1, "trials": 2000}
    config = write_config(tmp_path, system=system, experiments={"verify": block})
    out = tmp_path / "out"
    assert main(["--config", config, "--experiment", "verify", "--output", str(out)]) == 0
    rows = {r[0]: r for r in read_rows(out / "verify.csv")[1:]}
    assert rows["interference"][2] == rows["interference"][4] == "0.0"
    assert rows["interference"][5] == "0.0"
    assert all(r[-1] == "PASS" for r in rows.values())


def test_verify_keeps_per_user_rician_factors(tmp_path, capsys):
    # verify at two of three users with differing factors used to run at
    # epsilon = (10, 10) while the manifest echoed (10, 0, 1)
    system = dict(TINY_SYSTEM, K=3, epsilon=[10.0, 0.0, 1.0], seed=42)
    config = write_config(tmp_path, system=system, experiments={"verify": VERIFY_BLOCK})
    out = tmp_path / "out"
    assert main(["--config", config, "--experiment", "verify", "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "K = 2" in err and "K = 3" in err
    assert not out.exists()
    # one shared factor still re-broadcasts to the new user count
    cfg = build_system({"system": dict(TINY_SYSTEM, K=3)})
    assert arisim.cli._resize(cfg, K=2).epsilon == (10.0, 10.0)


@pytest.mark.parametrize("experiment, block, system", [
    ("antennas-elements", {"M_grid": [16.9], "N_grid": [4]}, {}),
    ("antennas-elements", {"M_grid": [4], "N_grid": [True]}, {}),
    ("adc-bits", {"bits": [2.5], "pairs": [[4, 4]]}, {}),
    ("adc-bits", {"bits": [True], "pairs": [[4, 4]]}, {}),
    ("adc-bits", {"bits": [1], "pairs": [[4.5, 4]]}, {}),
    ("total-power", {"N": 8.6, "P_T_dbm_grid": [30.0]}, {}),
    ("verify", dict(VERIFY_BLOCK, M=8.5), {"seed": 42}),
    ("verify", dict(VERIFY_BLOCK, N=4.2), {"seed": 42}),
    ("verify", dict(VERIFY_BLOCK, K=2.7), {"seed": 42}),
    ("verify", dict(VERIFY_BLOCK, trials=40000.5), {"seed": 42}),
    ("adc-bits", {"bits": [1], "pairs": [[4, 4]]}, {"epsilon": True}),
    ("adc-bits", {"bits": [1], "pairs": [[4, 4]]}, {"epsilon": [10.0, True]}),
    ("adc-bits", {"bits": [1], "pairs": [[4, 4]]}, {"epsilon": None}),
    ("adc-bits", {"bits": [1], "pairs": [[4, 4]]}, {"epsilon": "10"}),
    ("adc-bits", {"bits": [1], "pairs": [[4, 4]]}, {"bs_pos": [True, 0, 25]}),
    ("adc-bits", {"bits": [1], "pairs": [[4, 4]]}, {"restrict_elevation": "false"}),
    ("total-power", {"N": 8, "P_T_dbm_grid": 30}, {}),
    ("antennas-elements", {"M_grid": 16, "N_grid": [4]}, {}),
    ("adc-bits", {"bits": 3, "pairs": [[4, 4]]}, {}),
    ("adc-bits", {"bits": [1], "pairs": [4, 4]}, {}),
    ("adc-bits", {"bits": [1], "pairs": [[4, 4, 4]]}, {}),
    ("antennas-elements", {"M_grid": [], "N_grid": [4]}, {}),
    ("antennas-elements", {"M_grid": [4], "N_grid": []}, {}),
    ("adc-bits", {"bits": [], "pairs": [[4, 4]]}, {}),
    ("adc-bits", {"bits": [1], "pairs": []}, {}),
    ("total-power", {"N": 8, "P_T_dbm_grid": []}, {}),
    ("antennas-elements", {"M_grid": [4], "N_grid": [4], "ga": {"n_totl": 5}}, {}),
    ("antennas-elements", {"M_grid": [4], "N_grid": [4], "ga": {"n_total": 5}}, {}),
    ("total-power", {"N": 8, "P_T_dbm_grid": [30.0, True]}, {}),
    # a surface that does not start up has nothing to verify or optimize
    ("verify", VERIFY_BLOCK, {"seed": 42, "P_T_dbm": 0.0}),
    ("optimize", {}, {"P_T_dbm": 0.0}),
])
def test_bad_experiment_values_fail(tmp_path, capsys, experiment, block, system):
    # each of these used to run and pass, truncated (16.9 -> 16) or coerced
    # (True -> 1), except the empty epsilon and the scalars in place of a
    # list or a pair, which ended in a traceback; an empty grid wrote a
    # header-only CSV, and without --optimize the GA block went unread
    config = write_config(tmp_path, system=dict(TINY_SYSTEM, **system),
                          experiments={experiment: block})
    assert main(["--config", config, "--experiment", experiment,
                 "--output", str(tmp_path / "out")]) == 1
    assert "error:" in capsys.readouterr().err
    # the output directory is made only once every value is checked
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment, block", [
    ("total-power", {"N": 8, "P_T_dbm_grid": [30.0]}),
    ("verify", VERIFY_BLOCK),
    ("optimize", {"n_total": 12, "n_elite": 2, "n_parents": 4, "n_crossover": 8,
                  "n_mutation": 2, "max_iters": 1}),
])
def test_valid_run_makes_nested_output(tmp_path, experiment, block):
    # each experiment makes its own output directory, parents included
    config = write_config(tmp_path, system=dict(TINY_SYSTEM, seed=42),
                          experiments={experiment: block})
    out = tmp_path / "out" / "a" / "b"
    assert main(["--config", config, "--experiment", experiment, "--output", str(out)]) == 0
    assert (out / "run_manifest.txt").exists()


def test_bad_sweep_value_names_its_field(tmp_path, capsys):
    # the config that stores a swept value checks it, so the error names the
    # field, not the grid it came from
    config = write_config(tmp_path, experiments={
        "antennas-elements": {"M_grid": [16.9], "N_grid": [4]}})
    assert main(["--config", config, "--experiment", "antennas-elements",
                 "--output", str(tmp_path / "out")]) == 1
    assert "M must be an integer, got 16.9" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, block, system", [
    ("total-power", {"N": 8, "P_T_dbm_grid": [True, 30.0]}, {}),
    ("total-power", {"N": 8, "P_T_dbm_grid": [30.0, "thirty"]}, {}),
])
def test_boolean_real_values_fail(tmp_path, capsys, experiment, block, system):
    # a boolean total power used to run as 1.0 dBm
    config = write_config(tmp_path, system=dict(TINY_SYSTEM, **system),
                          experiments={experiment: block})
    assert main(["--config", config, "--experiment", experiment,
                 "--output", str(tmp_path / "out")]) == 1
    assert "must be a finite number" in capsys.readouterr().err
    assert not (tmp_path / "out" / "total_power.csv").exists()


@pytest.mark.parametrize("experiment, block, typo", [
    ("antennas-elements", {"M_grid": [4], "N_grid": [4]}, "n_grid"),
    ("total-power", {"N": 8}, "P_T_grid"),
    ("adc-bits", {"bits": [1], "pairs": [[4, 4]]}, "bit"),
    ("verify", VERIFY_BLOCK, "wishart_tol"),
    ("optimize", {"n_total": 20, "n_elite": 2, "n_parents": 4, "n_crossover": 14,
                  "n_mutation": 4, "max_iters": 2}, "max_iter"),
])
def test_unknown_block_keys_fail(tmp_path, capsys, experiment, block, typo):
    # outside the GA settings a misspelt key used to be ignored, and the run
    # went ahead on the default
    config = write_config(tmp_path, system=dict(TINY_SYSTEM, seed=42),
                          experiments={experiment: dict(block, **{typo: True})})
    out = tmp_path / "out"
    assert main(["--config", config, "--experiment", experiment, "--output", str(out)]) == 1
    assert f"unknown {experiment} config keys: ['{typo}']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("experiment, flags, message", [
    # each of these used to exit 0: --optimize wrote optimized=false on every
    # row, and --mode wrote active rows whatever it named
    ("total-power", ["--optimize"], "--optimize applies only to the antennas-elements"),
    ("adc-bits", ["--optimize"], "--optimize applies only to the antennas-elements"),
    ("verify", ["--optimize"], "--optimize applies only to the antennas-elements"),
    ("optimize", ["--optimize"], "--optimize applies only to the antennas-elements"),
    ("adc-bits", ["--mode", "passive"], "--mode applies only to the optimize"),
    ("total-power", ["--mode", "active"], "--mode applies only to the optimize"),
    ("antennas-elements", ["--mode", "passive"], "--mode applies only to the optimize"),
    ("verify", ["--mode", "passive"], "--mode applies only to the optimize"),
])
def test_flags_the_experiment_ignores_fail(tmp_path, capsys, experiment, flags, message):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", config, "--experiment", experiment, "--output", str(out),
                 *flags]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("ga", [[1, 2], 3])
def test_ga_block_must_be_a_mapping(tmp_path, capsys, ga):
    # a GA block that was not a mapping used to end in a traceback
    config = write_config(tmp_path, experiments={
        "antennas-elements": {"M_grid": [4], "N_grid": [4], "ga": ga}})
    out = tmp_path / "out"
    assert main(["--config", config, "--experiment", "antennas-elements", "--optimize",
                 "--output", str(out)]) == 1
    assert "the GA block must be a mapping" in capsys.readouterr().err
    assert not (out / "antennas_elements.csv").exists()


def test_ideal_is_not_a_mode(tmp_path):
    # ideal ADCs are `b: ideal` in the system section, not a surface mode
    config = write_config(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(["--config", config, "--experiment", "optimize", "--mode", "ideal",
              "--output", str(tmp_path / "out")])
    assert err.value.code == 2


def test_optimize_mode_defaults_to_active(tmp_path):
    config = write_config(tmp_path, experiments={"optimize": dict(SMALL_GA, max_iters=2)})
    outputs = {}
    for name, flags in (("default", []), ("active", ["--mode", "active"]),
                        ("passive", ["--mode", "passive"])):
        out = tmp_path / name
        assert main(["--config", config, "--experiment", "optimize", "--output", str(out),
                     *flags]) == 0
        outputs[name] = [(out / f).read_bytes() for f in
                         ("ga_history.csv", "best_phases.csv", "optimize_summary.csv")]
    assert outputs["default"] == outputs["active"]
    assert outputs["passive"] != outputs["active"]


@pytest.mark.parametrize("experiments, message", [
    # a total_power section used to be ignored, and the run wrote the
    # default grid
    ({"total_power": {"N": 8}}, "unknown experiments sections: ['total_power']"),
    (["total-power"], "experiments must map experiment names to blocks"),
    ({"total-power": [8]}, "the total-power block must be a mapping"),
])
def test_misspelt_experiment_section_fails(tmp_path, capsys, experiments, message):
    config = write_config(tmp_path, experiments=experiments)
    out = tmp_path / "out"
    assert main(["--config", config, "--experiment", "total-power", "--output", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("system", ["[1, 2]", "abc", "[[M, 4]]"])
def test_system_section_must_be_a_mapping(tmp_path, capsys, system):
    # these used to end in a traceback, in an error that named no section,
    # and in a run that read [[M, 4]] as {M: 4} and exited 0
    path = tmp_path / "config.yaml"
    path.write_text(f"system: {system}\n")
    out = tmp_path / "out"
    assert main(["--config", str(path), "--experiment", "adc-bits", "--output", str(out)]) == 1
    assert "the system block must be a mapping" in capsys.readouterr().err
    assert not out.exists()


def test_misspelt_top_level_section_fails(tmp_path, capsys):
    # an `experiment` section used to be ignored, and the run swept the
    # default grid
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({"system": dict(TINY_SYSTEM), "experiment": {
        "total-power": {"N": 4, "P_T_dbm_grid": [30.0]}}}))
    out = tmp_path / "out"
    assert main(["--config", str(path), "--experiment", "total-power", "--output", str(out)]) == 1
    assert "unknown top-level config keys: ['experiment']" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_fails_before_any_output(tmp_path, capsys):
    # --seed -1 used to fail inside numpy, after creating the output directory
    out = tmp_path / "out"
    assert main(["--config", write_config(tmp_path), "--experiment", "adc-bits",
                 "--output", str(out), "--seed", "-1"]) == 1
    assert "seed must be nonnegative, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_experiment_rejected(tmp_path):
    config = write_config(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(["--config", config, "--experiment", "nonsense", "--output", str(tmp_path)])
    assert err.value.code != 0


def test_missing_config_fails(tmp_path):
    assert main(["--config", str(tmp_path / "absent.yaml"),
                 "--experiment", "adc-bits", "--output", str(tmp_path)]) == 1


def test_malformed_config_fails(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("just a string\n")
    assert main(["--config", str(path), "--experiment", "adc-bits",
                 "--output", str(tmp_path)]) == 1


def test_inconsistent_dimensions_fail(tmp_path):
    system = dict(TINY_SYSTEM)
    system["epsilon"] = [10.0, 10.0, 10.0]  # three factors for two users
    config = write_config(tmp_path, system=system)
    assert main(["--config", config, "--experiment", "adc-bits",
                 "--output", str(tmp_path)]) == 1


@pytest.mark.parametrize("K", [1, 2, 4, 5])
def test_default_epsilon_fits_any_user_count(K):
    system = {key: value for key, value in TINY_SYSTEM.items() if key != "epsilon"}
    cfg = build_system({"system": dict(system, K=K)})
    assert cfg.epsilon == (SystemConfig.epsilon[0],) * K


def test_unknown_key_fails(tmp_path):
    system = dict(TINY_SYSTEM)
    system["antennas"] = 12
    config = write_config(tmp_path, system=system)
    assert main(["--config", config, "--experiment", "adc-bits",
                 "--output", str(tmp_path)]) == 1


def test_shipped_default_config_loads():
    from arisim.cli import build_system, load_config
    path = os.path.join(os.path.dirname(__file__), "..", "configs", "default.yaml")
    raw = load_config(path)
    cfg = build_system(raw)
    assert cfg.M == 64 and cfg.N == 16 and cfg.K == 4
    assert cfg.epsilon == (10.0,) * 4


def test_config_loader_matches_safe_load():
    # libyaml's safe loader, where available, parses the shipped config to
    # the same dict as PyYAML's pure-Python one
    path = os.path.join(os.path.dirname(__file__), "..", "configs", "default.yaml")
    with open(path) as fh:
        want = yaml.safe_load(fh)
    assert load_config(path) == want
