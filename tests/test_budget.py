import math
from dataclasses import replace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from arisim import (
    ConfigurationError,
    Mode,
    SystemConfig,
    circuit_power,
    dbm_to_watts,
    path_loss,
    resolve_budget,
    watts_to_dbm,
)
from arisim.ga import GAParams


def test_dbm_to_watts_definition():
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-15)
    assert dbm_to_watts(0.0) == pytest.approx(1.0e-3, rel=1e-15)
    assert dbm_to_watts(-90.0) == pytest.approx(1.0e-12, rel=1e-15)


def test_watts_to_dbm_roundtrip():
    for x in (-37.0, 0.0, 12.5, 30.0):
        assert watts_to_dbm(dbm_to_watts(x)) == pytest.approx(x, abs=1e-12)
    with pytest.raises(ValueError):
        watts_to_dbm(0.0)


def test_path_loss_reference_points():
    assert path_loss(100.0, 2.8) == pytest.approx(10 ** (-8.6), rel=1e-12)
    assert path_loss(1.0, 2.8) == pytest.approx(1.0e-3, rel=1e-12)
    expected_5m = 10 ** ((-30.0 - 28.0 * math.log10(5.0)) / 10.0)
    assert path_loss(5.0, 2.8) == pytest.approx(expected_5m, rel=1e-12)
    assert expected_5m == pytest.approx(1.1038e-5, rel=1e-4)


def test_path_loss_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        path_loss(0.0, 2.8)
    with pytest.raises(ValueError):
        path_loss(-3.0, 2.8)
    with pytest.raises(ValueError):
        path_loss(np.array([1.0, -1.0]), 2.8)


def test_active_startup_threshold_value():
    # 16 elements at -10 dBm switch and -5 dBm bias draw about 6.66 mW (8.23 dBm)
    cfg = SystemConfig(M=16, N=16, K=2, epsilon=(10.0, 10.0))
    threshold = circuit_power(cfg, Mode.ACTIVE)
    assert threshold == pytest.approx(16 * (1e-4 + 10 ** (-3.5)), rel=1e-12)
    assert watts_to_dbm(threshold) == pytest.approx(8.2345, abs=5e-4)
    assert circuit_power(cfg, Mode.PASSIVE) == pytest.approx(16e-4, rel=1e-12)


def test_amplification_inversion():
    # One user with p = 0.5 W and alpha = 1e-5 gives sum p_k alpha_k = 5e-6 W;
    # with P_A = 0.5 W and sigma_v^2 = 1e-10 W the gain inverts the surface
    # power identity exactly.
    circuit = 16 * (1e-4 + 10 ** (-3.5))
    cfg = SystemConfig(
        M=16, N=16, K=1, epsilon=(10.0,),
        P_T_dbm=watts_to_dbm(1.0 + circuit), split=0.5, sigma_v2_dbm=-70.0,
    )
    budget = resolve_budget(cfg, np.array([1e-5]), Mode.ACTIVE)
    assert budget.p == pytest.approx(0.5, rel=1e-12)
    assert budget.P_A == pytest.approx(0.5, rel=1e-12)
    expected_eta_sq = 0.5 / (16 * (5e-6 + 1e-10))
    assert budget.eta**2 == pytest.approx(expected_eta_sq, rel=1e-12)


def test_startup_not_met_yields_zero_budget():
    cfg = SystemConfig(M=16, N=16, K=2, epsilon=(10.0, 10.0), P_T_dbm=5.0)
    budget = resolve_budget(cfg, np.full(2, 1e-7), Mode.ACTIVE)
    assert not budget.startup_met
    assert budget.p == 0.0
    assert budget.P_A == 0.0


@pytest.mark.parametrize("mode, N, P_DC_dbm", [
    # 10 elements at -10 dBm switch draw exactly 0 dBm
    (Mode.PASSIVE, 10, -5.0),
    # 5 elements at -10 dBm switch and -10 dBm bias draw exactly 0 dBm
    (Mode.ACTIVE, 5, -10.0),
])
def test_budget_at_circuit_draw_leaves_surface_off(mode, N, P_DC_dbm):
    cfg = SystemConfig(M=16, N=N, K=2, epsilon=(10.0, 10.0), P_T_dbm=0.0,
                       P_SW_dbm=-10.0, P_DC_dbm=P_DC_dbm)
    assert cfg.P_T_w == circuit_power(cfg, mode)
    budget = resolve_budget(cfg, np.full(2, 1e-7), mode)
    assert not budget.startup_met
    assert budget.p == 0.0 and budget.P_A == 0.0


@given(
    p_t_dbm=st.floats(min_value=10.0, max_value=40.0),
    p_sw_dbm=st.floats(min_value=-40.0, max_value=-5.0),
    p_dc_dbm=st.floats(min_value=-40.0, max_value=-5.0),
    split=st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=60, deadline=None)
def test_budget_conservation(p_t_dbm, p_sw_dbm, p_dc_dbm, split):
    cfg = SystemConfig(
        M=16, N=16, K=3, epsilon=(10.0,) * 3,
        P_T_dbm=p_t_dbm, P_SW_dbm=p_sw_dbm, P_DC_dbm=p_dc_dbm, split=split,
    )
    alpha = np.full(3, 1e-7)
    active = resolve_budget(cfg, alpha, Mode.ACTIVE)
    if active.startup_met:
        total = cfg.K * active.p + active.P_A + circuit_power(cfg, Mode.ACTIVE)
        assert total == pytest.approx(cfg.P_T_w, rel=1e-12)
    passive = resolve_budget(cfg, alpha, Mode.PASSIVE)
    if passive.startup_met:
        total = cfg.K * passive.p + circuit_power(cfg, Mode.PASSIVE)
        assert total == pytest.approx(cfg.P_T_w, rel=1e-12)
        assert passive.eta == 1.0
        assert passive.sigma_v2_w == 0.0


def test_budget_monotone_in_total_power():
    alpha = np.full(2, 1e-7)
    prev_eta, prev_p = 0.0, 0.0
    for p_t in (15.0, 20.0, 25.0, 30.0, 35.0):
        cfg = SystemConfig(M=16, N=16, K=2, epsilon=(10.0, 10.0), P_T_dbm=p_t)
        budget = resolve_budget(cfg, alpha, Mode.ACTIVE)
        assert budget.startup_met
        assert budget.eta >= prev_eta
        assert budget.p >= prev_p
        prev_eta, prev_p = budget.eta, budget.p


def test_passive_threshold_below_active():
    cfg = SystemConfig(M=16, N=16, K=2, epsilon=(10.0, 10.0))
    assert circuit_power(cfg, Mode.PASSIVE) < circuit_power(cfg, Mode.ACTIVE)


def test_passive_reabsorbs_dc_saving():
    # The passive budget reallocates the saved DC power into transmit power.
    cfg = SystemConfig(M=16, N=16, K=2, epsilon=(10.0, 10.0), P_T_dbm=30.0)
    alpha = np.full(2, 1e-7)
    active = resolve_budget(cfg, alpha, Mode.ACTIVE)
    passive = resolve_budget(cfg, alpha, Mode.PASSIVE)
    assert cfg.K * passive.p == pytest.approx(cfg.P_T_w - circuit_power(cfg, Mode.PASSIVE),
                                              rel=1e-12)
    assert passive.p > active.p


def test_sub_unity_amplification_rejected():
    # Users sitting effectively on the surface make the required reflect
    # power unreachable with eta >= 1.
    cfg = SystemConfig(M=16, N=16, K=1, epsilon=(10.0,), P_T_dbm=30.0)
    with pytest.raises(ConfigurationError):
        resolve_budget(cfg, np.array([1.0]), Mode.ACTIVE)


def test_adc_resolution_is_not_a_mode():
    # the surface mode and the ADC resolution are independent settings:
    # ideal ADCs are b = "ideal", and the budget does not depend on b
    assert list(Mode) == [Mode.ACTIVE, Mode.PASSIVE]
    cfg = SystemConfig(M=16, N=16, K=2, epsilon=(10.0, 10.0))
    alpha = np.full(2, 1e-7)
    for mode in Mode:
        budget = resolve_budget(cfg, alpha, mode)
        ideal = resolve_budget(replace(cfg, b="ideal"), alpha, mode)
        assert vars(ideal).keys() == vars(budget).keys() == {
            "p", "eta", "P_A", "startup_met", "sigma_v2_w"}
        assert (ideal.eta, ideal.P_A, ideal.sigma_v2_w) == (budget.eta, budget.P_A,
                                                             budget.sigma_v2_w)
        assert ideal.p == budget.p


def test_alpha_shape_checked():
    cfg = SystemConfig(M=16, N=16, K=2, epsilon=(10.0, 10.0))
    with pytest.raises(ConfigurationError):
        resolve_budget(cfg, np.ones(3), Mode.ACTIVE)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(M=0),
        dict(K=0, epsilon=()),
        dict(b=0),
        dict(b=-3),
        dict(epsilon=(10.0,)),                # wrong length for K=4
        dict(epsilon=(10.0, 10.0, 10.0, -1.0)),
        dict(delta=-0.5),
        dict(split=0.0),
        dict(split=1.0),
        dict(user_radius=0.0),
        dict(trials=0),
        dict(bs_pos=(0.0, 0.0)),
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        SystemConfig(**kwargs)


def test_config_accepts_ideal_bits():
    cfg = SystemConfig(b="ideal")
    assert cfg.b == "ideal"


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(b=True),
        dict(b=2.0),
        dict(M=1.5),
        dict(N=16.0),
        dict(K=True, epsilon=(10.0,)),
        dict(trials=100.5),
        dict(seed=1.5),
    ],
)
def test_config_rejects_non_integer_counts(kwargs):
    with pytest.raises(ConfigurationError):
        SystemConfig(**kwargs)


@pytest.mark.parametrize(
    "field",
    ["sigma_n2_dbm", "sigma_v2_dbm", "P_T_dbm", "P_SW_dbm", "P_DC_dbm", "delta",
     "pathloss_exp_user", "user_radius"],
)
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_rejects_non_finite_values(field, value):
    with pytest.raises(ConfigurationError):
        SystemConfig(**{field: value})


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_rejects_non_finite_rician_factor(value):
    with pytest.raises(ConfigurationError):
        SystemConfig(epsilon=(10.0, 10.0, 10.0, value))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(epsilon=(True,) * 4),
        dict(epsilon=("10",) * 4),
        dict(epsilon=(10.0, 10.0, 10.0, None)),
        dict(epsilon=10.0),                   # a scalar, not one entry per user
        dict(bs_pos=(True, 0, 25)),
        dict(ris_pos=("5", 100.0, 30.0)),
        dict(user_center=(5.0, math.nan, 1.6)),
        dict(bs_pos=(0.0, math.inf, 25.0)),
        dict(restrict_elevation="no"),
        dict(restrict_elevation="false"),     # a quoted YAML false is truthy
        dict(restrict_elevation=1),
        dict(restrict_elevation=None),
    ],
)
def test_config_rejects_mistyped_values(kwargs):
    # each of these used to be coerced by float() or read as truthy
    with pytest.raises(ConfigurationError):
        SystemConfig(**kwargs)


@pytest.mark.parametrize("build, text", [
    (lambda v: GAParams(f_tol=v), "1e-4"),
    (lambda v: SystemConfig(sigma_n2_dbm=v), "-9e1"),
    (lambda v: SystemConfig(epsilon=(10.0, 10.0, 10.0, v)), "1.0e1"),
])
def test_yaml_exponent_string_says_why_it_fails(build, text):
    # PyYAML reads each of these as a string (YAML 1.1); it still fails,
    # and the error says how to write the number
    value = yaml.safe_load(f"x: {text}")["x"]
    assert value == text
    with pytest.raises(ConfigurationError, match=r"YAML 1\.1 .*1\.0e-4"):
        build(value)
    # a string that is no number gets no such hint
    with pytest.raises(ConfigurationError) as err:
        build("tens")
    assert "YAML" not in str(err.value)


def test_config_stores_tuples_of_floats():
    cfg = SystemConfig(K=2, epsilon=[10, np.float32(1.5)], bs_pos=[0, 0, 25],
                       restrict_elevation=np.True_)
    assert cfg.epsilon == (10.0, 1.5) and all(type(e) is float for e in cfg.epsilon)
    assert cfg.bs_pos == (0.0, 0.0, 25.0) and all(type(v) is float for v in cfg.bs_pos)
    assert cfg.restrict_elevation is True
    # reals are stored as floats, so an integer power still writes 30.0
    assert type(SystemConfig(P_T_dbm=30).P_T_dbm) is float
    assert type(GAParams(f_tol=0).f_tol) is float


def test_config_rejects_negative_seed():
    # a negative seed used to fail inside numpy, with no field named
    with pytest.raises(ConfigurationError, match="seed must be nonnegative, got -1"):
        SystemConfig(seed=-1)


def test_config_accepts_numpy_integers():
    cfg = SystemConfig(M=np.int64(16), N=np.int32(4), K=np.int64(2), epsilon=(10.0, 10.0),
                       b=np.int64(2), trials=np.int64(8), seed=np.uint8(3))
    assert (cfg.M, cfg.N, cfg.K, cfg.b, cfg.trials, cfg.seed) == (16, 4, 2, 2, 8, 3)
    assert all(type(v) is int for v in (cfg.M, cfg.N, cfg.K, cfg.b, cfg.trials, cfg.seed))
