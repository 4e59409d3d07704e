import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arisim import SystemConfig, array_response, los_components, make_geometry
from arisim.budget import path_loss
from arisim.channel import STREAM_FADING, sample_channel_batch, substream


def test_array_response_single_element():
    np.testing.assert_allclose(array_response(1, 1.3, -0.4), [1.0 + 0j])


def test_array_response_square_grid_phases():
    # az = el = pi/2: only the x coordinate contributes, phase pi per row
    got = array_response(4, np.pi / 2, np.pi / 2, 0.5)
    np.testing.assert_allclose(got, [1, 1, -1, -1], atol=1e-12)
    # el = 0: only the y coordinate contributes, phase pi per column
    got = array_response(4, 0.7, 0.0, 0.5)
    np.testing.assert_allclose(got, [1, -1, 1, -1], atol=1e-12)


@given(
    size=st.sampled_from([1, 4, 8, 9, 16, 25]),
    az=st.floats(min_value=0.0, max_value=2 * math.pi),
    el=st.floats(min_value=0.0, max_value=2 * math.pi),
)
@settings(max_examples=60, deadline=None)
def test_array_response_unit_modulus(size, az, el):
    v = array_response(size, az, el, 0.5)
    assert v.shape == (size,)
    np.testing.assert_allclose(np.abs(v), 1.0, atol=1e-12)


def test_array_response_rejects_empty():
    with pytest.raises(ValueError):
        array_response(0, 0.0, 0.0)


def test_los_components_norms(desk_cfg):
    geom = make_geometry(desk_cfg)
    hbar, a_ris, a_bs = los_components(geom, desk_cfg)
    for k in range(desk_cfg.K):
        assert np.linalg.norm(hbar[:, k]) ** 2 == pytest.approx(desk_cfg.N, rel=1e-12)
    assert a_ris.shape == (desk_cfg.N,) and a_bs.shape == (desk_cfg.M,)
    Hbar2 = np.outer(a_bs, a_ris.conj())
    assert np.linalg.norm(Hbar2) ** 2 == pytest.approx(desk_cfg.M * desk_cfg.N, rel=1e-12)
    # rank-one outer product: gram is M * a a^H with trace M*N
    gram = Hbar2.conj().T @ Hbar2
    assert np.linalg.matrix_rank(gram) == 1
    assert np.trace(gram).real == pytest.approx(desk_cfg.M * desk_cfg.N, rel=1e-12)


def test_geometry_deterministic(desk_cfg):
    g1 = make_geometry(desk_cfg)
    g2 = make_geometry(desk_cfg)
    np.testing.assert_array_equal(g1.user_aoa, g2.user_aoa)
    np.testing.assert_array_equal(g1.user_pos, g2.user_pos)
    np.testing.assert_array_equal(g1.alpha, g2.alpha)
    assert g1.beta == g2.beta


def test_geometry_user_placement():
    cfg = SystemConfig(M=16, N=16, K=32, epsilon=(10.0,) * 32, seed=5)
    geom = make_geometry(cfg)
    center = np.asarray(cfg.user_center)
    radial = np.linalg.norm(geom.user_pos[:, :2] - center[:2], axis=1)
    assert np.all(radial <= cfg.user_radius + 1e-12)
    # semicircle faces away from the BS: y >= center y, fixed height
    assert np.all(geom.user_pos[:, 1] >= center[1] - 1e-12)
    assert np.all(geom.user_pos[:, 2] == center[2])
    np.testing.assert_allclose(
        geom.alpha, path_loss(geom.dist_user, cfg.pathloss_exp_user), rtol=1e-12
    )
    assert np.all(geom.user_aoa >= 0.0) and np.all(geom.user_aoa < 2 * np.pi)


def test_geometry_elevation_restriction():
    cfg = SystemConfig(M=16, N=16, K=32, epsilon=(10.0,) * 32, seed=5, restrict_elevation=True)
    geom = make_geometry(cfg)
    assert np.all(geom.user_aoa[:, 1] < np.pi)
    assert geom.ris_aod[1] < np.pi and geom.bs_aoa[1] < np.pi


def test_sample_channels_deterministic(desk_cfg):
    geom = make_geometry(desk_cfg)
    los = los_components(geom, desk_cfg)
    a = sample_channel_batch(geom, desk_cfg, substream(123, 0), 1, los)
    b = sample_channel_batch(geom, desk_cfg, substream(123, 0), 1, los)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    c = sample_channel_batch(geom, desk_cfg, substream(124, 0), 1, los)
    assert not np.array_equal(a[0], c[0])


def test_sample_channels_los_limit():
    # enormous Rician factor collapses the user channel onto its LoS part
    cfg = SystemConfig(M=16, N=4, K=2, epsilon=(1e12, 1e12), trials=10, seed=3)
    geom = make_geometry(cfg)
    los = los_components(geom, cfg)
    H1, _ = sample_channel_batch(geom, cfg, substream(9, 0), 1, los)
    expected = np.sqrt(geom.alpha) * los.hbar
    np.testing.assert_allclose(H1[0], expected, rtol=1e-5, atol=0)


@pytest.mark.parametrize("eps_value", [0.0, 1.0, 10.0])
def test_mean_channel_power_split(eps_value):
    # E{||h_k||^2} = N * alpha_k independently of the Rician factor
    cfg = SystemConfig(M=4, N=4, K=2, epsilon=(eps_value, eps_value), seed=21)
    geom = make_geometry(cfg)
    draws = 100_000
    H1, _ = sample_channel_batch(geom, cfg, substream(77, 0), draws, los_components(geom, cfg))
    norm2 = (np.abs(H1) ** 2).sum(axis=1)  # (draws, K)
    scaled = norm2 / (cfg.N * geom.alpha)
    for k in range(cfg.K):
        margin = 8.0 / math.sqrt(draws * cfg.N)
        assert abs(scaled[:, k].mean() - 1.0) <= margin


def test_second_hop_power_normalization():
    cfg = SystemConfig(M=8, N=4, K=2, epsilon=(10.0, 10.0), seed=13)
    geom = make_geometry(cfg)
    draws = 20_000
    _, H2 = sample_channel_batch(geom, cfg, substream(31, 0), draws, los_components(geom, cfg))
    frob = (H2**2).sum(axis=(0, 2, 3))  # real and imaginary planes
    target = cfg.M * cfg.N * geom.beta
    se = frob.std(ddof=1) / math.sqrt(draws)
    assert abs(frob.mean() - target) <= 3.0 * se


# sha256 of H1 and of the H2 planes of five draws from batch 0 of the fading
# stream, pinned when H2 was still drawn as a complex array: the planes are
# its real and imaginary parts bit for bit, and the stream layout is unchanged
PINNED_DRAWS = [
    (dict(M=16, N=8, K=4, delta=1.0, epsilon=(10.0, 10.0, 10.0, 10.0), seed=3),
     "641e006d0542cc82310302039bf1be6e66becb2515b052aa2818fe8999e3851e",
     "2944b03839b1d3aaea77d9e385aab006480866a818ec0cd50be36cd9b1e1ca2b"),
    (dict(M=8, N=4, K=2, delta=0.0, epsilon=(10.0, 1.0), seed=5),
     "b9a5168854733c03026ba7cf7abaae2be6742af6556fc66764f4f7e66c1500b8",
     "81adffebd3371e7827d074d976e45f75dc09476a060406a3d8c97e96bd5675b8"),
    (dict(M=12, N=6, K=3, delta=2.0, epsilon=(0.0, 0.0, 0.0), seed=7),
     "10439da2b60be736d5b2dce5754aa5f0b0a270bbf639f21d8f68419f3e490fcb",
     "28eff02425a36a7f8c2583accbbec18d4b893d15fc0007ba5c91af3d58177bde"),
    (dict(M=5, N=7, K=1, delta=1.0, epsilon=(3.0,), seed=9),
     "a790fd1706662e7cb505a45c73af488f1676ca6430e25f5a6dbf215452afefda",
     "76cfd545fe9906b78d746cef3c6381a1960bb3574c53e5556165c888ab2361e9"),
]


@pytest.mark.parametrize("kwargs, h1_sha, h2_sha", PINNED_DRAWS)
def test_planar_draws_match_pinned_values(kwargs, h1_sha, h2_sha):
    cfg = SystemConfig(**kwargs)
    geom = make_geometry(cfg)
    H1, H2 = sample_channel_batch(geom, cfg, substream(cfg.seed, STREAM_FADING, 0), 5,
                                  los_components(geom, cfg))
    assert H1.shape == (5, cfg.N, cfg.K) and H1.dtype == np.complex128
    assert H2.shape == (2, 5, cfg.M, cfg.N) and H2.dtype == np.float64
    assert hashlib.sha256(np.ascontiguousarray(H1).tobytes()).hexdigest() == h1_sha
    assert hashlib.sha256(np.ascontiguousarray(H2).tobytes()).hexdigest() == h2_sha


def test_geometry_depends_on_no_sweep_value():
    # a run builds one geometry and every sweep site shares it: no grid
    # value (M, N, ADC bits, total power) and no trial count moves it
    cfg = SystemConfig(M=16, N=9, K=3, epsilon=(10.0, 1.0, 0.0), seed=4)
    base = make_geometry(cfg)
    for change in ({"M": 100}, {"N": 64}, {"b": 7}, {"b": "ideal"}, {"P_T_dbm": -5.0},
                   {"trials": 3}):
        geom = make_geometry(dataclasses.replace(cfg, **change))
        for field in dataclasses.fields(base):
            np.testing.assert_array_equal(getattr(geom, field.name), getattr(base, field.name),
                                          err_msg=f"{field.name} moved with {change}")
