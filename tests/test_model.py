"""Configuration, geometry sampling, and config-file parsing."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from d2dsched.cli import PRESETS
from d2dsched.model import (ConfigError, SystemConfig, cellular_downlink, cellular_uplink,
                            d2d_direct, parse_config_text, sample_spatial)


def test_defaults_match_standard_setup():
    cfg = SystemConfig()
    assert cfg.cell_radius_m == 1000.0
    assert cfg.d2d_min_m == 1.0 and cfg.d2d_max_m == 40.0
    assert cfg.pathloss_const_cellular_db == -31.0
    assert cfg.pathloss_exp_cellular == 3.5 and cfg.pathloss_exp_d2d == 3.0
    assert cfg.noise_power_dbm == -100.0
    assert cfg.tx_power_dl_dbm == 30.0 and cfg.tx_power_d2d_dbm == 15.0
    assert cfg.interference_radius_m == 300.0
    assert cfg.pf_time_const == 1000.0


def test_linear_conversions():
    cfg = SystemConfig()
    assert cfg.noise_power_mw == pytest.approx(1e-10)
    assert cfg.tx_power_dl_mw == pytest.approx(1000.0)
    assert cfg.pathloss_const_cellular == pytest.approx(10 ** (-3.1))


def test_user_counts():
    cfg = SystemConfig(K1=3, K2=4)
    assert cfg.n_users == 11
    assert cfg.n_contenders == 7


@pytest.mark.parametrize("kwargs", [
    dict(K1=-1),
    dict(K1=0, K2=0),
    dict(d2d_min_m=50.0, d2d_max_m=40.0),
    dict(pathloss_exp_cellular=0.0),
    dict(fading_shape_m=0.3),
    dict(fading_shape_m=4000.5),       # beyond analytics.MAX_SHAPE
    dict(fading_shape_m=(1.0, 6000.0), K1=1, K2=1),
    dict(policy="nope"),
    dict(slots_per_realization=0),
    dict(group_sizes=(2, 2)),          # does not sum to K2=5
    dict(rate_log_base=1.0),
    dict(pf_time_const=0.0),
    dict(pf_time_const=0.5),
    dict(pf_time_const=-3.0),
    dict(pf_time_const=float("nan")),
    dict(pf_time_const=float("inf")),
    dict(pathloss_exp_cellular=float("nan")),
    dict(rate_log_base=float("nan")),
    dict(interference_radius_m=float("nan")),
    dict(interference_radius_m=-5.0),
    dict(interference_radius_m=0.0),
    dict(pathloss_const_d2d_db=float("nan")),
    dict(cell_radius_m=float("inf")),
    dict(fading_shape_m=float("inf")),
    dict(fading_shape_m=(1.0, float("nan")), K1=1, K2=1),
    dict(noise_power_dbm=float("-inf")),
    dict(fading_shape_m="1.0"),
    dict(fading_shape_m=np.ones((3, 5))),
    dict(fading_shape_m=[1.0, [2.0]]),
    dict(fading_shape_m=["a"] * 15),
    dict(group_sizes=[2.0, 3.0]),
    dict(group_sizes=np.array([[2, 3]])),
    dict(group_sizes="5"),
])
def test_invalid_configs_rejected(kwargs):
    # the error names the setting at fault, the first one given
    with pytest.raises(ConfigError, match=next(iter(kwargs))):
        SystemConfig(**kwargs)


@pytest.mark.parametrize("name", [f.name for f in fields(SystemConfig) if f.type == "int"])
@pytest.mark.parametrize("value", [10.0, 100.0, True, np.float64(2.0), np.bool_(True), "7"],
                         ids=["float", "float-100", "bool", "numpy-float", "numpy-bool", "str"])
def test_int_settings_refuse_other_types(name, value):
    # a float or a bool spelled for an int setting is refused up front, by name,
    # not by a TypeError (or a wrong run) downstream
    with pytest.raises(ConfigError, match=f"{name} must be an integer"):
        SystemConfig(**{name: value})


def test_cellular_distance_mean():
    # density 2d/R^2 has mean (2/3) R
    cfg = SystemConfig(K1=1_000_000, K2=0)
    rng = np.random.default_rng(7)
    sp = sample_spatial(cfg, rng)
    mean = sp.cellular_distances.mean()
    assert abs(mean - 2000.0 / 3.0) < 0.005 * (2000.0 / 3.0)
    assert sp.cellular_distances.max() <= cfg.cell_radius_m


def test_pair_geometry_consistency():
    cfg = SystemConfig(K1=0, K2=200)
    sp = sample_spatial(cfg, np.random.default_rng(3))
    assert np.all(sp.pair_direct_distances >= cfg.d2d_min_m)
    assert np.all(sp.pair_direct_distances <= cfg.d2d_max_m)
    # the two devices sit at centroid +/- (D/2)(cos theta, sin theta)
    cen = sp.centroid_xy()
    half = 0.5 * sp.pair_direct_distances[:, None]
    axis = np.column_stack((np.cos(sp.pair_angles), np.sin(sp.pair_angles)))
    a, b = cen + half * axis, cen - half * axis
    assert np.allclose(np.hypot(*(a - b).T), sp.pair_direct_distances)
    assert np.allclose(0.5 * (a + b), cen)
    assert np.allclose(np.hypot(*cen.T), sp.pair_centroid_distances)
    assert np.all(sp.pair_centroid_distances <= cfg.cell_radius_m)


def test_link_geometry_path_gain():
    cfg = SystemConfig()
    link = cellular_downlink(cfg, 100.0)
    assert link.path_gain == pytest.approx(10 ** (-3.1) * 100.0 ** (-3.5))
    assert link.tx_power_mw == cfg.tx_power_dl_mw
    up = cellular_uplink(cfg, 50.0)
    assert up.path_gain == pytest.approx(link.path_gain * 2.0 ** 3.5, rel=1e-12)
    assert up.tx_power_mw * up.path_gain == pytest.approx(cfg.ul_rx_threshold_mw, rel=1e-12)
    d2d = d2d_direct(cfg, 20.0)
    assert d2d.path_gain == pytest.approx(10 ** (-3.1) * 20.0 ** (-3.0))
    assert d2d.tx_power_mw == cfg.tx_power_d2d_mw
    for make in (cellular_downlink, cellular_uplink, d2d_direct):
        with pytest.raises(ConfigError, match="distance"):
            make(cfg, 0.0)


def test_shapes_per_contender():
    cfg = SystemConfig(K1=2, K2=1, fading_shape_m=(1.0, 2.0, 3.0))
    assert np.array_equal(cfg.shapes_per_contender(), [1.0, 2.0, 3.0])
    with pytest.raises(ConfigError):
        SystemConfig(K1=2, K2=1, fading_shape_m=(1.0, 2.0))


@pytest.mark.parametrize("key, as_tuple", [
    ("fading_shape_m", (1.0, 2.0, 2.5, 1.0, 3.0)),
    ("group_sizes", (1, 2)),
])
def test_sequence_settings_normalised_to_tuples(key, as_tuple):
    base = dict(K1=2, K2=3, fading_shape_m=1.0, group_sizes=(3,))
    configs = [SystemConfig(**{**base, key: form})
               for form in (as_tuple, list(as_tuple), np.array(as_tuple))]
    assert all(getattr(cfg, key) == as_tuple for cfg in configs)
    assert configs[0] == configs[1] == configs[2]
    assert len({cfg.digest() for cfg in configs}) == 1
    assert type(getattr(configs[2], key)[0]) is type(as_tuple[0])


def test_parse_config_text():
    text = """
    # scenario
    K1 = 4
    K2 = 2          # pairs
    policy = dfs
    fading_shape_m = 1,1,1,1,2,2
    group_sizes = 1,1
    rate_log_base = e
    """
    cfg = parse_config_text(text)
    assert cfg.K1 == 4 and cfg.K2 == 2 and cfg.policy == "dfs"
    assert cfg.group_sizes == (1, 1)
    assert cfg.rate_log_base == pytest.approx(math.e)
    assert cfg.shapes_per_contender()[-1] == 2.0
    # each value takes the type its SystemConfig field is annotated with
    cfg = parse_config_text("slots_per_realization = 7\nspatial_realizations = 3\nrng_seed = 9\n"
                            "pf_time_const = 50")
    assert [cfg.slots_per_realization, cfg.spatial_realizations, cfg.rng_seed] == [7, 3, 9]
    assert [type(cfg.slots_per_realization), type(cfg.spatial_realizations),
            type(cfg.rng_seed), type(cfg.pf_time_const)] == [int, int, int, float]


def test_parse_errors():
    with pytest.raises(ConfigError):
        parse_config_text("bogus_key = 1")
    with pytest.raises(ConfigError):
        parse_config_text("K1")
    with pytest.raises(ConfigError):
        parse_config_text("K1 = x")
    with pytest.raises(ConfigError):
        parse_config_text("", overrides={"unknown": "1"})
    with pytest.raises(ConfigError):
        parse_config_text("cfs_d2d_random = true")    # CFS serves D2D users round-robin only
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("resources = 2")            # more resources are more realizations


def test_numpy_scalars_digest_as_python_values():
    # repr(np.float64(2.0)) is "np.float64(2.0)", which the digest hashed apart from 2.0
    assert SystemConfig(fading_shape_m=np.float64(2.0)).digest() == \
        SystemConfig(fading_shape_m=2.0).digest()
    assert SystemConfig(K1=np.int64(10)).digest() == SystemConfig().digest()
    shapes = (np.float64(1.0), 2.0, np.int64(3), 1.0, 2.5)
    cfg = SystemConfig(K1=2, K2=3, fading_shape_m=shapes, group_sizes=(np.int64(3),))
    assert [type(m) for m in cfg.fading_shape_m] == [float] * 5
    assert cfg.digest() == SystemConfig(K1=2, K2=3, fading_shape_m=(1.0, 2.0, 3, 1.0, 2.5),
                                        group_sizes=(3,)).digest()
    # float settings spelled as ints are stored, and so digested, as floats
    assert SystemConfig(fading_shape_m=2).digest() == SystemConfig(fading_shape_m=2.0).digest()
    cfg = SystemConfig(cell_radius_m=900, K1=2, K2=0, mean_snr=[5, 7.5], fading_shape_m=[1, 2])
    assert (cfg.cell_radius_m, cfg.mean_snr, cfg.fading_shape_m) == (900.0, (5.0, 7.5), (1.0, 2.0))
    assert all(type(v) is float for v in (cfg.cell_radius_m, *cfg.mean_snr, *cfg.fading_shape_m))
    # configs of Python values keep the digests they had before
    assert SystemConfig().digest() == "b7dd5742f29c00d6"
    assert SystemConfig(**PRESETS["sec4c-comparison"]["desk"]).digest() == "ad3925f8adcde078"


def test_overrides_and_digest():
    cfg = parse_config_text("K1 = 4\nK2 = 1", overrides={"K1": "6"})
    assert cfg.K1 == 6
    other = replace(cfg, rng_seed=999)
    assert cfg.digest() != other.digest()
    assert cfg.digest() == parse_config_text("K1 = 6\nK2 = 1").digest()
