"""Link mean SNRs, uplink power control, and the analytic SNR CDF."""

import numpy as np
import pytest

from helpers import ks_uniform

from d2dsched import channel
from d2dsched.model import SystemConfig, cellular_downlink, cellular_uplink, d2d_direct


def test_gamma_cdf_at_zero_and_median():
    cdf = channel.GammaSnrCdf(1.0, 2.0)
    assert cdf.evaluate(0.0) == 0.0
    # exponential median is mean * ln 2
    assert cdf.evaluate(2.0 * np.log(2.0)) == pytest.approx(0.5, abs=1e-12)


def test_gamma_cdf_validation():
    with pytest.raises(ValueError):
        channel.GammaSnrCdf(0.2, 1.0)
    with pytest.raises(ValueError):
        channel.GammaSnrCdf(1.0, 0.0)


@pytest.mark.parametrize("shape_m, mean_snr, name", [
    (float("nan"), 1.0, "shape_m"), (float("inf"), 1.0, "shape_m"),
    (1.0, float("nan"), "mean_snr"), (1.0, float("inf"), "mean_snr"),
])
def test_gamma_cdf_rejects_non_finite(shape_m, mean_snr, name):
    with pytest.raises(ValueError, match=name):
        channel.GammaSnrCdf(shape_m, mean_snr)


def test_uplink_power_inverts_path_loss():
    cfg = SystemConfig()
    p = cellular_uplink(cfg, 1000.0).tx_power_mw
    expected = 10 ** (-7.0) * 1000.0 ** 3.5 / 10 ** (-3.1)
    assert p == pytest.approx(expected, rel=1e-12)
    # received power equals the threshold for any distance
    for d in (10.0, 250.0, 999.0):
        link = cellular_uplink(cfg, d)
        rx = link.tx_power_mw * link.path_gain
        assert rx == pytest.approx(cfg.ul_rx_threshold_mw, rel=1e-12)


def test_downlink_snr_deterministic_value():
    cfg = SystemConfig()
    snr = channel.mean_snr(cellular_downlink(cfg, 1000.0), cfg)
    expected = 1000.0 * 10 ** (-3.1) * 1000.0 ** (-3.5) / 1e-10
    assert snr == pytest.approx(expected, rel=1e-12)


def test_uplink_snr_distance_independent():
    cfg = SystemConfig()
    snrs = [channel.mean_snr(cellular_uplink(cfg, d), cfg) for d in (5.0, 500.0)]
    assert snrs[0] == pytest.approx(snrs[1], rel=1e-12)


def test_analytic_cdf_matches_samples():
    cfg = SystemConfig()
    mean = channel.mean_snr(d2d_direct(cfg, 25.0), cfg)
    cdf = channel.GammaSnrCdf(3.0, mean)
    rng = np.random.default_rng(5)
    snr = mean * rng.gamma(3.0, 1.0 / 3.0, size=1_000_000)
    assert ks_uniform(cdf.evaluate(snr)) < 0.005
