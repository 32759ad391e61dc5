"""SNR generation, power control, and the analytic SNR CDF."""

import numpy as np
import pytest

from helpers import ks_uniform

from d2dsched import channel
from d2dsched.model import FadingSpec, SystemConfig, cellular_downlink, cellular_uplink, d2d_direct


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


def test_fading_unit_mean_and_variance():
    rng = np.random.default_rng(11)
    g = channel.draw_fading(FadingSpec(4.0), rng, size=1_000_000)
    assert g.mean() == pytest.approx(1.0, abs=0.005)
    assert g.var() == pytest.approx(0.25, abs=0.01)


def test_uplink_power_inverts_path_loss():
    cfg = SystemConfig()
    p = channel.uplink_tx_power(1000.0, cfg)
    expected = 10 ** (-7.0) * 1000.0 ** 3.5 / 10 ** (-3.1)
    assert p == pytest.approx(expected, rel=1e-12)
    # received power equals the threshold for any distance
    for d in (10.0, 250.0, 999.0):
        link = cellular_uplink(cfg, d)
        rx = channel.link_tx_power(link, cfg) * link.path_gain
        assert rx == pytest.approx(cfg.ul_rx_threshold_mw, rel=1e-12)


def test_downlink_snr_deterministic_value():
    cfg = SystemConfig()
    link = cellular_downlink(cfg, 1000.0)
    snr = channel.snr_from_gain(link, cfg, 1.0)
    expected = 1000.0 * 10 ** (-3.1) * 1000.0 ** (-3.5) / 1e-10
    assert snr == pytest.approx(expected, rel=1e-12)


def test_uplink_snr_distance_independent():
    cfg = SystemConfig()
    snrs = [channel.snr_from_gain(cellular_uplink(cfg, d), cfg, 0.7) for d in (5.0, 500.0)]
    assert snrs[0] == pytest.approx(snrs[1], rel=1e-12)


def test_analytic_cdf_matches_samples():
    cfg = SystemConfig()
    link = d2d_direct(cfg, 25.0)
    spec = FadingSpec(3.0)
    cdf = channel.analytic_snr_cdf(link, spec, cfg)
    rng = np.random.default_rng(5)
    snr = channel.snr_from_gain(link, cfg, channel.draw_fading(spec, rng, size=1_000_000))
    assert ks_uniform(cdf.evaluate(snr)) < 0.005
