"""Per-slot SNR generation and the per-user SNR CDFs the policies consume."""

from __future__ import annotations

import numpy as np

from d2dsched.analytics import regularized_gamma_p
from d2dsched.model import FadingSpec, LinkGeometry, SystemConfig


class GammaSnrCdf:
    """Exact SNR CDF for a power-law link with unit-mean Gamma fading.

    SNR = mean_snr * G with G ~ Gamma(shape=m, mean=1), so
    F(s) = P(m, m s / mean_snr), the regularized lower incomplete gamma.
    """

    def __init__(self, shape_m: float, mean_snr: float):
        if shape_m < 0.5:
            raise ValueError("shape_m must be >= 0.5")
        if mean_snr <= 0:
            raise ValueError("mean_snr must be positive")
        self.shape_m = float(shape_m)
        self.mean_snr = float(mean_snr)

    def evaluate(self, s):
        s = np.asarray(s, dtype=float)
        return regularized_gamma_p(self.shape_m, self.shape_m * s / self.mean_snr)

    __call__ = evaluate


def draw_fading(spec: FadingSpec, rng: np.random.Generator, size=None):
    """Power gain |h|^2 ~ Gamma(shape=m, mean=mean_power); exponential for m=1."""
    return rng.gamma(spec.shape_m, spec.mean_power / spec.shape_m, size=size)


def uplink_tx_power(distance_m: float, config: SystemConfig) -> float:
    """Uplink transmit power that exactly inverts the path loss to hit the RX threshold."""
    if distance_m <= 0:
        raise ValueError("distance must be positive")
    return config.ul_rx_threshold_mw * distance_m ** config.pathloss_exp_cellular \
        / config.pathloss_const_cellular


def link_tx_power(link: LinkGeometry, config: SystemConfig) -> float:
    if link.kind == "cellular-downlink":
        return config.tx_power_dl_mw
    if link.kind == "d2d-direct":
        return config.tx_power_d2d_mw
    if link.kind == "cellular-uplink":
        return uplink_tx_power(link.distance_m, config)
    raise ValueError(f"unknown link kind {link.kind!r}")


def snr_of(tx_power_mw: float, path_gain: float, config: SystemConfig) -> float:
    """Mean SNR P_tx * g / noise of a transmit power over a path gain."""
    return tx_power_mw * path_gain / config.noise_power_mw


def mean_snr(link: LinkGeometry, config: SystemConfig) -> float:
    """Mean SNR of the link (fading averaged out): P_tx * g / noise."""
    return snr_of(link_tx_power(link, config), link.path_gain, config)


def snr_from_gain(link: LinkGeometry, config: SystemConfig, power_gain: float) -> float:
    """Deterministic SNR given a fading power gain; uplink compensation makes it
    distance-independent there."""
    return mean_snr(link, config) * power_gain


def analytic_snr_cdf(link: LinkGeometry, fading: FadingSpec, config: SystemConfig) -> GammaSnrCdf:
    """Exact CDF of snr_from_gain(link, config, draw_fading(fading, ...))."""
    return GammaSnrCdf(fading.shape_m, mean_snr(link, config) * fading.mean_power)
