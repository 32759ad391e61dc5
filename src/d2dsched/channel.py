"""The per-user SNR CDF the policies consume and the mean SNR of a link."""

from __future__ import annotations

import numpy as np

from d2dsched.analytics import regularized_gamma_p
from d2dsched.model import LinkGeometry, SystemConfig


class GammaSnrCdf:
    """Exact SNR CDF for a power-law link with unit-mean Gamma fading.

    SNR = mean_snr * G with G ~ Gamma(shape=m, mean=1), so
    F(s) = P(m, m s / mean_snr), the regularized lower incomplete gamma.
    """

    def __init__(self, shape_m: float, mean_snr: float):
        if not 0.5 <= shape_m < np.inf:
            raise ValueError(f"shape_m must be finite and >= 0.5, got {shape_m!r}")
        if not 0.0 < mean_snr < np.inf:
            raise ValueError(f"mean_snr must be positive and finite, got {mean_snr!r}")
        self.shape_m = float(shape_m)
        self.mean_snr = float(mean_snr)

    def evaluate(self, s):
        s = np.asarray(s, dtype=float)
        return regularized_gamma_p(self.shape_m, self.shape_m * s / self.mean_snr)

    __call__ = evaluate


def snr_of(tx_power_mw: float, path_gain: float, config: SystemConfig) -> float:
    """Mean SNR P_tx * g / noise of a transmit power over a path gain."""
    return tx_power_mw * path_gain / config.noise_power_mw


def mean_snr(link: LinkGeometry, config: SystemConfig) -> float:
    """Mean SNR of the link (fading averaged out): P_tx * g / noise."""
    return snr_of(link.tx_power_mw, link.path_gain, config)
