"""The per-user SNR CDF the policies consume and the mean SNR of a link."""

from __future__ import annotations

import numpy as np

from d2dsched.analytics import regularized_gamma_p, regularized_gamma_p_inv
from d2dsched.model import LinkGeometry, SystemConfig


class GammaSnrCdf:
    """Exact SNR CDF for a power-law link with unit-mean Gamma fading.

    SNR = mean_snr * G with G ~ Gamma(shape=m, mean=1), so
    F(s) = P(m, m s / mean_snr), the regularized lower incomplete gamma, and
    its p-quantile is mean_snr / m * P^-1(m, p) in closed form.
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

    def quantile(self, p):
        """The SNR s with F(s) = p, for p in [0, 1]; a scalar p gives a Python float."""
        return self.mean_snr / self.shape_m * regularized_gamma_p_inv(self.shape_m, p)


def mean_snr(link: LinkGeometry, config: SystemConfig) -> float:
    """Mean SNR of the link (fading averaged out): P_tx * g / noise."""
    return link.tx_power_mw * link.path_gain / config.noise_power_mw
