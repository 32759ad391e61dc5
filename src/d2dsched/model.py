"""Scenario configuration and user geometry.

All dB/dBm quantities live only in the config; everything downstream of the
config object works in linear units.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, fields

import numpy as np

from d2dsched.analytics import MAX_SHAPE

POLICIES = ("bcs", "cfs", "dfs", "gfs", "ecs", "pfs", "grr")


class ConfigError(ValueError):
    """Invalid or inconsistent scenario configuration."""


def _db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


@dataclass(frozen=True)
class SystemConfig:
    """All scenario parameters.  Defaults follow the standard simulation setup."""

    K1: int = 10                          # cellular users
    K2: int = 5                           # D2D pairs
    cell_radius_m: float = 1000.0
    d2d_min_m: float = 1.0
    d2d_max_m: float = 40.0
    pathloss_const_cellular_db: float = -31.0
    pathloss_const_d2d_db: float = -31.0
    pathloss_exp_cellular: float = 3.5
    pathloss_exp_d2d: float = 3.0
    noise_power_dbm: float = -100.0
    tx_power_dl_dbm: float = 30.0
    tx_power_d2d_dbm: float = 15.0
    ul_rx_threshold_dbm: float = -70.0
    fading_shape_m: float | tuple[float, ...] = 1.0   # global, or one entry per contender
    pf_time_const: float = 1000.0
    slots_per_realization: int = 10000
    spatial_realizations: int = 1
    rng_seed: int = 12345
    rate_log_base: float = 2.0            # 2 or math.e
    interference_radius_m: float = 300.0
    policy: str = "bcs"
    group_sizes: tuple[int, ...] | None = None   # fixed D2D grouping; None = greedy coloring
    mean_snr: tuple[float, ...] | None = None    # linear mean SNR per user: no geometry, K2 = 0

    def __post_init__(self):
        # numpy scalars as their Python values and float settings spelled as ints as
        # floats, so that equal configs digest alike; int settings must be ints
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.generic):
                value = value.item()
            elif isinstance(value, tuple):
                value = tuple(v.item() if isinstance(v, np.generic) else v for v in value)
            if f.type.startswith("float") and isinstance(value, int):
                value = float(value)
            if f.type == "int" and (isinstance(value, bool) or not isinstance(value, int)):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
            object.__setattr__(self, f.name, value)
        if not isinstance(self.fading_shape_m, float):
            self._store_tuple("fading_shape_m", "numbers")
        if self.group_sizes is not None:
            self._store_tuple("group_sizes", "integers")
        if self.mean_snr is not None:
            self._store_tuple("mean_snr", "numbers")
            if self.K2 != 0 or len(self.mean_snr) != self.K1:
                raise ConfigError(f"mean_snr needs K2 = 0 and one entry per user (K1 = {self.K1}), "
                                  f"got {len(self.mean_snr)} entries with K2 = {self.K2}")
            if not all(0.0 < v < math.inf for v in self.mean_snr):
                raise ConfigError(f"mean_snr entries must be positive and finite, "
                                  f"got {self.mean_snr!r}")
        if self.K1 < 0 or self.K2 < 0 or self.K1 + 2 * self.K2 < 1:
            raise ConfigError("need K1 >= 0, K2 >= 0 and at least one user")
        for f in fields(self):          # every float setting, each fading_shape_m entry too
            if f.type.startswith("float") and not np.all(np.isfinite(getattr(self, f.name))):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
        if not (0 < self.d2d_min_m < self.d2d_max_m < self.cell_radius_m):
            raise ConfigError("need 0 < d2d_min_m < d2d_max_m < cell_radius_m")
        if self.pathloss_exp_cellular <= 0 or self.pathloss_exp_d2d <= 0:
            raise ConfigError("pathloss_exp_cellular and pathloss_exp_d2d must be positive")
        for m in self.shapes_per_contender():
            if not 0.5 <= m <= MAX_SHAPE:
                raise ConfigError(f"fading_shape_m must lie in [0.5, {MAX_SHAPE:g}], "
                                  f"where the incomplete gamma converges, got {m:g}")
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown policy {self.policy!r}")
        if self.slots_per_realization < 1 or self.spatial_realizations < 1:
            raise ConfigError("slots_per_realization and spatial_realizations must be >= 1")
        if self.rng_seed < 0:
            raise ConfigError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if self.group_sizes is not None:
            if not self.group_sizes or any(s < 1 for s in self.group_sizes):
                raise ConfigError("group_sizes entries must be >= 1")
            if sum(self.group_sizes) != (self.K2 if self.mean_snr is None else self.K1):
                raise ConfigError("group_sizes must sum to K2, or to K1 with mean_snr")
        if self.rate_log_base <= 1.0:
            raise ConfigError("rate_log_base must be > 1")
        if self.pf_time_const < 1.0:
            raise ConfigError("pf_time_const must be >= 1")
        if self.interference_radius_m <= 0:
            raise ConfigError("interference_radius_m must be positive")

    def _store_tuple(self, key: str, entries: str) -> None:
        """Store a sequence of `entries` as its tuple, numbers as floats; else a
        ConfigError names key."""
        value, kinds = getattr(self, key), "iu" if entries == "integers" else "iuf"
        try:
            arr = np.asarray(value)
        except ValueError:                      # a ragged sequence
            arr = np.empty((0, 0))
        if arr.ndim != 1 or (arr.size and arr.dtype.kind not in kinds):
            raise ConfigError(f"{key} must be a 1-D sequence of {entries}, got {value!r}")
        if entries == "numbers":
            arr = arr.astype(float)
        object.__setattr__(self, key, tuple(arr.tolist()))

    # linear-scale views, converted once from dB/dBm on first use
    @functools.cached_property
    def pathloss_const_cellular(self) -> float:
        return _db_to_linear(self.pathloss_const_cellular_db)

    @functools.cached_property
    def pathloss_const_d2d(self) -> float:
        return _db_to_linear(self.pathloss_const_d2d_db)

    @functools.cached_property
    def noise_power_mw(self) -> float:
        return _db_to_linear(self.noise_power_dbm)

    @functools.cached_property
    def tx_power_dl_mw(self) -> float:
        return _db_to_linear(self.tx_power_dl_dbm)

    @functools.cached_property
    def tx_power_d2d_mw(self) -> float:
        return _db_to_linear(self.tx_power_d2d_dbm)

    @functools.cached_property
    def ul_rx_threshold_mw(self) -> float:
        return _db_to_linear(self.ul_rx_threshold_dbm)

    @property
    def n_users(self) -> int:
        return self.K1 + 2 * self.K2

    @property
    def n_contenders(self) -> int:
        return self.K1 + self.K2

    def shapes_per_contender(self) -> np.ndarray:
        """Nakagami shape per contender (K1 cellular, then K2 pairs)."""
        m = self.fading_shape_m
        if isinstance(m, tuple):
            if len(m) != self.n_contenders:
                raise ConfigError("fading_shape_m list must have K1 + K2 entries")
            return np.asarray(m, dtype=float)
        return np.full(self.n_contenders, float(m))

    @functools.cached_property
    def members(self) -> tuple[tuple[int, ...], ...]:
        """User ids per contender: each cellular user alone, then both devices of a
        pair, which share one direct channel."""
        return (tuple((k,) for k in range(self.K1))
                + tuple((self.K1 + 2 * p, self.K1 + 2 * p + 1) for p in range(self.K2)))

    def digest(self) -> str:
        # an unset mean_snr is left out, so geometric configs digest alike with or
        # without the key
        parts = [f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)
                 if f.name != "mean_snr" or self.mean_snr is not None]
        return hashlib.sha256(";".join(parts).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class SpatialRealization:
    """Sampled positions for one outer Monte Carlo iteration.

    Pair device positions are centroid +/- (D/2)(cos theta, sin theta);
    centroid angles are kept so pair-to-pair distances can be derived.
    """

    cellular_distances: np.ndarray      # (K1,) base-station distances
    pair_centroid_distances: np.ndarray  # (K2,)
    pair_centroid_angles: np.ndarray     # (K2,) angle of centroid seen from the BS
    pair_direct_distances: np.ndarray    # (K2,) device-to-device distance
    pair_angles: np.ndarray              # (K2,) orientation of the pair axis

    def centroid_xy(self) -> np.ndarray:
        """(K2, 2) Cartesian centroid positions."""
        return np.column_stack((
            self.pair_centroid_distances * np.cos(self.pair_centroid_angles),
            self.pair_centroid_distances * np.sin(self.pair_centroid_angles),
        ))


def sample_spatial(config: SystemConfig, rng: np.random.Generator) -> SpatialRealization:
    """Draw one spatial realization.

    Base-station distances follow the density 2d/R^2, sampled by inverse CDF
    d = R*sqrt(u); direct pair distances are uniform on [D_min, D_max]; all
    angles uniform on [0, 2pi).
    """
    R = config.cell_radius_m
    cell_d = R * np.sqrt(rng.random(config.K1))
    cen_d = R * np.sqrt(rng.random(config.K2))
    cen_a = rng.uniform(0.0, 2.0 * np.pi, config.K2)
    direct = rng.uniform(config.d2d_min_m, config.d2d_max_m, config.K2)
    ang = rng.uniform(0.0, 2.0 * np.pi, config.K2)
    return SpatialRealization(cell_d, cen_d, cen_a, direct, ang)


def power_law_gain(pathloss_const: float, pathloss_exp: float, distance_m: float) -> float:
    """Path gain C d^-eta of a link at a positive distance."""
    if distance_m <= 0:
        raise ConfigError("link distance must be positive")
    return pathloss_const * distance_m ** (-pathloss_exp)


@dataclass(frozen=True)
class LinkGeometry:
    """One transmitter-receiver link: the two numbers that fix its mean SNR."""

    tx_power_mw: float
    path_gain: float          # C d^-eta


def cellular_downlink(config: SystemConfig, distance_m: float) -> LinkGeometry:
    return LinkGeometry(config.tx_power_dl_mw, power_law_gain(
        config.pathloss_const_cellular, config.pathloss_exp_cellular, distance_m))


def cellular_uplink(config: SystemConfig, distance_m: float) -> LinkGeometry:
    """Uplink whose transmit power exactly inverts the path loss to hit the RX threshold."""
    gain = power_law_gain(config.pathloss_const_cellular, config.pathloss_exp_cellular, distance_m)
    return LinkGeometry(config.ul_rx_threshold_mw * distance_m ** config.pathloss_exp_cellular
                        / config.pathloss_const_cellular, gain)


def d2d_direct(config: SystemConfig, distance_m: float) -> LinkGeometry:
    return LinkGeometry(config.tx_power_d2d_mw, power_law_gain(
        config.pathloss_const_d2d, config.pathloss_exp_d2d, distance_m))


# ---------------------------------------------------------------------------
# flat key = value config files

def parse_setting(key: str, raw: str):
    """The value of one `key = raw` setting, of the type `SystemConfig` annotates
    the key with; a ConfigError names a bad key or value."""
    kind = next((f.type for f in fields(SystemConfig) if f.name == key), None)
    if kind is None:
        raise ConfigError(f"unknown key {key!r}")
    raw = raw.strip()
    try:
        if kind == "str":
            return raw
        if key in ("group_sizes", "mean_snr"):
            entry = int if key == "group_sizes" else float
            return None if raw.lower() in ("", "none") else tuple(entry(tok) for tok in raw.split(","))
        if key == "fading_shape_m":
            return tuple(float(tok) for tok in raw.split(",")) if "," in raw else float(raw)
        if key == "rate_log_base" and raw.lower() == "e":
            return math.e
        return int(raw) if kind == "int" else float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {raw!r}") from exc


def parse_config_text(text: str, overrides: dict[str, str] | None = None) -> SystemConfig:
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, raw = (tok.strip() for tok in line.split("=", 1))
        try:
            values[key] = parse_setting(key, raw)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    for key, raw in (overrides or {}).items():
        values[key] = parse_setting(key, str(raw))
    return SystemConfig(**values)


def load_config(path, overrides: dict[str, str] | None = None) -> SystemConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), overrides)
