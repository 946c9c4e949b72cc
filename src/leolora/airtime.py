"""LoRa time-on-air, symbol counts, and per-packet transmit energy.

Reproduces the public chirp-spread-spectrum airtime calculation: a packet
occupies (preamble + 4.25 + payload symbols) symbol durations, with the
payload symbol count driven by spreading factor, bandwidth, coding rate,
header/CRC overhead, and the low-data-rate optimization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exceptions import ConfigError, bounded, check_bounds

VALID_BANDWIDTHS_HZ = (125_000, 250_000, 500_000)


@dataclass(frozen=True, kw_only=True)
class RadioConfig:
    """One LoRa transmit configuration.

    low_data_rate_optimize=None selects the conventional default: enabled
    for SF11/SF12 at 125 kHz, disabled otherwise.
    """

    spreading_factor: int = bounded(ge=7, le=12)
    bandwidth_hz: int = bounded(125_000, choices=VALID_BANDWIDTHS_HZ)
    coding_rate_denominator: int = bounded(5, ge=5, le=8)       # CR = 4/x
    preamble_symbols: int = bounded(8, ge=1)
    explicit_header: bool = bounded(True)
    crc_on: bool = bounded(True)
    low_data_rate_optimize: bool | None = bounded(None)
    payload_bytes: int = bounded(10, ge=1)
    tx_power_w: float = bounded(gt=0.0)

    def __post_init__(self):
        check_bounds(self)
        if self.low_data_rate_optimize is None:
            auto = self.spreading_factor >= 11 and self.bandwidth_hz == 125_000
            object.__setattr__(self, "low_data_rate_optimize", auto)


def symbol_duration(config: RadioConfig) -> float:
    """Duration of one chirp symbol: 2^SF / BW seconds."""
    return 2.0**config.spreading_factor / config.bandwidth_hz


def payload_symbols(config: RadioConfig) -> int:
    """Number of payload symbols following the preamble."""
    sf = config.spreading_factor
    de = 1 if config.low_data_rate_optimize else 0
    if sf - 2 * de <= 0:
        raise ConfigError(f"SF - 2*DE must be positive, got SF={sf}, DE={de}")
    crc = 1 if config.crc_on else 0
    ih = 0 if config.explicit_header else 1
    numer = 8 * config.payload_bytes - 4 * sf + 28 + 16 * crc - 20 * ih
    n_groups = math.ceil(numer / (4 * (sf - 2 * de)))
    return 8 + max(n_groups * config.coding_rate_denominator, 0)


def time_on_air(config: RadioConfig) -> float:
    """Seconds the packet occupies the channel."""
    return (config.preamble_symbols + 4.25 + payload_symbols(config)) * symbol_duration(config)


def tx_energy(config: RadioConfig) -> float:
    """Energy of one transmission attempt: time-on-air times TX power draw (J)."""
    return time_on_air(config) * config.tx_power_w
