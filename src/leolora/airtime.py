"""LoRa time-on-air, symbol counts, and per-packet transmit energy.

Reproduces the public chirp-spread-spectrum airtime calculation: a packet
occupies (preamble + 4.25 + payload symbols) symbol durations, with the
payload symbol count driven by spreading factor, bandwidth, coding rate,
header/CRC overhead, and the low-data-rate optimization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exceptions import ConfigError

VALID_BANDWIDTHS_HZ = (125_000, 250_000, 500_000)


@dataclass(frozen=True)
class RadioConfig:
    """One LoRa transmit configuration.

    low_data_rate_optimize=None selects the conventional default: enabled
    for SF11/SF12 at 125 kHz, disabled otherwise.
    """

    spreading_factor: int
    bandwidth_hz: int = 125_000
    coding_rate_denominator: int = 5       # CR = 4/x
    preamble_symbols: int = 8
    explicit_header: bool = True
    crc_on: bool = True
    low_data_rate_optimize: bool | None = None
    payload_bytes: int = 10
    tx_power_w: float = 0.4

    def __post_init__(self):
        if not 7 <= self.spreading_factor <= 12:
            raise ConfigError(f"spreading factor must be 7..12, got {self.spreading_factor}")
        if self.bandwidth_hz not in VALID_BANDWIDTHS_HZ:
            raise ConfigError(
                f"bandwidth must be one of {VALID_BANDWIDTHS_HZ}, got {self.bandwidth_hz}"
            )
        if not 5 <= self.coding_rate_denominator <= 8:
            raise ConfigError(
                f"coding rate denominator must be 5..8, got {self.coding_rate_denominator}"
            )
        if self.preamble_symbols < 1:
            raise ConfigError(f"preamble symbols must be >= 1, got {self.preamble_symbols}")
        if self.payload_bytes < 1:
            raise ConfigError(f"payload must be >= 1 byte, got {self.payload_bytes}")
        if not 0 < self.tx_power_w < math.inf:   # NaN fails too
            raise ConfigError(f"tx power must be finite and > 0 W, got {self.tx_power_w}")
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
