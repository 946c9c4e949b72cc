"""Chirp-spread-spectrum airtime against frozen values and the oracle grid."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from leolora.airtime import RadioConfig, payload_symbols, symbol_duration, time_on_air, tx_energy
from leolora.exceptions import ConfigError

from oracles import oracle_airtime

SF7 = RadioConfig(spreading_factor=7, bandwidth_hz=125_000, coding_rate_denominator=5,
                  payload_bytes=10, tx_power_w=0.4)
SF10 = RadioConfig(spreading_factor=10, bandwidth_hz=125_000, coding_rate_denominator=5,
                   payload_bytes=10, tx_power_w=0.4)


class TestSymbolDuration:
    def test_sf7_125k(self):
        assert symbol_duration(SF7) == pytest.approx(1.024e-3, rel=1e-12)

    def test_sf10_125k(self):
        assert symbol_duration(SF10) == pytest.approx(8.192e-3, rel=1e-12)

    def test_doubling_bandwidth_halves_duration(self):
        wide = RadioConfig(spreading_factor=10, bandwidth_hz=250_000, tx_power_w=0.4)
        assert symbol_duration(wide) == pytest.approx(symbol_duration(SF10) / 2.0, rel=1e-12)


class TestTimeOnAir:
    def test_sf7_reference(self):
        assert payload_symbols(SF7) == 28
        assert time_on_air(SF7) == pytest.approx(0.041216, rel=1e-9)

    def test_sf10_reference(self):
        assert payload_symbols(SF10) == 23
        assert time_on_air(SF10) == pytest.approx(0.288768, rel=1e-9)

    def test_monotone_in_spreading_factor(self):
        prev = 0.0
        for sf in range(7, 13):
            cfg = RadioConfig(spreading_factor=sf, bandwidth_hz=125_000, tx_power_w=0.4)
            toa = time_on_air(cfg)
            assert toa >= prev
            prev = toa

    @given(
        sf=st.integers(7, 12),
        bw=st.sampled_from([125_000, 250_000, 500_000]),
        cr=st.integers(5, 8),
        pl=st.integers(1, 222),
    )
    def test_monotone_in_payload_and_coding_rate(self, sf, bw, cr, pl):
        base = RadioConfig(spreading_factor=sf, bandwidth_hz=bw,
                           coding_rate_denominator=cr, payload_bytes=pl, tx_power_w=0.4)
        more_payload = RadioConfig(spreading_factor=sf, bandwidth_hz=bw,
                                   coding_rate_denominator=cr, payload_bytes=pl + 1,
                                   tx_power_w=0.4)
        assert time_on_air(more_payload) >= time_on_air(base)
        if cr < 8:
            denser = RadioConfig(spreading_factor=sf, bandwidth_hz=bw,
                                 coding_rate_denominator=cr + 1, payload_bytes=pl,
                                 tx_power_w=0.4)
            assert time_on_air(denser) >= time_on_air(base)

    def test_full_grid_matches_oracle(self):
        for sf in range(7, 13):
            for bw in (125_000, 250_000, 500_000):
                for cr in range(5, 9):
                    for pl in (1, 10, 51, 222):
                        cfg = RadioConfig(spreading_factor=sf, bandwidth_hz=bw,
                                          coding_rate_denominator=cr, payload_bytes=pl,
                                          tx_power_w=0.4)
                        expected = oracle_airtime(sf, bw, cr, pl)
                        assert time_on_air(cfg) == pytest.approx(expected, rel=5e-3)

    def test_low_data_rate_optimize_auto_policy(self):
        on = RadioConfig(spreading_factor=11, bandwidth_hz=125_000, tx_power_w=0.4)
        off = RadioConfig(spreading_factor=11, bandwidth_hz=250_000, tx_power_w=0.4)
        assert on.low_data_rate_optimize is True
        assert off.low_data_rate_optimize is False


class TestTxEnergy:
    def test_reference_product(self):
        assert tx_energy(SF10) == pytest.approx(0.11550719999999999, rel=1e-12)

    def test_energy_is_airtime_times_power(self):
        for cfg in (SF7, SF10):
            assert tx_energy(cfg) == time_on_air(cfg) * cfg.tx_power_w

    def test_energy_scales_with_payload_airtime(self):
        small = RadioConfig(spreading_factor=10, payload_bytes=10, tx_power_w=0.4)
        large = RadioConfig(spreading_factor=10, payload_bytes=100, tx_power_w=0.4)
        assert tx_energy(large) / tx_energy(small) == pytest.approx(
            time_on_air(large) / time_on_air(small), rel=1e-12
        )


class TestValidation:
    def test_bad_spreading_factor(self):
        with pytest.raises(ConfigError):
            RadioConfig(spreading_factor=6, tx_power_w=0.4)

    def test_bad_bandwidth(self):
        with pytest.raises(ConfigError):
            RadioConfig(spreading_factor=10, bandwidth_hz=100_000, tx_power_w=0.4)

    def test_zero_payload(self):
        with pytest.raises(ConfigError):
            RadioConfig(spreading_factor=10, payload_bytes=0, tx_power_w=0.4)

    def test_nonpositive_power(self):
        with pytest.raises(ConfigError):
            RadioConfig(spreading_factor=10, tx_power_w=0.0)

    @pytest.mark.parametrize("power", [float("inf"), float("nan")])
    def test_non_finite_power(self, power):
        with pytest.raises(ConfigError, match="finite"):
            RadioConfig(spreading_factor=10, tx_power_w=power)
