"""Battery-lifespan-aware LoRaWAN MAC simulation for LEO satellites."""

from .airtime import RadioConfig, symbol_duration, time_on_air, tx_energy
from .battery import (
    BatteryState,
    CycleStress,
    DegradationParams,
    ThermalProfile,
    arrhenius_factor,
    calendar_aging,
    cycle_aging,
    degradation_impact_factor,
    linear_degradation,
    run_degradation_curve,
    sei_capacity_fade,
    step_battery_per_orbit,
)
from .config import ScenarioConfig, default_scenario, load_scenario, parse_scenario
from .energy import HarvestModel, NodeEnergyState, PowerProfile, ewma_update
from .engine import Simulator, run
from .exceptions import ConfigError, ContractError, ValidationError
from .mac import (
    DropReason,
    MacConfig,
    TxDecision,
    collides,
    run_transmission_sequence,
    select_forecast_window,
)
from .orbit import (
    ForecastWindow,
    GroundStation,
    OrbitConfig,
    Schedule,
    build_schedule,
    phase_at,
    sun_seconds,
)
from .report import (
    NodeBatteryReport,
    decode_report,
    encode_report,
    gateway_compute_fleet_degradation,
)

__version__ = "0.1.0"
