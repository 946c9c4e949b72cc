"""Node battery-usage summaries, their compact uplink encoding, and the gateway.

Each node periodically summarizes its battery usage, and the gateway
(`gateway_compute_fleet_degradation`) rebuilds the whole fleet's
degradation from those summaries, through the same aging step the nodes
age their own packs by (`battery.age`).

Wire format (little-endian, fixed field order):

    offset  size  field
    0       2     node_id            uint16
    2       4     period_start_s     uint32 (whole seconds)
    6       4     period_end_s       uint32 (whole seconds)
    10      4     n_slots            uint32
    14      4     n_transmissions    uint32
    18      4     energy_consumed_j  float32
    22      4     mean_temp_sun_k    float32
    26      4     mean_temp_ecl_k    float32
    30      1     n_dod              uint8
    31      2*n   dod observations   uint16 each, dod * 65535 rounded

Nine observations cover a reporting period of eight 90-minute orbits plus
a trailing partial orbit; the packet is then 49 bytes, inside the 51-byte
uplink budget.

Range: `energy_consumed_j` saturates at the largest finite float32,
about 3.4e38 J; a pack whose retransmissions draw more sends that (the
gateway reads no energy).  `n_transmissions` counts the node's packets,
at most `config.MAX_ARRIVALS` (3e7).  Validation refuses a run whose
last period ends past MAX_UINT32 whole seconds, or whose report period
can hold more than MAX_UINT32 slots, so the period times and `n_slots`
always fit.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass

from .battery import BatteryState, DegradationParams, age

MAX_ENCODED_BYTES = 51
MAX_DOD_OBSERVATIONS = 9
MAX_NODE_ID = 0xFFFF
MAX_UINT32 = 0xFFFFFFFF
_DOD_SCALE = 65535.0

_HEADER = struct.Struct("<HIIIIfffB")
_FLOAT32_MAX = (2.0 - 2.0**-23) * 2.0**127


@dataclass(frozen=True)
class NodeBatteryReport:
    """One reporting period's battery usage, as sent to the gateway."""

    node_id: int
    period_start: float
    period_end: float
    n_slots: int
    n_transmissions: int
    energy_consumed_j: float
    dod_observations: tuple[float, ...]
    mean_temperature_sun_k: float
    mean_temperature_eclipse_k: float

    def __post_init__(self):
        if not self.period_start < self.period_end:
            raise ValueError(
                f"period start must precede end: [{self.period_start}, {self.period_end})"
            )
        if self.energy_consumed_j < 0:
            raise ValueError(f"energy consumed must be >= 0, got {self.energy_consumed_j}")
        if self.n_slots < 0 or self.n_transmissions < 0:
            raise ValueError("slot and transmission counts must be >= 0")
        for dod in self.dod_observations:
            if not 0.0 <= dod <= 1.0:
                raise ValueError(f"dod observation must be in [0, 1], got {dod}")
        object.__setattr__(self, "dod_observations", tuple(self.dod_observations))

    @property
    def period_days(self) -> float:
        return (self.period_end - self.period_start) / 86400.0


def encode_report(report: NodeBatteryReport) -> bytes:
    """Pack a report into its fixed-order little-endian uplink form."""
    n_dod = len(report.dod_observations)
    if n_dod > MAX_DOD_OBSERVATIONS:
        raise ValueError(
            f"report carries {n_dod} DoD observations; at most "
            f"{MAX_DOD_OBSERVATIONS} fit the uplink budget"
        )
    payload = _HEADER.pack(
        report.node_id,
        round(report.period_start),
        round(report.period_end),
        report.n_slots,
        report.n_transmissions,
        min(report.energy_consumed_j, _FLOAT32_MAX),
        report.mean_temperature_sun_k,
        report.mean_temperature_eclipse_k,
        n_dod,
    )
    payload += struct.pack(f"<{n_dod}H", *(round(d * _DOD_SCALE) for d in report.dod_observations))
    return payload


def decode_report(blob: bytes) -> NodeBatteryReport:
    """Inverse of encode_report, at the wire format's numeric precision."""
    (
        node_id,
        start,
        end,
        n_slots,
        n_tx,
        energy,
        t_sun,
        t_ecl,
        n_dod,
    ) = _HEADER.unpack_from(blob)
    dods = struct.unpack_from(f"<{n_dod}H", blob, _HEADER.size)
    return NodeBatteryReport(
        node_id=node_id,
        period_start=float(start),
        period_end=float(end),
        n_slots=n_slots,
        n_transmissions=n_tx,
        energy_consumed_j=energy,
        dod_observations=tuple(d / _DOD_SCALE for d in dods),
        mean_temperature_sun_k=t_sun,
        mean_temperature_eclipse_k=t_ecl,
    )


def gateway_compute_fleet_degradation(
    reports: list[NodeBatteryReport],
    params: DegradationParams,
    soc_reference: float,
    c_rate_reference: float,
    dod_reference: float,
) -> dict[int, BatteryState]:
    """Fold each node's reported usage summaries into a fresh pack state.

    Each report ages the state through `battery.age`: calendar aging over
    the report period at the reported sunlit-phase temperature and the
    configured reference SoC, and one cycle observation per DoD.  Each DoD
    observation covers one orbit's discharge; its equivalent cycle count is
    dod / dod_reference, the same fractional-cycle convention the nodes
    accrue by, so cycle aging agrees with the node's own figure.  Calendar
    aging does not quite: the gateway ages a node over its report periods,
    which cover the run, while the node ages over its settled whole slots,
    which stop short of the run end by up to two slots.  On a 40 s slot the
    fades differ by about 1.44e-11.  Overlapping report periods for one
    node are rejected.
    """
    out: dict[int, BatteryState] = {}
    ordered = sorted(reports, key=lambda r: (r.node_id, r.period_start))
    for node_id, node_reports in itertools.groupby(ordered, key=lambda r: r.node_id):
        state = out[node_id] = BatteryState()
        prev_end = -math.inf
        for r in node_reports:
            if r.period_start < prev_end:
                raise ValueError(
                    f"node {node_id}: report period starting at {r.period_start} "
                    f"overlaps the previous period ending at {prev_end}"
                )
            prev_end = r.period_end
            age(state, params, r.period_days, r.mean_temperature_sun_k, soc_reference,
                c_rate_reference, r.mean_temperature_eclipse_k,
                [(dod, dod / dod_reference) for dod in r.dod_observations])
    return out
