"""Stored-energy balance and the EWMA estimator."""

import copy
import dataclasses
import math
from types import SimpleNamespace
from typing import NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from leolora.energy import (
    SLOTS_PER_BLOCK,
    HarvestModel,
    NodeEnergyState,
    NodeLedger,
    PowerProfile,
    SlotLaw,
    SlotTotals,
    _slot_terms,
    energy_step,
    ewma_update,
    settle_slots,
)
from leolora.exceptions import ConfigError, ContractError
from leolora.orbit import (
    ECLIPSE,
    SUN,
    OrbitConfig,
    sun_seconds,
    sunlit_seconds,
)

from conftest import bits, table_bits
from oracles import OracleSlot, oracle_slot

PROFILE = PowerProfile(e_cons_tx_j=5.0, e_sleep_j=1.0)
HARVEST = HarvestModel(e_g_sun_j_per_slot=10.0, charge_rate_limit_j_per_slot=100.0)
SLOT_S = 40.0


def fresh_state(phi=100.0, phi_max=200.0, phi_min=10.0, e_critical=20.0):
    return NodeEnergyState(phi_j=phi, phi_max_j=phi_max, phi_min_j=phi_min,
                           e_critical_j=e_critical)


def ledger(state, tx=None, totals=None, first=0, slot_s=SLOT_S, harvest=HARVEST,
           profile=PROFILE, law=None, sun_s=SLOT_S):
    """A ledger settled below slot `first`, on the run's `SlotLaw` unless one is given.

    Its grid starts at 0 and ends at 10^5 s.  Its orbit is sunlit throughout
    for sun_s = slot_s, and for sun_s = 0.0 is in eclipse up to 10^5 s; on
    the integer times of a 40 s grid, which only `settle_to` reads, every
    slot's sunlit seconds are exactly sun_s.
    """
    orbit = OrbitConfig(period_s=2e5, sun_duration_s=2e5 if sun_s else 1e5, altitude_m=550e3,
                        inclination_rad=0.9, phase_offset_rad=0.0 if sun_s else math.pi)
    book = NodeLedger.of(state, SlotLaw.of(slot_s, harvest, profile) if law is None else law,
                         orbit, 0.0, 1e5)
    return dataclasses.replace(book, totals=SlotTotals() if totals is None else totals,
                               tx={} if tx is None else tx, settled=first)


def step(state, tx_phase=None, sun_s=0.0, harvest=HARVEST, profile=PROFILE):
    """Settle one slot on fresh totals; its figures are what the totals took."""
    book = ledger(state, {0: tx_phase}, harvest=harvest, profile=profile)
    brownout = energy_step(book, [sun_s])
    totals = book.totals
    return OracleSlot(totals.harvested_j, totals.consumed_j, totals.orbit_discharge_j,
                      totals.clamp_total_j, brownout)


class TestEnergyStep:
    def test_sleep_only_drains_sleep_energy(self):
        state = fresh_state()
        slot = step(state)
        assert state.phi_j == pytest.approx(99.0)
        assert (slot.harvested_j, slot.consumed_j) == (0.0, 1.0)

    def test_harvest_and_transmit_one_step(self):
        state = fresh_state()
        slot = step(state, SUN, sun_s=SLOT_S)
        assert state.phi_j == pytest.approx(105.0)
        assert (slot.harvested_j, slot.consumed_j) == (10.0, 5.0)

    def test_partial_sun_harvests_its_fraction(self):
        state = fresh_state()
        slot = step(state, sun_s=10.0)
        assert slot.harvested_j == pytest.approx(2.5)
        assert state.phi_j == pytest.approx(101.5)

    def test_no_harvest_without_sunlight(self):
        harvest = HarvestModel(e_g_sun_j_per_slot=1e6, charge_rate_limit_j_per_slot=1e6)
        for tx_phase in (None, SUN, ECLIPSE):
            assert step(fresh_state(), tx_phase, sun_s=0.0, harvest=harvest).harvested_j == 0.0

    def test_zero_everything_is_identity(self):
        profile = PowerProfile(e_cons_tx_j=1e-12, e_sleep_j=0.0)
        state = fresh_state()
        step(state, profile=profile)
        assert state.phi_j == 100.0

    def test_brownout_clamps_at_zero_and_reports(self):
        state = fresh_state(phi=0.5)
        slot = step(state)
        assert slot.brownout
        assert state.phi_j == 0.0
        assert slot.clamp_j == pytest.approx(0.5)

    def test_clamp_at_capacity(self):
        state = fresh_state(phi=199.5)
        slot = step(state, sun_s=SLOT_S)
        assert not slot.brownout
        assert state.phi_j == 200.0
        assert slot.clamp_j == pytest.approx(-8.5)

    def test_bad_decision_variables_rejected(self):
        with pytest.raises(ValueError):
            step(fresh_state(), "dusk")
        with pytest.raises(ValueError):
            settle_slots(ledger(fresh_state(), {0: "dusk"}), [0.0])

    @given(
        phi=st.floats(0.0, 200.0),
        tx_phase=st.sampled_from([None, SUN, ECLIPSE]),
        sun_s=st.floats(0.0, SLOT_S),
        e_g_sun=st.floats(0.0, 50.0),
    )
    def test_phi_stays_in_bounds_and_slot_balance_closes(self, phi, tx_phase, sun_s, e_g_sun):
        state = fresh_state(phi=phi)
        harvest = HarvestModel(e_g_sun_j_per_slot=e_g_sun, charge_rate_limit_j_per_slot=30.0)
        slot = step(state, tx_phase, sun_s, harvest=harvest)
        assert 0.0 <= state.phi_j <= state.phi_max_j
        assert state.phi_j == pytest.approx(
            phi + slot.harvested_j - slot.consumed_j + slot.clamp_j, abs=1e-12
        )
        x = 0 if tx_phase is None else 1
        assert slot.consumed_j == x * PROFILE.e_cons_tx_j + (1 - x) * PROFILE.e_sleep_j
        if sun_s == 0.0:
            assert slot.harvested_j == 0.0
        assert slot.discharge_j >= 0.0


class SlotRun(NamedTuple):
    """A node's state and totals, and a walk over slots first .. first + n - 1 of its grid."""

    state: NodeEnergyState
    totals: SlotTotals
    orbit: OrbitConfig
    offset: float
    first: int
    phases: list        # the transmit phase of each slot of the walk (None: asleep)
    sun_s: list         # the sunlit seconds of each slot of the walk
    slot_s: float
    harvest: HarvestModel
    profile: PowerProfile

    def tx(self, lo=0, hi=None) -> dict:
        """The {slot: phase} transmit map of the walk's slots lo .. hi - 1, by walk index."""
        return {self.first + i: p for i, p in enumerate(self.phases[lo:hi], lo) if p is not None}


@st.composite
def slot_runs(draw):
    """A node's state, totals and a walk over slots of its grid.

    The slot grid starts at an offset that is not a whole number.  Half
    the walks are short, up to 40 slots on an orbit of 2 to 12 slots'
    period, which puts sunrises and sunsets inside slots, so they mix
    sunlit, eclipsed and partly sunlit slots.  Half are long, 100 to 600
    slots on an orbit of 20 to 80 slots' period: runs of tens of equal
    whole slots, over which a walk holds one slot's terms and, in
    oversupplied sunlight, clamps at phi_max slot after slot.  A walk books
    no slot (an empty map), books slots at random, or books the first or
    last slots of runs of equal sunlit seconds.
    """
    slot_s = draw(st.floats(5.0, 90.0))
    long = draw(st.booleans())
    lo, hi = (20.0, 80.0) if long else (2.0, 12.0)
    period = draw(st.floats(lo * slot_s, hi * slot_s))
    orbit = OrbitConfig(period_s=period, sun_duration_s=draw(st.floats(0.1, 1.0)) * period,
                        altitude_m=550e3, inclination_rad=0.9,
                        phase_offset_rad=draw(st.floats(0.0, 6.28)))
    offset = draw(st.floats(0.0, slot_s, exclude_max=True))
    first = draw(st.integers(0, 5000))
    n = draw(st.integers(100, 600) if long else st.integers(0, 40))
    # a long walk's draw is lighter, so that more of them end without a brownout
    e_sleep = draw(st.floats(0.0, 0.5 if long else 5.0))
    profile = PowerProfile(e_cons_tx_j=e_sleep + draw(st.floats(0.01, 20.0)), e_sleep_j=e_sleep)
    # up to ten times the transmit draw: sunlit runs clamp at phi_max
    harvest = HarvestModel(e_g_sun_j_per_slot=draw(st.floats(0.0, 10.0 * profile.e_cons_tx_j)),
                           charge_rate_limit_j_per_slot=draw(st.floats(0.0, 300.0)))
    phi_max = draw(st.floats(20.0, 500.0))
    state = fresh_state(phi=draw(st.just(1.0) | st.floats(0.0, 1.0)) * phi_max, phi_max=phi_max)
    totals = SlotTotals(*(draw(st.floats(0.0, 1e6)) for _ in range(3)), draw(st.integers(0, 99)),
                        *(draw(st.floats(0.0, 1e6)) for _ in range(2)), draw(st.integers(0, 99)),
                        -draw(st.floats(0.0, 1e4)))
    sun_s = sunlit_seconds(orbit, [offset + k * slot_s for k in range(first, first + n + 1)])
    booking = draw(st.sampled_from(["none", "random", "run edges"]))
    if booking == "random":
        phases = draw(st.lists(st.sampled_from([None] * (18 if long else 2) + [SUN, ECLIPSE]),
                               min_size=n, max_size=n))
    else:
        phases = [None] * n
    if booking == "run edges":
        for i in range(n):
            if not (0 < i < n - 1 and sun_s[i - 1] == sun_s[i] == sun_s[i + 1]):
                phases[i] = draw(st.sampled_from([None, SUN, ECLIPSE]))
    return SlotRun(state, totals, orbit, offset, first, phases, sun_s, slot_s, harvest, profile)


def walk(run, state, totals, tx, lo=0, hi=None, law=None):
    """Walk slots lo .. hi - 1 of the run (by walk index), lazily, on the given state and map.

    The walk runs on the run's `SlotLaw` unless given one, and must move
    the ledger's settled index past its slots.
    """
    book = ledger(state, tx, totals, run.first + lo, run.slot_s, run.harvest, run.profile, law)
    brownout = settle_slots(book, iter(run.sun_s[lo:hi]))
    assert book.settled == run.first + (len(run.sun_s) if hi is None else hi)
    return brownout


class TestSettleSlots:
    """`settle_slots` is `oracle_slot` slot by slot, bit for bit, up to a brownout."""

    @given(slot_runs(), st.data())
    def test_batch_equals_slot_by_slot(self, run, data):
        """Two consecutive walks that share one map, split anywhere, are one slot loop.

        A walk returns its last slot's brownout; a brownout before that
        raises and leaves state and totals as they were.
        """
        state, totals = run.state, run.totals
        split = data.draw(st.integers(0, len(run.phases)))
        tx = run.tx()
        for lo, hi in ((0, split), (split, None)):
            ref_state, ref_totals = copy.copy(state), copy.copy(totals)
            slots = [oracle_slot(ref_state, ref_totals, tx_phase, s, run.slot_s, run.harvest,
                                 run.profile)
                     for tx_phase, s in zip(run.phases[lo:hi], run.sun_s[lo:hi])]
            if any(slot.brownout for slot in slots[:-1]):
                before = bits(state), bits(totals)
                with pytest.raises(ContractError):
                    walk(run, state, totals, tx, lo, hi)
                assert (bits(state), bits(totals)) == before
                return
            brownout = walk(run, state, totals, tx, lo, hi)
            assert brownout == (bool(slots) and slots[-1].brownout)
            assert bits(state) == bits(ref_state)
            assert bits(totals) == bits(ref_totals)

    @given(slot_runs(), st.data())
    def test_split_walks_over_one_map_equal_one_walk(self, run, data):
        """Two walks sharing one map, split anywhere, end where one walk does.

        The map also books slots below and above the walk, which every walk
        leaves as they are, while it pops its own slots' phases.  Where the
        one walk raises (a brownout before its last slot), so does a part,
        unless that brownout is the first part's last slot, which that part
        returns; a raise changes neither state nor totals.
        """
        n = len(run.phases)
        split = data.draw(st.integers(0, n))
        outside = data.draw(st.dictionaries(st.integers(-50, -1) | st.integers(n, n + 50),
                                            st.sampled_from([SUN, ECLIPSE])))
        left = {run.first + i: phase for i, phase in outside.items()}
        one_state, one_totals, one_tx = copy.copy(run.state), copy.copy(run.totals), run.tx() | left
        try:
            one = walk(run, one_state, one_totals, one_tx)
            assert one_tx == left
        except ContractError:
            one = None
        state, totals, tx = run.state, run.totals, run.tx() | left
        brownouts = []
        for lo, hi in ((0, split), (split, None)):
            before = bits(state), bits(totals)
            try:
                brownouts.append(walk(run, state, totals, tx, lo, hi))
            except ContractError:
                assert one is None
                assert (bits(state), bits(totals)) == before
                return
            assert tx == run.tx(n if hi is None else hi) | left   # the bookings not yet walked
            if brownouts[-1] and hi == split < n:
                assert one is None   # a brownout before the one walk's last slot
                return
        # the last slot is the second part's, unless that part is empty
        assert brownouts[split < n] == one
        assert (bits(state), bits(totals)) == (bits(one_state), bits(one_totals))

    @given(slot_runs(), st.data())
    def test_a_one_slot_tick_is_the_slot_law_on_its_own_sunlit_seconds(self, run, data):
        """`energy_step` over slots k .. k is `oracle_slot` on the sunlit seconds of slot k."""
        phase = data.draw(st.sampled_from([None, SUN, ECLIPSE]))
        k, slot_s = run.first, run.slot_s
        sun = sun_seconds(run.orbit, run.offset + k * slot_s, run.offset + (k + 1) * slot_s)
        ref_state, ref_totals = copy.copy(run.state), copy.copy(run.totals)
        slot = oracle_slot(ref_state, ref_totals, phase, sun, slot_s, run.harvest, run.profile)
        book = ledger(run.state, {k: phase}, run.totals, k, slot_s, run.harvest, run.profile)
        brownout = energy_step(book, sunlit_seconds(run.orbit, (run.offset + k * slot_s,
                                                                run.offset + (k + 1) * slot_s)))
        assert brownout == slot.brownout
        assert (bits(run.state), bits(run.totals)) == (bits(ref_state), bits(ref_totals))

    def test_clamps_at_capacity_are_counted(self):
        state, totals = fresh_state(phi=195.0), SlotTotals()
        assert not settle_slots(ledger(state, totals=totals), [SLOT_S] * 3)
        assert state.phi_j == 200.0
        assert (totals.clamp_count, totals.clamp_total_j) == (3, -(4.0 + 9.0 + 9.0))
        assert (totals.period_slots, totals.orbit_s) == (3, 3 * SLOT_S)

    def test_a_brownout_in_the_last_slot_is_returned(self):
        # 6 J less 5 J leaves 1 J, and the second transmit overdraws it by 4 J
        state, totals = fresh_state(phi=6.0), SlotTotals()
        assert settle_slots(ledger(state, {0: ECLIPSE, 1: ECLIPSE}, totals), [0.0, 0.0])
        assert state.phi_j == 0.0
        assert (totals.clamp_count, totals.clamp_total_j) == (1, 4.0)
        assert totals.period_slots == 2

    def test_a_brownout_before_the_last_slot_is_a_broken_contract(self):
        state, totals = fresh_state(phi=6.0), SlotTotals(harvested_j=3.0, period_slots=7)
        before = bits(state), bits(totals)
        book = ledger(state, {0: ECLIPSE, 1: ECLIPSE}, totals)
        with pytest.raises(ContractError):
            settle_slots(book, [0.0, 0.0, 0.0])
        assert (bits(state), bits(totals), book.settled) == (*before, 0)


class TestSlotTotals:
    def test_close_period_hands_over_the_period_and_restarts_it(self):
        totals = SlotTotals(3.0, 4.0, 2.5, 7, 80.0, 1.5, 1, 0.5, 1, 2, [0.1, 0.2])
        assert totals.close_period() == (7, 2, 2.5, (0.1, 0.2))
        # the run and orbit sums stay; only the period restarts
        assert bits(totals) == bits(SlotTotals(3.0, 4.0, 0.0, 0, 80.0, 1.5, 1, 0.5, 1, 0, []))
        assert totals.close_period() == (0, 0, 0.0, ())



class TestTermTable:
    """The run's whole-slot terms, made once and only read."""

    WHOLE_SLOTS = {(p, s) for p in (None, SUN, ECLIPSE) for s in (0.0, SLOT_S)}

    def test_the_table_holds_the_six_whole_slot_keys_with_the_slot_terms_bits(self):
        table = SlotLaw.of(SLOT_S, HARVEST, PROFILE).table
        assert set(table) == self.WHOLE_SLOTS
        for (tx_phase, sun_s), terms in table.items():
            harvested, consumed, discharge = _slot_terms(tx_phase, sun_s, SLOT_S, HARVEST, PROFILE)
            want = (harvested, consumed, discharge, harvested - consumed)
            assert tuple(t.hex() for t in terms) == tuple(t.hex() for t in want)
            # a slot wholly in eclipse may read -0.0: the same key, and the same terms
            if sun_s == 0.0:
                assert table[tx_phase, -0.0] is terms
                signed = _slot_terms(tx_phase, -0.0, SLOT_S, HARVEST, PROFILE)
                assert tuple(t.hex() for t in signed) == tuple(t.hex() for t in want[:3])

    def test_no_walk_writes_the_table(self):
        # whole and partly sunlit slots, booked and idle, and a -0.0
        law = SlotLaw.of(SLOT_S, HARVEST, PROFILE)
        table = law.table
        before = table_bits(table)
        book = ledger(fresh_state(), {1: SUN, 3: ECLIPSE, 5: SUN}, law=law)
        settle_slots(book, [0.0, SLOT_S, 12.5, -0.0, SLOT_S, 7.0, 7.0])
        energy_step(book, [SLOT_S, 0.5])
        assert table_bits(table) == before


class TestNodeLedger:
    @staticmethod
    def flushed(phi, phi_max, totals, new_phi_max):
        """The fade clamp as `Simulator._flush_orbit` made it: (clamp figures, phi, phi_max)."""
        energy = fresh_state(phi=phi, phi_max=phi_max)
        if energy.phi_j > new_phi_max:
            totals.clamp_count += 1
            totals.clamp_total_j += new_phi_max - energy.phi_j
            energy.phi_j = new_phi_max
        energy.phi_max_j = new_phi_max
        return totals.clamp_count, totals.clamp_total_j.hex(), energy.phi_j, energy.phi_max_j

    @pytest.mark.parametrize("new_phi_max", [150.1, 150.3, 180.7])   # below, at and above phi
    def test_refit_is_the_fade_clamp_bit_for_bit(self, new_phi_max):
        phi, phi_max = 150.3, 200.0
        want = self.flushed(phi, phi_max, SlotTotals(clamp_count=4, clamp_total_j=-0.7),
                            new_phi_max)
        book = ledger(fresh_state(phi=phi, phi_max=phi_max),
                      totals=SlotTotals(clamp_count=4, clamp_total_j=-0.7))
        book.refit(new_phi_max)
        got = (book.totals.clamp_count, book.totals.clamp_total_j.hex(), book.energy.phi_j,
               book.energy.phi_max_j)
        assert got == want
        assert book.totals.clamp_count == (5 if new_phi_max < phi else 4)

    def test_a_settle_drops_a_booking_on_the_sleep_slot_and_nowhere_else(self):
        # 6 J: slot 0's transmit leaves 1 J and slot 1's browns out, so slot 2 sleeps
        book = ledger(fresh_state(phi=6.0), {0: ECLIPSE, 1: ECLIPSE}, sun_s=0.0)
        assert book.settle_to(2, True)
        assert (book.sleep_slot, book.settled, book.energy.phi_j) == (2, 2, 0.0)
        for k, phase in ((2, SUN), (3, ECLIPSE), (5, SUN)):
            book.book(book.slot_time(k), phase)
        book.energy.phi_j = 100.0
        assert not book.settle_to(3, True)   # slot 2 draws as asleep
        assert (book.tx, book.totals.consumed_j) == ({3: ECLIPSE, 5: SUN}, 5.0 + 5.0 + 1.0)
        assert not book.settle_to(5, False)   # slot 3 transmits, slot 4 sleeps
        assert (book.tx, book.totals.consumed_j) == ({5: SUN}, 11.0 + 5.0 + 1.0)
        assert book.sleep_slot == 2

    def test_walks_across_a_block_edge_and_a_sunset_take_each_slot_s_sunlit_seconds(
            self, energy_spy):
        # walks to slots 250, 253, 255, 257 (across the block edge at 256),
        # 259 and 263, with the sunset at 10333.3 s inside slot 258; the spy
        # checks each slot's sunlit seconds against `oracle_sun_seconds` on
        # the ledger's grid and each walk against `oracle_slot`, bit for bit
        orbit = OrbitConfig(period_s=20000.0, sun_duration_s=10333.3, altitude_m=550e3,
                            inclination_rad=0.9)
        book = NodeLedger.of(fresh_state(), SlotLaw.of(SLOT_S, HARVEST, PROFILE), orbit, 7.5,
                             2e4)
        assert not book.settle_to(250, False)
        for k, phase in ((251, SUN), (255, ECLIPSE), (256, SUN), (258, ECLIPSE)):
            book.book(book.slot_time(k) + 1.0, phase)
        for upto, tick in ((253, True), (255, False), (257, True), (259, False), (263, True)):
            assert not book.settle_to(upto, tick)
        rows = energy_spy(SimpleNamespace(ledger=book))
        assert len(rows) == book.settled == 263 and not book.tx
        suns = [sun_s for _, sun_s, _, _ in rows[250:]]
        assert suns[:8] == [SLOT_S] * 8 and 0.0 < suns[8] < SLOT_S and suns[9:] == [0.0] * 4
        assert [phase for phase, *_ in rows[250:]] == [
            None, SUN, None, None, None, ECLIPSE, SUN, None, ECLIPSE, None, None, None, None]

    def test_a_settle_to_a_tick_already_reached_walks_nothing(self):
        book = ledger(fresh_state(), {3: SUN}, first=4)
        before = bits(book.energy), bits(book.totals)
        assert not book.settle_to(4, False) and not book.settle_to(2, True)
        after = bits(book.energy), bits(book.totals), book.settled, book.tx
        assert after == (*before, 4, {3: SUN})

    def test_unbook_removes_only_its_own_key(self):
        book = ledger(fresh_state(), {3: SUN, 4: ECLIPSE})
        book.unbook(book.slot_time(3))
        book.unbook(book.slot_time(7))   # no booking: nothing to take back
        assert book.tx == {4: ECLIPSE}
        book.book(book.slot_time(6), SUN)
        book.unbook(book.slot_time(4))
        assert book.tx == {6: SUN}

    @given(phi=st.floats(0.0, 200.0), settled=st.integers(0, 10**6),
           e_cons=st.floats(1.0, 300.0))
    def test_the_guard_is_the_settled_slots_and_the_transmits_phi_can_pay(self, phi, settled,
                                                                          e_cons):
        profile = PowerProfile(e_cons_tx_j=e_cons, e_sleep_j=0.5)
        book = ledger(fresh_state(phi=phi), first=settled, profile=profile)
        assert book.guard() == settled + max(1, int(phi // e_cons))


class TestDischarge:
    """The slot's battery discharge, which feeds the orbit ledger."""

    BUS_W = PROFILE.e_sleep_j / SLOT_S

    def test_eclipse_sleep_discharges_sleep_draw(self):
        assert step(fresh_state()).discharge_j == pytest.approx(PROFILE.e_sleep_j, rel=1e-15)

    def test_sunlit_slot_with_harvest_above_bus_draw_discharges_nothing(self):
        assert step(fresh_state(), sun_s=SLOT_S).discharge_j == 0.0

    def test_sunlit_shortfall_discharges_its_gap(self):
        harvest = HarvestModel(e_g_sun_j_per_slot=0.4, charge_rate_limit_j_per_slot=100.0)
        harvest_w = 0.4 / SLOT_S   # below the bus draw in every sunlit second
        full = step(fresh_state(), sun_s=SLOT_S, harvest=harvest).discharge_j
        assert full == pytest.approx((self.BUS_W - harvest_w) * SLOT_S, rel=1e-12)
        # a partly sunlit slot also draws the bus through its eclipse seconds
        part = step(fresh_state(), sun_s=10.0, harvest=harvest).discharge_j
        want = self.BUS_W * (SLOT_S - 10.0) + (self.BUS_W - harvest_w) * 10.0
        assert part == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("sun_s", [0.0, 10.0, SLOT_S])
    def test_eclipse_transmit_adds_its_extra_draw(self, sun_s):
        sleep = step(fresh_state(), None, sun_s).discharge_j
        eclipse_tx = step(fresh_state(), ECLIPSE, sun_s).discharge_j
        assert eclipse_tx - sleep == pytest.approx(PROFILE.e_cons_tx_j - PROFILE.e_sleep_j)

    @pytest.mark.parametrize("sun_s", [0.0, 10.0, SLOT_S])
    def test_sun_transmit_adds_nothing(self, sun_s):
        sleep = step(fresh_state(), None, sun_s).discharge_j
        assert step(fresh_state(), SUN, sun_s).discharge_j == sleep


class TestEwma:
    def test_full_weight_on_new_sample(self):
        assert ewma_update(1.0, 10.0, 20.0) == 10.0

    def test_full_weight_on_history(self):
        assert ewma_update(0.0, 10.0, 20.0) == 20.0

    def test_reference_step(self):
        assert ewma_update(0.3, 10.0, 20.0) == pytest.approx(17.0, rel=1e-15)

    def test_beta_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            ewma_update(1.5, 10.0, 20.0)
        with pytest.raises(ConfigError):
            ewma_update(-0.1, 10.0, 20.0)

    def test_geometric_convergence(self):
        beta, target, est = 0.05, 10.0, 20.0
        for t in range(1, 101):
            est = ewma_update(beta, target, est)
            expected = (1.0 - beta) ** t * 10.0
            assert abs(est - target) == pytest.approx(expected, rel=1e-12)

    @given(
        beta=st.floats(0.0, 1.0),
        prev=st.floats(0.0, 1e6),
        sample=st.floats(0.0, 1e6),
    )
    def test_output_between_inputs(self, beta, prev, sample):
        out = ewma_update(beta, sample, prev)
        assert min(prev, sample) - 1e-9 <= out <= max(prev, sample) + 1e-9


class TestTypes:
    def test_power_profile_ordering_enforced(self):
        with pytest.raises(ValueError):
            PowerProfile(e_cons_tx_j=1.0, e_sleep_j=2.0)
        with pytest.raises(ValueError):
            PowerProfile(e_cons_tx_j=1.0, e_sleep_j=-0.1)

    def test_state_bounds_enforced(self):
        with pytest.raises(ValueError):
            NodeEnergyState(phi_j=300.0, phi_max_j=200.0, phi_min_j=10.0, e_critical_j=0.0)
        with pytest.raises(ValueError):
            NodeEnergyState(phi_j=100.0, phi_max_j=200.0, phi_min_j=200.0, e_critical_j=0.0)

    def test_negative_harvest_rejected(self):
        with pytest.raises(ValueError):
            HarvestModel(e_g_sun_j_per_slot=-1.0, charge_rate_limit_j_per_slot=1.0)
