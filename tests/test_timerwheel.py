"""Unit tests for the hierarchical timer wheel and the batched credit train
(repro.sim.timerwheel, repro.transports.credit_plane — DESIGN.md §6i)."""

import random

import pytest

from repro.net.packet import CREDIT_WIRE_BYTES
from repro.sim.engine import Simulator
from repro.sim.timerwheel import CoarseTimer, TimerWheel
from repro.sim.units import SECONDS
from repro.transports.credit_plane import CreditTrain


# ------------------------------------------------------------- the wheel


class TestTimerWheel:
    def test_fires_at_exact_deadline(self):
        """Wheel granularity must never round a firing time — a deadline
        mid-tick fires at that nanosecond, not at a tick boundary."""
        sim = Simulator()
        wheel = TimerWheel(sim)
        fired = []
        for delay in (123, 70_000, 65_536 * 3 + 17):
            wheel.arm(delay, lambda d=delay: fired.append((sim.now, d)))
        sim.run()
        assert fired == [(123, 123), (70_000, 70_000),
                         (65_536 * 3 + 17, 65_536 * 3 + 17)]

    def test_cancel_prevents_firing_without_engine_traffic(self):
        sim = Simulator()
        wheel = TimerWheel(sim)
        fired = []
        keep = wheel.arm(200_000, fired.append, "keep")
        drop = wheel.arm(200_001, fired.append, "drop")
        drop.cancel()
        drop.cancel()  # idempotent
        assert drop.cancelled and drop.fn is None and drop.args == ()
        assert wheel.pending() == 1
        sim.run()
        assert fired == ["keep"]
        assert wheel.fired_total == 1
        assert wheel.cancelled_total == 1
        assert not keep.cancelled  # fired timers are not "cancelled"

    def test_same_tick_deadline_bypasses_buckets(self):
        """A deadline inside the current tick can't wait for a bucket
        meta-event; it goes straight to the engine and still fires."""
        sim = Simulator()
        wheel = TimerWheel(sim)  # tick = 65_536 ns
        fired = []
        wheel.arm(5, fired.append, "now-ish")
        assert wheel.pending() == 0  # not filed: handed to the engine
        sim.run()
        assert fired == ["now-ish"] and sim.now == 5

    def test_hierarchical_cascade_preserves_exact_deadline(self):
        """A far deadline files coarse, cascades down level by level, and
        still fires at its exact instant."""
        sim = Simulator()
        wheel = TimerWheel(sim, tick_bits=4, level_bits=2, levels=3)
        fired = []
        # level spans: 16 ns, 64 ns, 256 ns — 1000 ns lands in level 2.
        wheel.arm(1000, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1000]
        assert wheel.cascades >= 1

    def test_firing_order_follows_deadlines(self):
        sim = Simulator()
        wheel = TimerWheel(sim, tick_bits=4, level_bits=2, levels=3)
        rng = random.Random(7)
        delays = [rng.randrange(1, 5000) for _ in range(200)]
        fired = []
        for d in delays:
            wheel.arm(d, fired.append, d)
        sim.run()
        assert fired == sorted(fired)
        assert wheel.fired_total == len(delays)
        assert wheel.pending() == 0

    def test_cancel_heavy_churn_costs_no_engine_events(self):
        """The RTO pattern: arm/cancel per packet. 500 churn cycles must
        add zero engine events beyond the tick meta-events."""
        sim = Simulator()
        wheel = TimerWheel(sim)
        for _ in range(500):
            wheel.arm(4_000_000, lambda: pytest.fail("cancelled timer fired")
                      ).cancel()
        survivor = []
        wheel.arm(4_000_123, survivor.append, True)
        sim.run()
        assert survivor == [True]
        assert sim.now == 4_000_123
        assert wheel.cancelled_total == 500
        # every cancelled timer was purged while draining its bucket
        assert wheel.pending() == 0

    def test_for_sim_returns_shared_instance(self):
        sim = Simulator()
        assert TimerWheel.for_sim(sim) is TimerWheel.for_sim(sim)
        assert TimerWheel.for_sim(Simulator()) is not TimerWheel.for_sim(sim)

    def test_rejects_negative_delay_and_bad_geometry(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            TimerWheel(sim).arm(-1, lambda: None)
        with pytest.raises(ValueError):
            TimerWheel(sim, tick_bits=-1)
        with pytest.raises(ValueError):
            TimerWheel(sim, levels=0)


# ----------------------------------------------------------- CoarseTimer


class TestCoarseTimer:
    def test_arm_fire_rearm_cancel(self):
        sim = Simulator()
        fired = []
        timer = CoarseTimer(sim)
        assert not timer.armed
        timer.arm(100, fired.append, "first")
        assert timer.armed
        # re-arm replaces the first deadline and the first callback
        timer.arm(200, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [200]
        assert not timer.armed
        timer.arm(300, fired.append, "cancelled")
        timer.cancel()
        timer.cancel()  # idempotent
        sim.run()
        assert fired == [200]

    def test_wheel_plane_uses_shared_wheel(self):
        sim = Simulator()
        timer = CoarseTimer(sim)
        timer.arm(1_000_000, lambda: None)
        assert TimerWheel.for_sim(sim).pending() == 1
        assert sim.pending() == 1  # the tick meta-event, not the timer

    def test_later_rearms_reuse_one_wheel_entry(self):
        """The RTO pattern: every ACK pushes the deadline out. 10 000
        re-arms file one wheel timer, which the wheel re-files each time a
        bucket it sits in drains, and which fires once, at the last
        deadline."""
        sim = Simulator()
        fired = []
        timer = CoarseTimer(sim)
        for i in range(10_000):
            sim.post_at(i * 100, timer.arm, 4_000_000, fired.append, i)
        sim.run()
        # the last arm's deadline and the last arm's callback
        assert fired == [9_999]
        assert sim.now == 9_999 * 100 + 4_000_000
        wheel = TimerWheel.for_sim(sim)
        assert wheel.armed_total == 1
        # its first (level-0) bucket drained before the deadline it holds
        assert wheel.cascades >= 1

    def test_earlier_rearm_fires_at_the_earlier_deadline(self):
        sim = Simulator()
        fired = []
        timer = CoarseTimer(sim)
        timer.arm(4_000_000, fired.append, "late")
        timer.arm(1_000_000, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1_000_000]
        assert TimerWheel.for_sim(sim).armed_total == 2

    def test_cancel_after_an_in_place_extension(self):
        sim = Simulator()
        timer = CoarseTimer(sim)
        timer.arm(1_000_000, pytest.fail, "cancelled timer fired")
        sim.post_at(500_000, timer.arm, 1_000_000, pytest.fail,
                    "cancelled timer fired")
        sim.post_at(900_000, timer.cancel)
        sim.run()
        assert not timer.armed
        assert TimerWheel.for_sim(sim).fired_total == 0

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("geometry", [None, (4, 2, 3)])
    def test_same_firings_as_cancel_and_file(self, seed, geometry):
        """Seeded random arm / re-arm / cancel / advance scripts over eight
        timers, against the parent's ``arm`` that cancels and files a new
        wheel timer every time: with distinct deadlines, the same timers
        fire at the same instants in the same order. The small geometry
        (16 / 64 / 256 ns ticks) sends moved timers through every level."""
        rng = random.Random(seed)
        scale = 1 if geometry else 5_000
        script, deadlines, now = [], set(), 0
        for _ in range(400):
            now += rng.randrange(0, 60) * scale
            which = rng.randrange(8)
            if rng.random() < 0.15:
                script.append((now, which, None))
                continue
            delay = rng.randrange(1, 1_500) * scale
            while now + delay in deadlines:
                delay += 1
            deadlines.add(now + delay)
            script.append((now, which, delay))

        def run(timer_cls):
            sim = Simulator()
            if geometry:
                sim._timer_wheel = TimerWheel(sim, *geometry)
            fired = []
            timers = [timer_cls(sim) for _ in range(8)]
            for at, which, delay in script:
                if delay is None:
                    sim.post_at(at, timers[which].cancel)
                else:
                    sim.post_at(at, timers[which].arm, delay,
                                lambda i=which: fired.append((sim.now, i)))
            sim.run()
            return fired

        got = run(CoarseTimer)
        assert got == run(CancelAndFileTimer)
        assert len(got) > 8


class CancelAndFileTimer(CoarseTimer):
    """``CoarseTimer.arm`` as it was before re-arms moved the filed
    deadline in place: always cancel, then file a new wheel timer."""

    __slots__ = ()

    def arm(self, delay: int, fn, *args) -> None:
        self.cancel()
        self._timer = self._wheel.arm(delay, fn, *args)


# ---------------------------------------------------------- credit plane


class TestCreditTrain:
    def test_draw_sequence_matches_scalar_oracle(self):
        """The batched train must replay one-draw-per-credit pacing bit
        for bit: same RNG, same order, same max(1, int(...)) pricing —
        across multiple BATCH refills."""
        seed = 1 * 2654435761 % (1 << 31)
        train = CreditTrain(random.Random(seed))
        oracle_rng = random.Random(seed)
        rate = 5e9
        base = CREDIT_WIRE_BYTES * 8 * SECONDS / rate
        n = CreditTrain.BATCH * 2 + 7
        got = [train.next_interval_ns(rate) for _ in range(n)]
        want = [max(1, int(base * oracle_rng.uniform(0.5, 1.5)))
                for _ in range(n)]
        assert got == want

    def test_rate_change_reprices_base_exactly(self):
        seed = 42
        train = CreditTrain(random.Random(seed))
        oracle_rng = random.Random(seed)
        intervals = []
        oracle = []
        for rate in (5e9, 5e9, 2.5e9, 2.5e9, 7.5e9):
            intervals.append(train.next_interval_ns(rate))
            base = CREDIT_WIRE_BYTES * 8 * SECONDS / rate
            oracle.append(max(1, int(base * oracle_rng.uniform(0.5, 1.5))))
        assert intervals == oracle
        # halving the rate doubles the base: later draws are repriced
        assert train._base_rate == 7.5e9
