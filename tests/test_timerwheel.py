"""Unit tests for the coarse timers and the batched credit train
(repro.sim.timerwheel, repro.transports.credit_plane — DESIGN.md §6i)."""

import math
import random

import pytest

from repro.net.packet import CREDIT_WIRE_BYTES
from repro.sim.engine import Simulator
from repro.sim.timerwheel import HOP_NS, CoarseTimer, TimerWheel
from repro.sim.units import SECONDS
from repro.transports.credit_plane import CreditTrain


# ------------------------------------------------------------- the wheel


class TestTimerWheel:
    def test_fires_at_exact_deadline(self):
        """A hop never rounds a firing time: a deadline several hops out
        fires at that nanosecond, not at a hop instant."""
        sim = Simulator()
        wheel = TimerWheel(sim)
        fired = []
        for delay in (123, 70_000, HOP_NS * 3 + 17):
            wheel.arm(delay, lambda d=delay: fired.append((sim.now, d)))
        sim.run()
        assert fired == [(123, 123), (70_000, 70_000),
                         (HOP_NS * 3 + 17, HOP_NS * 3 + 17)]

    def test_cancel_prevents_firing_without_engine_traffic(self):
        sim = Simulator()
        wheel = TimerWheel(sim)
        fired = []
        keep = wheel.arm(200_000, fired.append, "keep")
        drop = wheel.arm(200_001, fired.append, "drop")
        drop.cancel()
        drop.cancel()  # idempotent
        assert drop.cancelled and drop.fn is None and drop.args == ()
        assert sim.pending() == 2  # a flag flip: the calendar is untouched
        sim.run()
        assert fired == ["keep"]
        assert wheel.fired_total == 1
        assert wheel.cancelled_total == 1
        assert not keep.cancelled  # fired timers are not "cancelled"

    def test_a_cancelled_timer_is_gone_within_a_hop(self):
        """A cancelled 4 ms RTO leaves one entry, which dies at the hop
        instant rather than at the deadline."""
        sim = Simulator()
        wheel = TimerWheel(sim)
        for _ in range(500):
            wheel.arm(4_000_000, pytest.fail, "cancelled timer fired").cancel()
        assert sim.pending() == 500
        sim.run(until=HOP_NS)
        assert sim.pending() == 0 and sim.peek_time() is None
        assert wheel.cancelled_total == 500 and wheel.fired_total == 0

    def test_a_deadline_within_a_hop_posts_at_itself(self):
        sim = Simulator()
        wheel = TimerWheel(sim)
        near = wheel.arm(5, lambda: None)
        far = wheel.arm(2 * HOP_NS, lambda: None)
        assert (near.posted, far.posted) == (5, HOP_NS)
        sim.run(until=HOP_NS)
        assert far.posted == 2 * HOP_NS and wheel.fired_total == 1

    def test_firing_order_follows_deadlines(self):
        sim = Simulator()
        wheel = TimerWheel(sim)
        rng = random.Random(7)
        delays = [rng.randrange(1, 5 * HOP_NS) for _ in range(200)]
        fired = []
        for d in delays:
            wheel.arm(d, lambda d=d: fired.append((sim.now, d)))
        sim.run()
        assert fired == sorted((d, d) for d in delays)
        assert wheel.fired_total == len(delays)

    def test_for_sim_returns_shared_instance(self):
        sim = Simulator()
        assert TimerWheel.for_sim(sim) is TimerWheel.for_sim(sim)
        assert TimerWheel.for_sim(Simulator()) is not TimerWheel.for_sim(sim)

    def test_rejects_negative_delay_and_bad_geometry(self):
        """The wheel takes no geometry: any is refused."""
        sim = Simulator()
        with pytest.raises(ValueError):
            TimerWheel(sim).arm(-1, lambda: None)
        with pytest.raises(TypeError):
            TimerWheel(sim, tick_bits=4)


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
        assert TimerWheel.for_sim(sim).armed_total == 1
        assert sim.pending() == 1  # the timer's one entry, at the hop

    def test_later_rearms_reuse_one_wheel_entry(self):
        """The RTO pattern: every ACK pushes the deadline out. 10 000
        re-arms arm one wheel timer, which fires once, at the last
        deadline."""
        sim = Simulator()
        fired = []
        timer = CoarseTimer(sim)
        for i in range(10_000):
            sim.at(i * 100, timer.arm, 4_000_000, fired.append, i)
        sim.run()
        # the last arm's deadline and the last arm's callback
        assert fired == [9_999]
        assert sim.now == 9_999 * 100 + 4_000_000
        assert TimerWheel.for_sim(sim).armed_total == 1

    def test_a_moved_timer_hops_to_its_deadline(self):
        """Re-armed every 10 µs for 10 ms, a 4 ms timer posts one entry
        per hop over its span, not one per re-arm, and fires once."""
        sim = Simulator()
        fired = []
        timer = CoarseTimer(sim)
        for i in range(1_000):
            sim.at(i * 10_000, timer.arm, 4_000_000, fired.append, i)
        sim.run()
        span = 999 * 10_000 + 4_000_000
        assert fired == [999] and sim.now == span
        entries = sim.events_run - 1_000  # all but the scripted re-arms
        assert entries <= math.ceil(span / HOP_NS) + 2
        assert TimerWheel.for_sim(sim).armed_total == 1

    def test_earlier_rearm_fires_at_the_earlier_deadline(self):
        """A re-arm before the posted instant posts a new entry; one
        between it and the old deadline moves the entry in place."""
        sim = Simulator()
        fired = []
        timer = CoarseTimer(sim)
        timer.arm(4_000_000, fired.append, "late")
        timer.arm(100_000, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [100_000]
        assert TimerWheel.for_sim(sim).armed_total == 2
        t0 = sim.now
        timer.arm(4_000_000, fired.append, "late")
        timer.arm(1_000_000, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [100_000, t0 + 1_000_000]
        assert TimerWheel.for_sim(sim).armed_total == 3

    def test_a_rearm_after_a_hop_compares_with_the_new_entry(self):
        """After a hop the timer's entry sits one hop further out, so a
        re-arm short of it posts a new entry instead of firing late."""
        sim = Simulator()
        fired = []
        timer = CoarseTimer(sim)
        timer.arm(4_000_000, fired.append, "late")
        sim.at(HOP_NS + 1, timer.arm, 100_000,
               lambda: fired.append(sim.now))
        sim.run()
        assert fired == [HOP_NS + 100_001]
        assert TimerWheel.for_sim(sim).armed_total == 2

    def test_cancel_after_an_in_place_extension(self):
        sim = Simulator()
        timer = CoarseTimer(sim)
        timer.arm(1_000_000, pytest.fail, "cancelled timer fired")
        sim.at(500_000, timer.arm, 1_000_000, pytest.fail,
               "cancelled timer fired")
        sim.at(900_000, timer.cancel)
        sim.run()
        assert not timer.armed
        assert TimerWheel.for_sim(sim).fired_total == 0

    @pytest.mark.parametrize("seed", range(6))
    # ids from when this case varied the wheel's geometry, kept stable
    @pytest.mark.parametrize("scale", [5_000, 1], ids=["None", "geometry1"])
    def test_same_firings_as_cancel_and_file(self, seed, scale):
        """Seeded random arm / re-arm / cancel / advance scripts over eight
        timers, against a reference that cancels its ``sim.after`` handle
        and files a new one on every arm: with distinct deadlines, the same
        timers fire at the same instants in the same order. At the 5 µs
        scale moved timers hop; at 1 ns they re-post at old deadlines."""
        rng = random.Random(seed)
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
            fired = []
            timers = [timer_cls(sim) for _ in range(8)]
            for at, which, delay in script:
                if delay is None:
                    sim.at(at, timers[which].cancel)
                else:
                    sim.at(at, timers[which].arm, delay,
                           lambda i=which: fired.append((sim.now, i)))
            sim.run()
            return fired

        got = run(CoarseTimer)
        assert got == run(HandleTimer)
        assert len(got) > 8


class HandleTimer:
    """The reference coarse timer: one ``sim.after`` handle per arm,
    cancelled by the next arm or by ``cancel``."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.handle = None

    def arm(self, delay: int, fn, *args) -> None:
        self.cancel()
        self.handle = self.sim.after(delay, fn, *args)

    def cancel(self) -> None:
        if self.handle is not None:
            self.handle.cancel()
            self.handle = None


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
