"""Flow state ends with the flow (DESIGN.md §5, "State lifetime").

Runs whole cells and inspects what is still alive when ``sim.run``
returns: a finished receiver holds no credit source, no sender scoreboard
keeps an acked seq its cumulative point already implies, and re-arming a
coarse timer to a later deadline files no new wheel timer.
"""

import gc

import pytest

from repro.core.flexpass import FlexPassReceiver, FlexPassSender
from repro.experiments.config import ExperimentConfig, SchemeName
from repro.experiments.runner import run_experiment
from repro.net.topology import ClosSpec
from repro.sim.engine import CalendarSimulator
from repro.sim.timerwheel import CoarseTimer, TimerWheel
from repro.sim.units import MILLIS
from repro.transports.crediting import CreditPacer
from repro.transports.dctcp import DctcpSender
from repro.transports.expresspass import ExpressPassReceiver, ExpressPassSender


RECEIVERS = (ExpressPassReceiver, FlexPassReceiver)
ENDPOINTS = RECEIVERS + (DctcpSender, ExpressPassSender, FlexPassSender)


def _scoreboards(sender):
    if isinstance(sender, FlexPassSender):
        return [sender.proactive.scoreboard, sender.reactive.scoreboard]
    return [sender.queue.scoreboard]


def _snapshot(monkeypatch, cfg):
    """Run ``cfg``; return what ``sim.run`` left alive and the coarse
    timer arms that may file a new wheel timer: first arms, and re-arms
    to an earlier deadline."""
    rearms = {"new_entries": 0}
    arm = CoarseTimer.arm

    def counting_arm(self, delay):
        timer = self._timer
        if timer is None or self._wheel.sim.now + delay < timer.deadline:
            rearms["new_entries"] += 1
        arm(self, delay)

    snap = {}
    run = CalendarSimulator.run

    def snapshot_run(sim, *args, **kwargs):
        out = run(sim, *args, **kwargs)
        alive = [o for o in gc.get_objects() if isinstance(o, ENDPOINTS)
                 and o.sim is sim]
        snap["receivers"] = [o for o in alive if isinstance(o, RECEIVERS)]
        snap["senders"] = [o for o in alive if not isinstance(o, RECEIVERS)]
        snap["armed_total"] = TimerWheel.for_sim(sim).armed_total
        return out

    monkeypatch.setattr(CoarseTimer, "arm", counting_arm)
    monkeypatch.setattr(CalendarSimulator, "run", snapshot_run)
    run_experiment(cfg)
    snap["new_entries"] = rearms["new_entries"]
    return snap


@pytest.mark.parametrize("scheme,deployment", [
    (SchemeName.FLEXPASS, 0.5),   # FlexPass and DCTCP flows side by side
    (SchemeName.NAIVE, 1.0),      # ExpressPass on every host
])
def test_finished_flows_release_their_state(monkeypatch, scheme, deployment):
    cfg = ExperimentConfig(
        scheme=scheme, deployment=deployment, load=0.5,
        sim_time_ns=1 * MILLIS, size_scale=16.0, seed=5,
        clos=ClosSpec(n_pods=2, aggs_per_pod=2, tors_per_pod=2,
                      hosts_per_tor=3))
    snap = _snapshot(monkeypatch, cfg)

    finished = [r for r in snap["receivers"] if r.stats.completed]
    assert len(finished) > 20
    for receiver in finished:
        assert not isinstance(receiver.pacer, CreditPacer)

    boards = [b for s in snap["senders"] for b in _scoreboards(s)]
    assert boards and any(b._cum for b in boards)
    for board in boards:
        assert all(seq >= board._cum for seq in board._acked)

    assert 0 < snap["armed_total"] <= snap["new_entries"]
