"""Shared test helpers: one tiny experiment config, one cell pool per
pytest process, and the queue factories and models of the
transport-level tests.

The cell pool rule:

* A test that only reads a result gets it from ``cell(cfg)``. The pool
  simulates each config once per pytest process and hands every caller
  its own copy, so a test may change what it gets without changing what
  another test sees.
* A test that must simulate again calls ``run_experiment`` and says why
  in a one-line comment: determinism and seed stability, store and cache
  skips, fabric and resume, release and lifetime, pool dispatch, or
  "tracing changes nothing".
* A test that monkeypatches anything ``run_experiment`` reaches never
  calls ``cell``: the pool's key is the config, which cannot see a patch,
  so a patched run would be served to (or from) unpatched tests.
* A test that expects a run to raise calls ``run_experiment``: there is
  no result to keep.
"""

from repro.experiments.config import ExperimentConfig, SchemeName
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.net.packet import Dscp
from repro.net.queues import PacketQueue, QueueConfig
from repro.net.ratelimit import TokenBucket
from repro.net.scheduler import QueueSchedule
from repro.net.topology import ClosSpec
from repro.sim.units import KB, MICROS

ALL_DSCPS = [d.value for d in Dscp] + [Dscp.HOMA_BASE + p for p in range(8)]


def tiny_cfg(**overrides) -> ExperimentConfig:
    """The tests' one small experiment: FlexPass on half of an 8-host Clos
    at load 0.4 for 0.5 ms (about 80 flows, ~0.07 s to simulate)."""
    base = dict(
        scheme=SchemeName.FLEXPASS,
        deployment=0.5,
        load=0.4,
        sim_time_ns=500 * MICROS,
        size_scale=16.0,
        seed=3,
        clos=ClosSpec(n_pods=2, aggs_per_pod=1, tors_per_pod=2,
                      hosts_per_tor=2),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


#: config key -> the result as the sweep store encodes it
_CELLS = {}


def cell(cfg: ExperimentConfig) -> ExperimentResult:
    """``run_experiment(cfg)``, simulated at most once per pytest process.

    Each call decodes a fresh copy of the stored bytes: the same round
    trip the sweep store gives every result. The store loads here, not
    with this module, so ``tiny_cfg`` can drive a run that must not load
    it (``tests/test_import_budget.py``).
    """
    from repro.experiments.cache import config_key
    from repro.experiments.store import decode_result, encode_result

    key = config_key(cfg)
    if key not in _CELLS:
        _CELLS[key] = encode_result(run_experiment(cfg))
    return decode_result(_CELLS[key])


def ecn_queue_factory(ecn_kb=65):
    """Single FIFO with DCTCP-style ECN marking for every traffic class."""

    def factory(name, rate_bps, is_host_nic):
        q = PacketQueue(QueueConfig(name="data", ecn_threshold_bytes=ecn_kb * KB))
        classifier = {d: 0 for d in ALL_DSCPS}
        return [QueueSchedule(q, priority=0, weight=1.0)], classifier

    return factory


def expresspass_queue_factory(wq=1.0, ecn_kb=65, credit_ratio=84 / 1584):
    """Two queues: strict-priority rate-limited credit queue + one data FIFO.

    ``wq`` scales the credit rate limit, as FlexPass does (§4.1); plain
    ExpressPass uses wq=1.0 (credits sized to the full link).
    """

    def factory(name, rate_bps, is_host_nic):
        credit_q = PacketQueue(QueueConfig(name="credit", capacity_bytes=1 * KB))
        data_q = PacketQueue(QueueConfig(name="data", ecn_threshold_bytes=ecn_kb * KB))
        pacer = TokenBucket(int(rate_bps * wq * credit_ratio), bucket_bytes=2 * 84)
        schedules = [
            QueueSchedule(credit_q, priority=0, weight=1.0, pacer=pacer),
            QueueSchedule(data_q, priority=1, weight=1.0),
        ]
        classifier = {d: 1 for d in ALL_DSCPS}
        classifier[Dscp.CREDIT.value] = 0
        return schedules, classifier

    return factory


class Completions:
    """Collects (spec, stats) completion callbacks."""

    def __init__(self):
        self.records = []

    def __call__(self, spec, stats):
        self.records.append((spec, stats))

    def fct_ms(self, flow_id):
        for spec, stats in self.records:
            if spec.flow_id == flow_id:
                return stats.fct_ns() / 1e6
        raise KeyError(flow_id)

    @property
    def flow_ids(self):
        return {spec.flow_id for spec, _ in self.records}


class ScoreboardModel:
    """What a sender's ACK/SACK scoreboard must answer, stated directly.

    A seq is acked once an ACK covers it (below its cumulative point, in its
    SACK list, or echoed as the ACKed packet's own seq), or once it is
    removed while in flight. An in-flight seq is lost on the ``dupthresh``-th
    ACK since its last send that brings news above it (a cumulative advance
    to past it, or a newly acked seq above it), or at a timeout. Every sent
    seq is exactly one of acked, in flight and lost.
    """

    def __init__(self, dupthresh: int) -> None:
        self.dupthresh = dupthresh
        self.cum = 0
        self.acked = set()
        self.flight = {}  # seq -> [send time, ACKs with news above it]
        self.lost = set()

    def send(self, seq: int, now: int) -> None:
        self.flight[seq] = [now, 0]
        self.lost.discard(seq)

    def ack(self, cum: int, sack, echo: int = -1):
        """(newly acked, newly lost), both sorted."""
        covered = set(range(cum)) | set(sack) | ({echo} if echo >= 0 else set())
        newly = covered - self.acked
        news = newly | ({cum - 1} if cum > self.cum else set())
        self.cum = max(self.cum, cum)
        self.acked |= newly
        self.lost -= newly
        for seq in newly:
            self.flight.pop(seq, None)
        lost = []
        if news:
            top = max(news)
            for seq, entry in self.flight.items():
                if seq < top:
                    entry[1] += 1
                    if entry[1] >= self.dupthresh:
                        lost.append(seq)
        return sorted(newly), self._lose(lost)

    def remove(self, seq: int) -> bool:
        if seq not in self.flight:
            return False
        del self.flight[seq]
        self.acked.add(seq)
        return True

    def declare_all_lost(self):
        return self._lose(list(self.flight))

    def _lose(self, seqs):
        for seq in seqs:
            del self.flight[seq]
        self.lost |= set(seqs)
        return sorted(seqs)

    def check(self, scoreboard, seqs) -> None:
        """``scoreboard`` answers every query as the model does."""
        for seq in seqs:
            acked = scoreboard.is_acked(seq)
            assert acked == (seq in self.acked), seq
            stamp = self.flight.get(seq)
            assert scoreboard.sent_at(seq) == (None if stamp is None
                                               else stamp[0]), seq
            if seq in self.acked or seq in self.flight or seq in self.lost:
                assert acked + (stamp is not None) + (seq in self.lost) == 1
        assert scoreboard.n_acked == len(self.acked)
        assert scoreboard.in_flight == len(self.flight)
        assert scoreboard.oldest_outstanding() == min(self.flight, default=None)
