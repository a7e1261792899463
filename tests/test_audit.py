"""Tests for the correctness-audit subsystem (repro.audit).

Covers: AuditConfig validation and cache keying, digest determinism and
divergence localisation, every invariant tripping on a deliberately
broken fixture, the replay harness, the CI matrix plumbing, and the pinned
golden digests.
"""

import pickle

import pytest

from repro.audit import (
    AuditConfig,
    AuditError,
    AuditReport,
    DigestRecorder,
    EventDigest,
    InvariantAuditor,
)
from repro.audit.matrix import (
    GOLDEN_DIGESTS,
    MATRIX_SCHEMES,
    MATRIX_TOPOLOGIES,
    run_matrix,
)
from repro.audit.replay import replay_config
from repro.experiments.cache import config_key
from repro.experiments.config import ExperimentConfig, SchemeName
from repro.experiments.runner import flow_specs, pump_flows, run_experiment
from repro.experiments.scenarios import make_scheme_setup
from repro.net.packet import alloc_packet, free_packet
from repro.net import ClosSpec, build_clos
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.units import MICROS, MILLIS

from tests.util import cell


def audit_cfg(scheme=SchemeName.FLEXPASS, **overrides):
    """A deliberately tiny audited config (fast enough per-test)."""
    base = dict(
        scheme=scheme,
        deployment=0.0 if scheme == SchemeName.DCTCP else 1.0,
        load=0.5,
        sim_time_ns=300 * MICROS,
        size_scale=16.0,
        seed=2,
        clos=ClosSpec(n_pods=1, aggs_per_pod=1, tors_per_pod=2,
                      hosts_per_tor=2),
        audit=AuditConfig(checkpoint_interval_ns=50 * MICROS),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def run_audited(cfg, perturb=None):
    """Run ``cfg`` with an explicit auditor so a ``perturb(sim, clos,
    live)`` hook can corrupt state between the horizon and the audit."""
    sim = Simulator()
    rng = RngRegistry(cfg.seed)
    setup = make_scheme_setup(cfg)
    clos = build_clos(sim, setup.queue_factory, cfg.clos)
    live = {}
    pump_flows(sim, flow_specs(cfg, clos, rng), setup, live, cfg.sim_time_ns)
    auditor = InvariantAuditor(sim, clos.topo, live, config=cfg.audit)
    auditor.install(cfg.sim_time_ns)
    sim.run(until=cfg.sim_time_ns)
    if perturb is not None:
        perturb(sim, clos, live)
    return auditor.finalize()


class TestAuditConfig:
    def test_defaults_valid(self):
        cfg = AuditConfig()
        assert cfg.enabled and not cfg.digest

    @pytest.mark.parametrize("kw", [
        dict(checkpoint_interval_ns=0),
        dict(digest_epoch_ns=0),
        dict(capture_limit=0),
        dict(max_violations=0),
    ])
    def test_rejects_nonpositive(self, kw):
        with pytest.raises(ValueError):
            AuditConfig(**kw)

    def test_cache_keyable(self):
        """AuditConfig must survive the cache's canonicalizer, and
        toggling audit must change the key (different result payload)."""
        plain = audit_cfg(audit=None)
        audited = audit_cfg()
        assert config_key(plain) != config_key(audited)
        assert config_key(audited) == config_key(audit_cfg())

    def test_picklable(self):
        cfg = audit_cfg()
        assert pickle.loads(pickle.dumps(cfg)).audit == cfg.audit


class TestDigest:
    EVENTS = [(100, 1, 3, 7, 0), (250, 2, 4, 7, 1), (120_000, 1, 3, 8, None)]

    def _digest(self, events):
        rec = DigestRecorder(epoch_ns=100 * MICROS)
        for ev in events:
            rec.record(*ev)
        return rec.freeze()

    def test_identical_streams_equal(self):
        a = self._digest(self.EVENTS)
        b = self._digest(self.EVENTS)
        assert a == b
        assert a.final() == b.final()
        assert a.first_divergence(b) is None

    def test_any_field_perturbs_digest(self):
        base = self._digest(self.EVENTS)
        for i in range(5):
            ev = list(self.EVENTS[1])
            ev[i] = (ev[i] or 0) + 1
            mutated = [self.EVENTS[0], tuple(ev), self.EVENTS[2]]
            assert self._digest(mutated) != base

    def test_first_divergence_localises_epoch(self):
        mutated = [self.EVENTS[0], self.EVENTS[1],
                   (120_000, 1, 3, 9, None)]
        a = self._digest(self.EVENTS)
        b = self._digest(mutated)
        assert a.first_divergence(b) == 1  # 120 us / 100 us epoch
        assert b.first_divergence(a) == 1

    def test_missing_epoch_counts_as_divergence(self):
        a = self._digest(self.EVENTS)
        b = self._digest(self.EVENTS[:2])
        assert a.first_divergence(b) == 1

    def test_mismatched_epoch_ns_raises(self):
        a = self._digest(self.EVENTS)
        rec = DigestRecorder(epoch_ns=1)
        with pytest.raises(ValueError):
            a.first_divergence(rec.freeze())

    def test_capture_window(self):
        rec = DigestRecorder(epoch_ns=100 * MICROS, capture_epoch=1,
                             capture_limit=10)
        for ev in self.EVENTS:
            rec.record(*ev)
        d = rec.freeze()
        assert d.events == [(120_000, 1, 3, 8, -1)]

    def test_pickle_round_trip(self):
        a = self._digest(self.EVENTS)
        b = pickle.loads(pickle.dumps(a))
        assert a == b and a.final() == b.final()


class TestCleanRuns:
    def test_flexpass_clean(self):
        report = run_audited(audit_cfg())
        assert report.ok, report.violations
        assert report.checks > 0
        assert report.checkpoints >= 5

    def test_dctcp_clean(self):
        report = run_audited(audit_cfg(scheme=SchemeName.DCTCP))
        assert report.ok, report.violations

    def test_run_experiment_attaches_report(self):
        res = cell(audit_cfg())
        assert res.audit is not None and res.audit.ok
        assert res.audit.digest is None  # digest off by default

    def test_disabled_audit_attaches_nothing(self):
        """No config and a disabled one take the runner's real attach gate
        to the same run: no report, and not one event or record apart (a
        checkpoint timer would show in ``events_run``)."""
        off = cell(audit_cfg(audit=None))
        disabled = cell(audit_cfg(audit=AuditConfig(enabled=False)))
        assert off.audit is None and disabled.audit is None
        assert off.events_run == disabled.events_run > 0
        assert off.records == disabled.records

    def test_digest_recorded_when_enabled(self):
        cfg = audit_cfg(audit=AuditConfig(digest=True,
                                          checkpoint_interval_ns=None))
        # re-run: two simulations of one config must digest alike
        res = run_experiment(cfg)
        digest = res.audit.digest
        assert digest is not None and digest.total > 0
        # Same config, fresh process state: identical event stream.
        again = run_experiment(cfg).audit.digest
        assert digest == again

    def test_digest_differs_across_seeds(self):
        mk = lambda seed: audit_cfg(
            seed=seed, audit=AuditConfig(digest=True,
                                         checkpoint_interval_ns=None))
        a = cell(mk(2)).audit.digest
        b = cell(mk(3)).audit.digest
        assert a != b


class TestBrokenFixtures:
    """Each invariant must trip when its bookkeeping is corrupted."""

    def _violations(self, perturb):
        report = run_audited(audit_cfg(), perturb=perturb)
        assert not report.ok
        return "\n".join(report.violations)

    def test_pool_leak_detected(self):
        leaked = []

        def perturb(sim, clos, live):
            from repro.net.packet import PacketKind
            leaked.append(alloc_packet(PacketKind.DATA, 999, 0, 1, 100))

        assert "leak" in self._violations(perturb)
        free_packet(leaked[0])

    def test_pool_double_free_detected(self):
        def perturb(sim, clos, live):
            pool = InvariantAuditor(sim, clos.topo).pool
            pool.released += 1  # as if some packet were freed twice

        assert "double free" in self._violations(perturb)

    def test_buffer_used_mismatch_detected(self):
        def perturb(sim, clos, live):
            clos.topo.switches[0].buffer.used += 64

        assert "charge/release imbalance" in self._violations(perturb)

    def test_buffer_drops_mismatch_detected(self):
        def perturb(sim, clos, live):
            clos.topo.switches[0].buffer.drops += 1

        assert "dropped_buffer" in self._violations(perturb)

    def test_queue_counter_mismatch_detected(self):
        def perturb(sim, clos, live):
            port = next(iter(clos.topo.switches[0].ports.values()))
            port._queues[0].stats.enqueued += 1

        assert "enqueued" in self._violations(perturb)

    def test_link_delivery_mismatch_detected(self):
        def perturb(sim, clos, live):
            port = next(iter(clos.topo.switches[0].ports.values()))
            port.link.packets_delivered += 1

        assert "in-flight" in self._violations(perturb)

    def test_flow_byte_conservation_detected(self):
        def perturb(sim, clos, live):
            _spec, stats = next(iter(live.values()))
            stats.proactive_bytes += 10

        assert "proactive" in self._violations(perturb)

    def test_credit_conservation_detected(self):
        def perturb(sim, clos, live):
            _spec, stats = next(iter(live.values()))
            stats.credits_received += 5

        assert "credits_received" in self._violations(perturb)

    def test_overdelivery_detected(self):
        def perturb(sim, clos, live):
            spec, stats = next(iter(live.values()))
            stats.delivered_bytes = spec.size_bytes + 1
            stats.reactive_bytes = (stats.delivered_bytes
                                    - stats.proactive_bytes)

        assert "bytes > size" in self._violations(perturb)

    def test_n_acked_mismatch_detected(self):
        def perturb(sim, clos, live):
            for spec, _stats in live.values():
                sender = getattr(spec.src, "_senders", {}).get(spec.flow_id)
                buffer = getattr(sender, "buffer", None)
                if buffer is not None and hasattr(buffer, "n_acked"):
                    buffer.n_acked += 1
                    return
            pytest.skip("no segment buffer in this run")

        assert "n_acked" in self._violations(perturb)

    def test_fail_fast_raises(self):
        cfg = audit_cfg(audit=AuditConfig(fail_fast=True,
                                          checkpoint_interval_ns=None))

        def perturb(sim, clos, live):
            clos.topo.switches[0].buffer.used += 64

        with pytest.raises(AuditError):
            run_audited(cfg, perturb=perturb)

    def test_max_violations_caps_list(self):
        cfg = audit_cfg(audit=AuditConfig(max_violations=3,
                                          checkpoint_interval_ns=None))

        def perturb(sim, clos, live):
            for _spec, stats in live.values():
                stats.credits_received += 5

        report = run_audited(cfg, perturb=perturb)
        assert not report.ok
        assert len(report.violations) == 3
        assert report.checks > 3  # checking continued past the cap

    def test_raise_if_failed(self):
        report = AuditReport(violations=["t=1ns: boom"])
        with pytest.raises(AuditError, match="boom"):
            report.raise_if_failed()
        AuditReport().raise_if_failed()  # clean: no raise


class TestReplayAndMatrix:
    def test_replay_tiny_config_matches(self):
        cfg = audit_cfg(sim_time_ns=200 * MICROS)
        report = replay_config(cfg)
        assert report.match, (report.divergence_epoch, report.events_a,
                              report.events_b)
        assert report.total_events > 0

    def test_matrix_cell_passes(self):
        cells = run_matrix(schemes=("flexpass",), topologies=("dumbbell",),
                           sim_time_ns=300 * MICROS)
        assert len(cells) == 1
        cell = cells[0]
        assert cell.ok, cell.violations
        assert cell.flows > 0 and cell.checks > 0

    def test_matrix_covers_all_schemes_and_shapes(self):
        assert set(MATRIX_SCHEMES) == {"dctcp", "naive", "homa", "ly",
                                       "flexpass"}
        assert set(MATRIX_TOPOLOGIES) == {"dumbbell", "incast", "clos"}


class TestGoldenDigests:
    def test_table_covers_the_matrix(self):
        assert set(GOLDEN_DIGESTS) == {(t, s) for t in MATRIX_TOPOLOGIES
                                       for s in MATRIX_SCHEMES}

    def test_flexpass_cells_reproduce_pinned_digests(self):
        """One cell per fabric shape at the pinned operating point: every
        delivery, in order, is what it was when the table was recorded."""
        cells = run_matrix(schemes=("flexpass",))
        assert [(c.topology, c.digest) for c in cells] == [
            (t, GOLDEN_DIGESTS[(t, "flexpass")]) for t in MATRIX_TOPOLOGIES]
        assert all(c.ok and c.expected is not None for c in cells)

    def test_unpinned_point_is_not_checked(self):
        (cell,) = run_matrix(schemes=("dctcp",), topologies=("dumbbell",),
                             sim_time_ns=300 * MICROS)
        assert cell.expected is None and not cell.drifted and cell.ok

    def test_one_extra_delivery_fails_the_audit(self, monkeypatch, capsys):
        from repro.cli import main

        freeze = DigestRecorder.freeze

        def freeze_after_one_more(recorder):
            recorder.record(2 * MILLIS, 0, 0, 0, 0)
            return freeze(recorder)

        monkeypatch.setattr(DigestRecorder, "freeze", freeze_after_one_more)
        assert main(["audit", "--schemes", "dctcp",
                     "--topos", "dumbbell"]) == 1
        out = capsys.readouterr().out
        total, final = GOLDEN_DIGESTS[("dumbbell", "dctcp")]
        assert "DRIFT" in out
        assert f'expected ("dumbbell", "dctcp"): ({total}, 0x{final:016x}),' \
            in out
        assert f'got      ("dumbbell", "dctcp"): ({total + 1}, 0x' in out
