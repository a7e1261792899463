"""Opt-in correctness auditing: conservation invariants + deterministic
replay.

Enable per run with ``ExperimentConfig(audit=AuditConfig(...))``, from
the CLI with ``repro audit`` (the scheme x topology invariant matrix, or
``--replay`` for the determinism cell), or from ``tools/run_simulations.py
--audit``. Disabled (the default), nothing is imported or constructed —
zero per-packet and per-event cost, verified by the ``audit_overhead``
A/B bench. The names below resolve lazily: ``from repro.audit import
AuditConfig`` loads :mod:`repro.audit.config` and nothing else.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".config": ("AuditConfig",),
    ".invariants": ("AuditError", "AuditReport", "InvariantAuditor"),
    ".digest": ("DigestRecorder", "EventDigest", "install_digest_taps"),
})
