"""Content-addressed on-disk cache for experiment results.

A sweep iterates on plotting and analysis far more often than on the
simulator itself; re-running sixty clean simulations to tweak a figure is
pure waste. The cache keys each :class:`ExperimentConfig` by a stable
content hash — every field, recursively through nested dataclasses, enums,
and fault plans — salted with a code-version string, and stores the
result with its flow records packed into typed columns
(:class:`repro.metrics.fct.PackedFlowRecords`).

Keying rules (also documented in DESIGN.md §6d):

* The key is ``sha256(salt || canonical(config))``. ``canonical`` renders
  the config as a nested tuple tree: dataclasses become
  ``(classname, (field, value)...)`` in field order, enums their values,
  floats ``repr``'d (so 0.5 and 0.25 never collide via rounding).
  Any config field change — seed, load, a nested queue threshold, a fault
  plan — therefore changes the key.
* The salt defaults to :data:`DEFAULT_CODE_SALT`, which MUST be bumped in
  any PR that changes simulation behavior; ``REPRO_CACHE_SALT`` overrides
  it (tests, emergency invalidation).
* Failures are never cached: a :class:`FailedResult` or an aborted
  (watchdog-stopped) result always re-runs next sweep.

Storage is one pickle per key under ``root/<key[:2]>/<key>.pkl``, written
atomically (temp file + rename) so a crashed sweep cannot leave a torn
entry behind.

Since ISSUE 6 the cache is one backend of the
:class:`repro.experiments.store.ResultStore` interface (the other is a
concurrent-writer-safe SQLite file); keying and payload format live here
and in :mod:`repro.experiments.store` respectively, and a failed write —
full disk, read-only mount — is counted and logged instead of silently
losing the entry or killing the sweep.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import os
import tempfile
from pathlib import Path
from typing import Optional, Union

from repro.experiments.store import ResultStore

#: Bump whenever simulation semantics change, so stale results cannot leak
#: across PRs. ``REPRO_CACHE_SALT`` overrides (emergency invalidation).
DEFAULT_CODE_SALT = "sim-v10"  # PR 14: every run streams cfg.traffic; default sources draw from traffic.bg / traffic.fg


def canonicalize(value) -> object:
    """Render a config value as a nested tuple tree with a stable repr."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple(
                (f.name, canonicalize(getattr(value, f.name)))
                for f in dataclasses.fields(value)
            ),
        )
    if isinstance(value, enum.Enum):
        return (type(value).__name__, canonicalize(value.value))
    if isinstance(value, (list, tuple)):
        return tuple(canonicalize(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted(
            (canonicalize(k), canonicalize(v)) for k, v in value.items()
        ))
    if isinstance(value, float):
        # repr is exact for floats; str() of e.g. numpy scalars is not.
        return f"f:{value!r}"
    if value is None or isinstance(value, (bool, int, str, bytes)):
        return value
    raise TypeError(
        f"cannot canonicalize {type(value).__name__} for cache keying; "
        f"add a case (silently repr()-ing it could make distinct configs "
        f"collide)"
    )


def config_key(config, salt: Optional[str] = None) -> str:
    """Stable content hash of a config, salted by code version."""
    if salt is None:
        salt = os.environ.get("REPRO_CACHE_SALT", DEFAULT_CODE_SALT)
    payload = repr((salt, canonicalize(config))).encode()
    return hashlib.sha256(payload).hexdigest()


class ExperimentCache(ResultStore):
    """Directory-backed result cache, keyed by config content hash.

    Concurrent writers (multiple worker processes, or hosts sharing the
    directory over NFS) are safe: every write is temp-file + atomic
    rename, and duplicate writers of one key carry byte-identical
    payloads by construction.
    """

    def __init__(self, root: Union[str, Path], salt: Optional[str] = None):
        super().__init__(salt)
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.spec = str(self.root)

    # ------------------------------------------------------------- lookup

    def path(self, config) -> Path:
        return self._key_path(self.key(config))

    def _key_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def _read(self, key: str) -> Optional[bytes]:
        try:
            return self._key_path(key).read_bytes()
        except OSError:
            return None

    def _write(self, key: str, payload: bytes) -> None:
        path = self._key_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def describe(self) -> str:
        return str(self.root)
