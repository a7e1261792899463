"""Content keys for experiment configs.

A result is addressed by what produced it: :func:`config_key` hashes
every field of an :class:`ExperimentConfig` — recursively through nested
dataclasses, enums and fault plans — salted with a code-version string.
The sweep loop collapses a grid's equal keys into one simulation and the
:class:`repro.experiments.store.ResultStore` files results under them
(DESIGN.md §6g).

* The key is ``sha256(salt || canonical(config))``. ``canonical`` renders
  the config as a nested tuple tree: dataclasses become
  ``(classname, (field, value)...)`` in field order, enums their values,
  floats ``repr``'d (so 0.5 and 0.25 never collide via rounding).
  Any config field change — seed, load, a nested queue threshold, a fault
  plan, a telemetry block — therefore changes the key.
* The salt defaults to :data:`DEFAULT_CODE_SALT`, which MUST be bumped in
  any PR that changes simulation behavior; ``REPRO_CACHE_SALT`` overrides
  it (tests, emergency invalidation).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import os
from typing import Optional

#: Bump whenever simulation semantics change, so stale results cannot leak
#: across PRs. ``REPRO_CACHE_SALT`` overrides (emergency invalidation).
DEFAULT_CODE_SALT = "sim-v11"  # a serve event starts one packet: unpaced (Homa) ports no longer burst


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
