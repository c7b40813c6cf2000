"""REP003 fixture: the two legal shapes for module state."""

import re
from typing import Final

#: Immutable import-time constants need no annotation.
SCAN_TTL = 64
_KINDS = ("quic", "tcp")
_NAME_RE = re.compile(r"^[a-z]+$")

#: Mutable containers are fine when Final: filled at import, never rebound.
_REGISTRY: Final[dict[str, int]] = {}

#: The registered per-process pattern for deliberate worker state.
_WORKER_STATE: object | None = None


def set_worker(engine: object) -> None:
    global _WORKER_STATE  # legal: matches the _WORKER_* pattern
    _WORKER_STATE = engine
