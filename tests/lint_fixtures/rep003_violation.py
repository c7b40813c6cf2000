"""REP003 fixture: module globals that leak state between runs."""

_RESULT_CACHE: dict = {}  # flagged: mutable, not Final, not _WORKER_*
_PENDING = []  # flagged: bare list binding
_COUNTER = 0


def bump() -> int:
    global _COUNTER  # flagged: runtime rebinding of a non-worker global
    _COUNTER += 1
    return _COUNTER
