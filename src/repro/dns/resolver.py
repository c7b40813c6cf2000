"""A miniature DNS with geo-dependent answers.

The distributed pipeline resolves every forwarded domain locally at each
cloud vantage point (§4.3), which matters because CDNs answer with
different infrastructure per location — the wix.com anomaly in §8 (US
West resolving to non-QUIC infrastructure) is exactly such a geo split.
Parking detection uses NS/CNAME records as in §5.1.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType


@dataclass(frozen=True)
class DnsRecord:
    """The records the study consumes for one domain."""

    a: str | None = None
    aaaa: str | None = None
    cname: str | None = None
    ns: tuple[str, ...] = ()

    @property
    def resolvable(self) -> bool:
        return self.a is not None or self.aaaa is not None


class Resolver:
    """Domain -> record store with per-vantage overrides.

    Records can be added explicitly (:meth:`add`) or derived on demand
    by a *fallback* (:meth:`set_fallback`): a callable consulted on a
    lookup miss, whose non-None answers are memoised apart from the
    explicit records.  The world builder uses the fallback as a lazy
    DNS section — zone records are a pure function of the domain/site
    tables, so they need not be materialised until something actually
    resolves them, and the scan planner reads the tables directly,
    consulting only :attr:`explicit_records`.  Per-vantage overrides
    win over explicit records, which win over the fallback.
    """

    def __init__(self) -> None:
        self._records: dict[str, DnsRecord] = {}
        self._derived: dict[str, DnsRecord] = {}
        self._overrides: dict[tuple[str, str], DnsRecord] = {}
        self._fallback = None

    # ------------------------------------------------------------------
    def add(self, domain: str, record: DnsRecord) -> None:
        """Install an authoritative record (shadows any derived answer)."""
        self._records[domain] = record
        self._derived.pop(domain, None)

    def add_override(self, vantage_id: str, domain: str, record: DnsRecord) -> None:
        """Install a geo-specific answer for one vantage point."""
        self._overrides[(vantage_id, domain)] = record

    def set_fallback(self, fallback) -> None:
        """Install the lazy-derivation hook (``fallback(domain) -> DnsRecord | None``)."""
        self._fallback = fallback

    @property
    def explicit_records(self) -> Mapping[str, DnsRecord]:
        """The records installed with :meth:`add` (read-only view).

        Never includes memoised fallback answers, so a caller that can
        derive the fallback itself only has to look names up here.
        """
        return MappingProxyType(self._records)

    # ------------------------------------------------------------------
    def resolve(self, domain: str, *, vantage_id: str | None = None) -> DnsRecord | None:
        """Full record set for ``domain`` as seen from ``vantage_id``."""
        if vantage_id is not None:
            override = self._overrides.get((vantage_id, domain))
            if override is not None:
                return override
        record = self._records.get(domain)
        if record is not None:
            return record
        record = self._derived.get(domain)
        if record is None and self._fallback is not None:
            record = self._fallback(domain)
            if record is not None:
                self._derived[domain] = record
        return record

    def resolve_address(
        self, domain: str, *, family: int = 4, vantage_id: str | None = None
    ) -> str | None:
        """First A (family=4) or AAAA (family=6) answer, or None."""
        record = self.resolve(domain, vantage_id=vantage_id)
        if record is None:
            return None
        return record.a if family == 4 else record.aaaa

    def known_domains(self) -> int:
        """Records held: explicit ones plus memoised fallback answers."""
        return len(self._records) + len(self._derived)
