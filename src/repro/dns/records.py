"""DNS record model: :class:`DnsRecord` and :class:`RecordSet`."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

from repro.dns.names import is_reverse_name, normalize_name

__all__ = ["DnsRecord", "RecordSet", "KNOWN_RECORD_TYPES"]

#: Record types understood by the model (superset of what the paper's zones use).
KNOWN_RECORD_TYPES = {"SOA", "NS", "A", "AAAA", "PTR", "CNAME", "MX", "TXT", "RP", "HINFO", "SRV"}


@dataclass(frozen=True)
class DnsRecord:
    """One resource record in the system-independent representation.

    ``name`` is the canonical owner name (lower-case, no trailing dot),
    ``rtype`` the record type, ``value`` the primary datum (IP address for A,
    target name for NS/PTR/CNAME and the exchanger for MX, text for TXT...).
    MX records additionally carry ``priority``.
    """

    name: str
    rtype: str
    value: str
    priority: int | None = None
    ttl: int | None = None
    metadata: dict = field(default_factory=dict, hash=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", normalize_name(self.name))
        object.__setattr__(self, "rtype", self.rtype.upper())
        if self.rtype in ("NS", "PTR", "CNAME", "MX"):
            object.__setattr__(self, "value", normalize_name(self.value))

    def with_value(self, value: str) -> "DnsRecord":
        """Copy of this record with a different value."""
        return replace(self, value=value)

    def with_name(self, name: str) -> "DnsRecord":
        """Copy of this record with a different owner name."""
        return replace(self, name=name)

    def is_reverse(self) -> bool:
        """True when the owner lies in a reverse (in-addr.arpa) zone."""
        return is_reverse_name(self.name)

    def key(self) -> tuple[str, str, str]:
        """Uniqueness key (owner, type, value)."""
        return (self.name, self.rtype, self.value)

    def __str__(self) -> str:
        if self.rtype == "MX":
            return f"{self.name} MX {self.priority or 0} {self.value}"
        return f"{self.name} {self.rtype} {self.value}"


class RecordSet:
    """An ordered, queryable collection of DNS records."""

    def __init__(self, records: Iterable[DnsRecord] | None = None):
        self._records: list[DnsRecord] = list(records or ())

    # -------------------------------------------------------------- mutation
    def add(self, record: DnsRecord) -> DnsRecord:
        """Append ``record`` (duplicates are allowed; zones may be inconsistent)."""
        self._records.append(record)
        return record

    def remove(self, record: DnsRecord) -> None:
        """Remove the first record equal to ``record`` (ValueError if absent)."""
        self._records.remove(record)

    def discard_where(self, predicate) -> int:
        """Remove every record matching ``predicate``; return how many were removed."""
        keep = [record for record in self._records if not predicate(record)]
        removed = len(self._records) - len(keep)
        self._records = keep
        return removed

    # --------------------------------------------------------------- queries
    def __iter__(self) -> Iterator[DnsRecord]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def records(self, name: str | None = None, rtype: str | None = None) -> list[DnsRecord]:
        """Records filtered by owner name and/or type."""
        wanted_name = normalize_name(name) if name is not None else None
        wanted_type = rtype.upper() if rtype is not None else None
        return [
            record
            for record in self._records
            if (wanted_name is None or record.name == wanted_name)
            and (wanted_type is None or record.rtype == wanted_type)
        ]

    def names(self) -> list[str]:
        """Distinct owner names in insertion order."""
        seen: dict[str, None] = {}
        for record in self._records:
            seen.setdefault(record.name, None)
        return list(seen)

    def has(self, name: str, rtype: str, value: str | None = None) -> bool:
        """True when a matching record exists."""
        for record in self.records(name, rtype):
            if value is None or record.value == normalize_name(value) or record.value == value:
                return True
        return False

    def forward_records(self) -> list[DnsRecord]:
        """Records whose owner is not in a reverse zone."""
        return [record for record in self._records if not record.is_reverse()]

    def reverse_records(self) -> list[DnsRecord]:
        """Records whose owner is in a reverse zone."""
        return [record for record in self._records if record.is_reverse()]

    def clone(self) -> "RecordSet":
        """Shallow copy (records are immutable)."""
        return RecordSet(self._records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RecordSet({len(self._records)} records)"
