"""Helpers turning parsed DNS configuration files into :class:`DnsRecord` sets.

Both simulated servers load their record data through the same
system-independent record view used by the semantic-error plugin
(:class:`~repro.core.views.dns_view.DnsRecordView`), which keeps the
"published records" interpretation consistent between injection and serving.
Whole files go through :func:`config_set_to_records`; the servers' delta
starts re-derive single lines with :func:`zone_line_records` and
:func:`tinydns_line_records`, which apply the view's per-line rules.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.infoset import ConfigNode, ConfigSet
from repro.core.views.dns_view import VIEW_TREE_NAME, DnsRecordView, ZoneContext
from repro.dns.records import DnsRecord, RecordSet
from repro.parsers.base import get_dialect

__all__ = [
    "RecordDataError",
    "config_set_to_records",
    "records_from_files",
    "tinydns_line_records",
    "zone_line_records",
]


class RecordDataError(ValueError):  # conferr: allow[harness/foreign-exception]
    """Record data that parses syntactically but is not loadable.

    Real servers reject such zones at load time (e.g. ``named`` refuses a
    non-numeric TTL); the simulated servers convert this into a failed start.
    """


def _numeric(text: object, what: str, owner: str) -> int:
    try:
        return int(text)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise RecordDataError(f"{what} {text!r} of record {owner!r} is not a number") from None


def _view_record(node: ConfigNode) -> DnsRecord:
    """The :class:`DnsRecord` a ``dns-record`` view node publishes.

    Raises :class:`RecordDataError` for data a real server would refuse to
    load (a non-numeric TTL or priority).
    """
    priority = node.get("priority")
    ttl = node.get("ttl")
    owner = node.name or ""
    return DnsRecord(
        name=owner,
        rtype=node.get("rtype", "A"),
        value=node.value or "",
        priority=_numeric(priority, "priority", owner) if priority is not None else None,
        ttl=_numeric(ttl, "TTL", owner) if ttl not in (None, "") else None,
        metadata={"source_file": node.get("source_file")},
    )


def zone_line_records(
    node: ConfigNode, file_name: str, context: ZoneContext
) -> tuple[list[DnsRecord], ZoneContext]:
    """The records one zone-file node publishes under ``context``, and the
    context after it (see :meth:`DnsRecordView.zone_line_records`)."""
    records, after = DnsRecordView.zone_line_records(node, file_name, context)
    return [_view_record(record) for record in records], after


def tinydns_line_records(node: ConfigNode, file_name: str, group: int) -> list[DnsRecord]:
    """The records one tinydns line publishes (see
    :meth:`DnsRecordView.tinydns_line_records`)."""
    records = DnsRecordView.tinydns_line_records(node, file_name, group)
    return [_view_record(record) for record in records]


def config_set_to_records(config_set: ConfigSet) -> RecordSet:
    """Convert parsed zone/data file trees into a :class:`RecordSet`.

    Raises :class:`RecordDataError` for the first record, in document
    order, that a real server would refuse to load.
    """
    view = DnsRecordView().transform(config_set)
    return RecordSet(
        _view_record(node) for node in view.get(VIEW_TREE_NAME).root.children_of_kind("dns-record")
    )


def records_from_files(files: Mapping[str, str], dialect_by_file: Mapping[str, str]) -> RecordSet:
    """Parse raw file texts (with per-file dialects) and collect their records."""
    config_set = ConfigSet()
    for filename, text in files.items():
        dialect_name = dialect_by_file[filename]
        config_set.add(get_dialect(dialect_name).parse(text, filename=filename))
    return config_set_to_records(config_set)
