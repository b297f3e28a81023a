"""Simulated djbdns (tinydns) name server.

djbdns reads a single ``data`` file.  Its configuration format is a strength:
the ``=`` selector defines a host's A record and the matching PTR record
together, so whole classes of inconsistency simply cannot be written down
(paper Section 5.4).  Its weakness, which the paper also reports, is that it
performs **no cross-record consistency checking**: an alias that clashes with
NS data or an MX pointing at a CNAME are served without complaint.

The simulated server therefore only validates line syntax (unknown selector
characters, malformed IP addresses, non-numeric MX distances) and otherwise
publishes whatever the data file describes.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from repro.core.infoset import ConfigNode, ConfigSet, ConfigTree
from repro.dns.records import DnsRecord, RecordSet
from repro.dns.resolver import ResolutionError, Resolver
from repro.errors import ParseError
from repro.parsers.base import get_dialect
from repro.sut.base import FunctionalTest, StartResult, SystemUnderTest
from repro.sut.dns.zonedata import RecordDataError, config_set_to_records, tinydns_line_records
from repro.sut.functional import dns_suite
from repro.sut.incremental import BaselineValidation, ScenarioDelta, node_from_change

__all__ = ["SimulatedDjbdns", "DEFAULT_TINYDNS_DATA"]


#: Default ``data`` file publishing the same hosts, mail exchanger, aliases
#: and TXT/RP/HINFO records as the BIND default zones.  Host address/PTR
#: pairs use the combined ``=`` selector, which is what makes some fault
#: classes inexpressible for djbdns.
DEFAULT_TINYDNS_DATA = """\
# tinydns data file for example.com and its reverse zone
.example.com::ns1.example.com:259200
.2.0.192.in-addr.arpa::ns1.example.com:259200
=ns1.example.com:192.0.2.1:86400
=www.example.com:192.0.2.10:86400
=mail.example.com:192.0.2.20:86400
=shell.example.com:192.0.2.40:86400
@example.com::mail.example.com:10:86400
'example.com:v=spf1 mx -all:86400
'www.example.com:main web server:86400
:www.example.com:17:hostmaster.example.com www.example.com:86400
:www.example.com:13:INTEL-X86 LINUX:86400
Cwebmail.example.com:www.example.com:86400
Cftp.example.com:www.example.com:86400
Cdocs.example.com:www.example.com:86400
"""


def _looks_like_ip(value: str) -> bool:
    parts = value.split(".")
    return len(parts) == 4 and all(part.isdigit() and 0 <= int(part) <= 255 for part in parts)


class _DjbdnsDeltaState(NamedTuple):
    """Splice index of the pristine ``data`` file: per top-level node its
    ``(start, end, group)`` -- its slice of the published records and its
    ordinal among the record lines -- and the published records."""

    lines: tuple[tuple[int, int, int], ...]
    records: tuple[DnsRecord, ...]


class SimulatedDjbdns(SystemUnderTest):
    """Simulated djbdns/tinydns authoritative server."""

    name = "djbdns"
    config_filename = "data"

    def __init__(self, data_file: str = DEFAULT_TINYDNS_DATA):
        self._data_file = data_file
        self._records: RecordSet | None = None
        self._resolver: Resolver | None = None

    # --------------------------------------------------------------- interface
    def default_configuration(self) -> dict[str, str]:
        return {self.config_filename: self._data_file}

    def dialect_for(self, filename: str) -> str:
        return "tinydns"

    def functional_tests(self) -> list[FunctionalTest]:
        return dns_suite("example.com", "2.0.192.in-addr.arpa")

    def is_running(self) -> bool:
        return self._resolver is not None

    def stop(self) -> None:
        self._records = None
        self._resolver = None

    # ------------------------------------------------------------------ start
    def start(self, files: Mapping[str, str]) -> StartResult:
        self.stop()
        text = files.get(self.config_filename)
        if text is None:
            return StartResult.failed("data file is missing")
        try:
            tree = get_dialect("tinydns").parse(text, filename=self.config_filename)
        except ParseError as exc:
            return StartResult.failed(f"tinydns-data: {exc}")
        return self._start_from_tree(tree)

    def _start_from_tree(self, tree: ConfigTree) -> StartResult:
        """Validate and publish from an already parsed ``data`` tree.

        Like ``tinydns-data``, every line's syntax is checked before any
        record is compiled, so a syntax error anywhere wins over a record
        the compiler refuses.
        """
        for node in tree.root.children_of_kind("record"):
            error = self._syntax_error(node)
            if error is not None:
                return StartResult.failed(error)
        try:
            records = config_set_to_records(ConfigSet([tree]))
        except RecordDataError as exc:
            return StartResult.failed(f"tinydns-data: {exc}")
        self._publish(records)
        return StartResult.ok()

    @staticmethod
    def _syntax_error(node: ConfigNode) -> str | None:
        """What ``tinydns-data`` says about a record line's syntax, if anything."""
        prefix = node.get("prefix")
        fields = [str(field) for field in node.get("fields", [])]
        address = fields[0] if fields else ""
        # an ``=`` line derives its PTR owner from the address, so an empty
        # one is as unparsable as a malformed one; ``+``/``-`` accept it
        if (prefix == "=" or (prefix in ("+", "-") and address)) and not _looks_like_ip(address):
            return f"tinydns-data: unable to parse IP address '{address}' in line for {node.name}"
        if prefix == "@" and len(fields) > 2 and fields[2] and not fields[2].isdigit():
            return f"tinydns-data: MX distance '{fields[2]}' is not a number in line for {node.name}"
        if prefix == ":" and address and not address.isdigit():
            return f"tinydns-data: generic record type '{address}' is not a number"
        return None

    def _publish(self, records: RecordSet) -> None:
        self._records = records
        self._resolver = Resolver(records)

    # ------------------------------------------------------------ delta start
    def _baseline_state(self, trees: ConfigSet) -> _DjbdnsDeltaState | None:
        """Index the pristine ``data`` file: each line's slice of the records."""
        if self.config_filename not in trees or self._records is None:
            return None
        records: list[DnsRecord] = []
        lines: list[tuple[int, int, int]] = []
        group = 0
        for node in trees.get(self.config_filename).root.children:
            if node.kind == "record":
                group += 1
            derived = tinydns_line_records(node, self.config_filename, group)
            lines.append((len(records), len(records) + len(derived), group))
            records.extend(derived)
        return _DjbdnsDeltaState(lines=tuple(lines), records=tuple(records))

    def start_delta(
        self, baseline: BaselineValidation, delta: ScenarioDelta
    ) -> StartResult | None:
        """Re-derive only the changed ``data`` lines and splice them in.

        Every tinydns line is self-contained, so a changed line's records
        replace its slice of the published list and nothing else moves.
        Errors come out as a full compile reports them: the first syntax
        error in document order, else the first refused record.  An
        unchanged list is the pristine start itself.  Structural deltas
        (child-list edits) take the full pass.
        """
        if delta.edits:
            return None
        state: _DjbdnsDeltaState = baseline.state
        edits: dict[int, ConfigNode] = {}
        for change in delta.changes:
            if change.tree != self.config_filename or len(change.path) != 1:
                return None
            edits[change.path[0]] = node_from_change(change, None)
        self.stop()
        order = sorted(edits)
        for index in order:
            error = self._syntax_error(edits[index])
            if error is not None:
                return StartResult.failed(error)
        splices: list[tuple[int, int, list[DnsRecord]]] = []
        for index in order:
            start, end, group = state.lines[index]
            try:
                derived = tinydns_line_records(edits[index], self.config_filename, group)
            except RecordDataError as exc:
                return StartResult.failed(f"tinydns-data: {exc}")
            if derived != list(state.records[start:end]):
                splices.append((start, end, derived))
        if not splices:
            # the mutation did not change a single published record
            self._publish(RecordSet(state.records))
            return baseline.result
        records = list(state.records)
        for start, end, derived in reversed(splices):
            records[start:end] = derived
        self._publish(RecordSet(records))
        return StartResult.ok()

    # --------------------------------------------------------------- behaviour
    def query(self, name: str, rtype: str) -> list[DnsRecord]:
        """Answer a query against the published records (empty when unanswerable)."""
        if self._resolver is None:
            raise RuntimeError("tinydns is not running")
        try:
            return list(self._resolver.resolve(name, rtype).records)
        except ResolutionError:
            return []

    @property
    def records(self) -> RecordSet:
        """Records currently served (empty set when not running)."""
        return self._records if self._records is not None else RecordSet()
