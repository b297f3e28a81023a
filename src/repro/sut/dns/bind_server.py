"""Simulated ISC BIND name server.

The simulation loads ``named.conf`` plus the master zone files it references
and enforces the zone-sanity checks BIND performs at load time, which are
what makes it "effective in detecting errors of class (3) and (4)" in the
paper's Table 3:

* every zone must carry an SOA and at least one NS record at its apex,
* a name that owns a CNAME record may not own records of any other type
  ("duplicate name for NS and CNAME"),
* MX and NS records may not point at aliases ("MX/NS points to a CNAME").

Cross-zone relations (a host's PTR being missing, or pointing at an alias
defined in another zone) are *not* checked, reproducing the "not found"
entries of Table 3.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from repro.core.infoset import ConfigNode, ConfigSet, ConfigTree
from repro.core.views.dns_view import ZoneContext
from repro.dns.names import normalize_name
from repro.dns.records import DnsRecord, RecordSet
from repro.dns.resolver import ResolutionError, Resolver
from repro.errors import ParseError
from repro.parsers.base import get_dialect
from repro.sut.base import FunctionalTest, StartResult, SystemUnderTest
from repro.sut.dns.zonedata import RecordDataError, config_set_to_records, zone_line_records
from repro.sut.functional import dns_suite
from repro.sut.incremental import (
    BaselineValidation,
    NodeChange,
    ScenarioDelta,
    node_from_change,
    patch_tree,
    patched_trees,
)

__all__ = ["SimulatedBIND", "DEFAULT_NAMED_CONF", "DEFAULT_FORWARD_ZONE", "DEFAULT_REVERSE_ZONE"]


DEFAULT_NAMED_CONF = """\
options {
    directory "/var/named";
    recursion no;
};

zone "example.com" {
    type master;
    file "example.com.zone";
};

zone "2.0.192.in-addr.arpa" {
    type master;
    file "192.0.2.rev";
};
"""

DEFAULT_FORWARD_ZONE = """\
$TTL 86400
$ORIGIN example.com.
@\tIN\tSOA\tns1.example.com. hostmaster.example.com. 2008010101 3600 900 604800 86400
@\tIN\tNS\tns1.example.com.
@\tIN\tMX\t10 mail.example.com.
@\tIN\tTXT\t"v=spf1 mx -all"
ns1\tIN\tA\t192.0.2.1
www\tIN\tA\t192.0.2.10
mail\tIN\tA\t192.0.2.20
shell\tIN\tA\t192.0.2.40
www\tIN\tTXT\t"main web server"
www\tIN\tRP\thostmaster.example.com. www.example.com.
www\tIN\tHINFO\t"INTEL-X86" "LINUX"
webmail\tIN\tCNAME\twww.example.com.
ftp\tIN\tCNAME\twww.example.com.
docs\tIN\tCNAME\twww.example.com.
"""

DEFAULT_REVERSE_ZONE = """\
$TTL 86400
$ORIGIN 2.0.192.in-addr.arpa.
@\tIN\tSOA\tns1.example.com. hostmaster.example.com. 2008010101 3600 900 604800 86400
@\tIN\tNS\tns1.example.com.
1\tIN\tPTR\tns1.example.com.
10\tIN\tPTR\twww.example.com.
20\tIN\tPTR\tmail.example.com.
40\tIN\tPTR\tshell.example.com.
"""


class _ZoneLine(NamedTuple):
    """One top-level zone-file node in the splice index.

    ``start:end`` is its slice of the served record list, ``context`` what
    it was read under, ``owner`` its owner field, and ``inherited`` whether
    the next record line is ownerless and so takes this line's owner.
    """

    start: int
    end: int
    context: ZoneContext
    owner: str | None
    inherited: bool


class _BindDeltaState(NamedTuple):
    """Splice index of the pristine zones: the zone table, the zone files in
    load order (each mapped to its position), each file's lines and the
    served records."""

    zones: dict[str, str]
    positions: dict[str, int]
    lines: dict[str, tuple[_ZoneLine, ...]]
    records: tuple[DnsRecord, ...]


def _inherited(nodes: Sequence[ConfigNode]) -> list[bool]:
    """Per node: whether the first record line after it has no owner."""
    flags = [False] * len(nodes)
    ownerless = False
    for index in range(len(nodes) - 1, -1, -1):
        flags[index] = ownerless
        if nodes[index].kind == "record":
            ownerless = not nodes[index].name
    return flags


class SimulatedBIND(SystemUnderTest):
    """Simulated BIND 9-style authoritative name server."""

    name = "BIND"

    def __init__(
        self,
        named_conf: str = DEFAULT_NAMED_CONF,
        zone_files: Mapping[str, str] | None = None,
    ):
        self._named_conf = named_conf
        self._zone_files = dict(zone_files) if zone_files is not None else {
            "example.com.zone": DEFAULT_FORWARD_ZONE,
            "192.0.2.rev": DEFAULT_REVERSE_ZONE,
        }
        self._records: RecordSet | None = None
        self._resolver: Resolver | None = None
        #: Zones declared in named.conf after the last successful start.
        self.zones: dict[str, str] = {}

    # --------------------------------------------------------------- interface
    def default_configuration(self) -> dict[str, str]:
        files = {"named.conf": self._named_conf}
        files.update(self._zone_files)
        return files

    def dialect_for(self, filename: str) -> str:
        return "namedconf" if filename == "named.conf" else "bindzone"

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
        named_conf_text = files.get("named.conf")
        if named_conf_text is None:
            return StartResult.failed("named.conf is missing")
        try:
            named_conf = get_dialect("namedconf").parse(named_conf_text, filename="named.conf")
        except ParseError as exc:
            return StartResult.failed(f"named.conf parse failure: {exc}")
        return self._start_from_trees(named_conf, files, None)

    def _start_from_trees(
        self,
        named_conf: ConfigTree,
        files: Mapping[str, str],
        zone_trees: ConfigSet | None,
    ) -> StartResult:
        """Load zones from a parsed ``named.conf`` tree.

        The full start enters after parsing ``named.conf``; the delta start
        enters after patching the baseline trees when an edit defeats its
        splice index.  ``zone_trees`` supplies already parsed zone files
        (the delta path's patched set); zone files absent from it are parsed
        from ``files`` as usual.
        """
        zones = self._zone_table(named_conf)
        if isinstance(zones, StartResult):
            return zones

        config_set = ConfigSet()
        for zone_name, zone_file in zones.items():
            if (
                zone_trees is not None
                and zone_file in zone_trees
                and zone_trees.get(zone_file).dialect == "bindzone"
            ):
                # delta path: the zone file is already parsed (and patched);
                # the dialect check keeps a file directive mutated to point at
                # named.conf itself on the text path, like a full parse
                config_set.add(zone_trees.get(zone_file))
                continue
            text = files.get(zone_file)
            if text is None:
                return StartResult.failed(f"zone '{zone_name}': file {zone_file!r} not found")
            try:
                config_set.add(get_dialect("bindzone").parse(text, filename=zone_file))
            except ParseError as exc:
                return StartResult.failed(f"zone '{zone_name}': {exc}")

        try:
            records = config_set_to_records(config_set)
        except RecordDataError as exc:
            return StartResult.failed(f"zone data rejected: {exc}")
        return self._serve(zones, records)

    @staticmethod
    def _zone_table(named_conf: ConfigTree) -> dict[str, str] | StartResult:
        """Zone name -> zone file, as ``named.conf`` declares them.

        A failed :class:`StartResult` when a zone has no file directive or
        there is no zone at all.
        """
        zones: dict[str, str] = {}
        for section in named_conf.root.children_of_kind("section"):
            if (section.name or "").lower() != "zone":
                continue
            zone_name = normalize_name((section.value or "").strip().strip('"'))
            file_directive = section.child_named("file", kind="directive")
            if file_directive is None or not file_directive.value:
                return StartResult.failed(f"zone '{zone_name}': no file directive")
            zones[zone_name] = file_directive.value.strip().strip('"')
        if not zones:
            return StartResult.failed("named.conf declares no zones")
        return zones

    def _serve(
        self, zones: dict[str, str], records: RecordSet | Sequence[DnsRecord]
    ) -> StartResult:
        """Run the zone checks on the loaded records and, if they pass, serve."""
        errors = self.check_zones(zones, records)
        if errors:
            return StartResult.failed(*errors)
        self._publish(zones, records)
        return StartResult.ok()

    def _publish(self, zones: dict[str, str], records: RecordSet | Sequence[DnsRecord]) -> None:
        self._records = records if isinstance(records, RecordSet) else RecordSet(records)
        self._resolver = Resolver(self._records)
        self.zones = dict(zones)

    # ------------------------------------------------------------ delta start
    def _baseline_state(self, trees: ConfigSet) -> _BindDeltaState | None:
        """Index the pristine zone files for splicing single record lines.

        Each top-level node of each loaded zone file gets its slice of the
        served record list and the ``$ORIGIN``/``$TTL``/owner context it was
        read under.  Zone files load once each, in zone-table order (a file
        two zones share loads at its first position).
        """
        if "named.conf" not in trees or self._records is None:
            return None
        loaded = tuple(dict.fromkeys(self.zones.values()))
        if "named.conf" in loaded:
            return None
        records: list[DnsRecord] = []
        lines: dict[str, tuple[_ZoneLine, ...]] = {}
        for file_name in loaded:
            entries: list[_ZoneLine] = []
            context = ZoneContext()
            nodes = trees.get(file_name).root.children
            for node, inherited in zip(nodes, _inherited(nodes)):
                derived, after = zone_line_records(node, file_name, context)
                end = len(records) + len(derived)
                entries.append(_ZoneLine(len(records), end, context, node.name, inherited))
                records.extend(derived)
                context = after
            lines[file_name] = tuple(entries)
        return _BindDeltaState(
            zones=dict(self.zones),
            positions={file_name: position for position, file_name in enumerate(loaded)},
            lines=lines,
            records=tuple(records),
        )

    def start_delta(
        self, baseline: BaselineValidation, delta: ScenarioDelta
    ) -> StartResult | None:
        """Re-derive only the changed record lines and splice them in.

        Each changed record line is re-read under the context its baseline
        line was read under; the first record the server refuses, in load
        order, fails the start, as in a full load.  The new records replace
        the line's slice of the served list; an unchanged list with an
        unchanged zone table is the pristine start itself.  A ``named.conf``
        edit re-resolves the zone table: while it loads the same files in
        the same order the records are reused and only the zone checks
        re-run.

        Edits the index cannot localise re-derive the whole record set from
        the patched trees: a ``$ORIGIN``/``$TTL`` line, an owner that an
        ownerless next record inherits, a zone table that now loads other
        files, an edit of a file no zone loads.  Structural deltas
        (child-list edits) take the full pass.
        """
        if delta.edits:
            return None
        state: _BindDeltaState = baseline.state
        conf_changes: list[NodeChange] = []
        edits: list[tuple[int, int, NodeChange]] = []
        for change in delta.changes:
            if change.tree == "named.conf":
                conf_changes.append(change)
                continue
            position = state.positions.get(change.tree)
            if position is None or change.kind != "record" or len(change.path) != 1:
                return self._start_patched(baseline, delta)
            line = state.lines[change.tree][change.path[0]]
            if line.inherited and change.name != line.owner:
                return self._start_patched(baseline, delta)
            edits.append((position, change.path[0], change))

        zones = state.zones
        if conf_changes:
            named_conf = patch_tree(baseline.trees.get("named.conf"), conf_changes)
            if named_conf is None:
                return None
            zones = self._zone_table(named_conf)
            if isinstance(zones, StartResult):
                self.stop()
                return zones
            if list(dict.fromkeys(zones.values())) != list(state.positions):
                return self._start_patched(baseline, delta)

        self.stop()
        records = state.records
        splices: list[tuple[_ZoneLine, list[DnsRecord]]] = []
        for _position, index, change in sorted(edits, key=lambda edit: edit[:2]):
            line = state.lines[change.tree][index]
            try:
                derived, _after = zone_line_records(
                    node_from_change(change, None), change.tree, line.context
                )
            except RecordDataError as exc:
                return StartResult.failed(f"zone data rejected: {exc}")
            if derived != list(records[line.start : line.end]):
                splices.append((line, derived))
        if splices:
            spliced = list(records)
            for line, derived in reversed(splices):
                spliced[line.start : line.end] = derived
            records = tuple(spliced)
        elif zones == state.zones:
            # not one served record or zone changed: the pristine start
            self._publish(zones, records)
            return baseline.result
        return self._serve(zones, records)

    def _start_patched(
        self, baseline: BaselineValidation, delta: ScenarioDelta
    ) -> StartResult | None:
        """Reload from the patched baseline trees, skipping untransform/parse."""
        patched = patched_trees(baseline.trees, delta)
        if patched is None or "named.conf" not in patched:
            return None
        self.stop()
        result = self._start_from_trees(patched.get("named.conf"), baseline.files, patched)
        state: _BindDeltaState = baseline.state
        if (
            result.started
            and self.zones == state.zones
            and self._records is not None
            and tuple(self._records) == state.records
        ):
            return baseline.result
        return result

    # ------------------------------------------------------------- zone checks
    @staticmethod
    def check_zones(
        zones: Mapping[str, str], records: RecordSet | Sequence[DnsRecord]
    ) -> list[str]:
        """BIND-style zone sanity checks; returns the list of fatal problems."""
        # one pass groups the record types by owner, in first-seen order
        types_by_owner: dict[str, set[str]] = {}
        for record in records:
            types_by_owner.setdefault(record.name, set()).add(record.rtype)

        errors: list[str] = []
        for zone_name in zones:
            apex = types_by_owner.get(normalize_name(zone_name), ())
            if "SOA" not in apex:
                errors.append(f"zone {zone_name}/IN: has no SOA record")
            if "NS" not in apex:
                errors.append(f"zone {zone_name}/IN: has no NS records")

        # CNAME exclusivity: an alias owner may not have records of other types.
        for owner, types in types_by_owner.items():
            if "CNAME" in types and len(types) > 1:
                other = sorted(types - {"CNAME"})
                errors.append(f"zone: {owner}: CNAME and other data ({', '.join(other)})")

        # MX / NS targets must not be aliases.
        alias_owners = {owner for owner, types in types_by_owner.items() if "CNAME" in types}
        for record in records:
            if record.rtype in ("MX", "NS") and record.value in alias_owners:
                errors.append(
                    f"zone: {record.name}/{record.rtype} '{record.value}' is a CNAME (illegal)"
                )
        return errors

    # --------------------------------------------------------------- behaviour
    def query(self, name: str, rtype: str) -> list[DnsRecord]:
        """Answer a query against the loaded zones (empty list when unanswerable)."""
        if self._resolver is None:
            raise RuntimeError("named is not running")
        try:
            return list(self._resolver.resolve(name, rtype).records)
        except ResolutionError:
            return []

    @property
    def records(self) -> RecordSet:
        """Records currently served (empty set when not running)."""
        return self._records if self._records is not None else RecordSet()
