"""DNS record view: a system-independent representation of published records.

The semantic-errors case study (paper Section 5.4) defines faults on "an
abstract representation that shows the DNS records published by each
server"; simple transformations map each server's configuration files into
this representation and back.  The reverse transformation is where format
expressiveness matters: djbdns' combined ``=`` directive defines an A record
*and* its PTR at once, so a record set in which one of the two has been
removed or made inconsistent **cannot** be expressed and the fault is
reported as impossible to inject (Table 3, entries "N/A").

View shape
----------
A single view tree named ``dns-records`` whose root (kind ``records``)
contains one ``dns-record`` node per published record:

* ``name``  -- canonical owner name,
* ``value`` -- primary datum (address, target name, text),
* ``attrs['rtype']``    -- record type,
* ``attrs['priority']`` -- MX priority (when applicable),
* ``attrs['source_file']`` / ``attrs['combined_group']`` /
  ``attrs['combined_role']`` -- provenance used by the reverse transform.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core.infoset import ConfigNode, ConfigSet, ConfigTree
from repro.core.views.base import View
from repro.dns.names import is_subdomain_of, normalize_name, reverse_pointer_name
from repro.errors import SerializationError, TransformError

__all__ = ["DnsRecordView", "VIEW_TREE_NAME", "ZoneContext"]

VIEW_TREE_NAME = "dns-records"

#: Numeric types used for the generic (``:``) tinydns lines.
_GENERIC_TYPE_NUMBERS = {"HINFO": 13, "RP": 17, "TXT": 16}
_GENERIC_TYPE_NAMES = {str(number): name for name, number in _GENERIC_TYPE_NUMBERS.items()}


class ZoneContext(NamedTuple):
    """What a zone-file line is read under: the current ``$ORIGIN`` and
    ``$TTL`` arguments, and the owner text an ownerless record inherits."""

    origin: str = ""
    default_ttl: str | None = None
    last_owner: str = ""


def make_record_node(
    name: str,
    rtype: str,
    value: str,
    priority: int | None = None,
    ttl: str | None = None,
    **extra,
) -> ConfigNode:
    """Build a ``dns-record`` view node (used by plugins to add new records)."""
    attrs = {"rtype": rtype.upper()}
    if priority is not None:
        attrs["priority"] = priority
    if ttl is not None:
        attrs["ttl"] = ttl
    attrs.update(extra)
    return ConfigNode("dns-record", name=normalize_name(name), value=value, attrs=attrs)


class DnsRecordView(View):
    """Bidirectional mapping between zone/data files and the record view."""

    name = "dns-records"

    # ------------------------------------------------------------- transform
    def transform(self, config_set: ConfigSet) -> ConfigSet:
        """Collect the published records of every zone/data file in the set.

        Files in other dialects (e.g. BIND's ``named.conf``) publish no
        records; they are carried through unchanged by :meth:`untransform`.
        """
        root = ConfigNode("records", name=VIEW_TREE_NAME)
        for tree in config_set:
            if tree.dialect == "bindzone":
                context = ZoneContext()
                for node in tree.root.children:
                    records, context = self.zone_line_records(node, tree.name, context)
                    for record in records:
                        root.append(record)
            elif tree.dialect == "tinydns":
                group = 0
                for node in tree.root.children:
                    if node.kind == "record":
                        group += 1
                        for record in self.tinydns_line_records(node, tree.name, group):
                            root.append(record)
        return ConfigSet([ConfigTree(VIEW_TREE_NAME, root, dialect="view:dns-records")])

    # ---- BIND zone files ----------------------------------------------------
    @staticmethod
    def zone_line_records(
        node: ConfigNode, file_name: str, context: ZoneContext
    ) -> tuple[list[ConfigNode], ZoneContext]:
        """The records one top-level zone-file node publishes, read under
        ``context``, and the context the following node is read under.

        The single source of truth for zone-file semantics: :meth:`transform`
        folds it over whole files, the BIND server's delta start re-derives
        single changed lines with it.  ``$ORIGIN``/``$TTL`` lines change the
        context; a record line with an empty owner inherits the previous
        record line's owner text.
        """
        if node.kind == "control":
            if node.name == "ORIGIN":
                return [], context._replace(origin=node.value or "")
            if node.name == "TTL":
                return [], context._replace(default_ttl=node.value)
            return [], context
        if node.kind != "record":
            return [], context
        origin = context.origin
        owner_text = node.name if node.name else context.last_owner
        owner = normalize_name(owner_text, origin)
        rtype = node.get("type", "A").upper()
        rdata = node.value or ""
        attrs = {
            "rtype": rtype,
            "source_file": file_name,
            "origin": normalize_name(origin) if origin else "",
            "ttl": node.get("ttl") or context.default_ttl,
        }
        if rtype == "MX":
            parts = rdata.split(None, 1)
            attrs["priority"] = int(parts[0]) if parts and parts[0].isdigit() else 0
            value = normalize_name(parts[1], origin) if len(parts) > 1 else ""
        elif rtype == "SOA":
            attrs["soa_rdata"] = rdata
            primary = rdata.split()[0] if rdata.split() else ""
            value = normalize_name(primary, origin)
        elif rtype in ("NS", "CNAME", "PTR"):
            value = normalize_name(rdata, origin)
        else:  # A, AAAA, TXT, RP, HINFO, ...
            value = rdata.strip('"')
        record = ConfigNode("dns-record", name=owner, value=value, attrs=attrs)
        return [record], context._replace(last_owner=owner_text)

    # ---- tinydns data files -------------------------------------------------
    @staticmethod
    def tinydns_line_records(node: ConfigNode, file_name: str, group: int) -> list[ConfigNode]:
        """The records one tinydns ``data`` line publishes.

        ``group`` is the line's ordinal among the file's record lines; the
        records of one line share a ``combined_group`` so the reverse
        transform can rebuild the line.  Every line is self-contained, so
        this is all of tinydns' semantics: :meth:`transform` maps it over
        whole files, the djbdns server's delta start over changed lines.
        """
        if node.kind != "record":
            return []
        prefix = node.get("prefix")
        fqdn = normalize_name(node.name or "")
        fields = [str(field) for field in node.get("fields", [])]
        common = {
            "source_file": file_name,
            "combined_group": f"{file_name}:{group}",
            "prefix": prefix,
        }
        records: list[ConfigNode] = []

        def add(rtype: str, name: str, value: str, role: str, **extra) -> None:
            attrs = {"rtype": rtype, "combined_role": role, **common, **extra}
            records.append(
                ConfigNode("dns-record", name=normalize_name(name), value=value, attrs=attrs)
            )

        ip = fields[0] if len(fields) > 0 else ""
        if prefix == "=":
            add("A", fqdn, ip, "a")
            add("PTR", reverse_pointer_name(ip), fqdn, "ptr")
        elif prefix == "+":
            add("A", fqdn, ip, "a")
        elif prefix == "^":
            add("PTR", fqdn, ip, "ptr")
        elif prefix == "C":
            add("CNAME", fqdn, normalize_name(ip), "cname")
        elif prefix == "'":
            add("TXT", fqdn, ip, "txt")
        elif prefix == "@":
            exchanger = fields[1] if len(fields) > 1 else ""
            distance = fields[2] if len(fields) > 2 else "0"
            exchanger_name = normalize_name(exchanger) if "." in exchanger else normalize_name(f"{exchanger}.mx.{fqdn}")
            add("MX", fqdn, exchanger_name, "mx", priority=int(distance or 0))
            if ip:
                add("A", exchanger_name, ip, "mx-a")
        elif prefix in (".", "&"):
            server = fields[1] if len(fields) > 1 else ""
            server_name = normalize_name(server) if "." in server else normalize_name(f"{server}.ns.{fqdn}")
            if prefix == ".":
                add("SOA", fqdn, server_name, "soa")
            add("NS", fqdn, server_name, "ns")
            if ip:
                add("A", server_name, ip, "ns-a")
        elif prefix == "Z":
            primary = fields[1] if len(fields) > 1 else ""
            add("SOA", fqdn, normalize_name(primary), "soa")
        elif prefix == ":":
            type_number = fields[0] if fields else ""
            rdata = fields[1] if len(fields) > 1 else ""
            rtype = _GENERIC_TYPE_NAMES.get(type_number, f"TYPE{type_number}")
            add(rtype, fqdn, rdata, "generic", generic_type=type_number)
        elif prefix != "-":  # a disabled ``-`` record publishes nothing
            raise TransformError(f"unsupported tinydns selector {prefix!r} in {file_name}")
        return records

    # ----------------------------------------------------------- untransform
    def untransform(self, view_set: ConfigSet, original: ConfigSet) -> ConfigSet:
        if VIEW_TREE_NAME not in view_set:
            raise TransformError("DNS record view tree is missing")
        records = view_set.get(VIEW_TREE_NAME).root.children_of_kind("dns-record")
        dialects = {tree.dialect for tree in original}
        result_trees: list[ConfigTree] = []
        for tree in original:
            if tree.dialect == "bindzone":
                result_trees.append(self._rebuild_bind_zone(tree, records))
            elif tree.dialect == "tinydns":
                result_trees.append(self._rebuild_tinydns(tree, records))
            else:
                # non-record files (named.conf, ...) are untouched by record mutations
                result_trees.append(tree.clone())
        self._check_all_records_placed(records, original, dialects)
        return ConfigSet(result_trees)

    # ---- BIND rebuild -------------------------------------------------------
    @staticmethod
    def _zone_origin(tree: ConfigTree) -> str:
        for node in tree.root.children_of_kind("control"):
            if node.name == "ORIGIN":
                return normalize_name(node.value or "")
        soa_owners = [
            normalize_name(node.name or "")
            for node in tree.root.children_of_kind("record")
            if node.get("type") == "SOA"
        ]
        return soa_owners[0] if soa_owners else ""

    def _rebuild_bind_zone(self, tree: ConfigTree, records: list[ConfigNode]) -> ConfigTree:
        origin = self._zone_origin(tree)
        new_root = ConfigNode("file", name=tree.name, attrs=dict(tree.root.attrs))
        for node in tree.root.children:
            if node.kind in ("control", "comment", "blank"):
                new_root.append(node.clone())
        for record in records:
            if not self._record_belongs_to_zone(record, tree.name, origin):
                continue
            new_root.append(self._bind_record_node(record, origin))
        return ConfigTree(tree.name, new_root, dialect="bindzone")

    @staticmethod
    def _record_belongs_to_zone(record: ConfigNode, file_name: str, origin: str) -> bool:
        source = record.get("source_file")
        if source is not None:
            return source == file_name
        return bool(origin) and is_subdomain_of(record.name or "", origin)

    @staticmethod
    def _relative_owner(owner: str, origin: str) -> str:
        owner_norm = normalize_name(owner)
        if origin and owner_norm == origin:
            return "@"
        if origin and owner_norm.endswith("." + origin):
            return owner_norm[: -(len(origin) + 1)]
        return owner_norm + "."

    def _bind_record_node(self, record: ConfigNode, origin: str) -> ConfigNode:
        rtype = record.get("rtype", "A").upper()
        owner = self._relative_owner(record.name or "", origin)
        if rtype == "MX":
            rdata = f"{record.get('priority', 0)} {normalize_name(record.value or '')}."
        elif rtype == "SOA" and record.get("soa_rdata"):
            rdata = record.get("soa_rdata")
        elif rtype in ("NS", "CNAME", "PTR", "SOA"):
            rdata = f"{normalize_name(record.value or '')}."
        elif rtype in ("TXT", "RP", "HINFO"):
            value = record.value or ""
            rdata = f'"{value}"' if rtype == "TXT" and " " in value and not value.startswith('"') else value
        else:
            rdata = record.value or ""
        attrs = {"type": rtype, "ttl": record.get("ttl"), "class": "IN", "inline_comment": ""}
        return ConfigNode("record", name=owner, value=rdata, attrs=attrs)

    # ---- tinydns rebuild ----------------------------------------------------
    def _rebuild_tinydns(self, tree: ConfigTree, records: list[ConfigNode]) -> ConfigTree:
        new_root = ConfigNode("file", name=tree.name, attrs=dict(tree.root.attrs))
        for node in tree.root.children:
            if node.kind in ("comment", "blank"):
                new_root.append(node.clone())

        mine = [
            record
            for record in records
            if record.get("source_file") in (tree.name, None)
        ]
        grouped: dict[str, list[ConfigNode]] = {}
        singles: list[ConfigNode] = []
        for record in mine:
            group = record.get("combined_group")
            if group is None:
                singles.append(record)
            else:
                grouped.setdefault(group, []).append(record)

        for group_id, members in grouped.items():
            new_root.append(self._rebuild_tinydns_group(group_id, members))
        for record in singles:
            new_root.append(self._tinydns_single_line(record))
        return ConfigTree(tree.name, new_root, dialect="tinydns")

    def _rebuild_tinydns_group(self, group_id: str, members: list[ConfigNode]) -> ConfigNode:
        prefix = members[0].get("prefix")
        by_role: dict[str, list[ConfigNode]] = {}
        for member in members:
            by_role.setdefault(member.get("combined_role", ""), []).append(member)

        def only(role: str) -> ConfigNode | None:
            nodes = by_role.get(role, [])
            return nodes[0] if len(nodes) == 1 else None

        if prefix == "=":
            a_record = only("a")
            ptr_record = only("ptr")
            if a_record is None or ptr_record is None:
                raise SerializationError(
                    f"tinydns '=' line {group_id}: the A and PTR records it defines can only "
                    "be expressed together; the mutated record set separates them"
                )
            expected_ptr_owner = reverse_pointer_name(a_record.value or "0.0.0.0") \
                if _looks_like_ip(a_record.value) else None
            if (
                expected_ptr_owner is None
                or normalize_name(ptr_record.name or "") != expected_ptr_owner
                or normalize_name(ptr_record.value or "") != normalize_name(a_record.name or "")
            ):
                raise SerializationError(
                    f"tinydns '=' line {group_id}: mutated A/PTR pair is no longer consistent "
                    "and cannot be expressed by a single '=' directive"
                )
            return _tinydns_line("=", a_record.name, [a_record.value, a_record.get("ttl")])

        if prefix == "@":
            mx_record = only("mx")
            if mx_record is None:
                raise SerializationError(
                    f"tinydns '@' line {group_id}: the MX record it defines has been removed or duplicated"
                )
            address = only("mx-a")
            ip = address.value if address is not None else ""
            return _tinydns_line(
                "@",
                mx_record.name,
                [ip, mx_record.value, str(mx_record.get("priority", 0)), mx_record.get("ttl")],
            )

        if prefix in (".", "&"):
            ns_record = only("ns")
            if ns_record is None:
                raise SerializationError(
                    f"tinydns '{prefix}' line {group_id}: the NS record it defines has been removed or duplicated"
                )
            address = only("ns-a")
            ip = address.value if address is not None else ""
            return _tinydns_line(prefix, ns_record.name, [ip, ns_record.value, ns_record.get("ttl")])

        # single-record selectors (+ ^ C ' Z :) keep their shape
        return self._tinydns_single_line(members[0])

    def _tinydns_single_line(self, record: ConfigNode) -> ConfigNode:
        rtype = record.get("rtype", "A").upper()
        name = record.name or ""
        value = record.value or ""
        ttl = record.get("ttl")
        if rtype == "A":
            return _tinydns_line("+", name, [value, ttl])
        if rtype == "PTR":
            return _tinydns_line("^", name, [value, ttl])
        if rtype == "CNAME":
            return _tinydns_line("C", name, [value, ttl])
        if rtype == "TXT":
            return _tinydns_line("'", name, [value, ttl])
        if rtype == "MX":
            return _tinydns_line("@", name, ["", value, str(record.get("priority", 0)), ttl])
        if rtype == "NS":
            return _tinydns_line("&", name, ["", value, ttl])
        if rtype == "SOA":
            return _tinydns_line("Z", name, [value, ttl])
        generic_number = record.get("generic_type") or _GENERIC_TYPE_NUMBERS.get(rtype)
        if generic_number is not None:
            return _tinydns_line(":", name, [str(generic_number), value, ttl])
        raise SerializationError(f"tinydns data files cannot express {rtype} records")

    # ---- consistency ---------------------------------------------------------
    def _check_all_records_placed(
        self, records: list[ConfigNode], original: ConfigSet, dialects: set[str]
    ) -> None:
        if "bindzone" not in dialects:
            return
        origins = {tree.name: self._zone_origin(tree) for tree in original if tree.dialect == "bindzone"}
        for record in records:
            if record.get("source_file") in origins:
                continue
            if record.get("source_file") is None and not any(
                origin and is_subdomain_of(record.name or "", origin) for origin in origins.values()
            ):
                raise SerializationError(
                    f"record {record.name} {record.get('rtype')} does not belong to any "
                    "zone file of the original configuration"
                )


def _looks_like_ip(value: str | None) -> bool:
    if not value:
        return False
    parts = value.split(".")
    return len(parts) == 4 and all(part.isdigit() for part in parts)


def _tinydns_line(prefix: str, fqdn: str | None, fields: list) -> ConfigNode:
    cleaned = [str(field) for field in fields if field is not None]
    while cleaned and cleaned[-1] == "":
        cleaned.pop()
    return ConfigNode(
        "record",
        name=fqdn,
        value=cleaned[0] if cleaned else None,
        attrs={"prefix": prefix, "fields": cleaned},
    )
