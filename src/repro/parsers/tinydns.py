"""djbdns (tinydns) ``data`` file dialect.

tinydns describes the records a server publishes with one compact line per
definition; the first character selects the record kind and the remaining
colon-separated fields parameterise it::

    .example.com:192.0.2.1:ns1.example.com:259200
    =www.example.com:192.0.2.10:86400
    +ftp.example.com:192.0.2.10:86400
    @example.com:192.0.2.20:mail.example.com:10:86400
    Calias.example.com:www.example.com:86400
    'example.com:some text:86400
    ^10.2.0.192.in-addr.arpa:www.example.com:86400

The crucial property the paper exploits (Section 5.4) is that a single
``=`` line defines both the A record *and* the matching PTR record, so some
faulty record sets (e.g. an A record whose PTR is missing) simply cannot be
expressed in this format.

Tree shape
----------
``file`` root with ``record`` nodes (``name`` = fqdn, ``value`` = the second
field, ``attrs['prefix']`` = the selector character, ``attrs['fields']`` =
the full list of fields after the fqdn) plus ``comment`` (``#``) and
``blank`` nodes.
"""

from __future__ import annotations

from repro.core.infoset import ConfigNode, ConfigTree
from repro.errors import ParseError, SerializationError
from repro.parsers.base import ConfigDialect, register_dialect

__all__ = ["TinyDnsDialect", "DIALECT", "RECORD_PREFIXES"]

#: Selector characters understood by tinydns-data, with a short description.
RECORD_PREFIXES: dict[str, str] = {
    ".": "NS + SOA (+ A of the name server)",
    "&": "NS delegation (+ A of the name server)",
    "=": "A + PTR",
    "+": "A only",
    "-": "disabled A record",
    "@": "MX (+ A of the exchanger)",
    "'": "TXT",
    "^": "PTR",
    "C": "CNAME",
    "Z": "SOA",
    ":": "generic record",
}


class TinyDnsDialect(ConfigDialect):
    """Parser/serialiser for tinydns ``data`` files."""

    name = "tinydns"
    #: One line, one node, read without regard to its neighbours.
    line_oriented = True

    def _parse(self, text: str, filename: str) -> ConfigTree:
        root = ConfigNode("file", name=filename)
        for line_number, raw_line in enumerate(text.splitlines(), start=1):
            stripped = raw_line.strip()
            if not stripped:
                root.append(ConfigNode("blank", attrs={"raw": raw_line}))
                continue
            if stripped.startswith("#"):
                root.append(ConfigNode("comment", value=stripped[1:]))
                continue
            prefix = stripped[0]
            if prefix not in RECORD_PREFIXES:
                raise ParseError(
                    f"unknown tinydns record selector {prefix!r}",
                    filename=filename,
                    line=line_number,
                )
            fields = stripped[1:].split(":")
            if not fields or not fields[0]:
                raise ParseError("record has no fqdn", filename=filename, line=line_number)
            fqdn = fields[0]
            rest = fields[1:]
            root.append(
                ConfigNode(
                    "record",
                    name=fqdn,
                    value=rest[0] if rest else None,
                    attrs={"prefix": prefix, "fields": list(rest)},
                )
            )
        root.set("trailing_newline", text.endswith("\n") or text == "")
        return ConfigTree(filename, root, dialect=self.name)

    def _serialize(self, tree: ConfigTree) -> str:
        lines: list[str] = []
        for node in tree.root.children:
            lines.append(self._serialize_node(node))
        text = "\n".join(lines)
        if tree.root.get("trailing_newline", True) and text:
            text += "\n"
        return text

    def _serialize_node(self, node: ConfigNode) -> str:
        if node.kind == "blank":
            return node.get("raw", "")
        if node.kind == "comment":
            return f"#{node.value or ''}"
        if node.kind == "record":
            prefix = node.get("prefix")
            if prefix not in RECORD_PREFIXES:
                raise SerializationError(f"unknown tinydns record selector {prefix!r}")
            fields = node.get("fields")
            if fields is None:
                fields = [node.value] if node.value is not None else []
            parts = [node.name or ""] + [str(field) for field in fields]
            return prefix + ":".join(parts)
        raise SerializationError(f"tinydns data files cannot express node kind {node.kind!r}")


DIALECT = register_dialect(TinyDnsDialect())
