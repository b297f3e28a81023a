"""BIND master zone file dialect.

Zone files list DNS resource records, one per line::

    $TTL 86400
    $ORIGIN example.com.
    @       IN  SOA   ns1.example.com. admin.example.com. 2008010101 3600 900 604800 86400
    @       IN  NS    ns1.example.com.
    ns1     IN  A     192.0.2.1
    www     IN  A     192.0.2.10
    ftp     IN  CNAME www.example.com.
    @       IN  MX    10 mail.example.com.

Multi-line records using parentheses (typically SOA) are joined during
parsing; they serialise back as a single line, which BIND accepts.  Comments
introduced by ``;`` are preserved when they occupy a whole line and recorded
in ``attrs['inline_comment']`` otherwise.

Tree shape
----------
``file`` root with children:

* ``control`` nodes for ``$TTL`` / ``$ORIGIN`` (name = control keyword,
  value = argument),
* ``record`` nodes: ``name`` = owner name (possibly ``@`` or empty for
  "same as previous"), ``value`` = rdata string, ``attrs['type']`` = record
  type, plus optional ``attrs['ttl']`` and ``attrs['class']``,
* ``comment`` and ``blank`` nodes.
"""

from __future__ import annotations

import re

from repro.core.infoset import ConfigNode, ConfigTree
from repro.errors import ParseError, SerializationError
from repro.parsers.base import ConfigDialect, register_dialect

__all__ = ["BindZoneDialect", "DIALECT"]

_RECORD_TYPES = {
    "SOA", "NS", "A", "AAAA", "PTR", "CNAME", "MX", "TXT", "SRV", "RP", "HINFO", "NAPTR", "SPF",
}
_CLASSES = {"IN", "CH", "HS"}
_CONTROL_RE = re.compile(r"^\$(?P<name>[A-Z]+)\s+(?P<value>.+?)\s*$")


def _strip_comment(line: str) -> tuple[str, str]:
    """Split ``line`` into (content, comment) honouring quoted strings."""
    in_quotes = False
    for index, char in enumerate(line):
        if char == '"':
            in_quotes = not in_quotes
        elif char == ";" and not in_quotes:
            return line[:index].rstrip(), line[index:]
    return line.rstrip(), ""


def _join_parentheses(lines: list[str], filename: str) -> list[tuple[int, str]]:
    """Join multi-line parenthesised records into single logical lines.

    Lines outside any parenthesised group are passed through verbatim (so
    their comments survive); grouped lines are concatenated with their
    comments stripped.
    """
    logical: list[tuple[int, str]] = []
    buffer = ""
    buffer_line = 0
    group_size = 0
    depth = 0
    for line_number, raw in enumerate(lines, start=1):
        content, _comment = _strip_comment(raw)
        if depth == 0:
            buffer = content
            buffer_line = line_number
            group_size = 1
        else:
            buffer += " " + content.strip()
            group_size += 1
        depth += content.count("(") - content.count(")")
        if depth < 0:
            raise ParseError("unbalanced ')'", filename=filename, line=line_number)
        if depth == 0:
            if group_size == 1:
                logical.append((line_number, raw))
            else:
                logical.append((buffer_line, buffer))
    if depth != 0:
        raise ParseError("unbalanced '(' at end of file", filename=filename)
    return logical


class BindZoneDialect(ConfigDialect):
    """Parser/serialiser for BIND master zone files."""

    name = "bindzone"

    def splice_safe(self, parent, index) -> bool:
        # a record line reads its context from the lines above it: an
        # ownerless record takes the previous owner, and $ORIGIN/$TTL
        # govern every line below them, so no splice is context-free
        return False

    def _parse(self, text: str, filename: str) -> ConfigTree:
        root = ConfigNode("file", name=filename)
        raw_lines = text.splitlines()

        # First pass: find lines that are purely blank or comments so we keep
        # them verbatim; everything else goes through parenthesis joining.
        logical = _join_parentheses(raw_lines, filename)
        for line_number, raw in logical:
            content, comment = _strip_comment(raw)
            stripped = content.strip()
            if not stripped:
                if comment:
                    root.append(ConfigNode("comment", value=comment[1:]))
                else:
                    root.append(ConfigNode("blank", attrs={"raw": raw}))
                continue
            if stripped.startswith("$"):
                match = _CONTROL_RE.match(stripped)
                if match is None:
                    raise ParseError("malformed control statement", filename=filename, line=line_number)
                root.append(
                    ConfigNode(
                        "control",
                        name=match.group("name"),
                        value=match.group("value"),
                        attrs={"inline_comment": comment},
                    )
                )
                continue
            root.append(self._record_node(raw, content, comment, filename, line_number))
        root.set("trailing_newline", text.endswith("\n") or text == "")
        return ConfigTree(filename, root, dialect=self.name)

    def _record_node(
        self, raw: str, content: str, comment: str, filename: str, line_number: int
    ) -> ConfigNode:
        owner_is_blank = content[:1].isspace()
        # remove parentheses from joined multi-line records
        flattened = content.replace("(", " ").replace(")", " ")
        tokens = flattened.split()
        if not tokens:
            raise ParseError("empty record", filename=filename, line=line_number)
        owner = "" if owner_is_blank else tokens.pop(0)
        ttl = None
        record_class = None
        while tokens:
            token = tokens[0]
            upper = token.upper()
            if upper in _CLASSES and record_class is None:
                record_class = upper
                tokens.pop(0)
            elif token.isdigit() and ttl is None:
                ttl = token
                tokens.pop(0)
            else:
                break
        if not tokens:
            raise ParseError("record has no type", filename=filename, line=line_number)
        record_type = tokens.pop(0).upper()
        if record_type not in _RECORD_TYPES:
            raise ParseError(
                f"unknown record type {record_type!r}", filename=filename, line=line_number
            )
        rdata = " ".join(tokens)
        return ConfigNode(
            "record",
            name=owner,
            value=rdata,
            attrs={
                "type": record_type,
                "ttl": ttl,
                "class": record_class,
                "inline_comment": comment,
            },
        )

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
            return f";{node.value or ''}"
        if node.kind == "control":
            suffix = node.get("inline_comment", "")
            return f"${node.name} {node.value}" + (f" {suffix}" if suffix else "")
        if node.kind == "record":
            owner = node.name or ""
            parts = [owner if owner else "        "]
            if node.get("ttl"):
                parts.append(str(node.get("ttl")))
            if node.get("class"):
                parts.append(node.get("class"))
            parts.append(node.get("type", "A"))
            if node.value:
                parts.append(node.value)
            line = "\t".join(parts)
            suffix = node.get("inline_comment", "")
            return line + (f" {suffix}" if suffix else "")
        raise SerializationError(f"zone files cannot express node kind {node.kind!r}")


DIALECT = register_dialect(BindZoneDialect())
