"""MySQL ``my.cnf``-style INI configuration dialect.

The format consists of ``[section]`` headers followed by directives of the
form ``name``, ``name = value`` or ``name=value``; comments start with ``#``
or ``;``.  MySQL's option file shares this shape with many other Unix tools,
and the paper's MySQL experiments operate on it.

Tree shape
----------
``file`` root containing, in order, any ``comment``/``blank`` lines that
precede the first header and then ``section`` nodes (name = header text);
each section contains ``directive``, ``comment`` and ``blank`` children.
Directives keep their separator and indentation in ``attrs`` so the file
serialises back byte-identically when unmodified.
"""

from __future__ import annotations

import re

from repro.core.infoset import ConfigNode, ConfigTree
from repro.errors import ParseError, SerializationError
from repro.parsers.base import ConfigDialect, header_splice_safe, register_dialect

__all__ = ["IniDialect", "DIALECT"]

_HEADER_RE = re.compile(r"^\s*\[(?P<name>[^\]]*)\]\s*$")
_DIRECTIVE_RE = re.compile(
    r"^(?P<indent>\s*)(?P<name>[^\s=#;\[]+)(?P<separator>\s*=\s*)?(?P<value>[^#;]*?)(?P<comment>\s*[#;].*)?$"
)

#: Directive names the parser accepts verbatim (no separators, comment
#: markers, whitespace or a header-opening bracket).
_SAFE_NAME_RE = re.compile(r"^[^\s=#;\[]+$")
_SAFE_SEPARATOR_RE = re.compile(r"^\s*=\s*$")
#: Attribute keys :meth:`IniDialect._directive_node` produces; a directive
#: carrying anything else did not come from this parser.
_DIRECTIVE_ATTRS = frozenset({"indent", "separator", "inline_comment"})


class IniDialect(ConfigDialect):
    """Parser/serialiser for ``my.cnf``-style INI files."""

    name = "ini"
    line_oriented = True

    def roundtrip_safe(self, kind, name, value, attrs) -> bool:
        # A directive re-parses identically when nothing in it can be taken
        # for a comment marker, header, separator, line break or strippable
        # whitespace.  Anything else defers to the real round trip.
        if kind != "directive" or not name or not _SAFE_NAME_RE.match(name):
            return False
        if not _DIRECTIVE_ATTRS.issuperset(attrs):
            return False
        if attrs.get("inline_comment"):
            return False
        indent = attrs.get("indent", "")
        if indent and not indent.isspace():
            return False
        separator = attrs.get("separator", "")
        if value is None:
            return not separator
        if not _SAFE_SEPARATOR_RE.match(separator or ""):
            return False
        if value != value.strip():
            return False
        return "#" not in value and ";" not in value and "\n" not in value and "\r" not in value

    def splice_safe(self, parent, index) -> bool:
        return header_splice_safe(parent, index)

    def _parse(self, text: str, filename: str) -> ConfigTree:
        root = ConfigNode("file", name=filename)
        current: ConfigNode = root
        for line_number, raw_line in enumerate(text.splitlines(), start=1):
            stripped = raw_line.strip()
            if not stripped:
                current.append(ConfigNode("blank", attrs={"raw": raw_line}))
                continue
            if stripped.startswith("#") or stripped.startswith(";"):
                marker = stripped[0]
                current.append(
                    ConfigNode("comment", value=stripped[1:], attrs={"marker": marker})
                )
                continue
            header = _HEADER_RE.match(raw_line)
            if header:
                current = root.append(ConfigNode("section", name=header.group("name")))
                continue
            directive = _DIRECTIVE_RE.match(raw_line)
            if directive is None:
                raise ParseError("unparseable line", filename=filename, line=line_number)
            current.append(self._directive_node(directive))
        root.set("trailing_newline", text.endswith("\n") or text == "")
        return ConfigTree(filename, root, dialect=self.name)

    def _directive_node(self, match: re.Match) -> ConfigNode:
        separator = match.group("separator")
        value = match.group("value").rstrip() if separator else None
        return ConfigNode(
            "directive",
            name=match.group("name").strip(),
            value=value,
            attrs={
                "indent": match.group("indent"),
                "separator": separator or "",
                "inline_comment": match.group("comment") or "",
            },
        )

    def _serialize(self, tree: ConfigTree) -> str:
        lines: list[str] = []
        for node in tree.root.children:
            if node.kind == "section":
                lines.append(f"[{node.name}]")
                for child in node.children:
                    lines.append(self._serialize_entry(child, inside_section=True))
            else:
                lines.append(self._serialize_entry(node, inside_section=False))
        text = "\n".join(lines)
        if tree.root.get("trailing_newline", True) and text:
            text += "\n"
        return text

    def _serialize_entry(self, node: ConfigNode, inside_section: bool) -> str:
        if node.kind == "blank":
            return node.get("raw", "")
        if node.kind == "comment":
            return f"{node.get('marker', '#')}{node.value or ''}"
        if node.kind == "directive":
            indent = node.get("indent", "")
            if node.value is None:
                return f"{indent}{node.name}{node.get('inline_comment', '')}"
            separator = node.get("separator") or " = "
            return f"{indent}{node.name}{separator}{node.value}{node.get('inline_comment', '')}"
        if node.kind == "section":
            raise SerializationError("INI files cannot contain nested sections")
        raise SerializationError(f"INI files cannot express node kind {node.kind!r}")


DIALECT = register_dialect(IniDialect())
