"""BIND ``named.conf`` configuration dialect.

``named.conf`` is a statement-based format with braces and semicolons::

    options {
        directory "/var/named";
        recursion no;
    };

    zone "example.com" {
        type master;
        file "example.com.zone";
    };

Tree shape
----------
``file`` root with children:

* ``section`` nodes for braced statements (``name`` = statement keyword such
  as ``options`` or ``zone``, ``value`` = the argument between keyword and
  brace, e.g. the quoted zone name); sections nest (``allow-query { ... }``
  inside ``options`` becomes a nested section),
* ``directive`` nodes for simple ``name value;`` statements,
* ``comment`` (``//`` or ``#``) and ``blank`` nodes.
"""

from __future__ import annotations

import re

from repro.core.infoset import ConfigNode, ConfigTree
from repro.errors import ParseError, SerializationError
from repro.parsers.base import ConfigDialect, register_dialect

__all__ = ["NamedConfDialect", "DIALECT"]

_OPEN_RE = re.compile(r"^\s*(?P<name>[A-Za-z][\w-]*)(?:\s+(?P<arg>[^{]*?))?\s*\{\s*$")
_DIRECTIVE_RE = re.compile(r"^\s*(?P<name>[A-Za-z][\w-]*)(?:\s+(?P<value>.*?))?\s*;\s*$")
_BARE_VALUE_RE = re.compile(r"^\s*(?P<value>[^;{}]+?)\s*;\s*$")


class NamedConfDialect(ConfigDialect):
    """Parser/serialiser for BIND ``named.conf``."""

    name = "namedconf"

    def splice_safe(self, parent, index) -> bool:
        # statements nest anywhere; only a bare list item needs a block
        children = parent.children
        return parent.kind != "file" or index >= len(children) or children[index].kind != "item"

    def _parse(self, text: str, filename: str) -> ConfigTree:
        root = ConfigNode("file", name=filename)
        stack: list[ConfigNode] = [root]
        for line_number, raw_line in enumerate(text.splitlines(), start=1):
            current = stack[-1]
            stripped = raw_line.strip()
            if not stripped:
                current.append(ConfigNode("blank", attrs={"raw": raw_line}))
                continue
            if stripped.startswith("//") or stripped.startswith("#"):
                marker = "//" if stripped.startswith("//") else "#"
                current.append(
                    ConfigNode("comment", value=stripped[len(marker):], attrs={"marker": marker})
                )
                continue
            if stripped in ("};", "}"):
                if len(stack) == 1:
                    raise ParseError("unexpected '}'", filename=filename, line=line_number)
                stack.pop()
                continue
            open_match = _OPEN_RE.match(raw_line)
            if open_match:
                section = ConfigNode(
                    "section",
                    name=open_match.group("name"),
                    value=(open_match.group("arg") or "").strip() or None,
                )
                current.append(section)
                stack.append(section)
                continue
            directive = _DIRECTIVE_RE.match(raw_line)
            if directive:
                current.append(
                    ConfigNode(
                        "directive",
                        name=directive.group("name"),
                        value=(directive.group("value") or "").strip() or None,
                    )
                )
                continue
            bare = _BARE_VALUE_RE.match(raw_line)
            if bare and len(stack) > 1:
                # list members such as the addresses inside allow-query { ... };
                current.append(ConfigNode("item", value=bare.group("value")))
                continue
            raise ParseError("unparseable line", filename=filename, line=line_number)
        if len(stack) != 1:
            raise ParseError(f"unclosed block {stack[-1].name!r}", filename=filename)
        root.set("trailing_newline", text.endswith("\n") or text == "")
        return ConfigTree(filename, root, dialect=self.name)

    def _serialize(self, tree: ConfigTree) -> str:
        lines: list[str] = []
        for node in tree.root.children:
            self._serialize_node(node, lines, depth=0)
        text = "\n".join(lines)
        if tree.root.get("trailing_newline", True) and text:
            text += "\n"
        return text

    def _serialize_node(self, node: ConfigNode, lines: list[str], depth: int) -> None:
        indent = "    " * depth
        if node.kind == "blank":
            lines.append(node.get("raw", ""))
            return
        if node.kind == "comment":
            lines.append(f"{indent}{node.get('marker', '//')}{node.value or ''}")
            return
        if node.kind == "directive":
            if node.value:
                lines.append(f"{indent}{node.name} {node.value};")
            else:
                lines.append(f"{indent}{node.name};")
            return
        if node.kind == "item":
            lines.append(f"{indent}{node.value};")
            return
        if node.kind == "section":
            header = f"{indent}{node.name}"
            if node.value:
                header += f" {node.value}"
            lines.append(header + " {")
            for child in node.children:
                self._serialize_node(child, lines, depth + 1)
            lines.append(f"{indent}}};")
            return
        raise SerializationError(f"named.conf cannot express node kind {node.kind!r}")


DIALECT = register_dialect(NamedConfDialect())
