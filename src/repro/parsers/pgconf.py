"""``postgresql.conf`` configuration dialect.

PostgreSQL's main configuration file is flat (the paper notes it has "only
one main section"): each non-comment line is ``name = value`` (the ``=`` is
optional) where the value may be a quoted string, a number with an optional
unit suffix, or a bareword; ``#`` starts a comment, including end-of-line
comments.

Tree shape
----------
``file`` root with ``directive``, ``comment`` and ``blank`` children.
Directive values keep their surrounding quotes in ``attrs['quote']`` so the
logical value is stored unquoted in ``node.value`` while serialisation
restores the original spelling.
"""

from __future__ import annotations

import re

from repro.core.infoset import ConfigNode, ConfigTree
from repro.errors import ParseError, SerializationError
from repro.parsers.base import ConfigDialect, register_dialect

__all__ = ["PostgresConfDialect", "DIALECT"]

_DIRECTIVE_RE = re.compile(
    r"^(?P<indent>\s*)(?P<name>[A-Za-z_][\w.]*)(?P<separator>\s*=\s*|\s+)"
    r"(?P<value>'(?:[^']|'')*'|[^#]*?)(?P<comment>\s*#.*)?$"
)


class PostgresConfDialect(ConfigDialect):
    """Parser/serialiser for ``postgresql.conf``."""

    name = "pgconf"
    #: One line = one flat node and no cross-line constructs, so the
    #: engine's single-node reparse substitution is sound.
    line_oriented = True

    def splice_safe(self, parent, index) -> bool:
        # a flat file of independent lines
        return True

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
            match = _DIRECTIVE_RE.match(raw_line)
            if match is None:
                raise ParseError("unparseable line", filename=filename, line=line_number)
            root.append(self._directive_node(match))
        root.set("trailing_newline", text.endswith("\n") or text == "")
        return ConfigTree(filename, root, dialect=self.name)

    def _directive_node(self, match: re.Match) -> ConfigNode:
        raw_value = match.group("value").strip()
        quote = ""
        value = raw_value
        if len(raw_value) >= 2 and raw_value.startswith("'") and raw_value.endswith("'"):
            quote = "'"
            value = raw_value[1:-1].replace("''", "'")
        return ConfigNode(
            "directive",
            name=match.group("name"),
            value=value,
            attrs={
                "indent": match.group("indent"),
                "separator": match.group("separator"),
                "quote": quote,
                "inline_comment": match.group("comment") or "",
            },
        )

    def _serialize(self, tree: ConfigTree) -> str:
        lines: list[str] = []
        for node in tree.root.children:
            lines.append(self._serialize_entry(node))
        text = "\n".join(lines)
        if tree.root.get("trailing_newline", True) and text:
            text += "\n"
        return text

    def _serialize_entry(self, node: ConfigNode) -> str:
        if node.kind == "blank":
            return node.get("raw", "")
        if node.kind == "comment":
            return f"#{node.value or ''}"
        if node.kind == "directive":
            indent = node.get("indent", "")
            separator = node.get("separator") or " = "
            quote = node.get("quote", "")
            value = node.value if node.value is not None else ""
            if quote:
                value = quote + value.replace("'", "''") + quote
            return f"{indent}{node.name}{separator}{value}{node.get('inline_comment', '')}"
        if node.kind == "section":
            raise SerializationError("postgresql.conf has a single flat section; nested sections cannot be expressed")
        raise SerializationError(f"postgresql.conf cannot express node kind {node.kind!r}")


DIALECT = register_dialect(PostgresConfDialect())
