"""OpenSSH ``sshd_config`` configuration dialect.

``sshd_config`` is keyword/argument based: one ``Keyword value`` pair per
line (an ``=`` separator is also accepted), keywords are case-insensitive,
``#`` starts a comment.  The one structural construct is the conditional
``Match`` block: a ``Match criteria`` line introduces a block that extends
until the next ``Match`` line (or the end of the file), and the directives
inside it apply only when the criteria are met::

    Port 22
    PermitRootLogin prohibit-password

    Match User anoncvs
        X11Forwarding no
        AllowTcpForwarding no

Tree shape
----------
``file`` root with ``directive``, ``comment`` and ``blank`` children for
the global section, followed by ``section`` nodes (``name`` = ``Match``,
``value`` = the criteria string) holding the conditional directives.
Because a ``Match`` block is terminated only by the next ``Match`` or EOF,
a global directive *after* the first Match block is inexpressible: the
serialiser refuses such trees with :class:`SerializationError` instead of
silently emitting a file that would re-parse with a different meaning
(the paper relies on serialisation failures to flag impossible mutations,
Section 3.2).
"""

from __future__ import annotations

import re

from repro.core.infoset import ConfigNode, ConfigTree
from repro.errors import ParseError, SerializationError
from repro.parsers.base import ConfigDialect, header_splice_safe, register_dialect

__all__ = ["SshdConfDialect", "DIALECT"]

_DIRECTIVE_RE = re.compile(
    r"^(?P<indent>\s*)(?P<name>[A-Za-z][\w]*)"
    r"(?:(?P<separator>\s*=\s*|\s+)(?P<value>.*?))?(?P<trailing>\s*)$"
)


class SshdConfDialect(ConfigDialect):
    """Parser/serialiser for OpenSSH ``sshd_config`` files."""

    name = "sshdconf"
    #: Every line is exactly one node and parses independently of its
    #: neighbours (a Match header *groups* following lines but never changes
    #: how they tokenise), so single-node reparse substitution is sound.
    line_oriented = True

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
            if stripped.startswith("#"):
                current.append(
                    ConfigNode(
                        "comment",
                        value=stripped[1:],
                        attrs={"indent": raw_line[: len(raw_line) - len(raw_line.lstrip())]},
                    )
                )
                continue
            match = _DIRECTIVE_RE.match(raw_line)
            if match is None:
                raise ParseError("unparseable line", filename=filename, line=line_number)
            if match.group("name").lower() == "match":
                # keyword spelling is preserved in attrs so Match/match/MATCH
                # round-trips exactly (sshd keywords are case-insensitive)
                current = root.append(
                    ConfigNode(
                        "section",
                        name=match.group("name"),
                        value=(match.group("value") or "").strip() or None,
                        attrs={
                            "indent": match.group("indent"),
                            "separator": match.group("separator") or " ",
                            "trailing": match.group("trailing"),
                        },
                    )
                )
                continue
            current.append(
                ConfigNode(
                    "directive",
                    name=match.group("name"),
                    value=match.group("value") if match.group("separator") else None,
                    attrs={
                        "indent": match.group("indent"),
                        "separator": match.group("separator") or " ",
                        "trailing": match.group("trailing"),
                    },
                )
            )
        root.set("trailing_newline", text.endswith("\n") or text == "")
        return ConfigTree(filename, root, dialect=self.name)

    def _serialize(self, tree: ConfigTree) -> str:
        lines: list[str] = []
        seen_match = False
        for node in tree.root.children:
            if node.kind == "section":
                seen_match = True
                lines.append(self._header_line(node))
                for child in node.children:
                    if child.kind == "section":
                        raise SerializationError(
                            "sshd_config cannot express a Match block nested "
                            "inside another Match block"
                        )
                    lines.append(self._entry_line(child, default_indent="    "))
                continue
            if node.kind == "directive" and seen_match:
                raise SerializationError(
                    f"sshd_config cannot express global directive {node.name!r} "
                    "after a Match block: it would re-parse as part of the block"
                )
            lines.append(self._entry_line(node, default_indent=""))
        text = "\n".join(lines)
        if tree.root.get("trailing_newline", True) and text:
            text += "\n"
        return text

    def _header_line(self, node: ConfigNode) -> str:
        header = f"{node.get('indent', '')}{node.name}"
        if node.value:
            header += f"{node.get('separator', ' ')}{node.value}"
        return header + node.get("trailing", "")

    def _entry_line(self, node: ConfigNode, default_indent: str) -> str:
        if node.kind == "blank":
            return node.get("raw", "")
        if node.kind == "comment":
            return f"{node.get('indent', default_indent)}#{node.value or ''}"
        if node.kind == "directive":
            indent = node.get("indent", default_indent)
            trailing = node.get("trailing", "")
            if node.value is None:
                return f"{indent}{node.name}{trailing}"
            return f"{indent}{node.name}{node.get('separator', ' ')}{node.value}{trailing}"
        raise SerializationError(f"sshd_config cannot express node kind {node.kind!r}")


DIALECT = register_dialect(SshdConfDialect())
