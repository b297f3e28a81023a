"""Dialect registry and the parser/serialiser interface.

A :class:`ConfigDialect` couples a parser (native text -> :class:`ConfigTree`)
with the matching serialiser (tree -> native text).  Dialects register
themselves in a module-level registry so that the engine can serialise any
tree by looking at its ``dialect`` attribute.

Dialect implementations provide the template methods :meth:`_parse` and
:meth:`_serialize`; the public :meth:`parse`/:meth:`serialize` pair wraps
them with the source-encoding concerns every text format shares -- real
configuration files on disk come with UTF-8 byte-order marks and Windows
line endings, and both used to break the line-oriented parsers.  ``parse``
strips a leading BOM and normalises CRLF to LF (recording the original
style on the tree root), and ``serialize`` re-emits the recorded line
endings, so a CRLF file round-trips byte-identically.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Mapping

from repro.core.infoset import ConfigNode, ConfigTree
from repro.errors import SerializationError

__all__ = [
    "ConfigDialect",
    "register_dialect",
    "get_dialect",
    "available_dialects",
    "serialize_tree",
    "clean_source",
    "header_splice_safe",
]

_REGISTRY: dict[str, "ConfigDialect"] = {}

#: UTF-8 byte-order mark as decoded into a str.
_BOM = "\ufeff"

#: Root attribute recording the source file's line-ending style.
NEWLINE_ATTR = "newline"


def clean_source(text: str) -> tuple[str, str | None]:
    """Strip a UTF-8 BOM and normalise CRLF line endings.

    Returns ``(cleaned_text, newline_style)`` where ``newline_style`` is
    ``"\\r\\n"`` when the source used Windows line endings *uniformly*
    (``None`` otherwise), so serialisation can restore the original style.
    A file with mixed CRLF/LF endings has no one style to restore;
    re-emitting CRLF everywhere would rewrite the untouched LF lines, so
    mixed files normalise to LF -- a deterministic fixed point after one
    round-trip.
    """
    if text.startswith(_BOM):
        text = text[len(_BOM):]
    newline = None
    if "\r\n" in text:
        if text.count("\n") == text.count("\r\n"):
            newline = "\r\n"
        text = text.replace("\r\n", "\n")
    return text, newline


class ConfigDialect(ABC):
    """One configuration file format: how to parse it and how to write it back."""

    #: Registry name; subclasses must override.
    name: str = ""

    #: True when every physical line parses to exactly one top-level node and
    #: a line's interpretation never depends on the lines around it (section
    #: headers only *group* what follows; there are no multi-line constructs
    #: such as brace blocks or parenthesised continuations).  The
    #: delta-validation guard relies on this: for a line-oriented dialect, a
    #: mutated node whose serialisation re-parses as a single node of the
    #: same kind means the full-file parse would see exactly that node.
    line_oriented: bool = False

    # ------------------------------------------------------------ template API
    @abstractmethod
    def _parse(self, text: str, filename: str) -> ConfigTree:
        """Parse *cleaned* ``text`` (no BOM, LF-only) into a configuration tree."""

    @abstractmethod
    def _serialize(self, tree: ConfigTree) -> str:
        """Render ``tree`` to native text using LF line endings.

        Must raise :class:`~repro.errors.SerializationError` when the tree
        contains structures the format cannot express (the paper relies on
        this to detect impossible mutations, Sections 3.2 and 5.4).
        """

    def roundtrip_safe(
        self, kind: str, name: str | None, value: str | None, attrs: "Mapping[str, Any]"
    ) -> bool:
        """Cheap *sufficient* check that a node survives serialise+parse.

        True promises that a childless node with these fields serialises to
        text that re-parses into exactly the same fields and attrs, letting
        the delta-validation guard skip the round trip for the common case;
        False decides nothing -- the caller must fall back to actually
        serialising and re-parsing.  The default promises nothing.
        """
        return False

    def splice_safe(self, parent: ConfigNode, index: int) -> bool:
        """Whether an edited child list re-parses as spliced around ``index``.

        ``parent`` is a node whose child list has just been edited (a child
        removed or inserted) and ``index`` the slot of the edit in that
        list: the inserted node, or the node now following a removed one.
        True promises that serialising the edited tree and parsing it back
        gives the same nodes in the same slots around ``index`` -- nothing
        is absorbed into a neighbouring block and no neighbour reads its
        context differently -- so the delta path may validate the spliced
        tree directly.  Whether each *inserted* node survives serialise and
        parse on its own is checked separately.  False decides nothing: the
        scenario takes the full pass.  The default promises nothing.
        """
        return False

    # ------------------------------------------------------------- public API
    def parse(self, text: str, filename: str = "<string>") -> ConfigTree:
        """Parse native ``text`` into a system-specific configuration tree.

        A leading UTF-8 BOM is stripped and CRLF line endings are normalised
        before the dialect sees the text; the original line-ending style is
        recorded on the tree root so :meth:`serialize` restores it.
        """
        cleaned, newline = clean_source(text)
        tree = self._parse(cleaned, filename)
        if newline is not None:
            tree.root.set(NEWLINE_ATTR, newline)
        return tree

    def serialize(self, tree: ConfigTree) -> str:
        """Render ``tree`` back to native text (original line endings restored).

        Raises :class:`~repro.errors.SerializationError` when the tree
        contains structures the format cannot express.
        """
        text = self._serialize(tree)
        newline = tree.root.get(NEWLINE_ATTR)
        if newline and newline != "\n":
            text = text.replace("\n", newline)
        return text

    # ------------------------------------------------------------ convenience
    def parse_file(self, path: str) -> ConfigTree:
        """Parse the file at ``path`` (the tree is named after its basename).

        The file is read without universal-newline translation so that CRLF
        files round-trip exactly; a UTF-8 BOM is tolerated (``parse`` strips
        it).
        """
        import os

        with open(path, "r", encoding="utf-8", newline="") as handle:
            text = handle.read()
        return self.parse(text, filename=os.path.basename(path))

    def roundtrip(self, text: str, filename: str = "<string>") -> str:
        """Parse then serialise ``text`` (useful for format-fidelity tests)."""
        return self.serialize(self.parse(text, filename))


def header_splice_safe(parent: ConfigNode, index: int) -> bool:
    """``splice_safe`` for formats whose section headers group what follows.

    In INI files and ``sshd_config`` a header line opens a section that
    runs to the next header, so sections cannot nest and, at the file
    root, every entry must precede every section: an entry placed after a
    section re-parses inside it (an sshd global directive after a
    ``Match`` block is not even serialisable), and a section placed before
    root entries swallows them.  A parsed file already has that shape, so
    an edit can only break it next to its own slot.
    """
    children = parent.children
    if parent.kind != "file":
        return index >= len(children) or children[index].kind != "section"
    around = children[max(index - 1, 0) : index + 2]
    return not any(
        before.kind == "section" and after.kind != "section"
        for before, after in zip(around, around[1:])
    )


def register_dialect(dialect: ConfigDialect) -> ConfigDialect:
    """Register ``dialect`` under its name (later registrations override)."""
    if not dialect.name:
        raise ValueError("dialect must define a non-empty name")
    _REGISTRY[dialect.name] = dialect
    return dialect


def get_dialect(name: str) -> ConfigDialect:
    """Return the dialect registered under ``name`` (KeyError if unknown)."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown configuration dialect {name!r}; available: {available_dialects()}")
    return _REGISTRY[name]


def available_dialects() -> list[str]:
    """Names of all registered dialects, sorted."""
    return sorted(_REGISTRY)


def serialize_tree(tree: ConfigTree) -> str:
    """Serialise ``tree`` with the dialect recorded on it.

    Raises :class:`~repro.errors.SerializationError` when the dialect is not
    registered (a tree produced by a view transform that cannot be written
    back) or when the dialect itself refuses the tree.
    """
    try:
        dialect = get_dialect(tree.dialect)
    except KeyError as exc:
        raise SerializationError(str(exc)) from exc
    return dialect.serialize(tree)
