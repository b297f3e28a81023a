"""Round-trip properties for **all** registered dialects.

Two sources of inputs pin the parser/serialiser contracts down:

* per-dialect hypothesis strategies generating well-formed documents, and
* a checked-in corpus of realistic configuration files under
  ``tests/fixtures/corpus/``.

For every dialect and input the properties are:

* ``parse -> serialize`` is a *fixed point*: serialising a re-parse of the
  output reproduces the output byte-for-byte,
* ``parse -> serialize -> parse`` is tree-idempotent,
* for the byte-preserving dialects, ``serialize(parse(text)) == text``
  exactly (bindzone legitimately normalises record whitespace),
* ``serialize`` raises :class:`SerializationError` -- never garbage -- on
  trees the format cannot express,
* a UTF-8 BOM and CRLF line endings never break parsing, and CRLF files
  round-trip byte-identically (regression: real nginx/sshd files on disk
  have both),
* whenever a dialect's ``splice_safe`` vouches for a child-list edit of a
  shipped configuration (a node deleted, moved or re-inserted), the full
  parse of the serialised spliced tree is that tree, and every untouched
  node is read under the context it had before -- the delta path trusts
  exactly this claim.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.infoset import ConfigNode, ConfigSet, ConfigTree
from repro.core.views.dns_view import DnsRecordView, ZoneContext
from repro.errors import SerializationError
from repro.parsers.base import available_dialects, get_dialect
from repro.registry import available_systems, get_system
from repro.sut.incremental import ChildEdit, splice_trees

CORPUS_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "corpus"

#: Corpus file -> dialect that parses it.
CORPUS = {
    "my.cnf": "ini",
    "postgresql.conf": "pgconf",
    "httpd.conf": "apache",
    "named.conf": "namedconf",
    "example.zone": "bindzone",
    "tinydns-data": "tinydns",
    "nginx.conf": "nginxconf",
    "sshd_config": "sshdconf",
    "generic.conf": "lineconf",
    "app-config.xml": "xml",
}

#: Dialects whose serialisation of an unmodified parse is byte-exact.
#: bindzone joins multi-line records and normalises column whitespace.
BYTE_EXACT = set(CORPUS.values()) - {"bindzone"}


# ----------------------------------------------------------------- strategies
identifier = st.text(alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz_"), min_size=1, max_size=10)
keyword = st.text(alphabet=st.sampled_from("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"), min_size=2, max_size=12)
simple_value = st.text(
    alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789./-_"),
    min_size=1,
    max_size=12,
)


@st.composite
def ini_documents(draw) -> str:
    lines = []
    for _ in range(draw(st.integers(0, 2))):
        lines.append("# " + draw(simple_value))
    for _section in range(draw(st.integers(1, 3))):
        lines.append(f"[{draw(identifier)}]")
        for _ in range(draw(st.integers(0, 3))):
            name = draw(identifier)
            if draw(st.booleans()):
                lines.append(f"{name} = {draw(simple_value)}")
            else:
                lines.append(name)
    return "\n".join(lines) + "\n"


@st.composite
def pgconf_documents(draw) -> str:
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        name = draw(identifier)
        if draw(st.booleans()):
            lines.append(f"{name} = '{draw(simple_value)}'")
        else:
            lines.append(f"{name} = {draw(simple_value)}")
    return "".join(line + "\n" for line in lines)


@st.composite
def lineconf_documents(draw) -> str:
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            lines.append(f"{draw(identifier)} = {draw(simple_value)}")
        else:
            lines.append(f"{draw(identifier)} {draw(simple_value)}")
    return "".join(line + "\n" for line in lines)


@st.composite
def apache_documents(draw) -> str:
    lines = []

    def emit_block(depth: int) -> None:
        indent = "    " * depth
        for _ in range(draw(st.integers(0, 3))):
            lines.append(f"{indent}{draw(keyword)} {draw(simple_value)}")
        if depth < 2 and draw(st.booleans()):
            tag = draw(keyword)
            lines.append(f"{indent}<{tag} {draw(simple_value)}>")
            emit_block(depth + 1)
            lines.append(f"{indent}</{tag}>")

    emit_block(0)
    return "".join(line + "\n" for line in lines)


@st.composite
def nginx_documents(draw) -> str:
    lines = []

    def emit_block(depth: int) -> None:
        indent = "    " * depth
        for _ in range(draw(st.integers(0, 3))):
            lines.append(f"{indent}{draw(identifier)} {draw(simple_value)};")
        if depth < 2 and draw(st.booleans()):
            name = draw(identifier)
            arg = f" {draw(simple_value)}" if draw(st.booleans()) else ""
            lines.append(f"{indent}{name}{arg} {{")
            emit_block(depth + 1)
            lines.append(f"{indent}}}")

    emit_block(0)
    return "".join(line + "\n" for line in lines)


@st.composite
def sshd_documents(draw) -> str:
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        lines.append(f"{draw(keyword)} {draw(simple_value)}")
    # Match blocks always come last: that is the only well-formed shape
    for _ in range(draw(st.integers(0, 2))):
        lines.append(f"Match User {draw(identifier)}")
        for _ in range(draw(st.integers(0, 3))):
            lines.append(f"    {draw(keyword)} {draw(simple_value)}")
    return "".join(line + "\n" for line in lines)


@st.composite
def namedconf_documents(draw) -> str:
    # named.conf statement keywords must start with a letter
    statement = st.text(
        alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz"), min_size=1, max_size=10
    )
    lines = []
    for _ in range(draw(st.integers(0, 2))):
        lines.append(f"{draw(statement)} {draw(simple_value)};")
    for _ in range(draw(st.integers(0, 2))):
        lines.append(f"{draw(statement)} {{")
        for _ in range(draw(st.integers(0, 3))):
            lines.append(f"    {draw(statement)} {draw(simple_value)};")
        lines.append("};")
    return "".join(line + "\n" for line in lines)


@st.composite
def tinydns_documents(draw) -> str:
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        prefix = draw(st.sampled_from([".", "=", "+", "@", "'"]))
        lines.append(f"{prefix}{draw(identifier)}.example.com:{draw(simple_value)}")
    return "".join(line + "\n" for line in lines)


DIALECT_STRATEGIES = {
    "ini": ini_documents(),
    "pgconf": pgconf_documents(),
    "lineconf": lineconf_documents(),
    "apache": apache_documents(),
    "nginxconf": nginx_documents(),
    "sshdconf": sshd_documents(),
    "namedconf": namedconf_documents(),
    "tinydns": tinydns_documents(),
}


def _assert_roundtrip(dialect_name: str, text: str, byte_exact: bool) -> None:
    dialect = get_dialect(dialect_name)
    first_tree = dialect.parse(text, "corpus")
    first = dialect.serialize(first_tree)
    second_tree = dialect.parse(first, "corpus")
    second = dialect.serialize(second_tree)
    assert second == first, f"{dialect_name}: serialisation is not a fixed point"
    assert second_tree.root.structurally_equal(
        dialect.parse(second, "corpus").root
    ), f"{dialect_name}: parse -> serialize -> parse is not idempotent"
    if byte_exact:
        assert first == text, f"{dialect_name}: serialisation is not byte-exact"


# ---------------------------------------------------------------- properties
class TestGeneratedRoundTrips:
    """Hypothesis strategies: every generated document round-trips."""

    @pytest.mark.parametrize("dialect_name", sorted(DIALECT_STRATEGIES))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_generated_documents_roundtrip(self, dialect_name, data):
        text = data.draw(DIALECT_STRATEGIES[dialect_name])
        _assert_roundtrip(dialect_name, text, byte_exact=dialect_name in BYTE_EXACT)

    @pytest.mark.parametrize("dialect_name", sorted(DIALECT_STRATEGIES))
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_bom_and_crlf_never_break_parsing(self, dialect_name, data):
        text = data.draw(DIALECT_STRATEGIES[dialect_name])
        dialect = get_dialect(dialect_name)
        plain = dialect.parse(text, "c")
        decorated = dialect.parse("\ufeff" + text.replace("\n", "\r\n"), "c")
        # BOM is stripped; the only tree difference is the recorded newline style
        assert decorated.root.get("newline") in (None, "\r\n")
        decorated.root.attrs.pop("newline", None)
        assert decorated.root.structurally_equal(plain.root)


class TestCorpusRoundTrips:
    """Checked-in corpus: realistic files round-trip for every dialect."""

    @pytest.mark.parametrize("filename", sorted(CORPUS))
    def test_corpus_file_roundtrips(self, filename):
        dialect_name = CORPUS[filename]
        text = (CORPUS_DIR / filename).read_text(encoding="utf-8")
        _assert_roundtrip(dialect_name, text, byte_exact=dialect_name in BYTE_EXACT)

    @pytest.mark.parametrize("filename", sorted(CORPUS))
    def test_corpus_file_roundtrips_with_bom_and_crlf(self, filename):
        dialect_name = CORPUS[filename]
        dialect = get_dialect(dialect_name)
        text = (CORPUS_DIR / filename).read_text(encoding="utf-8")
        crlf = "\ufeff" + text.replace("\n", "\r\n")
        tree = dialect.parse(crlf, filename)
        if dialect_name in BYTE_EXACT:
            # the BOM is gone but the CRLF endings are preserved exactly
            assert dialect.serialize(tree) == text.replace("\n", "\r\n")
        else:
            assert dialect.serialize(dialect.parse(dialect.serialize(tree), filename)) == dialect.serialize(tree)

    def test_every_registered_dialect_is_covered(self):
        assert set(CORPUS.values()) == set(available_dialects()), (
            "every registered dialect needs a corpus fixture; add one for the "
            "missing dialect(s)"
        )


# ------------------------------------------------------------ splice safety
def _splice_sources() -> dict[str, list[tuple[str, str]]]:
    """Dialect -> (file name, text) of every shipped configuration in it,
    plus its corpus file (the only source of a dialect no system ships,
    and of constructs the shipped files lack, such as named.conf lists)."""
    sources: dict[str, list[tuple[str, str]]] = {}
    seen: set[str] = set()
    for system in available_systems():
        sut = get_system(system)()
        for filename, text in sut.default_configuration().items():
            if text not in seen:
                seen.add(text)
                sources.setdefault(sut.dialect_for(filename), []).append((filename, text))
    for filename, dialect_name in CORPUS.items():
        text = (CORPUS_DIR / filename).read_text(encoding="utf-8")
        sources.setdefault(dialect_name, []).append((filename, text))
    return sources


SPLICE_SOURCES = _splice_sources()


def _zone_contexts(tree: ConfigTree) -> dict[int, tuple]:
    """The context each zone-file line is read under ($ORIGIN, $TTL and,
    for an ownerless record, the owner it inherits), by node identity."""
    readings: dict[int, tuple] = {}
    context = ZoneContext()
    for node in tree.root.children:
        inherited = context.last_owner if node.kind == "record" and not node.name else None
        readings[id(node)] = (context.origin, context.default_ttl, inherited)
        _records, context = DnsRecordView.zone_line_records(node, tree.name, context)
    return readings


#: Dialects whose lines read context from the lines above them: how each
#: line is read, keyed by node identity.
LINE_CONTEXTS = {"bindzone": _zone_contexts}


@st.composite
def child_edits(draw, tree: ConfigTree):
    """A delete, move or re-insert of one baseline node of ``tree``."""
    nodes = [(node, path) for node, path in tree.root.walk_with_paths() if path]
    node, path = draw(st.sampled_from(nodes))
    operation = draw(st.sampled_from(("delete", "move", "reinsert")))
    if operation == "delete":
        return ChildEdit(tree.name, remove=path)
    containers = [
        (container, where)
        for container, where in tree.root.walk_with_paths()
        if container.kind in ("file", "section")
        and not (operation == "move" and where[: len(path)] == path)
    ]
    container, where = draw(st.sampled_from(containers))
    index = draw(st.one_of(st.none(), st.integers(0, len(container.children))))
    if operation == "move":
        return ChildEdit(tree.name, remove=path, parent=where, index=index, node=node)
    return ChildEdit(tree.name, parent=where, index=index, node=node.clone())


class TestSpliceSafety:
    """``splice_safe`` is a claim the full parse can check, so check it."""

    @pytest.mark.parametrize("dialect_name", sorted(SPLICE_SOURCES))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_vouched_splices_reparse_as_spliced(self, dialect_name, data):
        dialect = get_dialect(dialect_name)
        filename, text = data.draw(st.sampled_from(SPLICE_SOURCES[dialect_name]))
        tree = dialect.parse(text, filename=filename)
        edit = data.draw(child_edits(tree))
        spliced = splice_trees(ConfigSet([tree]), [edit])
        if spliced is None:
            return
        patched_set, points = spliced
        if not all(dialect.splice_safe(parent, index) for _name, parent, index in points):
            return
        patched = patched_set.get(filename)
        reparsed = dialect.parse(dialect.serialize(patched), filename=filename)
        assert reparsed.root.structurally_equal(patched.root), (
            f"{dialect_name}: {edit} re-parses differently from the spliced tree"
        )
        reading = LINE_CONTEXTS.get(dialect_name)
        if reading is not None:
            before, after = reading(tree), reading(patched)
            for node in patched.root.children:
                if node is not edit.node and id(node) in before:
                    assert after[id(node)] == before[id(node)], (
                        f"{dialect_name}: {edit} changes how an untouched line is read"
                    )

    def test_every_registered_dialect_has_a_splice_source(self):
        assert set(SPLICE_SOURCES) == set(available_dialects())


class TestParseFileEncodings:
    """Regression: real nginx/sshd files on disk have BOMs and CRLF endings."""

    def test_parse_file_strips_bom(self, tmp_path):
        path = tmp_path / "sshd_config"
        path.write_bytes(b"\xef\xbb\xbfPort 22\nPermitRootLogin no\n")
        tree = get_dialect("sshdconf").parse_file(str(path))
        first = tree.root.children[0]
        # without BOM stripping the first directive would be named "﻿Port"
        assert first.name == "Port"
        assert first.value == "22"

    def test_parse_file_preserves_crlf_on_roundtrip(self, tmp_path):
        raw = b"user nginx;\r\n\r\nevents {\r\n    worker_connections 512;\r\n}\r\n"
        path = tmp_path / "nginx.conf"
        path.write_bytes(raw)
        dialect = get_dialect("nginxconf")
        tree = dialect.parse_file(str(path))
        assert dialect.serialize(tree).encode("utf-8") == raw

    def test_parse_file_bom_and_crlf_together(self, tmp_path):
        raw = b"\xef\xbb\xbf[mysqld]\r\nport = 3306\r\n"
        path = tmp_path / "my.cnf"
        path.write_bytes(raw)
        dialect = get_dialect("ini")
        tree = dialect.parse_file(str(path))
        section = tree.root.children[0]
        assert section.kind == "section" and section.name == "mysqld"
        # the BOM is junk and stays stripped; the line endings survive
        assert dialect.serialize(tree).encode("utf-8") == raw[3:]

    def test_lf_files_gain_no_newline_attribute(self, tmp_path):
        path = tmp_path / "plain.conf"
        path.write_bytes(b"retry = 3\n")
        tree = get_dialect("lineconf").parse_file(str(path))
        assert tree.root.get("newline") is None

    def test_mixed_line_endings_normalise_to_lf(self):
        # regression: a single CRLF used to flip the whole file to CRLF,
        # rewriting the untouched LF lines on serialisation
        dialect = get_dialect("sshdconf")
        out = dialect.serialize(dialect.parse("Port 22\nHostKey /k\r\n", "s"))
        assert out == "Port 22\nHostKey /k\n"
        # one round-trip reaches a fixed point
        assert dialect.serialize(dialect.parse(out, "s")) == out


class TestInexpressibleTrees:
    """serialize raises SerializationError -- never emits garbage."""

    @pytest.mark.parametrize("dialect_name", sorted(CORPUS.values()))
    def test_unknown_node_kind_is_refused(self, dialect_name):
        root = ConfigNode("file", name="x")
        root.append(ConfigNode("bogus-kind", "x"))
        tree = ConfigTree("x", root, dialect=dialect_name)
        with pytest.raises(SerializationError):
            get_dialect(dialect_name).serialize(tree)

    def test_flat_formats_refuse_sections(self):
        for dialect_name in ("pgconf", "lineconf"):
            root = ConfigNode("file", name="x")
            root.append(ConfigNode("section", "group"))
            with pytest.raises(SerializationError):
                get_dialect(dialect_name).serialize(ConfigTree("x", root, dialect=dialect_name))

    def test_ini_refuses_nested_sections(self):
        root = ConfigNode("file", name="x")
        outer = root.append(ConfigNode("section", "outer"))
        outer.append(ConfigNode("section", "inner"))
        with pytest.raises(SerializationError):
            get_dialect("ini").serialize(ConfigTree("x", root, dialect="ini"))

    def test_sshd_refuses_nested_match_blocks(self):
        root = ConfigNode("file", name="x")
        outer = root.append(ConfigNode("section", "Match", "User a"))
        outer.append(ConfigNode("section", "Match", "User b"))
        with pytest.raises(SerializationError):
            get_dialect("sshdconf").serialize(ConfigTree("x", root, dialect="sshdconf"))

    def test_sshd_refuses_global_directive_after_match(self):
        root = ConfigNode("file", name="x")
        root.append(ConfigNode("section", "Match", "User a"))
        root.append(ConfigNode("directive", "Port", "22", attrs={"separator": " "}))
        with pytest.raises(SerializationError):
            get_dialect("sshdconf").serialize(ConfigTree("x", root, dialect="sshdconf"))
