"""Simulated Apache httpd server.

The simulation reproduces the configuration-checking behaviour the paper
observed in Apache 2.2 (Section 5.2):

* unknown directives abort startup (``Invalid command ... perhaps misspelled``),
* directive names are case-insensitive but cannot be truncated,
* numeric arguments (``Listen``, ``Timeout``, the MPM knobs) are validated,
* ``AddType``, ``DefaultType``, ``ServerAdmin`` and ``ServerName`` accept
  freeform strings -- the laxity the paper flags as a weakness,
* a typo that turns the listening port into a *different valid* port is not
  caught at startup; it is the HTTP functional test that notices nothing
  answers on port 80 (the paper's 5 % "detected by functional tests" row).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.core.infoset import ConfigNode, ConfigSet, ConfigTree
from repro.errors import ParseError
from repro.parsers.base import get_dialect
from repro.sut.apache.directives import APACHE_DIRECTIVES, DEFAULT_HTTPD_CONF, SECTION_TAGS, DirectiveSpec
from repro.sut.base import FunctionalTest, StartResult, SystemUnderTest
from repro.sut.functional import web_suite
from repro.sut.incremental import BaselineValidation, ScenarioDelta, patched_trees

__all__ = ["SimulatedApache"]

_ONOFF = {"on", "off"}
_KNOWN_OPTIONS = {
    "none", "all", "indexes", "includes", "includesnoexec", "followsymlinks",
    "symlinksifownermatch", "execcgi", "multiviews",
}
_NO_LISTENERS = "no listening sockets available, shutting down"


def _port(value: str) -> int:
    """The port of a validated ``Listen`` argument (``[address:]port``)."""
    return int(value.split()[0].rsplit(":", 1)[-1])


@dataclass
class _ApacheDeltaState:
    """Splice index of one fully validated pristine ``httpd.conf``.

    ``roles`` classifies the node paths a delta may touch: an int is the
    walk-order position of a directive the server applies, ``"ignored"``
    marks nodes it never interprets (comments, blank lines, anything
    inside an ``<IfModule>`` block whose guard failed).  Section headers
    carry no role on purpose: editing one can change the scope of a whole
    block, which is a full-pass edit.

    ``entries[position]`` is an applied directive's effect ``(lowered name,
    value)``; ``occurrences`` indexes the same data per name, for
    last-write-wins values and first-occurrence key order.  ``members``
    maps the position of a direct ``<VirtualHost>`` child to ``(host,
    member)`` indices into ``hosts``, each ``(address, members)`` with the
    members as the host info records them.

    ``module_sources`` holds what each ``LoadModule`` node anywhere in the
    tree contributes to ``modules`` (builtins included, counted, because
    two lines may load one module), and ``guards`` the ``<IfModule>``
    arguments the walk evaluated.  The rest is the pristine live state.
    """

    roles: dict[tuple[int, ...], object]
    entries: tuple[tuple[str, str], ...]
    occurrences: dict[str, tuple[tuple[int, str], ...]]
    members: dict[int, tuple[int, int]]
    hosts: tuple[tuple[str, tuple[tuple[str, str], ...]], ...]
    module_sources: dict[tuple[int, ...], tuple[str, ...]]
    modules: Counter
    guards: frozenset[str]
    ports: tuple[int, ...]
    roots: tuple[str, ...]
    virtual_hosts: tuple[dict[str, str], ...]
    directives: dict[str, str]


class SimulatedApache(SystemUnderTest):
    """Simulated Apache web server driven by ``httpd.conf``."""

    name = "Apache"
    config_filename = "httpd.conf"

    def __init__(self, default_config: str | None = None):
        self._default_config = default_config if default_config is not None else DEFAULT_HTTPD_CONF
        self._running = False
        self.listen_ports: list[int] = []
        self.document_roots: list[str] = []
        self.virtual_hosts: list[dict[str, str]] = []
        self.effective_directives: dict[str, str] = {}
        self.last_warnings: list[str] = []

    # --------------------------------------------------------------- interface
    def default_configuration(self) -> dict[str, str]:
        return {self.config_filename: self._default_config}

    def dialect_for(self, filename: str) -> str:
        return "apache"

    def functional_tests(self) -> list[FunctionalTest]:
        return web_suite(port=80)

    def is_running(self) -> bool:
        return self._running

    def stop(self) -> None:
        self._running = False

    # ------------------------------------------------------------------ start
    def start(self, files: Mapping[str, str]) -> StartResult:
        self.stop()
        text = files.get(self.config_filename)
        if text is None:
            return StartResult.failed(f"configuration file {self.config_filename} is missing")
        try:
            tree = get_dialect("apache").parse(text, filename=self.config_filename)
        except ParseError as exc:
            return StartResult.failed(f"Syntax error: {exc}")
        return self._start_from_tree(tree)

    def _start_from_tree(self, tree: ConfigTree) -> StartResult:
        """Validate and bring up the server from an already parsed tree.

        The single source of truth for configuration semantics: the walk
        (:meth:`_walk`) and the per-directive check are the ones the delta
        path's splice index is built from.
        """
        self.listen_ports = []
        self.document_roots = []
        self.virtual_hosts = []
        self.effective_directives = {}

        for node, entered in self._walk(tree.root, self._available_modules(tree)):
            if node.kind == "directive":
                error, key, value = self._check_directive(node.name, node.value)
                if error is not None:
                    return StartResult.failed(error)
                if key == "listen":
                    self.listen_ports.append(_port(value))
                elif key == "documentroot":
                    self.document_roots.append(value.strip('"'))
                self.effective_directives[key] = value
                continue
            tag = (node.name or "").lower()
            if tag not in SECTION_TAGS:
                return StartResult.failed(
                    f"Invalid command '<{node.name}>', perhaps misspelled or defined by a "
                    "module not included in the server configuration"
                )
            if entered and tag == "virtualhost":
                self.virtual_hosts.append(self._host_info(node.value, self._host_members(node)))

        if not self.listen_ports:
            return StartResult.failed(_NO_LISTENERS)
        warnings = self._host_warnings(self.virtual_hosts)
        self.last_warnings = warnings
        self._running = True
        return StartResult.ok(warnings)

    # ------------------------------------------------------------ delta start
    def _baseline_state(self, trees: ConfigSet) -> _ApacheDeltaState | None:
        """Index the pristine ``httpd.conf`` for splicing single directives."""
        if self.config_filename not in trees:
            return None
        tree = trees.get(self.config_filename)
        roles: dict[tuple[int, ...], object] = {}
        module_sources: dict[tuple[int, ...], tuple[str, ...]] = {}
        modules: Counter[str] = Counter(self.BUILTIN_MODULES)
        paths: dict[int, tuple[int, ...]] = {}
        for node, path in tree.root.walk_with_paths():
            paths[id(node)] = path
            if not path or node.kind == "section":
                continue
            roles[path] = "ignored"
            names = self._module_names(node.kind, node.name, node.value)
            if names:
                module_sources[path] = names
                modules.update(names)
        entries: list[tuple[str, str]] = []
        members: dict[int, tuple[int, int]] = {}
        hosts: list[tuple[str, tuple[tuple[str, str], ...]]] = []
        host_at: dict[tuple[int, ...], int] = {}
        seen_members: list[int] = []
        guards: set[str] = set()
        for node, entered in self._walk(tree.root, set(modules)):
            path = paths[id(node)]
            if node.kind == "directive":
                host = host_at.get(path[:-1])
                if host is not None:
                    members[len(entries)] = (host, seen_members[host])
                    seen_members[host] += 1
                roles[path] = len(entries)
                _error, key, value = self._check_directive(node.name, node.value)
                entries.append((key, value))
                continue
            tag = (node.name or "").lower()
            if tag == "ifmodule":
                guards.add(self._guard_argument(node.value))
            if not entered:
                roles.update(
                    (sub, "ignored") for _node, sub in node.walk_with_paths(path) if sub != path
                )
            elif tag == "virtualhost":
                host_at[path] = len(hosts)
                hosts.append((node.value or "", self._host_members(node)))
                seen_members.append(0)
        occurrences: dict[str, list[tuple[int, str]]] = {}
        for position, (key, value) in enumerate(entries):
            occurrences.setdefault(key, []).append((position, value))
        return _ApacheDeltaState(
            roles=roles,
            entries=tuple(entries),
            occurrences={key: tuple(found) for key, found in occurrences.items()},
            members=members,
            hosts=tuple(hosts),
            module_sources=module_sources,
            modules=modules,
            guards=frozenset(guards),
            ports=tuple(self.listen_ports),
            roots=tuple(self.document_roots),
            virtual_hosts=tuple(self.virtual_hosts),
            directives=dict(self.effective_directives),
        )

    def start_delta(
        self, baseline: BaselineValidation, delta: ScenarioDelta
    ) -> StartResult | None:
        """Probe only the changed directives and splice their effects.

        Each changed directive is checked in isolation; the full walk fails
        on the first erroring directive in document order, and every other
        directive is known valid.  Otherwise the live state is rebuilt from
        the index: the touched names' occurrences re-resolve
        ``effective_directives`` (last write wins, keys in first-occurrence
        order) and the port and document-root lists, and a touched
        ``<VirtualHost>`` member rebuilds that host's info.  A changed
        ``LoadModule`` line re-counts the module set; should that flip an
        ``<IfModule>`` guard the walk evaluated, whole blocks change scope
        and None sends the scenario down the full path, as does any edit
        of a section header.

        A structural delta (child-list edits) re-walks the spliced tree
        instead: no serialise, no parse.
        """
        state: _ApacheDeltaState = baseline.state
        if delta.edits:
            return self._start_spliced(baseline, delta)
        overrides: dict[int, tuple[str | None, str | None]] = {}
        touched: dict[int, dict[int, tuple[str, str]]] = {}
        modules = state.modules
        for change in delta.changes:
            if change.tree != self.config_filename:
                return None
            role = state.roles.get(change.path)
            if role is None:
                return None
            old_names = state.module_sources.get(change.path, ())
            new_names = self._module_names(change.kind, change.name, change.value)
            if new_names != old_names:
                if modules is state.modules:
                    modules = Counter(modules)
                modules.subtract(old_names)
                modules.update(new_names)
            if role == "ignored":
                continue
            overrides[role] = (change.name, change.value)
            if role in state.members:
                host, member = state.members[role]
                entry = ((change.name or "").lower(), change.value or "")
                touched.setdefault(host, {})[member] = entry
        if modules is not state.modules and any(
            (modules[guard] > 0) != (state.modules[guard] > 0) for guard in state.guards
        ):
            return None

        self.stop()
        errors: dict[int, str] = {}
        changed: dict[int, tuple[str, str]] = {}
        for position, (name, value) in overrides.items():
            error, key, effective = self._check_directive(name, value)
            if error is not None:
                errors[position] = error
            elif (key, effective) != state.entries[position]:
                changed[position] = (key, effective)
        if errors:
            return StartResult.failed(errors[min(errors)])

        directives, ports, roots = state.directives, state.ports, state.roots
        if changed:
            directives = dict(directives)
            keys = {state.entries[position][0] for position in changed}
            keys.update(key for key, _value in changed.values())
            firsts: dict[str, int] = {}
            for key in keys:
                found = sorted(
                    [(p, v) for p, v in state.occurrences.get(key, ()) if p not in changed]
                    + [(p, v) for p, (k, v) in changed.items() if k == key]
                )
                if found:
                    directives[key] = found[-1][1]
                    firsts[key] = found[0][0]
                else:
                    directives.pop(key, None)
                if key == "listen":
                    ports = tuple(_port(value) for _position, value in found)
                elif key == "documentroot":
                    roots = tuple(value.strip('"') for _position, value in found)
            firsts_before = {
                key: state.occurrences[key][0][0] for key in keys & state.occurrences.keys()
            }
            if firsts != firsts_before:
                # a name's first occurrence moved: re-key in walk order
                order = {
                    key: found[0][0] for key, found in state.occurrences.items() if key not in keys
                }
                order.update(firsts)
                directives = {key: directives[key] for key in sorted(order, key=order.__getitem__)}

        hosts = state.virtual_hosts
        warnings = baseline.result.warnings
        if touched:
            hosts = list(hosts)
            for host, replaced in touched.items():
                address, members = state.hosts[host]
                hosts[host] = self._host_info(
                    address, [replaced.get(index, entry) for index, entry in enumerate(members)]
                )
            hosts = tuple(hosts)
            warnings = self._host_warnings(hosts)

        if not ports:
            return StartResult.failed(_NO_LISTENERS)
        self.listen_ports = list(ports)
        self.document_roots = list(roots)
        self.virtual_hosts = [dict(info) for info in hosts]
        self.effective_directives = dict(directives)
        self.last_warnings = list(warnings)
        self._running = True
        if (
            warnings == baseline.result.warnings
            and ports == state.ports
            and roots == state.roots
            and hosts == state.virtual_hosts
            and directives == state.directives
        ):
            return baseline.result
        return StartResult.ok(warnings)

    def _start_spliced(
        self, baseline: BaselineValidation, delta: ScenarioDelta
    ) -> StartResult | None:
        patched = patched_trees(baseline.trees, delta)
        if patched is None or self.config_filename not in patched:
            return None
        self.stop()
        result = self._start_from_tree(patched.get(self.config_filename))
        state: _ApacheDeltaState = baseline.state
        if (
            result.started
            and result.warnings == baseline.result.warnings
            and tuple(self.listen_ports) == state.ports
            and tuple(self.document_roots) == state.roots
            and tuple(self.virtual_hosts) == state.virtual_hosts
            and self.effective_directives == state.directives
        ):
            return baseline.result
        return result

    # ----------------------------------------------------------------- helpers
    #: Modules compiled into the server (always "present" for <IfModule>).
    BUILTIN_MODULES = {"prefork.c", "core.c", "http_core.c", "mod_so.c"}

    @staticmethod
    def _module_names(kind: str, name: str | None, value: str | None) -> tuple[str, ...]:
        """Module identifiers a ``LoadModule`` line makes available, else ()."""
        if kind != "directive" or (name or "").lower() != "loadmodule":
            return ()
        words = (value or "").split()
        names = []
        if words:
            names.append(words[0].lower())  # module identifier, e.g. mime_module
        if len(words) > 1:
            filename = words[1].rsplit("/", 1)[-1]
            names.append(filename.replace(".so", ".c").lower())  # e.g. mod_mime.c
        return tuple(names)

    @staticmethod
    def _available_modules(tree: ConfigTree) -> set[str]:
        """Module identifiers/filenames available for ``<IfModule>`` evaluation."""
        available = set(SimulatedApache.BUILTIN_MODULES)
        # every LoadModule line counts, even inside a skipped block; the
        # visiting order is irrelevant to a set, so a flat stack will do
        pending = [tree.root]
        while pending:
            node = pending.pop()
            pending.extend(node.children)
            if node.kind == "directive" and (node.name or "").lower() == "loadmodule":
                available.update(SimulatedApache._module_names(node.kind, node.name, node.value))
        return available

    @staticmethod
    def _guard_argument(value: str | None) -> str:
        return (value or "").strip().lstrip("!").lower()

    def _walk(
        self, parent: ConfigNode, available_modules: set[str]
    ) -> Iterator[tuple[ConfigNode, bool]]:
        """The nodes the server acts on, in document order.

        Yields ``(node, entered)`` for every directive (``entered`` is
        True: the server applies it) and every section (``entered`` says
        whether the walk descends into it).  A section with an unknown tag
        is not entered; the full start fails on it.  Directives inside an
        ``<IfModule>`` block whose module is not loaded are skipped
        entirely -- Apache never parses them, so configuration errors
        hiding there stay latent (one more place where errors are silently
        ignored).
        """
        for node in parent.children:
            if node.kind == "directive":
                yield node, True
            elif node.kind == "section":
                tag = (node.name or "").lower()
                entered = tag in SECTION_TAGS
                if tag == "ifmodule":
                    negated = (node.value or "").strip().startswith("!")
                    entered = (self._guard_argument(node.value) in available_modules) != negated
                yield node, entered
                if entered:
                    yield from self._walk(node, available_modules)

    @staticmethod
    def _host_members(section: ConfigNode) -> tuple[tuple[str, str], ...]:
        return tuple(
            ((child.name or "").lower(), child.value or "")
            for child in section.children_of_kind("directive")
        )

    @staticmethod
    def _host_info(address: str | None, members: Iterable[tuple[str, str]]) -> dict[str, str]:
        info = {"address": address or ""}
        info.update(members)
        return info

    @staticmethod
    def _host_warnings(hosts: Iterable[Mapping[str, str]]) -> list[str]:
        # Apache only warns about VirtualHost sections without ServerName.
        if any(not host.get("servername") for host in hosts):
            return ["NameVirtualHost-based virtual host has no ServerName; using the default"]
        return []

    def _check_directive(self, name: str | None, value: str | None) -> tuple[str | None, str, str]:
        """``(error, key, value)``: a directive line's verdict and its effect.

        ``key`` is the lowered canonical name ``effective_directives`` is
        keyed by and ``value`` the stripped argument text; both are empty
        when ``error`` is set.
        """
        directive_name = name or ""
        spec = APACHE_DIRECTIVES.get(directive_name.lower())
        if spec is None:
            return (
                f"Invalid command '{directive_name}', perhaps misspelled or defined by a "
                "module not included in the server configuration",
                "",
                "",
            )
        value = (value or "").strip()
        if not value and spec.min_args >= 1:
            return f"{spec.name} takes at least {spec.min_args} argument(s)", "", ""
        error = self._validate_value(spec, value)
        if error is not None:
            return error, "", ""
        return None, spec.name.lower(), value

    def _validate_value(self, spec: DirectiveSpec, value: str) -> str | None:
        kind = spec.kind
        words = value.split()
        if kind in ("args",) and len(words) < spec.min_args:
            return f"{spec.name} takes at least {spec.min_args} arguments"
        if kind == "number":
            if not words[0].lstrip("-").isdigit():
                return f"{spec.name}: '{words[0]}' is not a valid number"
            return None
        if kind == "port":
            port_text = words[0].rsplit(":", 1)[-1]
            if not port_text.isdigit() or not 0 < int(port_text) <= 65535:
                return f"{spec.name}: could not parse port '{words[0]}'"
            return None
        if kind == "onoff":
            if value.lower() not in _ONOFF:
                return f"{spec.name} must be On or Off"
            return None
        if kind == "enum":
            if value.lower() not in {choice.lower() for choice in spec.choices}:
                return f"{spec.name}: unknown argument '{value}'"
            return None
        if kind == "options":
            for word in words:
                cleaned = word.lstrip("+-").lower()
                if "=" in cleaned:
                    continue
                if cleaned not in _KNOWN_OPTIONS:
                    return f"Illegal option {word}"
            return None
        if kind == "fromlist":
            if not words or words[0].lower() != "from" or len(words) < 2:
                return f"{spec.name}: requires 'from' followed by hosts"
            return None
        # freeform / path / args: accepted as-is (this laxity is intentional,
        # see the module docstring)
        return None

    # --------------------------------------------------------------- behaviour
    def http_get(self, path: str, port: int = 80, host: str = "localhost") -> tuple[int, str]:
        """Simulate an HTTP GET against the running server.

        Returns ``(status, body)``.  The request only succeeds when the
        server is running, actually listens on the requested port and has a
        document root to serve from.
        """
        if not self._running:
            raise ConnectionRefusedError("httpd is not running")
        if port not in self.listen_ports:
            raise ConnectionRefusedError(f"nothing is listening on port {port}")
        if not self.document_roots:
            return 404, ""
        body = (
            "<html><head><title>Test Page</title></head>"
            f"<body>It works! ({self.document_roots[0]}{path})</body></html>"
        )
        return 200, body
