"""Spec-surface lint rules: experiment inputs, checked before you pay to run them.

Every rule receives a :class:`SpecTarget` -- one spec file, loaded (or
not) and lazily cross-referenced against the system and plugin
registries.  Rules construct nothing heavier than SUT default
configurations and plugin instances; no campaign machinery runs.

The eight static rules (parse errors through store-filename clashes) are
the spec checker's own coded findings
(:meth:`~repro.core.spec.ExperimentSpec.findings`), selected by code: lint
reports every finding where ``ExperimentSpec.validate()`` raises the
first, with the same message.  The remaining rules are lint-only.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Iterator

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.rules import rule
from repro.core import spec as spec_mod
from repro.core.spec import ExperimentSpec, Finding, load_finding
from repro.errors import SpecError, StoreError

#: Dialects the DNS record view can read; a DNS-only plugin applied to a
#: system with none of these produces zero scenarios (a dead cell).
_DNS_DIALECTS = frozenset({"bindzone", "tinydns"})


class SpecTarget:
    """One spec file under analysis, with lazily computed cross-references."""

    def __init__(self, file: str):
        self.file = file
        self.spec: ExperimentSpec | None = None
        self.load_error: Finding | None = None
        self._caches: dict[str, Any] = {}
        try:
            self.spec = ExperimentSpec.from_file(file)
        except SpecError as exc:
            self.load_error = load_finding(exc, source=file)

    @cached_property
    def findings(self) -> list[Finding]:
        """The spec checker's findings: the load failure, or every static problem."""
        if self.load_error is not None:
            return [self.load_error]
        return list(self.spec.findings())

    def diagnostics(self, code: str) -> Iterator[Diagnostic]:
        """The checker's findings under ``code``, as lint diagnostics."""
        for found, path, message in self.findings:
            if found == code:
                yield Diagnostic(code, message, Severity.ERROR, path, self.file)

    # ------------------------------------------------------------ cross-refs
    def plugin_class(self, name: str):
        """Registered plugin class for ``name``, or None."""
        from repro.plugins.base import get_plugin

        try:
            return get_plugin(name)
        except KeyError:
            return None

    def plugin_instance(self, index: int):
        """Constructed plugin for ``plugins[index]``, or None if it cannot build."""
        key = f"plugin_instance:{index}"
        if key not in self._caches:
            instance = None
            plugin = self.spec.plugins[index]
            plugin_class = self.plugin_class(plugin.name)
            if plugin_class is not None:
                try:
                    instance = plugin_class.from_params(
                        self.spec._effective_params(plugin, plugin_class)
                    )
                except SpecError:
                    instance = None  # reported by the value/param rules
            self._caches[key] = instance
        return self._caches[key]

    def system_sut(self, index: int):
        """Bare (un-chaos-wrapped) SUT instance for ``systems[index]``, or None."""
        key = f"system_sut:{index}"
        if key not in self._caches:
            from repro.registry import get_system
            from repro.sut.base import split_sut

            try:
                factory = get_system(self.spec.systems[index].name)
                self._caches[key] = split_sut(factory)[0]
            except SpecError:
                self._caches[key] = None
        return self._caches[key]

    def system_dialects(self, index: int) -> frozenset[str]:
        """Dialects of the default configuration of ``systems[index]``."""
        key = f"system_dialects:{index}"
        if key not in self._caches:
            sut = self.system_sut(index)
            if sut is None:
                self._caches[key] = frozenset()
            else:
                self._caches[key] = frozenset(
                    sut.dialect_for(filename) for filename in sut.default_configuration()
                )
        return self._caches[key]

    def system_directives(self, index: int) -> frozenset[str]:
        """Lower-cased directive names in the default configuration of a system."""
        key = f"system_directives:{index}"
        if key not in self._caches:
            names: set[str] = set()
            sut = self.system_sut(index)
            if sut is not None:
                from repro.parsers.base import get_dialect

                for filename, text in sut.default_configuration().items():
                    try:
                        dialect = get_dialect(sut.dialect_for(filename))
                        tree = dialect.parse(text, filename=filename)
                    except Exception:
                        continue  # unparseable defaults are the SUT's own bug
                    for node in tree.root.walk():
                        if node.kind == "directive" and node.name:
                            names.add(node.name.lower())
            self._caches[key] = frozenset(names)
        return self._caches[key]


# ------------------------------------------------------ the spec checker's codes
@rule("spec/parse-error", Severity.ERROR, "spec")
def check_parse_error(target: SpecTarget) -> Iterator[Diagnostic]:
    """The spec file cannot be read or decoded as TOML/JSON at all."""
    return target.diagnostics("spec/parse-error")


@rule("spec/unknown-key", Severity.ERROR, "spec")
def check_unknown_key(target: SpecTarget) -> Iterator[Diagnostic]:
    """A table holds a key outside its schema -- usually a misspelling."""
    return target.diagnostics("spec/unknown-key")


@rule("spec/invalid-value", Severity.ERROR, "spec")
def check_invalid_value(target: SpecTarget) -> Iterator[Diagnostic]:
    """A structurally valid entry holds a value its schema rejects."""
    return target.diagnostics("spec/invalid-value")


@rule("spec/unknown-system", Severity.ERROR, "spec")
def check_unknown_system(target: SpecTarget) -> Iterator[Diagnostic]:
    """A system name is not in the registry."""
    return target.diagnostics("spec/unknown-system")


@rule("spec/unknown-plugin", Severity.ERROR, "spec")
def check_unknown_plugin(target: SpecTarget) -> Iterator[Diagnostic]:
    """A plugin name is not in the registry."""
    return target.diagnostics("spec/unknown-plugin")


@rule("spec/unknown-plugin-param", Severity.ERROR, "spec")
def check_unknown_plugin_param(target: SpecTarget) -> Iterator[Diagnostic]:
    """A plugin parameter name is outside the plugin's ``param_names``."""
    return target.diagnostics("spec/unknown-plugin-param")


@rule("spec/duplicate-label", Severity.ERROR, "spec")
def check_duplicate_label(target: SpecTarget) -> Iterator[Diagnostic]:
    """Two systems or plugins resolve to the same store/table key."""
    return target.diagnostics("spec/duplicate-label")


@rule("spec/store-filename-clash", Severity.ERROR, "spec")
def check_store_filename_clash(target: SpecTarget) -> Iterator[Diagnostic]:
    """Two distinct system labels sanitize to one store JSONL filename."""
    return target.diagnostics("spec/store-filename-clash")


# ------------------------------------------------------------- lint-only rules
@rule("spec/seed-collision", Severity.ERROR, "spec")
def check_seed_collision(target: SpecTarget) -> Iterator[Diagnostic]:
    """Two matrix cells derive the same per-cell seed.

    Each (system, plugin) cell seeds its scenario stream from
    ``derive_seed(suite_seed, system_key, plugin_key)``; a collision
    makes two cells draw identical random streams, silently correlating
    results the analysis treats as independent.
    """
    if target.spec is None:
        return
    spec = target.spec
    system_keys = list(dict.fromkeys(s.key for s in spec.systems))
    plugin_keys = list(dict.fromkeys(p.key for p in spec.plugins))
    seen: dict[int, tuple[str, str]] = {}
    for system_key in system_keys:
        for plugin_key in plugin_keys:
            seed = spec_mod.derive_seed(spec.execution.seed, system_key, plugin_key)
            if seed in seen and seen[seed] != (system_key, plugin_key):
                other = seen[seed]
                yield Diagnostic(
                    code="spec/seed-collision",
                    message=(
                        f"cells ({other[0]!r}, {other[1]!r}) and "
                        f"({system_key!r}, {plugin_key!r}) derive the same "
                        f"seed {seed}; their scenario streams would be "
                        "identical -- change a label or the experiment seed"
                    ),
                    severity=Severity.ERROR,
                    path="execution.seed",
                    file=target.file,
                )
            else:
                seen[seed] = (system_key, plugin_key)


# --------------------------------------------------------------- matrix stage
@rule("spec/inapplicable-plugin", Severity.WARNING, "spec")
def check_inapplicable_plugin(target: SpecTarget) -> Iterator[Diagnostic]:
    """A DNS-only plugin is applied to a system with no DNS configuration."""
    if target.spec is None:
        return
    from repro.core.views.dns_view import DnsRecordView

    dns_plugins = []
    for p_index in range(len(target.spec.plugins)):
        instance = target.plugin_instance(p_index)
        if instance is not None and isinstance(instance.view, DnsRecordView):
            dns_plugins.append(p_index)
    if not dns_plugins:
        return
    for s_index, system in enumerate(target.spec.systems):
        dialects = target.system_dialects(s_index)
        if not dialects or dialects & _DNS_DIALECTS:
            continue
        for p_index in dns_plugins:
            plugin = target.spec.plugins[p_index]
            yield Diagnostic(
                code="spec/inapplicable-plugin",
                message=(
                    f"plugin {plugin.key!r} operates on DNS record views, but "
                    f"system {system.key!r} has no bindzone/tinydns "
                    "configuration; the cell can generate no scenarios"
                ),
                severity=Severity.WARNING,
                path=f"plugins[{p_index}]",
                file=target.file,
            )


@rule("catalog/dangling-ref", Severity.WARNING, "spec")
def check_dangling_catalog_ref(target: SpecTarget) -> Iterator[Diagnostic]:
    """An explicitly selected constraint catalog references no directive of a target system.

    The semantic-constraints plugin silently skips constraints whose
    directive is absent from the configuration under test.  When a spec
    *explicitly* selects a catalog (``params.system`` or
    ``params.constraints``) and a target system resolves none of the
    selected constraints, that cell runs zero scenarios -- almost
    certainly a catalog/system mismatch, not an intended no-op.
    (Specs that rely on the implicit combined catalog are exempt: mixed
    matrices legitimately let each system pick out its own directives.)
    """
    if target.spec is None:
        return
    for p_index, plugin in enumerate(target.spec.plugins):
        if plugin.name != "semantic-constraints":
            continue
        explicit = {"system", "constraints"} & set(plugin.params)
        if not explicit:
            continue
        instance = target.plugin_instance(p_index)
        if instance is None:
            continue
        selected = list(getattr(instance, "constraints", []))
        if not selected:
            continue
        for s_index, system in enumerate(target.spec.systems):
            directives = target.system_directives(s_index)
            if not directives:
                continue  # nothing parseable to cross-check against
            if any(spec.directive.lower() in directives for spec in selected):
                continue
            which = " and ".join(sorted(f"params.{name}" for name in explicit))
            yield Diagnostic(
                code="catalog/dangling-ref",
                message=(
                    f"none of the {len(selected)} constraints selected by "
                    f"{which} reference a directive of system "
                    f"{system.key!r}; the cell can generate no scenarios"
                ),
                severity=Severity.WARNING,
                path=f"plugins[{p_index}].params",
                file=target.file,
            )


# ----------------------------------------------------------------- store stage
@rule("spec/store-exists-without-resume", Severity.ERROR, "spec")
def check_store_exists_without_resume(target: SpecTarget) -> Iterator[Diagnostic]:
    """The spec's store directory already exists but ``resume`` is off."""
    if target.spec is None or target.spec.store is None:
        return
    store_spec = target.spec.store
    if store_spec.resume:
        return
    from repro.core.store import ResultStore

    if ResultStore(store_spec.root).exists():
        yield Diagnostic(
            code="spec/store-exists-without-resume",
            message=(
                f"store {store_spec.root!r} already holds a manifest and "
                "resume is off; run-spec will refuse it -- set "
                "store.resume = true or point at a fresh directory"
            ),
            severity=Severity.ERROR,
            path="store.root",
            file=target.file,
        )


@rule("spec/resume-incompatible", Severity.ERROR, "spec")
def check_resume_incompatible(target: SpecTarget) -> Iterator[Diagnostic]:
    """A resume points at a store recording a different experiment."""
    if target.spec is None or target.spec.store is None:
        return
    store_spec = target.spec.store
    if not store_spec.resume:
        return
    from repro.core.store import ResultStore

    store = ResultStore(store_spec.root)
    if not store.exists():
        return
    try:
        manifest = store.read_manifest()
    except StoreError as exc:
        yield Diagnostic(
            code="spec/resume-incompatible",
            message=f"store {store_spec.root!r} cannot be resumed: {exc}",
            severity=Severity.ERROR,
            path="store.root",
            file=target.file,
        )
        return
    stored_spec = manifest.get("spec")
    if not isinstance(stored_spec, dict):
        return  # pre-spec manifests are checked dynamically by check_compatible
    diffs = spec_mod.diff_spec_dicts(stored_spec, target.spec.to_dict())
    if diffs:
        shown = "; ".join(diffs[:3])
        if len(diffs) > 3:
            shown += f"; ... ({len(diffs) - 3} more)"
        yield Diagnostic(
            code="spec/resume-incompatible",
            message=(
                f"store {store_spec.root!r} records a different experiment: "
                f"{shown}"
            ),
            severity=Severity.ERROR,
            path="store.root",
            file=target.file,
        )


@rule("spec/retry-without-resume", Severity.WARNING, "spec")
def check_retry_without_resume(target: SpecTarget) -> Iterator[Diagnostic]:
    """``retry_quarantined`` is set on a store that is not resuming."""
    if target.spec is None or target.spec.store is None:
        return
    store_spec = target.spec.store
    if store_spec.retry_quarantined and not store_spec.resume:
        yield Diagnostic(
            code="spec/retry-without-resume",
            message=(
                "retry_quarantined only re-attempts scenarios quarantined by "
                "an earlier run, so it has no effect without resume = true"
            ),
            severity=Severity.WARNING,
            path="store.retry_quarantined",
            file=target.file,
        )


@rule("spec/no-delta-support", Severity.INFO, "spec", default=False)
def check_no_delta_support(target: SpecTarget) -> Iterator[Diagnostic]:
    """A cell cannot take the incremental delta-validation fast path.

    Advisory (off by default): outcomes are byte-identical either way,
    but cells that silently fall back to full validation lose the PR 7
    speed-up this spec's ``execution.incremental = true`` asks for.
    """
    if target.spec is None or not target.spec.execution.incremental:
        return
    for index, system in enumerate(target.spec.systems):
        if system.chaos:
            yield Diagnostic(
                code="spec/no-delta-support",
                message=(
                    f"system {system.key!r} is chaos-wrapped; the wrapper does "
                    "not implement start_delta, so its cells always run full "
                    "validation"
                ),
                severity=Severity.INFO,
                path=f"systems[{index}].chaos",
                file=target.file,
            )
            continue
        sut = target.system_sut(index)
        if sut is not None and not sut.supports_delta():
            yield Diagnostic(
                code="spec/no-delta-support",
                message=(
                    f"system {system.key!r} does not implement start_delta; "
                    "its cells always run full validation"
                ),
                severity=Severity.INFO,
                path=f"systems[{index}].name",
                file=target.file,
            )
