"""Declarative experiment specifications: one typed description of a run.

The paper's pitch is that injection campaigns run "without human
intervention"; an :class:`ExperimentSpec` is the data structure that makes
that true end to end.  It describes a whole systems x plugins experiment
matrix -- which systems, which error-generator plugins with which
parameters, the seed/worker/layout settings, and an optional persistent
result store -- as frozen, serializable dataclasses:

* :class:`SystemSpec` -- a registered system (``repro.registry``) plus an
  optional display label (store key / table column),
* :class:`PluginSpec` -- a registered plugin name, a JSON-native params
  dict handed to the plugin's ``from_params``, and an optional label so
  one plugin can appear twice with different parameters,
* :class:`ExecutionSpec` -- seed, worker fan-out, and the execution-level
  plugin defaults (``mutations_per_token``, ``max_scenarios_per_class``,
  ``layout``),
* :class:`StoreSpec` -- result-store directory and resume flag,
* :class:`ExperimentSpec` -- the top-level document tying them together.

Specs round-trip through plain dicts (``to_dict``/``from_dict``), JSON and
TOML; :meth:`ExperimentSpec.validate` reports the exact path of an invalid
entry (``plugins[1].params.layout: unknown layout 'qwertz-xx'``).  Result
stores embed the serialized spec in their manifest, so resume compatibility
is a structured :func:`diff_spec_dicts` rather than a field-by-field
comparison.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.errors import SpecError

__all__ = [
    "SystemSpec",
    "PluginSpec",
    "ExecutionSpec",
    "StoreSpec",
    "ExperimentSpec",
    "derive_seed",
    "diff_spec_dicts",
    "spec_dict_to_toml",
    "validation_report",
    "validation_error_entry",
]

#: Worker strategies understood by the campaign executor.
EXECUTOR_CHOICES = ("serial", "thread", "process")

#: Execution-level defaults injected into plugins that accept them but do
#: not set them explicitly (mirrors the CLI's ``--mutations-per-token``,
#: ``--max-scenarios-per-class`` and ``--layout`` flags).
_PLUGIN_DEFAULT_KEYS = ("mutations_per_token", "max_scenarios_per_class", "layout")


def derive_seed(suite_seed: int, system: str, plugin: str) -> int:
    """Stable per-(system, plugin) seed derived from one experiment seed.

    Uses a cryptographic digest rather than Python's ``hash`` so the value
    survives interpreter restarts and ``PYTHONHASHSEED`` -- resuming a suite
    in a new process must regenerate identical scenario streams.
    """
    digest = hashlib.sha256(f"{suite_seed}:{system}:{plugin}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1  # keep it a positive 63-bit int


def _toml_loader():
    """The available TOML parser: stdlib ``tomllib`` (3.11+) or ``tomli``.

    Raises a clean :class:`SpecError` instead of a bare import traceback on
    interpreters that have neither -- JSON specs always work.
    """
    try:
        import tomllib
    except ModuleNotFoundError:  # pragma: no cover - Python 3.10 fallback
        try:
            import tomli as tomllib
        except ModuleNotFoundError:
            raise SpecError(
                "TOML specs need Python 3.11+ (stdlib tomllib) or the 'tomli' "
                "package; on this interpreter use a JSON spec instead"
            ) from None
    return tomllib


# ------------------------------------------------------------------ dict helpers
def _require_mapping(value: Any, path: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise SpecError(f"{path}: expected a table/object, got {value!r}")
    return value

def _require_str(value: Any, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise SpecError(f"{path}: expected a non-empty string, got {value!r}")
    return value


def _require_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{path}: expected an integer, got {value!r}")
    return value


def _require_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _require_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise SpecError(f"{path}: expected true/false, got {value!r}")
    return value


def _reject_unknown_keys(data: Mapping[str, Any], known: tuple[str, ...], path: str) -> None:
    for key in data:
        if key not in known:
            where = f"{path}.{key}" if path else str(key)
            raise SpecError(f"{where}: unknown key (expected one of: {', '.join(known)})")


def _prune_nones(value: Any) -> Any:
    """Drop ``None`` values recursively (absent and ``None`` mean 'default')."""
    if isinstance(value, Mapping):
        return {key: _prune_nones(item) for key, item in value.items() if item is not None}
    if isinstance(value, (list, tuple)):
        return [_prune_nones(item) for item in value]
    return value


# ----------------------------------------------------------------------- pieces
@dataclass(frozen=True)
class SystemSpec:
    """One system of the experiment matrix.

    ``name`` is the registry name (:mod:`repro.registry`); ``label`` is the
    key used for store files and rendered table columns and defaults to the
    registry name.  Labels let a spec give a workload variant its canonical
    column name (``mysql-server-only`` shown as ``MySQL``).

    ``chaos`` (a ``[systems.chaos]`` table in TOML) wraps the system in a
    :class:`~repro.sut.chaos.ChaosSUT`, making a seeded fraction of its
    injection experiments hang, crash their worker, or raise -- the
    inject-and-observe method of the paper turned on the harness itself.
    Keys: ``hang_fraction``, ``crash_fraction``, ``error_fraction``,
    ``seed``, ``hang_seconds``.
    """

    name: str
    label: str | None = None
    chaos: Mapping[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.chaos is not None:
            object.__setattr__(self, "chaos", dict(self.chaos))

    @property
    def key(self) -> str:
        """Store/table key of this system (label, falling back to name)."""
        return self.label or self.name

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"name": self.name}
        if self.label is not None and self.label != self.name:
            data["label"] = self.label
        if self.chaos:
            data["chaos"] = dict(self.chaos)
        return data

    @classmethod
    def from_dict(cls, data: Any, path: str = "systems[?]") -> "SystemSpec":
        if isinstance(data, str):  # "mysql" shorthand for {name = "mysql"}
            return cls(name=_require_str(data, f"{path}.name"))
        data = _require_mapping(data, path)
        _reject_unknown_keys(data, ("name", "label", "chaos"), path)
        label = data.get("label")
        if label is not None:
            label = _require_str(label, f"{path}.label")
        chaos = data.get("chaos")
        if chaos is not None:
            chaos = dict(_require_mapping(chaos, f"{path}.chaos"))
        return cls(
            name=_require_str(data.get("name"), f"{path}.name"), label=label, chaos=chaos
        )

    def validate_chaos(self, path: str) -> None:
        """Typed validation of the chaos table (fractions, seed, hang time)."""
        if self.chaos is None:
            return
        known = ("hang_fraction", "crash_fraction", "error_fraction", "seed", "hang_seconds")
        _reject_unknown_keys(self.chaos, known, path)
        total = 0.0
        for key in ("hang_fraction", "crash_fraction", "error_fraction"):
            if key in self.chaos:
                value = _require_number(self.chaos[key], f"{path}.{key}")
                if not 0.0 <= value <= 1.0:
                    raise SpecError(f"{path}.{key}: must be within [0, 1], got {value}")
                total += value
        if total > 1.0:
            raise SpecError(f"{path}: fault fractions must sum to at most 1, got {total}")
        if "seed" in self.chaos:
            _require_int(self.chaos["seed"], f"{path}.seed")
        if "hang_seconds" in self.chaos:
            value = _require_number(self.chaos["hang_seconds"], f"{path}.hang_seconds")
            if value <= 0:
                raise SpecError(f"{path}.hang_seconds: must be positive, got {value}")


@dataclass(frozen=True)
class PluginSpec:
    """One error-generator plugin of the matrix, with its typed params.

    ``params`` is handed to the plugin class's ``from_params`` (the inverse
    of ``manifest_params``), so construction never touches the CLI.
    ``label`` keys the plugin's campaign in results and stores; it defaults
    to the plugin name and exists so one plugin can appear several times
    with different parameters (Table 1 runs ``spelling`` twice).
    """

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)
    label: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))

    @property
    def key(self) -> str:
        """Campaign key of this plugin (label, falling back to name)."""
        return self.label or self.name

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"name": self.name}
        if self.label is not None and self.label != self.name:
            data["label"] = self.label
        params = _prune_nones(self.params)
        if params:
            data["params"] = params
        return data

    @classmethod
    def from_dict(cls, data: Any, path: str = "plugins[?]") -> "PluginSpec":
        if isinstance(data, str):  # "spelling" shorthand
            return cls(name=_require_str(data, f"{path}.name"))
        data = _require_mapping(data, path)
        _reject_unknown_keys(data, ("name", "label", "params"), path)
        label = data.get("label")
        if label is not None:
            label = _require_str(label, f"{path}.label")
        params = data.get("params", {})
        params = dict(_require_mapping(params, f"{path}.params"))
        return cls(name=_require_str(data.get("name"), f"{path}.name"), label=label, params=params)


@dataclass(frozen=True)
class ExecutionSpec:
    """Seed, worker fan-out, fault tolerance and execution-level plugin defaults.

    The three fault-tolerance knobs (``timeout_seconds``, ``max_retries``,
    ``retry_backoff_seconds``) are all None by default, which leaves the
    tolerance layer off entirely; setting any one of them opts the run into
    :class:`~repro.core.faults.FaultPolicy` handling (per-scenario watchdog,
    worker-crash retry, quarantine).
    """

    seed: int = 2008
    jobs: int = 1
    executor: str | None = None
    block_size: int | None = None
    timeout_seconds: float | None = None
    max_retries: int | None = None
    retry_backoff_seconds: float | None = None
    mutations_per_token: int | None = None
    max_scenarios_per_class: int | None = None
    layout: str | None = None
    #: Whether scenarios may take the delta-validation fast path (outcomes
    #: are identical either way; ``--no-incremental`` is the escape hatch).
    incremental: bool = True

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"seed": self.seed, "jobs": self.jobs}
        if not self.incremental:
            data["incremental"] = False
        for key in (
            "executor",
            "block_size",
            "timeout_seconds",
            "max_retries",
            "retry_backoff_seconds",
            "mutations_per_token",
            "max_scenarios_per_class",
            "layout",
        ):
            value = getattr(self, key)
            if value is not None:
                data[key] = value
        return data

    @classmethod
    def from_dict(cls, data: Any, path: str = "execution") -> "ExecutionSpec":
        data = _require_mapping(data, path)
        known = (
            "seed",
            "jobs",
            "executor",
            "block_size",
            "timeout_seconds",
            "max_retries",
            "retry_backoff_seconds",
            "mutations_per_token",
            "max_scenarios_per_class",
            "layout",
            "incremental",
        )
        _reject_unknown_keys(data, known, path)
        kwargs: dict[str, Any] = {}
        if "seed" in data:
            kwargs["seed"] = _require_int(data["seed"], f"{path}.seed")
        if "incremental" in data:
            kwargs["incremental"] = _require_bool(data["incremental"], f"{path}.incremental")
        if "jobs" in data:
            kwargs["jobs"] = _require_int(data["jobs"], f"{path}.jobs")
        for key in ("executor", "layout"):
            if data.get(key) is not None:
                kwargs[key] = _require_str(data[key], f"{path}.{key}")
        for key in ("block_size", "max_retries", "mutations_per_token", "max_scenarios_per_class"):
            if data.get(key) is not None:
                kwargs[key] = _require_int(data[key], f"{path}.{key}")
        for key in ("timeout_seconds", "retry_backoff_seconds"):
            if data.get(key) is not None:
                kwargs[key] = _require_number(data[key], f"{path}.{key}")
        return cls(**kwargs)

    def validate(self, path: str = "execution") -> None:
        if self.jobs < 1:
            raise SpecError(f"{path}.jobs: must be a positive integer, got {self.jobs}")
        if self.executor is not None and self.executor not in EXECUTOR_CHOICES:
            raise SpecError(
                f"{path}.executor: unknown executor {self.executor!r}; "
                f"available: {', '.join(EXECUTOR_CHOICES)}"
            )
        for key in ("block_size", "mutations_per_token", "max_scenarios_per_class"):
            value = getattr(self, key)
            if value is not None and value < 1:
                raise SpecError(f"{path}.{key}: must be a positive integer, got {value}")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise SpecError(
                f"{path}.timeout_seconds: must be positive, got {self.timeout_seconds}"
            )
        if self.max_retries is not None and self.max_retries < 0:
            raise SpecError(
                f"{path}.max_retries: must be zero or positive, got {self.max_retries}"
            )
        if self.retry_backoff_seconds is not None and self.retry_backoff_seconds < 0:
            raise SpecError(
                f"{path}.retry_backoff_seconds: must be zero or positive, "
                f"got {self.retry_backoff_seconds}"
            )
        if self.layout is not None:
            from repro.keyboard.layouts import available_layouts, get_layout

            try:
                get_layout(self.layout)
            except KeyError:
                raise SpecError(
                    f"{path}.layout: unknown layout {self.layout!r}; "
                    f"available: {', '.join(available_layouts())}"
                ) from None


@dataclass(frozen=True)
class StoreSpec:
    """Persistent result-store settings of a spec-driven run.

    ``retry_quarantined`` controls what a resumed run does with scenarios
    the fault-tolerance layer quarantined: False (the default) keeps
    skipping them, True drops their quarantine entries and re-attempts
    them.
    """

    root: str
    resume: bool = False
    retry_quarantined: bool = False

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"root": self.root}
        if self.resume:
            data["resume"] = True
        if self.retry_quarantined:
            data["retry_quarantined"] = True
        return data

    @classmethod
    def from_dict(cls, data: Any, path: str = "store") -> "StoreSpec":
        data = _require_mapping(data, path)
        _reject_unknown_keys(data, ("root", "resume", "retry_quarantined"), path)
        resume = data.get("resume", False)
        retry = data.get("retry_quarantined", False)
        return cls(
            root=_require_str(data.get("root"), f"{path}.root"),
            resume=_require_bool(resume, f"{path}.resume"),
            retry_quarantined=_require_bool(retry, f"{path}.retry_quarantined"),
        )


# -------------------------------------------------------------------- top level
@dataclass(frozen=True)
class ExperimentSpec:
    """A whole systems x plugins injection experiment, as data."""

    systems: tuple[SystemSpec, ...]
    plugins: tuple[PluginSpec, ...]
    execution: ExecutionSpec = field(default_factory=ExecutionSpec)
    store: StoreSpec | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "systems",
            tuple(SystemSpec(s) if isinstance(s, str) else s for s in self.systems),
        )
        object.__setattr__(
            self,
            "plugins",
            tuple(PluginSpec(p) if isinstance(p, str) else p for p in self.plugins),
        )

    # ------------------------------------------------------------ serialization
    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "systems": [system.to_dict() for system in self.systems],
            "plugins": [plugin.to_dict() for plugin in self.plugins],
            "execution": self.execution.to_dict(),
        }
        if self.store is not None:
            data["store"] = self.store.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Any) -> "ExperimentSpec":
        data = _require_mapping(data, "spec")
        _reject_unknown_keys(data, ("systems", "plugins", "execution", "store"), "")
        raw_systems = data.get("systems")
        if not isinstance(raw_systems, (list, tuple)):
            raise SpecError(f"systems: expected a list, got {raw_systems!r}")
        raw_plugins = data.get("plugins")
        if not isinstance(raw_plugins, (list, tuple)):
            raise SpecError(f"plugins: expected a list, got {raw_plugins!r}")
        execution = ExecutionSpec.from_dict(data.get("execution", {}))
        store = None
        if data.get("store") is not None:
            store = StoreSpec.from_dict(data["store"])
        return cls(
            systems=tuple(
                SystemSpec.from_dict(entry, f"systems[{index}]")
                for index, entry in enumerate(raw_systems)
            ),
            plugins=tuple(
                PluginSpec.from_dict(entry, f"plugins[{index}]")
                for index, entry in enumerate(raw_plugins)
            ),
            execution=execution,
            store=store,
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    def to_toml(self) -> str:
        return spec_dict_to_toml(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid JSON spec: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def from_toml(cls, text: str) -> "ExperimentSpec":
        tomllib = _toml_loader()
        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise SpecError(f"invalid TOML spec: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentSpec":
        """Load a spec from a ``.toml`` or ``.json`` file (sniffed otherwise)."""
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise SpecError(f"cannot read spec file {path}: {exc}") from exc
        suffix = path.suffix.lower()
        if suffix == ".json" or (suffix != ".toml" and text.lstrip().startswith("{")):
            loader = cls.from_json
        else:
            loader = cls.from_toml
        try:
            return loader(text)
        except SpecError as exc:
            raise SpecError(f"{path}: {exc}") from None

    # -------------------------------------------------------------- validation
    def validate(self) -> "ExperimentSpec":
        """Check the spec against the registries; returns self when valid.

        Every failure names the exact offending path, e.g.
        ``plugins[1].params.layout: unknown layout 'qwertz-xx'``.
        """
        from repro.registry import available_systems, get_system

        if not self.systems:
            raise SpecError("systems: an experiment needs at least one system")
        if not self.plugins:
            raise SpecError("plugins: an experiment needs at least one plugin")
        # execution first: its defaults are folded into the plugin params, so
        # an invalid layout should be reported where the user wrote it
        self.execution.validate()
        from repro.core.store import filename_for
        from repro.sut.base import split_sut

        seen_systems: dict[str, int] = {}
        seen_files: dict[str, int] = {}
        seen_displays: dict[str, int] = {}
        for index, system in enumerate(self.systems):
            try:
                factory = get_system(system.name)
            except SpecError:
                raise SpecError(
                    f"systems[{index}].name: unknown system {system.name!r}; "
                    f"available: {', '.join(available_systems())}"
                ) from None
            if system.key in seen_systems:
                raise SpecError(
                    f"systems[{index}]: duplicate system {system.key!r} "
                    f"(already listed at systems[{seen_systems[system.key]}]); "
                    "list each system once, or give one a distinct label"
                )
            seen_systems[system.key] = index
            # distinct keys may still sanitize to one store filename, which
            # would interleave both systems' records in a single JSONL
            filename = filename_for(system.key)
            if filename in seen_files:
                other = self.systems[seen_files[filename]].key
                raise SpecError(
                    f"systems[{index}]: label {system.key!r} shares the store "
                    f"filename {filename!r} with {other!r} "
                    f"(systems[{seen_files[filename]}]); give one a label that "
                    "differs in [A-Za-z0-9._-] characters"
                )
            seen_files[filename] = index
            # mirror CampaignSuite.system_names(): two systems sharing a
            # display name would merge into one rendered table column, so
            # validate must refuse what run-spec would refuse
            system.validate_chaos(f"systems[{index}].chaos")
            display = system.label or split_sut(factory)[0].name
            if display in seen_displays:
                other = self.systems[seen_displays[display]].name
                raise SpecError(
                    f"systems[{index}]: system {system.name!r} and {other!r} "
                    f"(systems[{seen_displays[display]}]) share the SUT display "
                    f"name {display!r}; rendered tables would merge them"
                )
            seen_displays[display] = index
        seen_plugins: dict[str, int] = {}
        for index, plugin in enumerate(self.plugins):
            try:
                from repro.plugins.base import available_plugins, get_plugin

                plugin_class = get_plugin(plugin.name)
            except KeyError:
                raise SpecError(
                    f"plugins[{index}].name: unknown plugin {plugin.name!r}; "
                    f"available: {', '.join(available_plugins())}"
                ) from None
            if plugin.key in seen_plugins:
                raise SpecError(
                    f"plugins[{index}]: duplicate plugin {plugin.key!r} "
                    f"(already listed at plugins[{seen_plugins[plugin.key]}]); "
                    "give one of them a distinct label"
                )
            seen_plugins[plugin.key] = index
            try:
                plugin_class.from_params(self._effective_params(plugin, plugin_class))
            except SpecError as exc:
                raise SpecError(f"plugins[{index}].params.{exc}") from None
        return self

    # ------------------------------------------------------------ construction
    def _effective_params(self, plugin: PluginSpec, plugin_class) -> dict[str, Any]:
        """Plugin params with the execution-level defaults folded in."""
        params = {key: value for key, value in plugin.params.items() if value is not None}
        for key in _PLUGIN_DEFAULT_KEYS:
            value = getattr(self.execution, key)
            if value is not None and key in plugin_class.param_names and key not in params:
                params[key] = value
        return params

    def build_systems(self) -> dict[str, Callable[[], Any]]:
        """Resolve the systems into ``{key: factory}`` (registry lookups).

        Systems with a ``chaos`` table come back wrapped in a picklable
        :class:`~repro.sut.chaos.ChaosFactory`, so every worker -- thread or
        process -- rebuilds the same seeded chaos wrapper.
        """
        from repro.registry import get_system

        result: dict[str, Callable[[], Any]] = {}
        for system in self.systems:
            factory = get_system(system.name)
            if system.chaos:
                from repro.sut.chaos import ChaosFactory

                factory = ChaosFactory.from_params(factory, system.chaos)
            result[system.key] = factory
        return result

    def build_plugins(self) -> list[Any]:
        """Construct fresh plugin instances via each plugin's ``from_params``.

        A plugin whose spec label differs from its registry name gets the
        label as its instance ``name``, so campaign results and store
        records are keyed by the label.
        """
        from repro.plugins.base import get_plugin

        instances = []
        for plugin in self.plugins:
            plugin_class = get_plugin(plugin.name)
            instance = plugin_class.from_params(self._effective_params(plugin, plugin_class))
            if plugin.key != instance.name:
                instance.name = plugin.key
            instances.append(instance)
        return instances

    def build_store(self):
        """The :class:`~repro.core.store.ResultStore` of this spec, or None."""
        if self.store is None:
            return None
        from repro.core.store import ResultStore

        return ResultStore(self.store.root)

    def seed_for(self, system_key: str, plugin_key: str) -> int:
        """Seed of one (system, plugin) cell of the matrix."""
        return derive_seed(self.execution.seed, system_key, plugin_key)


# ------------------------------------------------------- validation as data
def spec_error_code(message: str) -> str:
    """Stable diagnostic code classifying a :class:`SpecError` message.

    The codes are the spec-surface rule codes of :mod:`repro.analysis`
    (see docs/LINTING.md), so ``validate --json``, the campaign
    service's 400 bodies and ``conferr lint --json`` all speak the same
    coded dialect.  Classification is by the stable phrasing of the
    messages this module itself produces; anything unrecognized is the
    catch-all ``spec/invalid-value``.
    """
    if (
        message.startswith(("invalid JSON spec", "invalid TOML spec"))
        or "cannot read spec file" in message
    ):
        return "spec/parse-error"
    if "unknown key (expected one of" in message:
        return "spec/unknown-key"
    if "unknown system" in message:
        return "spec/unknown-system"
    if "unknown plugin " in message:
        return "spec/unknown-plugin"
    if "unknown parameter for plugin" in message:
        return "spec/unknown-plugin-param"
    if "duplicate system" in message or "duplicate plugin" in message:
        return "spec/duplicate-label"
    if "share the SUT display name" in message:
        return "spec/duplicate-label"
    if "shares the store filename" in message:
        return "spec/store-filename-clash"
    return "spec/invalid-value"


def validation_error_entry(message: str) -> dict[str, Any]:
    """One machine-readable validation error from a :class:`SpecError` message.

    Spec errors are ``path: message`` strings with the exact offending path
    up front (``plugins[1].params.layout: unknown layout 'qwertz-xx'``);
    this splits them into ``{"path", "message"}`` and attaches the
    :func:`spec_error_code` diagnostic code (validation failures are all
    ``"error"`` severity -- :meth:`ExperimentSpec.validate` has no notion
    of warnings).  Messages without a leading path (paths never contain
    spaces) get ``path: None``.
    """
    code = spec_error_code(message)
    head, sep, rest = message.partition(": ")
    if sep and head and " " not in head:
        return {"code": code, "path": head, "message": rest, "severity": "error"}
    return {"code": code, "path": None, "message": message, "severity": "error"}


def validation_report(spec: "ExperimentSpec") -> dict[str, Any]:
    """Validate a spec into a JSON-native report: ``{"valid", "errors"}``.

    The exact document ``conferr validate --json`` prints and the campaign
    service returns as its 400 response body -- one shape, produced in one
    place.  Validation stops at the first failure (as :meth:`validate`
    does), so ``errors`` holds at most one entry.
    """
    try:
        spec.validate()
    except SpecError as exc:
        return {"valid": False, "errors": [validation_error_entry(str(exc))]}
    return {"valid": True, "errors": []}


# ------------------------------------------------------------------ spec diffing
#: Paths never compared when deciding whether a resume continues the same
#: experiment: the store location is implied by the directory being resumed,
#: and profiles are executor-invariant, so worker settings (including the
#: work-stealing block size) may differ freely.  The fault-tolerance knobs
#: are likewise free: they change how failures are *handled*, never which
#: scenarios exist or what a successful record contains.  The incremental
#: knob only changes validation *cost* -- profiles are byte-identical with
#: it on or off -- so a resume may freely flip it.
RESUME_IRRELEVANT_PATHS = frozenset(
    {
        "store",
        "execution.jobs",
        "execution.executor",
        "execution.block_size",
        "execution.timeout_seconds",
        "execution.max_retries",
        "execution.retry_backoff_seconds",
        "execution.incremental",
    }
)


def diff_spec_dicts(
    stored: Mapping[str, Any],
    current: Mapping[str, Any],
    ignore: frozenset[str] = RESUME_IRRELEVANT_PATHS,
) -> list[str]:
    """Structured diff of two serialized specs, as ``path: difference`` lines.

    Used by result stores to decide whether a resume continues the stored
    experiment; an empty list means compatible.
    """
    diffs: list[str] = []

    def walk(a: Any, b: Any, path: str) -> None:
        if path in ignore:
            return
        if isinstance(a, Mapping) and isinstance(b, Mapping):
            for key in sorted(set(a) | set(b)):
                child = f"{path}.{key}" if path else str(key)
                if child in ignore:
                    continue
                if key not in a:
                    diffs.append(f"{child}: absent on disk but {b[key]!r} now")
                elif key not in b:
                    diffs.append(f"{child}: {a[key]!r} on disk but absent now")
                else:
                    walk(a[key], b[key], child)
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                diffs.append(f"{path}: {len(a)} entries on disk but {len(b)} now")
                return
            for index, (item_a, item_b) in enumerate(zip(a, b)):
                walk(item_a, item_b, f"{path}[{index}]")
        elif a != b:
            diffs.append(f"{path}: {a!r} on disk but {b!r} now")

    walk(dict(stored), dict(current), "")
    return diffs


# ------------------------------------------------------------------- TOML output
def _toml_value(value: Any, path: str) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)  # JSON string escaping is valid TOML
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_value(item, path) for item in value) + "]"
    raise SpecError(f"{path}: value {value!r} cannot be written to TOML")


def spec_dict_to_toml(data: Mapping[str, Any]) -> str:
    """Render a serialized spec (``ExperimentSpec.to_dict``) as a TOML document.

    The writer covers exactly the shapes a spec produces -- scalar values,
    lists of scalars, and the fixed two-level table layout -- which keeps the
    repository free of a TOML-writing dependency.
    """
    lines: list[str] = []
    for index, system in enumerate(data.get("systems", ())):
        lines.append("[[systems]]")
        for key, value in system.items():
            if key == "chaos":
                continue
            lines.append(f"{key} = {_toml_value(value, f'systems[{index}].{key}')}")
        chaos = system.get("chaos") or {}
        if chaos:
            lines.append("[systems.chaos]")
            for key, value in chaos.items():
                lines.append(f"{key} = {_toml_value(value, f'systems[{index}].chaos.{key}')}")
        lines.append("")
    for index, plugin in enumerate(data.get("plugins", ())):
        lines.append("[[plugins]]")
        for key, value in plugin.items():
            if key == "params":
                continue
            lines.append(f"{key} = {_toml_value(value, f'plugins[{index}].{key}')}")
        params = plugin.get("params") or {}
        if params:
            lines.append("[plugins.params]")
            for key, value in params.items():
                lines.append(f"{key} = {_toml_value(value, f'plugins[{index}].params.{key}')}")
        lines.append("")
    for section in ("execution", "store"):
        table = data.get(section)
        if not table:
            continue
        lines.append(f"[{section}]")
        for key, value in table.items():
            lines.append(f"{key} = {_toml_value(value, f'{section}.{key}')}")
        lines.append("")
    return "\n".join(lines)
