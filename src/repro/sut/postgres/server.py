"""Simulated PostgreSQL server.

The simulation reproduces the strict configuration validation of the
Postgres 8.2 server the paper studied:

* unknown parameters abort startup (``unrecognized configuration parameter``),
* parameter names are case-insensitive but cannot be abbreviated
  (paper Table 2: mixed case yes, truncation no),
* numeric values are parsed strictly: malformed numbers, unknown units and
  out-of-range values abort startup,
* boolean parameters only accept the documented spellings,
* cross-parameter constraints are enforced (Section 5.2's
  ``max_fsm_pages >= 16 * max_fsm_relations`` example).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.infoset import ConfigSet, ConfigTree
from repro.errors import ParseError
from repro.parsers.base import get_dialect
from repro.sut.base import FunctionalTest, StartResult, SystemUnderTest
from repro.sut.functional import database_suite
from repro.sut.incremental import BaselineValidation, ScenarioDelta, patched_trees
from repro.sut.options import OptionSpec
from repro.sut.postgres.options import CROSS_CONSTRAINTS, DEFAULT_POSTGRESQL_CONF, POSTGRES_OPTIONS
from repro.sut.storage import Connection, MiniSqlEngine

__all__ = ["SimulatedPostgres", "parse_postgres_value", "PostgresValueError"]

_MEMORY_UNITS = {"kb": 1024, "mb": 1024**2, "gb": 1024**3}
#: Time units (seconds multipliers) accepted by ``time`` parameters.
_TIME_UNITS = {"ms": 0.001, "s": 1, "min": 60, "h": 3600, "d": 86400}
_BOOL_TRUE = {"on", "true", "yes", "1"}
_BOOL_FALSE = {"off", "false", "no", "0"}


class PostgresValueError(ValueError):  # conferr: allow[harness/foreign-exception]
    """A parameter value was rejected by the strict parser."""


def parse_postgres_value(text: str, spec: OptionSpec) -> object:
    """Parse a parameter value with Postgres' strict rules.

    Raises :class:`PostgresValueError` with a FATAL-style message when the
    value is malformed or out of range; returns the effective value otherwise.
    """
    value = text.strip()
    if spec.kind in ("int", "size", "real", "time"):
        magnitude_text = value
        multiplier: float = 1
        unit_table = _MEMORY_UNITS if spec.kind == "size" else _TIME_UNITS if spec.kind == "time" else {}
        lowered = value.lower()
        # longest unit first so "min" is not mistaken for a trailing "n" garbage
        for unit in sorted(unit_table, key=len, reverse=True):
            if lowered.endswith(unit):
                magnitude_text = value[: -len(unit)].strip()
                multiplier = unit_table[unit]
                break
        try:
            magnitude = float(magnitude_text) if spec.kind == "real" else int(magnitude_text)
        except ValueError as exc:
            raise PostgresValueError(
                f'invalid value for parameter "{spec.name}": "{text}"'
            ) from exc
        effective = magnitude * multiplier
        if spec.minimum is not None and effective < spec.minimum:
            raise PostgresValueError(
                f'{spec.name} = {text} is outside the valid range ({spec.minimum} .. {spec.maximum})'
            )
        if spec.maximum is not None and effective > spec.maximum:
            raise PostgresValueError(
                f'{spec.name} = {text} is outside the valid range ({spec.minimum} .. {spec.maximum})'
            )
        return effective
    if spec.kind == "bool":
        lowered = value.lower()
        if lowered in _BOOL_TRUE:
            return True
        if lowered in _BOOL_FALSE:
            return False
        raise PostgresValueError(
            f'parameter "{spec.name}" requires a Boolean value, got "{text}"'
        )
    if spec.kind == "enum":
        for choice in spec.choices:
            if value.lower() == choice.lower():
                return choice
        raise PostgresValueError(f'invalid value for parameter "{spec.name}": "{text}"')
    # string / path parameters accept any text
    return value


@dataclass
class _PostgresDeltaState:
    """Reusable index of one fully validated pristine ``postgresql.conf``.

    Mirrors the MySQL delta index, minus warnings (Postgres aborts instead
    of warning): ``roles`` maps every root-child path to its document-order
    directive position or ``"ignored"`` (comments, blanks); ``entries``
    records each directive's isolated effect ``(error, assignment)``;
    ``assignments`` indexes assignments per canonical key for
    last-write-wins splicing.
    """

    roles: dict[tuple[int, ...], object]
    entries: list[tuple[str | None, tuple[str, object] | None]]
    assignments: dict[str, list[tuple[int, object]]]
    defaults: dict[str, object]
    final_settings: dict[str, object]


class SimulatedPostgres(SystemUnderTest):
    """Simulated PostgreSQL database server driven by ``postgresql.conf``."""

    name = "Postgres"
    config_filename = "postgresql.conf"

    def __init__(self, default_config: str | None = None):
        self._default_config = (
            default_config if default_config is not None else DEFAULT_POSTGRESQL_CONF
        )
        self._engine: MiniSqlEngine | None = None
        self.effective_settings: dict[str, object] = {}

    # --------------------------------------------------------------- interface
    def default_configuration(self) -> dict[str, str]:
        return {self.config_filename: self._default_config}

    def dialect_for(self, filename: str) -> str:
        return "pgconf"

    def functional_tests(self) -> list[FunctionalTest]:
        return database_suite()

    def is_running(self) -> bool:
        return self._engine is not None

    def stop(self) -> None:
        self._engine = None

    def connect(self) -> Connection:
        """Open a client connection (used by the database functional suite)."""
        if self._engine is None:
            raise RuntimeError("postgres is not running")
        return self._engine.connect()

    # ------------------------------------------------------------------ start
    def start(self, files: Mapping[str, str]) -> StartResult:
        self.stop()
        text = files.get(self.config_filename)
        if text is None:
            return StartResult.failed(f"configuration file {self.config_filename} is missing")
        try:
            tree = get_dialect("pgconf").parse(text, filename=self.config_filename)
        except ParseError as exc:
            return StartResult.failed(f"syntax error in configuration file: {exc}")
        return self._start_from_tree(tree)

    def _start_from_tree(self, tree: ConfigTree) -> StartResult:
        """Validate and bring up the server from an already parsed tree.

        The full start enters after parsing, a structural delta start
        after splicing the baseline tree, so both walks are the same code.
        """
        settings: dict[str, object] = {}
        for spec in POSTGRES_OPTIONS:
            try:
                settings[spec.canonical_name()] = (
                    parse_postgres_value(spec.default, spec) if spec.default is not None else None
                )
            except PostgresValueError:  # pragma: no cover - defaults are valid
                settings[spec.canonical_name()] = spec.default

        for node in tree.walk():
            if node.kind == "directive":
                error = self._apply_directive(node.name or "", node.value, settings)
                if error is not None:
                    return StartResult.failed(error)
            elif node.kind == "section":
                return StartResult.failed(
                    f'syntax error in configuration file: unexpected section "{node.name}"'
                )

        constraint_error = self._check_constraints(settings)
        if constraint_error is not None:
            return StartResult.failed(constraint_error)

        self.effective_settings = settings
        max_connections = int(settings.get("max_connections") or 1)
        self._engine = MiniSqlEngine(max_connections=max(1, max_connections))
        return StartResult.ok()

    # ------------------------------------------------------------ delta start
    def _baseline_state(self, trees: ConfigSet) -> _PostgresDeltaState | None:
        """Index the pristine configuration for last-write-wins splicing."""
        if self.config_filename not in trees:
            return None
        tree = trees.get(self.config_filename)
        roles: dict[tuple[int, ...], object] = {}
        entries: list[tuple[str | None, tuple[str, object] | None]] = []
        for index, node in enumerate(tree.root.children):
            if node.kind != "directive":
                # comments and blank lines: the server never interprets them
                roles[(index,)] = "ignored"
                continue
            probe: dict[str, object] = {}
            error = self._apply_directive(node.name or "", node.value, probe)
            roles[(index,)] = len(entries)
            entries.append((error, next(iter(probe.items()), None)))
        assignments: dict[str, list[tuple[int, object]]] = {}
        for position, (_error, assignment) in enumerate(entries):
            if assignment is not None:
                assignments.setdefault(assignment[0], []).append((position, assignment[1]))
        defaults: dict[str, object] = {}
        for spec in POSTGRES_OPTIONS:
            try:
                defaults[spec.canonical_name()] = (
                    parse_postgres_value(spec.default, spec) if spec.default is not None else None
                )
            except PostgresValueError:  # pragma: no cover - defaults are valid
                defaults[spec.canonical_name()] = spec.default
        final_settings = dict(defaults)
        for _error, assignment in entries:
            if assignment is not None:
                final_settings[assignment[0]] = assignment[1]
        return _PostgresDeltaState(
            roles=roles,
            entries=entries,
            assignments=assignments,
            defaults=defaults,
            final_settings=final_settings,
        )

    def start_delta(
        self, baseline: BaselineValidation, delta: ScenarioDelta
    ) -> StartResult | None:
        """Revalidate only the changed parameters, splicing their effects.

        Each changed directive is re-parsed in isolation (Postgres directive
        errors never depend on earlier lines) and substituted at its document
        position; touched keys are re-resolved last-write-wins and the
        cross-parameter constraints re-checked on the spliced settings.  A
        structural delta (child-list edits) re-walks the spliced tree.
        """
        state: _PostgresDeltaState = baseline.state
        if delta.edits:
            return self._start_spliced(baseline, delta)
        overrides: dict[int, tuple[str, str | None]] = {}
        for change in delta.changes:
            if change.tree != self.config_filename:
                return None
            role = state.roles.get(change.path)
            if role == "ignored":
                continue
            if not isinstance(role, int):
                return None
            overrides[role] = (change.name or "", change.value)

        self.stop()
        if not overrides:
            # every changed node is one the server never reads: pristine state
            self.effective_settings = dict(state.final_settings)
            max_connections = int(state.final_settings.get("max_connections") or 1)
            self._engine = MiniSqlEngine(max_connections=max(1, max_connections))
            return baseline.result

        effects: dict[int, tuple[str | None, tuple[str, object] | None]] = {}
        for position, (name, value) in overrides.items():
            probe: dict[str, object] = {}
            error = self._apply_directive(name, value, probe)
            effects[position] = (error, next(iter(probe.items()), None))

        # the full walk aborts on the first erroring directive in file order
        failing = [position for position, effect in effects.items() if effect[0] is not None]
        if failing:
            return StartResult.failed(effects[min(failing)][0])

        settings = dict(state.final_settings)
        affected: set[str] = set()
        for position in overrides:
            old = state.entries[position][1]
            if old is not None:
                affected.add(old[0])
            new = effects[position][1]
            if new is not None:
                affected.add(new[0])
        for key in affected:
            candidates = [
                (position, value)
                for position, value in state.assignments.get(key, [])
                if position not in overrides
            ]
            candidates.extend(
                (position, effect[1][1])
                for position, effect in effects.items()
                if effect[1] is not None and effect[1][0] == key
            )
            settings[key] = max(candidates)[1] if candidates else state.defaults[key]

        constraint_error = self._check_constraints(settings)
        if constraint_error is not None:
            return StartResult.failed(constraint_error)

        self.effective_settings = settings
        max_connections = int(settings.get("max_connections") or 1)
        self._engine = MiniSqlEngine(max_connections=max(1, max_connections))
        if max_connections == int(state.final_settings.get("max_connections") or 1):
            # a successful Postgres start carries no warnings, so an equal
            # admission limit makes the delta functionally equivalent
            return baseline.result
        return StartResult.ok()

    def _start_spliced(
        self, baseline: BaselineValidation, delta: ScenarioDelta
    ) -> StartResult | None:
        patched = patched_trees(baseline.trees, delta)
        if patched is None or self.config_filename not in patched:
            return None
        self.stop()
        result = self._start_from_tree(patched.get(self.config_filename))
        if result.started and int(self.effective_settings.get("max_connections") or 1) == int(
            baseline.state.final_settings.get("max_connections") or 1
        ):
            # the existing field-delta test: a successful start carries no
            # warnings, so an equal admission limit is the pristine outcome
            return baseline.result
        return result

    # ----------------------------------------------------------------- helpers
    def _apply_directive(
        self, directive_name: str, value: str | None, settings: dict[str, object]
    ) -> str | None:
        spec = POSTGRES_OPTIONS.resolve(directive_name, allow_prefix=False, case_sensitive=False)
        if spec is None:
            return f'unrecognized configuration parameter "{directive_name}"'
        if value is None or value.strip() == "":
            return f'parameter "{spec.name}" requires a value'
        try:
            settings[spec.canonical_name()] = parse_postgres_value(value, spec)
        except PostgresValueError as exc:
            return f"FATAL: {exc}"
        return None

    @staticmethod
    def _check_constraints(settings: dict[str, object]) -> str | None:
        for constraint in CROSS_CONSTRAINTS:
            value = settings.get(constraint.parameter)
            related = settings.get(constraint.related)
            if value is None or related is None:
                continue
            if not constraint.check(float(value), float(related)):
                return f"FATAL: {constraint.message} (got {value} vs {related})"
        return None
