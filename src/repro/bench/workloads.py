"""Workload configurations shared by the registry and the tests.

Provides the "most of the available directives, with default values"
configurations used by the Section 5.5 comparison benchmark (Figure 3) --
registered as the ``mysql-full-directives`` / ``postgres-full-directives``
systems -- and picklable zero-argument factories for the five simulated
systems the paper studies.  Which systems each paper artefact runs is part
of its spec (``table1_spec`` & co.).
"""

from __future__ import annotations

from typing import Callable

from repro.registry import get_system
from repro.sut.base import SystemUnderTest
from repro.sut.mysql.options import MYSQLD_OPTIONS
from repro.sut.postgres.options import POSTGRES_OPTIONS

__all__ = [
    "full_directive_mysql_config",
    "full_directive_postgres_config",
    "simulated_sut_factories",
]

SUTFactory = Callable[[], SystemUnderTest]


def simulated_sut_factories() -> dict[str, SUTFactory]:
    """Factories for all five simulated systems the paper studies."""
    return {name: get_system(name) for name in ("mysql", "postgres", "apache", "bind", "djbdns")}


def full_directive_mysql_config() -> str:
    """A ``my.cnf`` containing most available directives with default values.

    Following Section 5.5, boolean/flag options and options without a default
    are skipped (typos in boolean values are known to be detected by both
    systems and would not differentiate them).
    """
    lines = ["[mysqld]"]
    for spec in MYSQLD_OPTIONS:
        if spec.flag or spec.kind == "bool" or spec.default in (None, ""):
            continue
        lines.append(f"{spec.name} = {spec.default}")
    return "\n".join(lines) + "\n"


def full_directive_postgres_config() -> str:
    """A ``postgresql.conf`` containing most available directives with defaults."""
    lines = ["# full-directive configuration for the comparison benchmark"]
    for spec in POSTGRES_OPTIONS:
        if spec.kind == "bool" or spec.default in (None, ""):
            continue
        if spec.kind in ("string", "path", "enum") and not spec.default.replace(".", "").isalnum():
            value = f"'{spec.default}'"
        elif spec.kind in ("string", "path"):
            value = f"'{spec.default}'"
        else:
            value = spec.default
        lines.append(f"{spec.name} = {value}")
    return "\n".join(lines) + "\n"
