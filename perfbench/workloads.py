"""The benchmark's workloads: experiment specs built from a seed.

Every workload is a function of the seed alone, so the same seed always
gives the same spec, and the program under test only ever sees the spec
file ``run.py`` writes.  Why each workload exists, and which layer it
stresses, is recorded in README.md next to this file.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

#: The seed the recorded digests below belong to (the paper's year, and the
#: seed of every shipped example spec).
RECORDED_SEED = 2008

#: The five systems of the paper's evaluation (Table 1).
PAPER_SYSTEMS = ("mysql", "postgres", "apache", "bind", "djbdns")

PAPER_SUITE_SPEC = Path(__file__).resolve().parent.parent / "examples" / "specs" / "paper_suite.toml"


def _spec(
    systems: tuple[str, ...], plugins: list[dict[str, Any]], seed: int, **execution: Any
) -> dict[str, Any]:
    return {
        "systems": [{"name": name} for name in systems],
        "plugins": plugins,
        "execution": {"seed": seed, **execution},
    }


def paper_suite(seed: int) -> dict[str, Any]:
    # the shipped spec as it stands, with only its seed replaced
    spec = tomllib.loads(PAPER_SUITE_SPEC.read_text(encoding="utf-8"))
    spec.setdefault("execution", {})["seed"] = seed
    return spec


def typo_sweep(seed: int) -> dict[str, Any]:
    # every omission and transposition typo (mutations_per_token unset); the
    # five-model sweep is 57,270 records and 20-26 s a pass, too long for
    # repeated cold passes, so the pass keeps two of the five models
    return _spec(
        PAPER_SYSTEMS,
        [{"name": "spelling", "params": {"models": ["omission", "transposition"]}}],
        seed,
    )


def typo_sample(seed: int) -> dict[str, Any]:
    return _spec(
        ("mysql-full-directives", "postgres-full-directives", "nginx", "sshd"),
        [{"name": "spelling", "params": {"mutations_per_token": 1}}],
        seed,
    )


def structural_jobs2(seed: int) -> dict[str, Any]:
    # executor left unset: the default strategy for jobs > 1
    return _spec(
        ("apache", "nginx", "sshd", "mysql", "postgres", "bind"),
        [{"name": "structural"}, {"name": "omission"}],
        seed,
        jobs=2,
    )


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``digest`` is the SHA-256 of the store's record stream (durations
    excluded, see ``child.store_digest``) for :data:`RECORDED_SEED`.
    """

    name: str
    spec: Callable[[int], dict[str, Any]]
    digest: str


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "paper-suite",
            paper_suite,
            "d1eae5af59a79f969e76796af1a819a060d501e993badf572413a355343e8891",
        ),
        Workload(
            "typo-sweep",
            typo_sweep,
            "59669507c4841f4fd3d2f72a0948d8b05e9ef45cd735c7461c121ae1601de633",
        ),
        Workload(
            "typo-sample",
            typo_sample,
            "7b0e5686594dca70802baa8b5213a07ee85a275750b6f7f33a511fbea5aeba1a",
        ),
        Workload(
            "structural-jobs2",
            structural_jobs2,
            "ab899eb86ee10a6c3fa9a6086703194b0d99619dcdaba7e33a7167fb74e30ac3",
        ),
    )
}
