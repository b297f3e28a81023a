"""Benchmark: Table 2 -- resilience to structural errors (Section 5.3).

Generates ten semantically-neutral variants per variation class and system
and checks which classes each system accepts, reproducing the paper's
support matrix cell by cell.
"""

import pytest

from benchmarks.conftest import BENCH_SEED
from repro.bench import run_artifact, table2_spec
from repro.core.spec import ExecutionSpec

#: The support matrix exactly as printed in the paper's Table 2.
PAPER_TABLE2 = {
    "MySQL": {
        "Order of sections": "Yes",
        "Order of directives": "Yes",
        "Spaces near separators": "Yes",
        "Mixed-case directive names": "No",
        "Truncatable directive names": "Yes",
    },
    "Postgres": {
        "Order of sections": "n/a",
        "Order of directives": "Yes",
        "Spaces near separators": "Yes",
        "Mixed-case directive names": "Yes",
        "Truncatable directive names": "No",
    },
    "Apache": {
        "Order of sections": "n/a",
        "Order of directives": "Yes",
        "Spaces near separators": "Yes",
        "Mixed-case directive names": "Yes",
        "Truncatable directive names": "No",
    },
}


def test_table2_resilience_to_structural_errors(run_once):
    spec = table2_spec(variants_per_class=10, execution=ExecutionSpec(seed=BENCH_SEED))
    result = run_once(run_artifact, "table2", spec)

    print("\n\nTable 2 -- Resilience to structural errors\n" + result.table_text + "\n")

    assert result.support == PAPER_TABLE2
    assert result.satisfied_fraction("MySQL") == pytest.approx(0.80)
    assert result.satisfied_fraction("Postgres") == pytest.approx(0.75)
    assert result.satisfied_fraction("Apache") == pytest.approx(0.75)
