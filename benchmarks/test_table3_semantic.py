"""Benchmark: Table 3 -- resilience to semantic DNS errors (Section 5.4).

Injects RFC-1912 style record-level faults into BIND and djbdns through the
system-independent record view and classifies each fault class as
found / not found / N/A, reproducing the paper's Table 3 cell by cell.
"""

from benchmarks.conftest import BENCH_SEED
from repro.bench import run_artifact, table3_spec
from repro.core.profile import InjectionOutcome
from repro.core.spec import ExecutionSpec

#: The behaviour matrix exactly as printed in the paper's Table 3.
PAPER_TABLE3 = {
    "Missing PTR": {"BIND": "not found", "djbdns": "N/A"},
    "PTR pointing to CNAME": {"BIND": "not found", "djbdns": "N/A"},
    "dupl name for NS and CNAME": {"BIND": "found", "djbdns": "not found"},
    "MX pointing to CNAME": {"BIND": "found", "djbdns": "not found"},
}


def test_table3_resilience_to_semantic_errors(run_once):
    spec = table3_spec(max_scenarios_per_class=3, execution=ExecutionSpec(seed=BENCH_SEED))
    result = run_once(run_artifact, "table3", spec)

    print("\n\nTable 3 -- Resilience to semantic errors\n" + result.table_text + "\n")

    assert result.behaviour == PAPER_TABLE3
    # The "N/A" entries must come from impossible injections (djbdns' combined
    # '=' records), not from missing scenarios.
    impossible = result.profiles["djbdns"].records_with(InjectionOutcome.INJECTION_IMPOSSIBLE)
    assert impossible
