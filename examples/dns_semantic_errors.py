#!/usr/bin/env python3
"""Inject RFC-1912 style semantic errors into two DNS servers.

Reproduces the Section 5.4 case study (Table 3 of the paper): record-level
misconfigurations -- a missing PTR, a PTR or MX pointing at an alias, a CNAME
clashing with NS data -- are defined once on the system-independent record
view and injected into both BIND and djbdns.

Two effects are visible:

* BIND's zone sanity checks catch the CNAME-related inconsistencies at load
  time, while djbdns serves them without complaint;
* djbdns' combined ``=`` directive (A + PTR in one line) makes the
  "missing PTR" and "PTR to CNAME" faults impossible to even express, which
  ConfErr reports as impossible injections (the paper's "N/A" entries).

Run with::

    python examples/dns_semantic_errors.py
"""

from repro.bench import run_artifact, table3_spec
from repro.core.profile import InjectionOutcome
from repro.core.spec import ExecutionSpec


def main() -> None:
    result = run_artifact("table3", table3_spec(execution=ExecutionSpec(seed=2008)))

    print("Behaviour per fault class (Table 3):\n")
    print(result.table_text)
    print()

    for system, profile in result.profiles.items():
        impossible = profile.records_with(InjectionOutcome.INJECTION_IMPOSSIBLE)
        detected = profile.detected_count()
        print(
            f"{system}: {profile.injected_count()} faults injected, {detected} detected, "
            f"{len(impossible)} could not be expressed in the configuration format"
        )
        for record in impossible[:3]:
            print(f"    impossible: {record.description}")
            if record.messages:
                print(f"      reason: {record.messages[0]}")
        print()


if __name__ == "__main__":
    main()
