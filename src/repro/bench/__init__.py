"""The paper's tables and figures, each a spec builder plus a store renderer.

Each module corresponds to one evaluation artefact:

* :mod:`repro.bench.table1`  -- resilience to typos (Table 1),
* :mod:`repro.bench.table2`  -- resilience to structural variations (Table 2),
* :mod:`repro.bench.table3`  -- resilience to DNS semantic errors (Table 3),
* :mod:`repro.bench.figure3` -- the MySQL vs Postgres value-typo comparison (Figure 3),
* :mod:`repro.bench.matrix`  -- the M-systems x N-plugins resilience matrix
  (beyond the paper: every registered system crossed with every error family),
* :mod:`repro.bench.timing`  -- per-injection wall-clock cost (Section 5.2's timing remarks).

An artefact is run one way only: :func:`run_artifact` sends its spec
(``table1_spec`` & co.) through the campaign suite into a result store
and renders it from that store (``table1_from_store`` & co.), e.g.::

    run_artifact("table1", table1_spec(typos_per_directive=3))

The ``benchmarks/`` pytest-benchmark suite, the ``conferr`` CLI and the
campaign service all go through this path.
"""

from repro.bench.table1 import Table1Result, table1_from_store, table1_spec
from repro.bench.table2 import Table2Result, table2_from_store, table2_spec
from repro.bench.table3 import Table3Result, table3_from_store, table3_spec
from repro.bench.figure3 import Figure3Result, figure3_from_store, figure3_spec
from repro.bench.matrix import MatrixResult, matrix_from_store, matrix_spec
from repro.bench.artifacts import render_artifact, run_artifact
from repro.bench.timing import ThroughputResult, campaign_throughput, time_single_injection

__all__ = [
    "run_artifact",
    "render_artifact",
    "table1_spec",
    "table2_spec",
    "table3_spec",
    "figure3_spec",
    "matrix_spec",
    "table1_from_store",
    "table2_from_store",
    "table3_from_store",
    "figure3_from_store",
    "matrix_from_store",
    "time_single_injection",
    "campaign_throughput",
    "ThroughputResult",
    "Table1Result",
    "Table2Result",
    "Table3Result",
    "Figure3Result",
    "MatrixResult",
]
