"""Experiment harness: runs the paper's evaluation grid and regenerates
every table and figure.

- :mod:`repro.harness.runner` — the (model × shots × database × method)
  experiment runners with full usage metering.
- :mod:`repro.harness.tables` — one generator per paper table/figure.
- :mod:`repro.harness.validate` — the benchmark self-check: gold, HQDL
  and UDF answers agree under a perfect model.
- :mod:`repro.harness.breakdown` — the Section 5.3 error analysis of an
  :class:`~repro.harness.runner.HQDLRun`.
- :mod:`repro.harness.tracing` — traced runs and their per-stage
  console tables.
- ``python -m repro.harness <table1|table2|table3|table4|table5|figure1|all>``
  prints any of them; ``validate``, ``errors``, ``trace`` and the other
  targets drive the modules above.

The harness is the top tier of the layer order: it may import every
other package, and no package imports it.
"""

from repro.harness.runner import (
    GoldResults,
    HQDLRun,
    UDFRun,
    run_hqdl,
    run_udf,
)
from repro.harness.tables import (
    figure1,
    table1,
    table2,
    table3,
    table4,
    table5,
)

__all__ = [
    "GoldResults",
    "HQDLRun",
    "UDFRun",
    "run_hqdl",
    "run_udf",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "figure1",
]
