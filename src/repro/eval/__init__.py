"""Evaluation metrics (paper Section 5.1).

- **Execution accuracy (EX)** — fraction of hybrid queries whose results
  are identical to the gold query's results
  (:mod:`repro.eval.execution`).
- **Data factuality** — exact-string-match F1 over generated cells, with
  set-F1 for one-to-many values (:mod:`repro.eval.factuality`).
- **Token usage** — metered by :mod:`repro.llm.usage`; reported here.
- :mod:`repro.eval.costs` turns usage into dollars and latency;
  :mod:`repro.eval.attribution` classifies each miss by its cause.
- :mod:`repro.eval.report` renders the paper-style text tables.

The metrics read pipeline outputs, never the harness that produced
them: the per-run error breakdown lives in
:mod:`repro.harness.breakdown`.
"""

from repro.eval.costs import CostReport, estimate_costs
from repro.eval.execution import ExecutionOutcome, evaluate_question, execution_accuracy
from repro.eval.factuality import cell_f1, database_factuality, table_factuality
from repro.eval.report import format_table

__all__ = [
    "CostReport",
    "estimate_costs",
    "ExecutionOutcome",
    "evaluate_question",
    "execution_accuracy",
    "cell_f1",
    "database_factuality",
    "table_factuality",
    "format_table",
]
