"""Hybrid Query UDFs — a BlendSQL-equivalent engine (paper Section 4.2).

Executes SQL with embedded LLM ingredients directly against the curated
SQLite database:

- ``{{LLMMap('question', 'table::col', ...)}}`` — a per-row mapping from
  the table's key columns to a generated value;
- ``{{LLMQA('question about an ''entity''')}}`` — a scalar answer;
- ``{{LLMJoin('question', 'table::col', ...)}}`` — a generated table
  usable in FROM.

Operational semantics follow the paper's description of BlendSQL:
predicate **pushdown** (only generate values for rows that survive
database-only predicates), **batching** (default 5 keys per call),
a **prompt→completion cache**, and similarity-selected few-shot
question/answer demonstrations.
"""

from repro.udf.executor import HybridQueryExecutor
from repro.udf.fewshot import DemonstrationPool, FewShotSelector, cosine_similarity, embed
from repro.udf.ingredients import (
    IngredientCall,
    parse_ingredient_call,
    parse_map_answers,
)
from repro.udf.semantic_cache import SemanticCache
from repro.udf.views import MaterializedViewStore

__all__ = [
    "HybridQueryExecutor",
    "DemonstrationPool",
    "FewShotSelector",
    "cosine_similarity",
    "embed",
    "IngredientCall",
    "parse_ingredient_call",
    "parse_map_answers",
    "SemanticCache",
    "MaterializedViewStore",
]
