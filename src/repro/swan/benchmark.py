"""The SWAN benchmark entry point.

:func:`load_benchmark` assembles the four worlds and their questions into
a :class:`Swan` object — the unit every pipeline and experiment consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.errors import ReproError
from repro.swan.base import Question, World

#: Canonical database order, as in the paper's tables.
DATABASE_ORDER = (
    "california_schools",
    "superhero",
    "formula_1",
    "european_football",
)

#: Human-readable titles, matching the paper's column headers.
DATABASE_TITLES = {
    "california_schools": "California Schools",
    "superhero": "Super Hero",
    "formula_1": "Formula One",
    "european_football": "European Football",
}


@dataclass
class Swan:
    """The full benchmark: four worlds and 120 questions."""

    worlds: dict[str, World]
    questions: list[Question] = field(default_factory=list)

    def world(self, name: str) -> World:
        try:
            return self.worlds[name]
        except KeyError as exc:
            raise ReproError(
                f"unknown SWAN database {name!r}; have {sorted(self.worlds)}"
            ) from exc

    def questions_for(self, database: str) -> list[Question]:
        return [q for q in self.questions if q.database == database]

    def question(self, qid: str) -> Question:
        for question in self.questions:
            if question.qid == qid:
                return question
        raise ReproError(f"unknown question id {qid!r}")

    def database_names(self) -> list[str]:
        return [name for name in DATABASE_ORDER if name in self.worlds]

    def stats_table(self) -> list[dict[str, object]]:
        """Rows of the paper's Table 1 for the loaded worlds."""
        return [self.worlds[name].stats() for name in self.database_names()]


@lru_cache(maxsize=4)
def _cached_benchmark(scale: int = 1) -> Swan:
    # imported lazily so world construction stays importable on its own
    from repro.swan.questions import all_questions
    from repro.swan.scale import scale_world
    from repro.swan.worlds import WORLD_BUILDERS

    worlds = {
        name: scale_world(builder(), scale)
        for name, builder in WORLD_BUILDERS.items()
    }
    questions = all_questions()
    by_db: dict[str, int] = {}
    for question in questions:
        if question.database not in worlds:
            raise ReproError(
                f"question {question.qid} references unknown database "
                f"{question.database!r}"
            )
        by_db[question.database] = by_db.get(question.database, 0) + 1
    return Swan(worlds=worlds, questions=questions)


def load_benchmark(scale: int = 1) -> Swan:
    """Load (and cache) the full SWAN benchmark at a row-multiplication
    ``scale`` (see :mod:`repro.swan.scale`; 1 is the hand-built base).

    Worlds are deterministic, so the cached instance is safe to share;
    callers that mutate databases must build their own
    :class:`~repro.sqlengine.database.Database` copies via
    :mod:`repro.swan.build`.
    """
    return _cached_benchmark(scale)


def load_benchmark_subset(scale: int, databases: list[str]) -> Swan:
    """An uncached Swan holding only ``databases``, scaled to ``scale``.

    Scaling itself is cheap: replica rows are views, and only truth and
    popularity are copied.  What is expensive at 100x is building a
    world's SQLite databases, which gold results and the pipelines do
    for every world of the Swan they get; benches that only exercise one
    database use this so the other three are neither built nor cached.
    """
    from repro.swan.questions import all_questions
    from repro.swan.scale import scale_world
    from repro.swan.worlds import WORLD_BUILDERS

    unknown = [name for name in databases if name not in WORLD_BUILDERS]
    if unknown:
        raise ReproError(
            f"unknown SWAN databases {unknown}; have {sorted(WORLD_BUILDERS)}"
        )
    worlds = {
        name: scale_world(WORLD_BUILDERS[name](), scale) for name in databases
    }
    questions = [q for q in all_questions() if q.database in worlds]
    return Swan(worlds=worlds, questions=questions)
