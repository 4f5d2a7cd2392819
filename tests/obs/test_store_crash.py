"""Crash safety of the two persistent stores.

A child process writes one entry (or run) that commits, then a second
one, and dies at ``os._exit`` either after that write's ``execute`` and
before its ``commit``, or just after the commit.  Reopening the file
must show every committed write, none of the uncommitted one, and no
sign of a discarded file.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.llm.diskcache import PersistentPromptCache
from repro.obs.ledger import RunLedger

SRC = pathlib.Path(repro.__file__).parent.parent
CRASHED = 17

CHILD = """
import os, sqlite3, sys
from functools import partial

store, when, path = sys.argv[1:]
armed = False

class Crashing(sqlite3.Connection):
    def commit(self):
        if armed and when == "before":
            os._exit(%(code)d)
        super().commit()
        if armed:
            os._exit(%(code)d)

sqlite3.connect = partial(sqlite3.connect, factory=Crashing)
if store == "cache":
    from repro.llm.diskcache import PersistentPromptCache
    cache = PersistentPromptCache(path)
    cache.put("m", 0, "kept", "1")
    armed = True
    cache.put("m", 0, "crashed", "2")
else:
    from repro.obs.ledger import RunLedger
    ledger = RunLedger(path)
    ledger.append(label="kept", pipeline="udf")
    armed = True
    ledger.append(label="crashed", pipeline="udf")
""" % {"code": CRASHED}


def _crash(store: str, when: str, path: pathlib.Path) -> None:
    child = subprocess.run(
        [sys.executable, "-c", CHILD, store, when, str(path)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == CRASHED, child.stderr


@pytest.mark.parametrize("when", ["before", "after"])
def test_prompt_cache_keeps_exactly_the_committed_puts(tmp_path, when):
    path = tmp_path / "c.sqlite"
    _crash("cache", when, path)
    with PersistentPromptCache(path) as cache:
        assert not cache.recovered
        assert cache.get("m", 0, "kept") == "1"
        assert cache.get("m", 0, "crashed") == (None if when == "before" else "2")


@pytest.mark.parametrize("when", ["before", "after"])
def test_ledger_keeps_exactly_the_committed_runs(tmp_path, when):
    path = tmp_path / "ledger.sqlite"
    _crash("ledger", when, path)
    with RunLedger(path) as ledger:
        assert not ledger.recovered and not ledger.wiped
        labels = [run["label"] for run in ledger.runs()]
    assert labels == (["kept"] if when == "before" else ["kept", "crashed"])
