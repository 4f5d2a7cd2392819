"""Golden bytes of the cross-request batched dispatch path.

``golden_batched.json`` holds one sha256 per batched server configuration
(``PYTHONPATH=src python tests/serve/test_golden_batched.py`` rewrites
it).  The digest covers every outcome (``shared_tokens`` included), the
report record and the resilience counters, so any change to how the
batcher forms, settles or fans out its groups has to reproduce the
pinned runs bit for bit.

The matrix runs two databases at loads where requests overlap in
service.  Work is released at the instant its request is dispatched, so
only requests dispatched at the same instant share a wave; the
``burst`` row offers the rps-1.5 traffic in same-instant bursts (every
arrival moved back to its 10-second mark) so the multi-requester path
(one key wanted by several requests, multi-member waves) is exercised,
and ``test_the_matrix_coalesces`` keeps that true.  The burst stream is
UDF-only: with an HQDL expansion resident, its cells answer most map
keys and few waves would form.

The rows were re-pinned when the batching window was deleted (release
at dispatch, partly covered ingredients served per key from the store);
the window axis went from the row ids.  They were re-pinned again when
the server began expanding each HQDL database before the first arrival
(the build moved out of the first HQDL request into ``report.startup``).

Every row runs with the always-on mapping store.  The rows are the
``share_mappings=True`` half of the matrix the store replaced, re-pinned
at its parent with only the retired ``batching.persist`` key dropped
from the record; the ``share_mappings=False`` half went with the knob.

The ``max_batch`` axis went with ``BatchingConfig.max_batch``: the
``-mb3`` rows were dropped, the row ids lost their ``-mbNone`` suffix,
and the digest leaves the retired ``batching.max_batch`` key out of the
record.  Every remaining row kept its run unchanged.

Every row was re-pinned when each UDF store began facing the resident
HQDL cells (the matrix rows pay equivalence checks for most map calls;
every record gained the store's ``expansion_*`` counters and the
startup record's ``degraded_rows``/``malformed_rows``), and the burst
row then became UDF-only.

Every row was re-pinned when the warm build began repairing malformed
rows and the face began serving multi-valued cells and a still-malformed
row's NULLs: the matrix rows' requests pay 35-62 calls where they paid
123-163, and fewer requests are shed.  The burst row changed only by the
startup record's new ``repaired_rows`` key.
"""

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from repro.harness.benchserve import default_tenants, offered_rps
from repro.serve.batcher import BatchingConfig
from repro.serve.server import QueryServer, ServerConfig
from repro.serve.traffic import generate_traffic
from repro.swan.benchmark import load_benchmark_subset

GOLDEN = Path(__file__).with_name("golden_batched.json")

DATABASES = ("superhero", "formula_1")

MATRIX = [
    (rps, max_concurrent, fault_rate)
    for rps in (1.5, 4.0)
    for max_concurrent in (3, 8)
    for fault_rate in (0.0, 0.2)
]


#: the matrix row the burst row replays in same-instant bursts
BURST = (1.5, 8, 0.0)
BURST_EVERY = 10.0


def _matrix_id(rps, max_concurrent, fault_rate) -> str:
    return f"rps{rps}-mc{max_concurrent}-fault{fault_rate}"


def _burst_id() -> str:
    return "burst-" + _matrix_id(*BURST)


def _traffic(swan, rps, *, hqdl=True):
    tenants = default_tenants(DATABASES)
    if not hqdl:
        tenants = [replace(t, hqdl_share=0.0) for t in tenants]
    scaled = [t.scaled(rps / offered_rps(tenants)) for t in tenants]
    policies = {t.name: t.policy() for t in scaled}
    return generate_traffic(swan, scaled, horizon=120.0, seed=7), policies


def serve(swan, row, *, burst=False):
    rps, max_concurrent, fault_rate = row
    requests, policies = _traffic(swan, rps, hqdl=not burst)
    if burst:
        requests = [
            replace(r, arrival=BURST_EVERY * math.floor(r.arrival / BURST_EVERY))
            for r in requests
        ]
    config = ServerConfig(
        workers=4, queue_limit=24, max_concurrent=max_concurrent,
        fault_rate=fault_rate, fault_seed=3,
        batching=BatchingConfig(),
    )
    with QueryServer(swan, config, policies=policies) as server:
        return server.run(requests)


def digest(report) -> str:
    record = report.as_record()
    record["batching"] = {
        k: v for k, v in record["batching"].items() if k != "max_batch"
    }
    payload = {
        "outcomes": [
            (
                o.request.request_id, o.status, o.reason,
                round(o.finish_time, 9), o.queue_wait, o.llm_calls,
                o.input_tokens, o.output_tokens, o.degraded_keys, o.rows,
                o.shared_tokens,
            )
            for o in report.outcomes
        ],
        "record": record,
        "resilience": report.resilience.as_dict(),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def load_swan():
    return load_benchmark_subset(1, list(DATABASES))


def serve_all(swan) -> dict:
    reports = {_matrix_id(*row): serve(swan, row) for row in MATRIX}
    reports[_burst_id()] = serve(swan, BURST, burst=True)
    return reports


@pytest.fixture(scope="module")
def reports():
    return serve_all(load_swan())


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


class TestGoldenBatched:
    @pytest.mark.parametrize("row", MATRIX, ids=lambda row: _matrix_id(*row))
    def test_matrix_row_matches_pinned_bytes(self, reports, golden, row):
        assert digest(reports[_matrix_id(*row)]) == golden[_matrix_id(*row)]

    def test_burst_matches_pinned_bytes(self, reports, golden):
        assert digest(reports[_burst_id()]) == golden[_burst_id()]

    def test_the_matrix_coalesces(self, reports):
        burst = reports[_burst_id()].batching
        assert burst["coalesced_items"] >= 100
        assert burst["coalesced_calls"] > 0


if __name__ == "__main__":
    digests = {
        row_id: digest(report) for row_id, report in serve_all(load_swan()).items()
    }
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
