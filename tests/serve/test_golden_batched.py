"""Golden bytes of the cross-request batched dispatch path.

``golden_batched.json`` holds one sha256 per batched server configuration
(``PYTHONPATH=src python tests/serve/test_golden_batched.py`` rewrites
it).  The digest covers every outcome (``shared_tokens`` included), the
report record and the resilience counters, so any change to how the
batcher forms, settles or fans out its groups has to reproduce the
pinned runs bit for bit.

The matrix runs two databases at loads where requests overlap in
service, so the multi-requester path (one key wanted by several
requests) is exercised: the serving benchmark's workloads carry only a
few hundred such items among ~300k.  ``test_the_matrix_coalesces``
keeps that true.

Every row runs with the always-on mapping store.  The rows are the
``share_mappings=True`` half of the matrix the store replaced, re-pinned
at its parent with only the retired ``batching.persist`` key dropped
from the record; the ``share_mappings=False`` half went with the knob.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.harness.benchserve import default_tenants, offered_rps
from repro.serve.batcher import BatchingConfig
from repro.serve.server import QueryServer, ServerConfig
from repro.serve.traffic import generate_traffic
from repro.swan.benchmark import load_benchmark_subset

GOLDEN = Path(__file__).with_name("golden_batched.json")

DATABASES = ("superhero", "formula_1")

#: (window, max_batch): a long window at the policy's size, and a short
#: window with small forced batches (many size-triggered tails)
BATCHINGS = ((4.0, None), (1.0, 3))

MATRIX = [
    (rps, max_concurrent, fault_rate, window, max_batch)
    for rps in (1.5, 4.0)
    for max_concurrent in (3, 8)
    for fault_rate in (0.0, 0.2)
    for window, max_batch in BATCHINGS
]


def _matrix_id(rps, max_concurrent, fault_rate, window, max_batch) -> str:
    return (
        f"rps{rps}-mc{max_concurrent}-fault{fault_rate}"
        f"-w{window}-mb{max_batch}"
    )


def _traffic(swan, rps):
    tenants = default_tenants(DATABASES)
    scaled = [t.scaled(rps / offered_rps(tenants)) for t in tenants]
    policies = {t.name: t.policy() for t in scaled}
    return generate_traffic(swan, scaled, horizon=120.0, seed=7), policies


def serve(swan, row):
    rps, max_concurrent, fault_rate, window, max_batch = row
    requests, policies = _traffic(swan, rps)
    config = ServerConfig(
        workers=4, queue_limit=24, max_concurrent=max_concurrent,
        fault_rate=fault_rate, fault_seed=3,
        batching=BatchingConfig(window=window, max_batch=max_batch),
    )
    with QueryServer(swan, config, policies=policies) as server:
        return server.run(requests)


def digest(report) -> str:
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
        "record": report.as_record(),
        "resilience": report.resilience.as_dict(),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def load_swan():
    return load_benchmark_subset(1, list(DATABASES))


@pytest.fixture(scope="module")
def reports():
    swan = load_swan()
    return {_matrix_id(*row): serve(swan, row) for row in MATRIX}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


class TestGoldenBatched:
    @pytest.mark.parametrize("row", MATRIX, ids=lambda row: _matrix_id(*row))
    def test_matrix_row_matches_pinned_bytes(self, reports, golden, row):
        assert digest(reports[_matrix_id(*row)]) == golden[_matrix_id(*row)]

    def test_the_matrix_coalesces(self, reports):
        coalesced = [r.batching["coalesced_items"] for r in reports.values()]
        assert max(coalesced) >= 100


if __name__ == "__main__":
    swan = load_swan()
    digests = {_matrix_id(*row): digest(serve(swan, row)) for row in MATRIX}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
