"""The proxy client must not change what a pipeline does."""

import pytest

from repro.harness.runner import GoldResults, run_hqdl, run_udf
from repro.swan import Swan, load_benchmark

import repro.llm.parallel as parallel
from proxy import ProxyClient


@pytest.fixture(scope="module")
def swan() -> Swan:
    full = load_benchmark(1)
    return Swan(
        worlds={"superhero": full.world("superhero")},
        questions=full.questions_for("superhero")[:12],
    )


@pytest.fixture
def no_thread_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the benchmark must stay on one thread")

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", refuse)


@pytest.mark.parametrize("runner", [run_udf, run_hqdl])
def test_proxy_is_transparent(swan, no_thread_pool, runner):
    gold = GoldResults(swan)
    proxies = []

    def wrap(model):
        proxies.append(ProxyClient(model, keep_prompts=True))
        return proxies[-1]

    plain = runner(swan, "gpt-3.5-turbo", 5, gold=gold)
    proxied = runner(swan, "gpt-3.5-turbo", 5, gold=gold, wrap_client=wrap)
    assert proxied.usage == plain.usage
    assert proxied.outcomes == plain.outcomes
    assert getattr(proxied, "cache_hits", 0) == getattr(plain, "cache_hits", 0)
    (proxy,) = proxies
    assert len(proxy.call_sizes) == plain.usage.calls
    assert sum(i for i, _ in proxy.call_sizes) == plain.usage.input_tokens
    assert sum(o for _, o in proxy.call_sizes) == plain.usage.output_tokens
    assert len(proxy.prompts) == plain.usage.calls


def test_proxy_forwards_what_the_dispatcher_reads():
    class Inner:
        model_name = "m"
        prefers_batch_dispatch = True

        def __init__(self):
            self.deadlines = []

        def complete_many(self, prompts, labels, **kwargs):
            self.deadlines.append(kwargs)
            return []

    inner = Inner()
    proxy = ProxyClient(inner)
    assert (proxy.model_name, proxy.prefers_batch_dispatch) == ("m", True)
    proxy.complete_many([], [])
    proxy.complete_many([], [], deadline="d")
    assert inner.deadlines == [{}, {"deadline": "d"}]
