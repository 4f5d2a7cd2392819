"""Simulated LLM stack.

This subpackage stands in for the OpenAI API the paper calls (GPT-3.5
Turbo / GPT-4 Turbo are unreachable offline).  The substitution keeps
every pipeline stage real:

- prompts are genuine text built by :mod:`repro.core.prompts` /
  :mod:`repro.udf`;
- :class:`~repro.llm.chat.MockChatModel` *reads* the prompt — the intent
  it was rendered from (table, keys, question, shots), or the text itself
  through :func:`~repro.llm.intent.intent_of`, which yields the same —
  and produces genuine completion text;
- answers come from a :class:`~repro.llm.oracle.KnowledgeOracle` — ground
  truth corrupted by deterministic, per-cell noise whose rates are the
  calibrated per-model/per-shot profiles in :mod:`repro.llm.profiles`;
- token usage is metered through :mod:`repro.llm.tokenizer` and
  :mod:`repro.llm.usage` exactly as the paper's Table 5 requires.

Determinism: the same (model, prompt) pair always yields the same
completion, mirroring temperature-0 decoding in the paper.
"""

from repro.llm.cache import CachingClient, PromptCache
from repro.llm.chat import MockChatModel
from repro.llm.client import ChatClient, ChatResponse, ScriptedClient
from repro.llm.declarative import PromptSpec
from repro.llm.faults import FaultInjector, FaultPlan, FaultStats, FaultyClient
from repro.llm.oracle import KnowledgeOracle
from repro.llm.parallel import (
    DelayedClient,
    DispatchOutcome,
    ParallelDispatcher,
    SimulatedLatencyClient,
)
from repro.llm.profiles import ModelProfile, get_profile, list_profiles
from repro.llm.resilience import (
    CircuitBreaker,
    Deadline,
    ResilienceReport,
    RetryingClient,
    RetryPolicy,
)
from repro.llm.tokenizer import count_tokens, tokenize_text
from repro.llm.usage import Usage, UsageMeter
from repro.vtime import Clock, MonotonicClock, ServiceTimer

__all__ = [
    "CachingClient",
    "PromptCache",
    "MockChatModel",
    "ChatClient",
    "ChatResponse",
    "ScriptedClient",
    "PromptSpec",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "FaultyClient",
    "KnowledgeOracle",
    "CircuitBreaker",
    "Clock",
    "Deadline",
    "MonotonicClock",
    "ResilienceReport",
    "RetryingClient",
    "RetryPolicy",
    "DelayedClient",
    "DispatchOutcome",
    "ParallelDispatcher",
    "ServiceTimer",
    "SimulatedLatencyClient",
    "ModelProfile",
    "get_profile",
    "list_profiles",
    "count_tokens",
    "tokenize_text",
    "Usage",
    "UsageMeter",
]
