"""Model registry: lookup of fill-job and main-job model builders by name.

This is the single place that maps Table 1's model names (and the main-job
LLMs) onto builder functions, so workload generation, experiments and tests
all agree on naming.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.models.base import ModelSpec
from repro.models.nlp import bert_base, bert_large, xlm_roberta_xl
from repro.models.transformer import gpt_5b, gpt_40b
from repro.models.vision import efficientnet, swin_large

ModelBuilder = Callable[[], ModelSpec]

#: Fill-job models from Table 1 of the paper, keyed by registry name.
FILL_JOB_MODELS: Dict[str, ModelBuilder] = {
    "efficientnet": efficientnet,
    "bert-base": bert_base,
    "bert-large": bert_large,
    "swin-large": swin_large,
    "xlm-roberta-xl": xlm_roberta_xl,
}

#: Main-job (pipeline-parallel LLM) models from Section 5.2.
MAIN_JOB_MODELS: Dict[str, ModelBuilder] = {
    "gpt-5b": gpt_5b,
    "gpt-40b": gpt_40b,
}

_ALL_MODELS: Dict[str, ModelBuilder] = {**FILL_JOB_MODELS, **MAIN_JOB_MODELS}

_CACHE: Dict[str, ModelSpec] = {}


def model_names(*, fill_jobs_only: bool = False) -> List[str]:
    """Return the registered model names, sorted."""
    source = FILL_JOB_MODELS if fill_jobs_only else _ALL_MODELS
    return sorted(source)


def build_model(name: str) -> ModelSpec:
    """Build (or fetch from cache) the model registered under ``name``.

    Model specs are immutable, so caching is safe and keeps workload
    generation cheap when thousands of trace jobs reference the same model.
    The memo also hands out one canonical ``ModelSpec`` instance per name,
    which the executors' shared estimate caches key on by identity --
    clearing this cache therefore also makes those lookups start cold for
    subsequently-built specs.
    """
    try:
        builder = _ALL_MODELS[name]
    except KeyError:
        raise KeyError(f"unknown model {name!r}; known: {sorted(_ALL_MODELS)}") from None
    if name not in _CACHE:
        _CACHE[name] = builder()
    return _CACHE[name]


def clear_model_cache() -> None:
    """Drop the memoised model specs (cold-start benchmarking hooks)."""
    _CACHE.clear()
