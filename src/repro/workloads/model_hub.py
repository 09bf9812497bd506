"""Synthetic HuggingFace-Model-Hub distribution.

Section 5.3: the authors extract model sizes and types from the HuggingFace
Model Hub (models uploaded in the last year with >100K downloads), observe
that 71% have fewer than 3B parameters and that 10.4% of the remaining
models are CNNs, and then assign sampling probabilities to the five
representative models of Table 1 so the mix matches those statistics.

We cannot scrape the hub offline, so :class:`SyntheticModelHub` generates a
synthetic population with the published statistics (a log-normal parameter
count distribution calibrated to the 71% quantile, a 10.4% CNN share), and
:class:`ModelHubDistribution` derives the per-model sampling probabilities
from it exactly the way the paper describes: bucket the under-3B population
by nearest Table 1 model within each domain.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.utils.rng import RngLike, ensure_rng
from repro.workloads.fill_jobs import FILL_JOB_CATEGORIES

#: Fraction of hub models under 3B parameters (reported in the paper).
UNDER_3B_FRACTION = 0.71

#: Fraction of the under-3B models that are CNNs (reported in the paper).
CNN_FRACTION = 0.104

#: Parameter cap applied when constructing the fill-job distribution.
PARAM_CAP = 3e9


@dataclass
class SyntheticModelHub:
    """A synthetic population of model (size, type) pairs.

    The parameter counts follow a log-normal distribution whose median and
    spread are chosen so that the fraction of models under 3B parameters is
    ~71%, matching the statistic the paper extracts from the real hub.
    """

    num_models: int = 20_000
    median_params: float = 6.0e8
    sigma: float = 2.9
    cnn_fraction: float = CNN_FRACTION
    seed: RngLike = 0
    param_counts: np.ndarray = field(init=False, repr=False)
    is_cnn: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.num_models <= 0:
            raise ValueError("num_models must be > 0")
        rng = ensure_rng(self.seed)
        self.param_counts = self.median_params * np.exp(
            self.sigma * rng.standard_normal(self.num_models)
        )
        self.is_cnn = rng.random(self.num_models) < self.cnn_fraction

    @property
    def under_cap_fraction(self) -> float:
        """Fraction of the population under the 3B-parameter cap."""
        return float(np.mean(self.param_counts < PARAM_CAP))

    def filtered(self) -> "SyntheticModelHub":
        """Return a copy keeping only the under-3B models (the paper's filter)."""
        mask = self.param_counts < PARAM_CAP
        clone = SyntheticModelHub.__new__(SyntheticModelHub)
        clone.num_models = int(np.sum(mask))
        clone.median_params = self.median_params
        clone.sigma = self.sigma
        clone.cnn_fraction = self.cnn_fraction
        clone.seed = self.seed
        clone.param_counts = self.param_counts[mask]
        clone.is_cnn = self.is_cnn[mask]
        return clone


@dataclass(frozen=True)
class ModelHubDistribution:
    """Sampling probabilities over the Table 1 fill-job models."""

    probabilities: Dict[str, float]

    def __post_init__(self) -> None:
        total = sum(self.probabilities.values())
        if not np.isclose(total, 1.0, atol=1e-6):
            raise ValueError(f"probabilities must sum to 1, got {total}")
        unknown = set(self.probabilities) - set(FILL_JOB_CATEGORIES)
        if unknown:
            raise ValueError(f"unknown fill-job models: {sorted(unknown)}")

    @functools.cached_property
    def _choices(self) -> Tuple[np.ndarray, np.ndarray]:
        """Sorted model names and normalised probabilities, built on the first draw."""
        names = sorted(self.probabilities)
        probs = np.array([self.probabilities[n] for n in names])
        return np.array(names), probs / probs.sum()

    def sample(self, rng: RngLike = None, size: Optional[int] = None):
        """Sample model name(s) according to the distribution."""
        gen = ensure_rng(rng)
        names, probs = self._choices
        if size is None:
            return str(gen.choice(names, p=probs))
        return [str(x) for x in gen.choice(names, p=probs, size=size)]

    @classmethod
    def from_hub(cls, hub: Optional[SyntheticModelHub] = None) -> "ModelHubDistribution":
        """Derive Table 1 sampling probabilities from a (synthetic) hub population.

        CNN models map to EfficientNet (the only CNN in Table 1); vision
        transformers are folded into the CV share via Swin; NLP models are
        bucketed to the nearest Table 1 NLP model by parameter count.
        """
        hub = (hub or SyntheticModelHub()).filtered()
        cnn_share = float(np.mean(hub.is_cnn))
        transformer_params = hub.param_counts[~hub.is_cnn]

        nlp_buckets = {
            "bert-base": (0.0, 2.0e8),
            "bert-large": (2.0e8, 5.5e8),
            "swin-large": (5.5e8, 1.5e9),
            "xlm-roberta-xl": (1.5e9, PARAM_CAP),
        }
        probs: Dict[str, float] = {"efficientnet": cnn_share}
        remaining = 1.0 - cnn_share
        total_transformers = max(len(transformer_params), 1)
        for name, (lo, hi) in nlp_buckets.items():
            share = float(
                np.sum((transformer_params >= lo) & (transformer_params < hi))
            ) / total_transformers
            probs[name] = probs.get(name, 0.0) + remaining * share
        # Normalise away any mass falling outside the buckets (numerical edge).
        total = sum(probs.values())
        probs = {name: p / total for name, p in probs.items()}
        return cls(probabilities=probs)


#: The default fill-job model mix used by the experiments.
def default_distribution(seed: RngLike = 0) -> ModelHubDistribution:
    """The Table 1 sampling distribution derived from the synthetic hub."""
    return ModelHubDistribution.from_hub(SyntheticModelHub(seed=seed))
