"""The config sections of the classifier and skip-gram families: their keys,
defaults and ranges, with no training code; and the adversarial transforms,
with no attack code.

A command reads every section of its config but may run neither family nor
any attack (a zero-shot detect, ingest, stats), so their declarations live
here, apart from `classifiers`, `embeddings` and `evaluation`, which import
them from this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial

from .errors import DataError, check_ranges

BO_N_INIT = 5  # seeded points that start a Bayesian optimization run


def _finite_positive(value: float) -> bool:
    return math.isfinite(value) and value > 0


# The range of every hyperparameter of the four families, as name: (test,
# rule); a name shared by two families (epochs) has one rule.
HYPERPARAMETER_RANGES = {
    "l2": (lambda v: math.isfinite(v) and v >= 0, "finite and >= 0"),
    "lr": (_finite_positive, "finite and > 0"),
    "lambda": (_finite_positive, "finite and > 0"),
    "var_smoothing": (_finite_positive, "finite and > 0"),
    "epochs": (lambda v: v >= 1, "at least 1"),
    "tune": (lambda v: isinstance(v, bool), "a boolean"),
    "budget": (lambda v: v >= BO_N_INIT, f"at least {BO_N_INIT}"),
    "n_trees": (lambda v: v >= 1, "at least 1"),
    "max_depth": (lambda v: v is None or v >= 1, "null or at least 1"),
}


# Each family's config keys with their defaults, which are its trainers'
# defaults; gnb's "tune" chooses tune_gnb over the fixed var_smoothing. A
# config value takes its default's type, and random_forest's "max_depth" may
# also be null (no depth limit). Each key's range is HYPERPARAMETER_RANGES;
# each family's trainer call is classifiers.TRAINERS.
HYPERPARAMETER_DEFAULTS = {
    "logreg": {"l2": 1e-4, "epochs": 150, "lr": 0.5},
    "gnb": {"tune": False, "budget": 20, "var_smoothing": 1e-9},
    "svm": {"lambda": 1e-3, "epochs": 50},
    "random_forest": {"n_trees": 50, "max_depth": 8},
}
# DataError unless each value of a dict keyed by hyperparameter name lies
# in that name's HYPERPARAMETER_RANGES range.
check_hyperparameters = partial(check_ranges, ranges=HYPERPARAMETER_RANGES)


def section_keys(section: dict) -> tuple[dict, dict, tuple[str, ...]]:
    """For a classifier config section: the family it names, as {"family":
    name}, that family's keys with their defaults, and the keys that may
    be null. DataError for an unknown family."""
    family = section.get("family")
    if not isinstance(family, str) or family not in HYPERPARAMETER_DEFAULTS:
        raise DataError(f"unknown classifier family {family!r}; "
                        f"expected one of {tuple(HYPERPARAMETER_DEFAULTS)}")
    return {"family": family}, HYPERPARAMETER_DEFAULTS[family], ("max_depth",)


@dataclass(frozen=True)
class SkipGramConfig:
    dim: int = 32
    window: int = 5
    negatives: int = 5
    epochs: int = 3
    learning_rate: float = 0.025
    min_count: int = 2
    subsample: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.dim, self.window, self.negatives, self.min_count) < 1:
            raise DataError("dim, window, negatives, min_count must be >= 1")
        if self.epochs < 0:
            raise DataError("epochs must be >= 0")
        if not (0 < self.learning_rate < math.inf and 0 < self.subsample < math.inf):
            raise DataError("learning rate and subsample threshold must be finite and > 0")


# The embeddings config keys with their defaults, which are SkipGramConfig's;
# the seed is derived from the config's, never set.
SKIPGRAM_DEFAULTS = {f.name: f.default for f in fields(SkipGramConfig) if f.name != "seed"}


# The kinds of adversarial transform, each one evaluation._ATTACKS entry.
TRANSFORM_KINDS = ("special_chars", "whitespace_noise", "case_flip")


@dataclass(frozen=True)
class AdversarialTransform:
    kind: str
    intensity: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in TRANSFORM_KINDS:
            raise DataError(f"unknown transform kind {self.kind!r}")
        if not (0.0 <= self.intensity <= 1.0):
            raise DataError("intensity must lie in [0, 1]")
