"""The config sections of the classifier, skip-gram and zero-shot families:
their keys, defaults and ranges, with no training or scoring code; the
adversarial transforms, with no attack code; and stable_seed, the SHA-256
seed that every module seed is derived by, with keyed_seed, its form for
many keys under one seed.

A command reads every section of its config but may run no family and no
attack (ingest, stats, a detect by one family), so their declarations live
here, apart from `classifiers`, `embeddings`, `zeroshot` and `evaluation`,
which import them from this module. This module imports no numpy: ingest
and stats, which read the config through it, run without numpy.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Callable
from dataclasses import dataclass, fields
from functools import partial

from .errors import DataError, check_ranges

BO_N_INIT = 5  # seeded points that start a Bayesian optimization run


def stable_seed(*parts) -> int:
    """64-bit seed: the first 8 bytes of the SHA-256 of the parts joined by
    '/'. The CLI's derive_seed(root_seed, field_path) is this function."""
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def keyed_seed(seed) -> Callable[[str], int]:
    """The function key -> stable_seed(seed, key) for a str key, from one
    SHA-256 state fed the seed and its '/' that is copied per key, so that
    each key costs one copy and one update."""
    state = hashlib.sha256(f"{seed}/".encode("utf-8"))

    def of(key: str) -> int:
        h = state.copy()
        h.update(key.encode("utf-8"))
        return int.from_bytes(h.digest()[:8], "big")

    return of


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


def classifier_keys(section: dict) -> tuple[dict, dict, tuple[str, ...]]:
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


def embedding_keys(section: dict) -> tuple[dict, dict, tuple[str, ...]]:
    """For an embeddings config section: the source it names, as {"source":
    name}, with "load" also the vectors' path as {"path": value}; the keys
    that source reads with their defaults, SKIPGRAM_DEFAULTS for "train" (the
    default) and none for "load"; and the keys that may be null (none).
    DataError for another source, or "load" without a path."""
    source = section.get("source", "train")
    if source == "load":
        if "path" not in section:
            raise DataError("source 'load' needs a path")
        return {"source": source, "path": section["path"]}, {}, ()
    if source != "train":
        raise DataError(f"source must be 'train' or 'load', got {source!r}")
    return {"source": source}, SKIPGRAM_DEFAULTS, ()


# The zeroshot config keys with their defaults: zeroshot.train_kn_lm's and
# PerturbConfig's, and the detect threshold on d (d >= 0: the original
# scores at least as high as its rewrites). A config value takes its
# default's type; each key's range is PARAMETER_RANGES.
PARAMETER_DEFAULTS = {"order": 3, "discount": 0.75, "k": 10, "mask_fraction": 0.15,
                      "threshold": 0.0}
# The range of every zero-shot parameter, as name: (test, rule). k is the
# number of rewrites detect_gpt averages; single_revise always takes one.
PARAMETER_RANGES = {
    "order": (lambda v: v >= 2, "at least 2"),
    "discount": (lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    "k": (lambda v: v >= 2, "at least 2"),
    "mask_fraction": (lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    "threshold": (math.isfinite, "finite"),
}
# DataError unless each value of a dict keyed by parameter name lies in
# that name's PARAMETER_RANGES range.
check_parameters = partial(check_ranges, ranges=PARAMETER_RANGES)
# Each zero-shot method with the number of rewrites it scores (None for the
# config's k); its curvature score is zeroshot.SCORES. The first is the
# default method.
METHODS = {"detect_gpt": None, "single_revise": 1}
DEFAULT_METHOD = next(iter(METHODS))


def zeroshot_keys(section: dict) -> tuple[dict, dict, tuple[str, ...]]:
    """For a zeroshot config section: the METHODS it names, as {"methods":
    tuple}, its keys with their defaults, and the keys that may be null
    (none). DataError for an empty list, or an unknown or repeated method."""
    methods = section.get("methods", [DEFAULT_METHOD])
    if not isinstance(methods, list):
        raise DataError("methods must be a list of method names")
    if not methods:
        raise DataError(f"methods must name at least one of {tuple(METHODS)}")
    for i, method in enumerate(methods):
        if not isinstance(method, str) or method not in METHODS:
            raise DataError(f"unknown method {method!r}; expected one of {tuple(METHODS)}")
        if method in methods[:i]:
            raise DataError(f"method #{i} repeats {method!r}")
    return {"methods": tuple(methods)}, PARAMETER_DEFAULTS, ()


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
