"""The four classical classifier families trained on document feature
vectors: logistic regression, Gaussian naive Bayes (with 1-D Bayesian
optimization of its variance smoothing), a Pegasos linear SVM, and a
random forest. Every trainer is seed-deterministic.

Scores follow one convention: higher means more likely Machine. Labels
threshold at 0.5 for probability scores and at 0 for the SVM margin, with
ties going to Machine. Each family's config keys, defaults and ranges are
declared in `sections`.

Each family's model class checks its own rules when it is built, so that a
trained model and one load_model reads obey the same rules; load_model
checks only the JSON encoding. A forest's trees are the records model.json
holds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import ClassVar

import numpy as np

from .errors import (
    DataError,
    json_array,
    json_float,
    json_int,
    json_keys,
    load_json,
)
from .sections import BO_N_INIT, check_hyperparameters

SCHEMA_VERSION = 1

LOG_2PI = math.log(2.0 * math.pi)
LOGREG_BATCH_SIZE = 32

# Each family's trainer on (data, typed config section, seed), mapping the
# section's keys onto the trainer's arguments: "lambda" is the svm's lam,
# and gnb's "tune" runs tune_gnb with its budget in place of the fixed
# var_smoothing. Each calls its trainer by its module name, so that a
# wrapper set on that name sees the call.
TRAINERS = {
    "logreg": lambda data, p, seed: train_logreg(data, p["l2"], p["epochs"], p["lr"], seed),
    "gnb": lambda data, p, seed: train_gnb(
        data, tune_gnb(data, p["budget"], seed) if p["tune"] else p["var_smoothing"]),
    "svm": lambda data, p, seed: train_linear_svm(data, p["lambda"], p["epochs"], seed),
    "random_forest": lambda data, p, seed: train_random_forest(
        data, p["n_trees"], p["max_depth"], seed),
}


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,) with 1 = Machine

    def __post_init__(self) -> None:
        if self.features.ndim != 2 or len(self.features) < 1:
            raise DataError("features must be a non-empty (n, d) matrix")
        if len(self.labels) != len(self.features):
            raise DataError("features and labels must have equal length")
        if not np.all(np.isfinite(self.features)):
            raise DataError("features must be finite")
        if not np.all(np.isin(self.labels, (0, 1))):
            raise DataError("labels must be binary 0/1")

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def require_both_classes(self) -> None:
        if len(np.unique(self.labels)) < 2:
            raise DataError("training data must contain both classes")


def _check_array(name: str, value, shape: tuple) -> None:
    """DataError unless *value* is a finite array of *shape* (a number: ()),
    where None matches any length."""
    actual = np.shape(value)
    if len(actual) != len(shape) or any(n not in (None, m) for n, m in zip(shape, actual)):
        raise DataError(f"{name} must have shape {shape}, got {actual}")
    if not np.all(np.isfinite(value)):
        raise DataError(f"{name} must be finite")


@dataclass
class LogRegModel:
    weights: np.ndarray
    bias: float
    l2: float
    family: ClassVar[str] = "logreg"
    threshold: ClassVar[float] = 0.5

    def __post_init__(self) -> None:
        _check_array("weights", self.weights, (None,))
        _check_array("bias", self.bias, ())
        check_hyperparameters({"l2": self.l2})

    @property
    def dim(self) -> int:
        return len(self.weights)

    def score(self, x: np.ndarray) -> float:
        # An overflowing w·x + b is NaN, never clipped to 0 or 1 by
        # _sigmoid, so that predict refuses it as it does under svm.
        z = self.weights @ x + self.bias
        return float(_sigmoid(z)) if math.isfinite(z) else math.nan


@dataclass
class GnbModel:
    means: np.ndarray  # (2, d), row index = class label
    variances: np.ndarray  # (2, d), maximum-likelihood variances
    priors: np.ndarray  # (2,)
    var_smoothing: float
    family: ClassVar[str] = "gnb"
    threshold: ClassVar[float] = 0.5

    def __post_init__(self) -> None:
        _check_array("means", self.means, (2, None))
        _check_array("variances", self.variances, self.means.shape)
        _check_array("priors", self.priors, (2,))
        if np.any(self.priors <= 0) or np.any(self.variances < 0):
            raise DataError("gnb priors must be > 0 and variances >= 0")
        check_hyperparameters({"var_smoothing": self.var_smoothing})

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def score(self, x: np.ndarray) -> float:
        var = self.variances + self.var_smoothing
        log_post = np.log(self.priors) - 0.5 * np.sum(
            LOG_2PI + np.log(var) + (x[None, :] - self.means) ** 2 / var, axis=1
        )
        # Stable softmax over the two classes; score = P(Machine | x).
        m = np.max(log_post)
        p = np.exp(log_post - m)
        return float(p[1] / p.sum())


@dataclass
class SvmModel:
    weights: np.ndarray
    bias: float
    lam: float
    family: ClassVar[str] = "svm"
    threshold: ClassVar[float] = 0.0

    def __post_init__(self) -> None:
        _check_array("weights", self.weights, (None,))
        _check_array("bias", self.bias, ())
        check_hyperparameters({"lambda": self.lam})

    @property
    def dim(self) -> int:
        return len(self.weights)

    def score(self, x: np.ndarray) -> float:
        return float(self.weights @ x + self.bias)


# The keys of a tree node: a leaf holding its Machine fraction, or a split
# sending x with x[feature] <= threshold left and any other x right.
_LEAF_KEYS = frozenset({"leaf"})
_SPLIT_KEYS = frozenset({"feature", "threshold", "left", "right"})


@dataclass
class RfModel:
    trees: list[dict]  # root nodes, each a record as model.json holds it
    n_trees: int
    max_depth: int | None
    seed: int
    dim: int
    family: ClassVar[str] = "random_forest"
    threshold: ClassVar[float] = 0.5

    def __post_init__(self) -> None:
        check_hyperparameters({"n_trees": self.n_trees, "max_depth": self.max_depth})
        if self.n_trees != len(self.trees):
            raise DataError(f"n_trees {self.n_trees} differs from the {len(self.trees)} trees")
        if self.seed < 0 or self.dim < 1:
            raise DataError(f"seed must be >= 0 and dim >= 1, got {self.seed} and {self.dim}")
        nodes = list(self.trees)
        while nodes:
            node = nodes.pop()
            keys = node.keys() if type(node) is dict else None
            if keys == _LEAF_KEYS:
                leaf = node["leaf"]
                if type(leaf) not in (int, float) or not 0 <= leaf <= 1:
                    raise DataError(f"tree leaf must be a number in [0, 1], got {leaf!r}")
            elif keys == _SPLIT_KEYS:
                feature, threshold = node["feature"], node["threshold"]
                if type(feature) is not int or not 0 <= feature < self.dim:
                    raise DataError(f"tree feature must be an integer in [0, {self.dim}), "
                                    f"got {feature!r}")
                if type(threshold) not in (int, float) or not math.isfinite(threshold):
                    raise DataError(f"tree threshold must be a finite number, got {threshold!r}")
                nodes += (node["left"], node["right"])
            else:
                raise DataError(f"tree node must hold the keys {sorted(_LEAF_KEYS)} or "
                                f"{sorted(_SPLIT_KEYS)}, got {node!r:.60}")

    def score(self, x: np.ndarray) -> float:
        return float(np.mean([_leaf(tree, x) for tree in self.trees]))


def _leaf(node: dict, x: np.ndarray) -> float:
    """The Machine fraction of the leaf that *x* reaches from *node*."""
    while "leaf" not in node:
        node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
    return node["leaf"]


AnyModel = LogRegModel | GnbModel | SvmModel | RfModel


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


# -- logistic regression --


def logreg_loss_and_grad(
    weights: np.ndarray, bias: float, X: np.ndarray, y: np.ndarray, l2: float
) -> tuple[float, np.ndarray, float]:
    """L2-regularized mean negative log-likelihood and its gradient.

    loss = mean(-y log p - (1-y) log(1-p)) + (l2/2) |w|^2, p = sigmoid(Xw+b).
    The bias is not regularized.
    """
    z = X @ weights + bias
    p = _sigmoid(z)
    eps = 1e-12
    nll = -np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps))
    loss = float(nll + 0.5 * l2 * np.dot(weights, weights))
    grad_w = X.T @ (p - y) / len(y) + l2 * weights
    grad_b = float(np.mean(p - y))
    return loss, grad_w, grad_b


def train_logreg(
    data: Dataset,
    l2: float = 1e-4,
    epochs: int = 150,
    lr: float = 0.5,
    seed: int = 0,
) -> LogRegModel:
    """Seeded mini-batch gradient descent on the regularized NLL, in
    batches of LOGREG_BATCH_SIZE."""
    check_hyperparameters({"l2": l2, "epochs": epochs, "lr": lr})
    data.require_both_classes()
    rng = np.random.default_rng(seed)
    n, d = data.features.shape
    w = np.zeros(d)
    b = 0.0
    # A diverging run ends in the model's DataError, not in numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, LOGREG_BATCH_SIZE):
                idx = order[start : start + LOGREG_BATCH_SIZE]
                _, gw, gb = logreg_loss_and_grad(
                    w, b, data.features[idx], data.labels[idx].astype(float), l2
                )
                w -= lr * gw
                b -= lr * gb
    return LogRegModel(weights=w, bias=float(b), l2=l2)


# -- Gaussian naive Bayes --


def train_gnb(data: Dataset, var_smoothing: float = 1e-9) -> GnbModel:
    """Per-class maximum-likelihood means and variances with empirical
    priors; *var_smoothing* is added to every variance at scoring time.
    """
    check_hyperparameters({"var_smoothing": var_smoothing})
    data.require_both_classes()
    means = np.empty((2, data.dim))
    variances = np.empty((2, data.dim))
    priors = np.empty(2)
    # Moments past the float range end in the model's DataError, not in
    # numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for c in (0, 1):
            rows = data.features[data.labels == c]
            means[c] = rows.mean(axis=0)
            variances[c] = rows.var(axis=0)
            priors[c] = len(rows) / len(data.features)
    return GnbModel(means=means, variances=variances, priors=priors,
                    var_smoothing=var_smoothing)


# -- 1-D Bayesian optimization --

BO_CANDIDATES = 512
BO_LENGTH_SCALE = 2.0  # of the squared-exponential kernel
BO_NOISE = 1e-6  # added to the kernel diagonal
_EI_XI = 0.01


def _norm_pdf(z):
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _norm_cdf(z):
    return 0.5 * (1.0 + np.vectorize(math.erf)(z / math.sqrt(2.0)))


def bayes_opt_1d(
    objective,
    bounds: tuple[float, float],
    budget: int,
    seed: int,
) -> tuple[float, list[tuple[float, float]]]:
    """Maximize a 1-D objective with a GP surrogate (squared-exponential
    kernel) and expected-improvement acquisition over a dense candidate
    grid. BO_N_INIT seeded points start the run; returns the
    best-observed x and the full evaluation history.
    """
    check_hyperparameters({"budget": budget})
    lo, hi = bounds
    rng = np.random.default_rng(seed)
    xs = list(rng.uniform(lo, hi, size=BO_N_INIT))
    ys = [float(objective(x)) for x in xs]
    candidates = np.linspace(lo, hi, BO_CANDIDATES)

    for _ in range(budget - BO_N_INIT):
        X = np.array(xs)
        Y = np.array(ys)
        y_mean, y_std = Y.mean(), Y.std()
        scale = y_std if y_std > 1e-12 else 1.0
        Yn = (Y - y_mean) / scale

        def k(a, b):
            return np.exp(-0.5 * ((a[:, None] - b[None, :]) / BO_LENGTH_SCALE) ** 2)

        K = k(X, X) + BO_NOISE * np.eye(len(X))
        Ks = k(X, candidates)
        alpha = np.linalg.solve(K, Yn)
        mu = Ks.T @ alpha
        v = np.linalg.solve(K, Ks)
        var = np.maximum(1.0 - np.sum(Ks * v, axis=0), 1e-12)
        sd = np.sqrt(var)

        best = Yn.max()
        z = (mu - best - _EI_XI) / sd
        ei = (mu - best - _EI_XI) * _norm_cdf(z) + sd * _norm_pdf(z)
        x_next = float(candidates[int(np.argmax(ei))])
        xs.append(x_next)
        ys.append(float(objective(x_next)))

    best_idx = int(np.argmax(ys))  # ties break to first observed
    return xs[best_idx], list(zip(xs, ys))


def tune_gnb(data: Dataset, budget: int = 20, seed: int = 0) -> float:
    """Bayesian-optimize log10(var_smoothing) over [-12, 0], scoring each
    candidate by validation F1 on an internal stratified 80/20 split.
    """
    # Imported here, so that a classifier detect imports no evaluation.
    from .evaluation import metrics

    data.require_both_classes()
    tr, va = _stratified_holdout(data, 0.2, seed)

    def objective(log10_s: float) -> float:
        model = train_gnb(tr, var_smoothing=10.0**log10_s)
        scores = [predict(model, x) for x in va.features]
        preds = [int(score >= model.threshold) for score in scores]
        return metrics(preds, scores, va.labels)["f1"]

    best_log, _ = bayes_opt_1d(objective, (-12.0, 0.0), budget, seed)
    return 10.0**best_log


def _stratified_holdout(data: Dataset, frac: float, seed: int) -> tuple[Dataset, Dataset]:
    rng = np.random.default_rng(seed)
    hold: list[int] = []
    keep: list[int] = []
    for c in (0, 1):
        idx = np.flatnonzero(data.labels == c)
        idx = idx[rng.permutation(len(idx))]
        n_hold = max(1, int(math.floor(frac * len(idx))))
        hold.extend(idx[:n_hold])
        keep.extend(idx[n_hold:])
    keep.sort()
    hold.sort()

    def take(rows: list[int]) -> Dataset:
        return Dataset(features=data.features[rows], labels=data.labels[rows])

    return take(keep), take(hold)


# -- linear SVM (Pegasos) --


def svm_objective(w: np.ndarray, b: float, X: np.ndarray, y_pm: np.ndarray, lam: float) -> float:
    """(lam/2)|w|^2 + mean hinge loss, labels in {-1, +1}."""
    margins = y_pm * (X @ w + b)
    hinge = np.maximum(0.0, 1.0 - margins)
    return float(0.5 * lam * np.dot(w, w) + hinge.mean())


def train_linear_svm(
    data: Dataset, lam: float = 1e-3, epochs: int = 50, seed: int = 0
) -> SvmModel:
    """Pegasos stochastic subgradient descent: step 1/(lam*t), one example
    per step. The bias rides along as a constant-1 feature so the 1/t
    shrinkage damps it like every other coordinate.
    """
    check_hyperparameters({"lambda": lam, "epochs": epochs})
    data.require_both_classes()
    rng = np.random.default_rng(seed)
    n, d = data.features.shape
    y_pm = np.where(data.labels == 1, 1.0, -1.0)
    X = np.hstack([data.features, np.ones((n, 1))])
    w = np.zeros(d + 1)
    t = 0
    # A diverging run ends in the model's DataError, not in numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            order = rng.permutation(n)
            for i in order:
                t += 1
                eta = 1.0 / (lam * t)
                x = X[i]
                if y_pm[i] * (w @ x) < 1.0:
                    w = (1.0 - eta * lam) * w + eta * y_pm[i] * x
                else:
                    w = (1.0 - eta * lam) * w
    return SvmModel(weights=w[:d], bias=float(w[d]), lam=lam)


# -- random forest --


def _best_split(
    X: np.ndarray, y: np.ndarray, features: np.ndarray
) -> tuple[int, float, float] | None:
    """Minimum weighted-Gini split over candidate thresholds (midpoints of
    consecutive distinct values). Returns (feature, threshold, score).
    """
    n = len(y)
    if n < 2:
        return None
    best: tuple[int, float, float] | None = None
    for f in features:
        col = X[:, f]
        order = np.argsort(col, kind="stable")
        col_sorted = col[order]
        y_sorted = y[order]
        valid = col_sorted[:-1] != col_sorted[1:]
        if not valid.any():
            continue
        pos_l = np.cumsum(y_sorted)[:-1]
        n_l = np.arange(1, n, dtype=float)
        n_r = n - n_l
        pos_r = y_sorted.sum() - pos_l
        p_l = pos_l / n_l
        p_r = pos_r / n_r
        g_l = 1.0 - p_l**2 - (1.0 - p_l) ** 2
        g_r = 1.0 - p_r**2 - (1.0 - p_r) ** 2
        scores = np.where(valid, (n_l * g_l + n_r * g_r) / n, np.inf)
        i = int(np.argmin(scores))  # first minimum wins ties
        score = float(scores[i])
        if best is None or score < best[2] - 1e-15:
            threshold = float((col_sorted[i] + col_sorted[i + 1]) / 2.0)
            best = (int(f), threshold, score)
    return best


def _grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    depth: int,
    max_depth: int | None,
    n_subset: int,
) -> dict:
    if len(np.unique(y)) == 1 or (max_depth is not None and depth >= max_depth):
        return {"leaf": float(np.mean(y))}
    d = X.shape[1]
    subset = np.sort(rng.choice(d, size=min(n_subset, d), replace=False))
    split = _best_split(X, y, subset)
    if split is None:
        # Sampled features were constant in this node; consider them all
        # so consistent data always separates.
        split = _best_split(X, y, np.arange(d))
    if split is None:
        return {"leaf": float(np.mean(y))}
    f, thr, _ = split
    mask = X[:, f] <= thr
    left = _grow_tree(X[mask], y[mask], rng, depth + 1, max_depth, n_subset)
    right = _grow_tree(X[~mask], y[~mask], rng, depth + 1, max_depth, n_subset)
    return {"feature": f, "threshold": thr, "left": left, "right": right}


def train_random_forest(
    data: Dataset,
    n_trees: int = 50,
    max_depth: int | None = 8,
    seed: int = 0,
) -> RfModel:
    """Bootstrap-aggregated CART trees over sqrt(d) feature subsets per
    node; leaves store the Machine fraction. Tree t uses seed + t, so a
    concurrent build would match the sequential one.
    """
    check_hyperparameters({"n_trees": n_trees, "max_depth": max_depth})
    data.require_both_classes()
    n, d = data.features.shape
    n_subset = max(1, int(math.isqrt(d)))
    trees: list[dict] = []
    for t in range(n_trees):
        rng = np.random.default_rng(seed + t)
        idx = rng.integers(0, n, size=n)
        trees.append(
            _grow_tree(
                data.features[idx],
                data.labels[idx].astype(float),
                rng,
                depth=0,
                max_depth=max_depth,
                n_subset=n_subset,
            )
        )
    return RfModel(trees=trees, n_trees=n_trees, max_depth=max_depth, seed=seed, dim=d)


# -- unified prediction --


def predict(model: AnyModel, x: np.ndarray) -> float:
    """The family score of *x*, higher meaning more likely Machine; the
    label is score >= model.threshold (DetectorScorer.label). DataError
    when *x* is not of the model's dimension or the score is not finite:
    an overflow is refused here, so numpy need not warn of it."""
    x = np.asarray(x, dtype=float)
    if len(x) != model.dim:
        raise DataError(f"feature dimension {len(x)} != model dimension {model.dim}")
    with np.errstate(over="ignore", invalid="ignore"):
        score = model.score(x)
    if not math.isfinite(score):
        raise DataError("prediction score must be finite")
    return score


# -- persistence --

# Each family's model class and its model.json keys beyond schema_version,
# family and dim, as (JSON key, attribute, reader). save_model writes each
# attribute under its key; load_model hands the class each key's value as
# its reader returns it, a reader of the JSON encoding alone.
_MODEL_FIELDS = {
    "logreg": (LogRegModel, (("weights", "weights", partial(json_array, ndim=1)),
                             ("bias", "bias", json_float), ("l2", "l2", json_float))),
    "gnb": (GnbModel, (("means", "means", partial(json_array, ndim=2)),
                       ("variances", "variances", partial(json_array, ndim=2)),
                       ("priors", "priors", partial(json_array, ndim=1)),
                       ("var_smoothing", "var_smoothing", json_float))),
    "svm": (SvmModel, (("weights", "weights", partial(json_array, ndim=1)),
                       ("bias", "bias", json_float), ("lambda", "lam", json_float))),
    "random_forest": (RfModel, (("trees", "trees", list), ("n_trees", "n_trees", json_int),
                                ("max_depth", "max_depth",
                                 lambda value: None if value is None else json_int(value)),
                                ("seed", "seed", json_int), ("dim", "dim", json_int))),
}


def save_model(model: AnyModel, path: str | Path) -> None:
    """Versioned JSON with full-precision (shortest round-trip) numbers."""
    _, fields = _MODEL_FIELDS[model.family]
    payload = {"schema_version": SCHEMA_VERSION, "family": model.family, "dim": model.dim}
    payload.update((key, getattr(model, attr)) for key, attr, _ in fields)
    Path(path).write_text(json.dumps(payload, sort_keys=True, default=np.ndarray.tolist),
                          encoding="utf-8")


def load_model(path: str | Path) -> AnyModel:
    """The model save_model wrote to *path*; DataError when the file is not
    such a model.

    Here only what belongs to the JSON encoding is checked: the keys
    save_model writes for the family and no other, the schema version, each
    key's JSON type (its _MODEL_FIELDS reader: integers, finite numbers,
    arrays of them, a list of trees, max_depth an integer or null), and dim
    an integer equal to the built model's. The model class checks the
    model itself.
    """
    payload = load_json(path)
    if not isinstance(payload, dict):
        raise DataError(f"{path}: model file must hold a JSON object")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DataError(
            f"{path}: unsupported schema_version {version!r}, expected {SCHEMA_VERSION}"
        )
    family = payload.get("family")
    if not isinstance(family, str) or family not in _MODEL_FIELDS:
        raise DataError(f"{path}: unknown model family {family!r}")
    cls, fields = _MODEL_FIELDS[family]
    try:
        json_keys(payload, ("schema_version", "family", "dim", *(key for key, _, _ in fields)))
        model = cls(**{attr: read(payload[key]) for key, attr, read in fields})
        dim = json_int(payload["dim"])
        if dim != model.dim:
            raise ValueError(f"dim {dim} differs from the model's {model.dim}")
    except (KeyError, TypeError, ValueError, OverflowError, DataError) as exc:
        raise DataError(f"{path}: corrupted model field: {exc}") from exc
    return model
