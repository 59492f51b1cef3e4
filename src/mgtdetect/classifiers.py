"""The four classical classifier families trained on document feature
vectors: logistic regression, Gaussian naive Bayes (with 1-D Bayesian
optimization of its variance smoothing), a Pegasos linear SVM, and a
random forest. Every trainer is seed-deterministic.

Scores follow one convention: higher means more likely Machine. Labels
threshold at 0.5 for probability scores and at 0 for the SVM margin, with
ties going to Machine.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from .errors import (
    DataError,
    ModelFormatError,
    json_array,
    json_float,
    json_int,
    json_keys,
    load_json,
)

SCHEMA_VERSION = 1

LOG_2PI = math.log(2.0 * math.pi)
LOGREG_BATCH_SIZE = 32
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
# also be null (no depth limit). Each key's range is HYPERPARAMETER_RANGES.
HYPERPARAMETER_DEFAULTS = {
    "logreg": {"l2": 1e-4, "epochs": 150, "lr": 0.5},
    "gnb": {"tune": False, "budget": 20, "var_smoothing": 1e-9},
    "svm": {"lambda": 1e-3, "epochs": 50},
    "random_forest": {"n_trees": 50, "max_depth": 8},
}


def check_hyperparameters(params: dict) -> None:
    """DataError unless each value of *params*, keyed by hyperparameter
    name, lies in that name's HYPERPARAMETER_RANGES range."""
    for name, value in params.items():
        test, rule = HYPERPARAMETER_RANGES[name]
        if not test(value):
            raise DataError(f"{name} must be {rule}, got {value!r}")


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,) with 1 = Machine
    ids: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.features.ndim != 2 or len(self.features) < 1:
            raise DataError("features must be a non-empty (n, d) matrix")
        if len(self.labels) != len(self.features) or len(self.ids) != len(self.features):
            raise DataError("features, labels, ids must have equal length")
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


@dataclass
class LogRegModel:
    weights: np.ndarray
    bias: float
    l2: float
    family: ClassVar[str] = "logreg"
    threshold: ClassVar[float] = 0.5

    @property
    def dim(self) -> int:
        return len(self.weights)

    def score(self, x: np.ndarray) -> float:
        return float(_sigmoid(self.weights @ x + self.bias))


@dataclass
class GnbModel:
    means: np.ndarray  # (2, d), row index = class label
    variances: np.ndarray  # (2, d), maximum-likelihood variances
    priors: np.ndarray  # (2,)
    var_smoothing: float
    family: ClassVar[str] = "gnb"
    threshold: ClassVar[float] = 0.5

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

    @property
    def dim(self) -> int:
        return len(self.weights)

    def score(self, x: np.ndarray) -> float:
        return float(self.weights @ x + self.bias)


@dataclass
class TreeNode:
    """Internal node (feature, threshold, children) or leaf (fraction)."""

    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    leaf_fraction: float | None = None

    def predict(self, x: np.ndarray) -> float:
        node = self
        while node.leaf_fraction is None:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node.leaf_fraction


@dataclass
class RfModel:
    trees: list[TreeNode]
    n_trees: int
    max_depth: int | None
    seed: int
    dim: int
    family: ClassVar[str] = "random_forest"
    threshold: ClassVar[float] = 0.5

    def score(self, x: np.ndarray) -> float:
        return float(np.mean([t.predict(x) for t in self.trees]))


AnyModel = LogRegModel | GnbModel | SvmModel | RfModel


@dataclass(frozen=True)
class Prediction:
    score: float
    label: int  # 1 = Machine

    def __post_init__(self) -> None:
        if not math.isfinite(self.score):
            raise DataError("prediction score must be finite")


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
    data.require_both_classes()
    tr, va = _stratified_holdout(data, 0.2, seed)

    def objective(log10_s: float) -> float:
        model = train_gnb(tr, var_smoothing=10.0**log10_s)
        preds = [predict(model, x).label for x in va.features]
        return _f1(np.array(preds), va.labels)

    best_log, _ = bayes_opt_1d(objective, (-12.0, 0.0), budget, seed)
    return 10.0**best_log


def _f1(preds: np.ndarray, labels: np.ndarray) -> float:
    tp = int(np.sum((preds == 1) & (labels == 1)))
    fp = int(np.sum((preds == 1) & (labels == 0)))
    fn = int(np.sum((preds == 0) & (labels == 1)))
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


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
        return Dataset(
            features=data.features[rows],
            labels=data.labels[rows],
            ids=tuple(data.ids[i] for i in rows),
        )

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


def gini(labels: np.ndarray) -> float:
    """1 - sum p_c^2 over the two classes."""
    if len(labels) == 0:
        return 0.0
    p = np.mean(labels)
    return float(1.0 - p * p - (1.0 - p) * (1.0 - p))


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
) -> TreeNode:
    if len(np.unique(y)) == 1 or (max_depth is not None and depth >= max_depth):
        return TreeNode(leaf_fraction=float(np.mean(y)))
    d = X.shape[1]
    subset = np.sort(rng.choice(d, size=min(n_subset, d), replace=False))
    split = _best_split(X, y, subset)
    if split is None:
        # Sampled features were constant in this node; consider them all
        # so consistent data always separates.
        split = _best_split(X, y, np.arange(d))
    if split is None:
        return TreeNode(leaf_fraction=float(np.mean(y)))
    f, thr, _ = split
    mask = X[:, f] <= thr
    left = _grow_tree(X[mask], y[mask], rng, depth + 1, max_depth, n_subset)
    right = _grow_tree(X[~mask], y[~mask], rng, depth + 1, max_depth, n_subset)
    return TreeNode(feature=f, threshold=thr, left=left, right=right)


def train_random_forest(
    data: Dataset,
    n_trees: int = 50,
    max_depth: int | None = 8,
    seed: int = 0,
    bootstrap: bool = True,
) -> RfModel:
    """Bootstrap-aggregated CART trees over sqrt(d) feature subsets per
    node; leaves store the Machine fraction. Tree t uses seed + t, so a
    concurrent build would match the sequential one.
    """
    check_hyperparameters({"n_trees": n_trees, "max_depth": max_depth})
    n, d = data.features.shape
    n_subset = max(1, int(math.isqrt(d)))
    trees: list[TreeNode] = []
    for t in range(n_trees):
        rng = np.random.default_rng(seed + t)
        if bootstrap:
            idx = rng.integers(0, n, size=n)
        else:
            idx = np.arange(n)
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


def predict(model: AnyModel, x: np.ndarray) -> Prediction:
    """Family score with the family's threshold rule; ties go to Machine.
    DataError when *x* is not of the model's dimension or the score is not
    finite: Prediction refuses an overflow, so numpy need not warn of it."""
    x = np.asarray(x, dtype=float)
    if len(x) != model.dim:
        raise DataError(f"feature dimension {len(x)} != model dimension {model.dim}")
    with np.errstate(over="ignore", invalid="ignore"):
        score = model.score(x)
    return Prediction(score=score, label=int(score >= model.threshold))


# -- persistence --


def _finite_array(ndim: int):
    """The field parser of a finite numeric array of *ndim* dimensions."""
    return lambda values, _parsed: json_array(values, ndim)


def _finite_float(value, _parsed) -> float:
    return json_float(value)


def _dim(value, _parsed) -> int:
    dim = json_int(value)
    if dim < 1:
        raise ValueError("random_forest dim must be >= 1")
    return dim


def _forest(value, parsed) -> list[TreeNode]:
    trees = [_tree_from_dict(t, parsed["dim"]) for t in value]
    if not trees:
        raise ValueError("random_forest needs at least one tree")
    return trees


def _n_trees(value, parsed) -> int:
    n_trees = json_int(value)
    if n_trees != len(parsed["trees"]):
        raise ValueError(f"n_trees {n_trees} differs from the {len(parsed['trees'])} trees")
    return n_trees


def _max_depth(value, _parsed) -> int | None:
    max_depth = None if value is None else json_int(value)
    check_hyperparameters({"max_depth": max_depth})
    return max_depth


def _seed(value, _parsed) -> int:
    seed = json_int(value)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


# Each family's model class and its model.json fields beyond schema_version,
# family and dim, as (JSON key, attribute, parser). save_model writes each
# attribute under its key; load_model parses the keys in this order, each
# parser given the JSON value and the attributes parsed before it.
_MODEL_FIELDS = {
    "logreg": (LogRegModel, (("weights", "weights", _finite_array(1)),
                             ("bias", "bias", _finite_float), ("l2", "l2", _finite_float))),
    "gnb": (GnbModel, (("means", "means", _finite_array(2)),
                       ("variances", "variances", _finite_array(2)),
                       ("priors", "priors", _finite_array(1)),
                       ("var_smoothing", "var_smoothing", _finite_float))),
    "svm": (SvmModel, (("weights", "weights", _finite_array(1)),
                       ("bias", "bias", _finite_float), ("lambda", "lam", _finite_float))),
    "random_forest": (RfModel, (("dim", "dim", _dim), ("trees", "trees", _forest),
                                ("n_trees", "n_trees", _n_trees),
                                ("max_depth", "max_depth", _max_depth),
                                ("seed", "seed", _seed))),
}


def _to_json(value):
    """The JSON form of a model attribute that json cannot write itself."""
    return value.tolist() if isinstance(value, np.ndarray) else _tree_to_dict(value)


def save_model(model: AnyModel, path: str | Path) -> None:
    """Versioned JSON with full-precision (shortest round-trip) numbers."""
    _, fields = _MODEL_FIELDS[model.family]
    payload = {"schema_version": SCHEMA_VERSION, "family": model.family, "dim": model.dim}
    payload.update((key, getattr(model, attr)) for key, attr, _ in fields)
    Path(path).write_text(json.dumps(payload, sort_keys=True, default=_to_json),
                          encoding="utf-8")


def load_model(path: str | Path) -> AnyModel:
    """Read a save_model file, checking every field each family's score
    reads: numbers finite, weights 1-D, gnb arrays of shape (2, d) and
    (2,), random-forest dim and split features integers, the features in
    [0, dim), and the forest's metadata as train_random_forest writes it:
    n_trees an integer equal to the number of trees (so at least 1),
    max_depth null or an integer in its HYPERPARAMETER_RANGES range, and
    seed an integer >= 0. Any other content, a key save_model does not
    write included, raises ModelFormatError.
    """
    payload = load_json(path, ModelFormatError)
    if not isinstance(payload, dict):
        raise ModelFormatError(f"{path}: model file must hold a JSON object")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported schema_version {version!r}, expected {SCHEMA_VERSION}"
        )
    family = payload.get("family")
    if not isinstance(family, str) or family not in _MODEL_FIELDS:
        raise ModelFormatError(f"{path}: unknown model family {family!r}")
    cls, fields = _MODEL_FIELDS[family]
    parsed: dict = {}
    try:
        json_keys(payload, ("schema_version", "family", "dim", *(key for key, _, _ in fields)))
        for key, attr, parse in fields:
            parsed[attr] = parse(payload[key], parsed)
        model = cls(**parsed)
        if isinstance(model, GnbModel):
            if len(model.means) != 2 or model.variances.shape != model.means.shape:
                raise ValueError("gnb means and variances must have shape (2, d)")
            if model.priors.shape != (2,) or np.any(model.priors <= 0):
                raise ValueError("gnb priors must be 2 positive numbers")
            if np.any(model.variances < 0) or model.var_smoothing <= 0:
                raise ValueError("gnb variances must be >= 0 and var_smoothing > 0")
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError,
            DataError) as exc:
        raise ModelFormatError(f"{path}: corrupted model field: {exc}") from exc
    return model


def _tree_to_dict(node: TreeNode) -> dict:
    if node.leaf_fraction is not None:
        return {"leaf": node.leaf_fraction}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _tree_to_dict(node.left),
        "right": _tree_to_dict(node.right),
    }


def _tree_from_dict(d: dict, dim: int) -> TreeNode:
    if not isinstance(d, dict):
        raise TypeError("tree node must be a JSON object")
    if "leaf" in d:
        return TreeNode(leaf_fraction=json_float(d["leaf"]))
    feature = json_int(d["feature"])
    if not 0 <= feature < dim:
        raise ValueError(f"tree feature {feature} outside [0, {dim})")
    return TreeNode(
        feature=feature,
        threshold=json_float(d["threshold"]),
        left=_tree_from_dict(d["left"], dim),
        right=_tree_from_dict(d["right"], dim),
    )
