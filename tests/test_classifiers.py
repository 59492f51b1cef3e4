import copy
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mgtdetect.classifiers import (
    TRAINERS,
    Dataset,
    GnbModel,
    LogRegModel,
    RfModel,
    SvmModel,
    _grow_tree,
    bayes_opt_1d,
    load_model,
    logreg_loss_and_grad,
    predict,
    save_model,
    svm_objective,
    train_gnb,
    train_linear_svm,
    train_logreg,
    train_random_forest,
    tune_gnb,
)
from mgtdetect.errors import DataError
from mgtdetect.ingest import DetectorScorer
from mgtdetect.sections import HYPERPARAMETER_DEFAULTS


def separable_2d(n_per_class: int = 20, seed: int = 0) -> Dataset:
    rng = np.random.default_rng(seed)
    neg = rng.normal(-2.0, 0.4, size=(n_per_class, 2))
    pos = rng.normal(2.0, 0.4, size=(n_per_class, 2))
    X = np.vstack([neg, pos])
    y = np.array([0] * n_per_class + [1] * n_per_class)
    return Dataset(features=X, labels=y)


def label(model, x: np.ndarray) -> int:
    """The label the CLI gives *x*: DetectorScorer.label cuts the score at
    the model's threshold."""
    scorer = DetectorScorer(name=model.family, score_fn=None, threshold=model.threshold)
    return scorer.label(predict(model, x))


def train_accuracy(model, data: Dataset) -> float:
    preds = [label(model, x) for x in data.features]
    return float(np.mean(np.array(preds) == data.labels))


class TestLogReg:
    def test_zero_model_scores_half(self):
        model = LogRegModel(weights=np.zeros(3), bias=0.0, l2=0.0)
        assert model.score(np.array([5.0, -2.0, 1.0])) == 0.5

    def test_separable_fixture_fits(self):
        # Oracle: plain full-batch gradient descent reaches accuracy 1.0 on
        # this set, so the trainer must too.
        data = separable_2d()
        model = train_logreg(data, l2=1e-4, epochs=120, lr=0.5, seed=1)
        assert train_accuracy(model, data) == 1.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=3)
        b = 0.25
        X = rng.normal(size=(12, 3))
        y = rng.integers(0, 2, size=12).astype(float)
        _, gw, gb = logreg_loss_and_grad(w, b, X, y, l2=0.01)
        h = 1e-5
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            hi, _, _ = logreg_loss_and_grad(w + e, b, X, y, 0.01)
            lo, _, _ = logreg_loss_and_grad(w - e, b, X, y, 0.01)
            num = (hi - lo) / (2 * h)
            assert abs(num - gw[i]) / max(abs(num), 1e-8) < 1e-4
        hi, _, _ = logreg_loss_and_grad(w, b + h, X, y, 0.01)
        lo, _, _ = logreg_loss_and_grad(w, b - h, X, y, 0.01)
        num = (hi - lo) / (2 * h)
        assert abs(num - gb) / max(abs(num), 1e-8) < 1e-4

    def test_single_class_rejected(self):
        data = Dataset(
            features=np.ones((3, 2)) * np.arange(3)[:, None],
            labels=np.zeros(3, dtype=int),
        )
        with pytest.raises(DataError):
            train_logreg(data)

    def test_order_invariance_with_same_seed(self):
        data = separable_2d()
        perm = np.random.default_rng(3).permutation(len(data.features))
        shuffled = Dataset(features=data.features[perm], labels=data.labels[perm])
        m1 = train_logreg(data, seed=5, epochs=40)
        m2 = train_logreg(shuffled, seed=5, epochs=40)
        probe = np.array([0.3, -0.7])
        assert predict(m1, probe) == pytest.approx(predict(m2, probe), abs=0.05)


class TestGnb:
    def _symmetric(self) -> Dataset:
        X = np.array([[-1.0], [1.0], [9.0], [11.0]])
        y = np.array([0, 0, 1, 1])
        return Dataset(features=X, labels=y)

    def test_symmetric_midpoint(self):
        model = train_gnb(self._symmetric(), var_smoothing=1e-9)
        assert model.score(np.array([5.0])) == pytest.approx(0.5, abs=1e-12)

    def test_far_point_posterior_tiny(self):
        model = train_gnb(self._symmetric(), var_smoothing=1e-9)
        assert model.score(np.array([0.0])) < 1e-3

    def test_constant_feature_with_smoothing(self):
        # Zero-variance feature: smoothing prevents division by zero and
        # the posterior collapses to the (equal) class priors.
        X = np.array([[1.0], [1.0], [1.0], [1.0]])
        y = np.array([0, 0, 1, 1])
        data = Dataset(features=X, labels=y)
        model = train_gnb(data, var_smoothing=1e-9)
        score = model.score(np.array([1.0]))
        assert np.isfinite(score)
        assert score == pytest.approx(0.5, abs=1e-9)

    def test_smoothing_must_be_positive(self):
        with pytest.raises(DataError):
            train_gnb(self._symmetric(), var_smoothing=0.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        X = np.vstack([rng.normal(0, 1, (30, 3)), rng.normal(1.5, 1.2, (30, 3))])
        y = np.array([0] * 30 + [1] * 30)
        data = Dataset(features=X, labels=y)
        c = 2.0
        scaled = Dataset(features=c * X, labels=y)
        m = train_gnb(data, var_smoothing=1e-12)
        ms = train_gnb(scaled, var_smoothing=1e-12)
        for probe in (X[0], X[31], np.array([0.5, -0.2, 1.1])):
            assert ms.score(c * probe) == pytest.approx(m.score(probe), abs=1e-9)


class TestHyperparameterRanges:
    """Every trainer refuses a hyperparameter outside its range by the one
    rule the config check uses, instead of training on it."""

    @pytest.mark.parametrize("train", [
        lambda d: train_logreg(d, lr=-1.0),
        lambda d: train_logreg(d, lr=float("nan")),
        lambda d: train_logreg(d, l2=float("inf")),
        lambda d: train_logreg(d, epochs=0),
        lambda d: train_gnb(d, var_smoothing=float("nan")),
        lambda d: train_linear_svm(d, lam=float("inf")),
        lambda d: train_linear_svm(d, epochs=0),
        lambda d: train_random_forest(d, n_trees=0),
    ], ids=["logreg_lr_negative", "logreg_lr_nan", "logreg_l2_inf", "logreg_epochs_0",
            "gnb_smoothing_nan", "svm_lambda_inf", "svm_epochs_0", "rf_no_trees"])
    def test_out_of_range_value_refused(self, train):
        with pytest.raises(DataError, match="must be"):
            train(separable_2d(10))

    @pytest.mark.parametrize("train", [
        lambda d: train_logreg(d, lr=1e300, epochs=3),
        lambda d: train_linear_svm(d, lam=1e-308, epochs=2),
    ], ids=["logreg_lr_1e300", "svm_lambda_1e-308"])
    def test_diverging_run_refused_without_warning(self, train):
        """Values inside their ranges on features of scale 10, on which the
        run diverges: the model refuses its non-finite weights, and numpy
        warns of nothing on the way."""
        data = separable_2d(10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="must be finite"):
                train(Dataset(features=5 * data.features, labels=data.labels))

    def test_gnb_variance_past_float_range_refused_without_warning(self):
        """Features of +-1e200 square past the float range: the model
        refuses the infinite variances, and numpy warns of nothing."""
        data = Dataset(np.array([[1e200], [-1e200], [1e200], [-1e200]]), np.array([0, 0, 1, 1]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="variances must be finite"):
                train_gnb(data)


class TestBayesOpt:
    def test_flat_objective_returns_first_evaluated(self):
        best, history = bayes_opt_1d(lambda x: 1.0, (-12.0, 0.0), budget=8, seed=3)
        assert best == history[0][0]

    def test_deterministic(self):
        def bumpy(x):
            return -((x + 4.0) ** 2) + 0.5 * np.sin(x)

        a, _ = bayes_opt_1d(bumpy, (-12.0, 0.0), budget=12, seed=5)
        b, _ = bayes_opt_1d(bumpy, (-12.0, 0.0), budget=12, seed=5)
        assert a == b

    def test_budget_floor(self):
        with pytest.raises(DataError):
            bayes_opt_1d(lambda x: x, (-1.0, 0.0), budget=4, seed=0)

    def test_tune_gnb_in_bounds_and_deterministic(self):
        data = separable_2d(25, seed=4)
        s1 = tune_gnb(data, budget=8, seed=2)
        s2 = tune_gnb(data, budget=8, seed=2)
        assert s1 == s2
        assert 1e-12 <= s1 <= 1.0


class TestSvm:
    def test_satisfied_margin_contributes_no_hinge(self):
        w = np.array([1.0, 0.0])
        X = np.array([[2.0, 0.0]])  # margin = 2 >= 1
        assert svm_objective(w, 0.0, X, np.array([1.0]), lam=0.1) == pytest.approx(
            0.5 * 0.1 * 1.0
        )

    def test_separable_fixture_fits(self):
        data = separable_2d()
        model = train_linear_svm(data, lam=1e-3, epochs=40, seed=1)
        assert train_accuracy(model, data) == 1.0

    def test_objective_decreases_on_average(self):
        data = separable_2d(15, seed=6)
        y_pm = np.where(data.labels == 1, 1.0, -1.0)
        lam = 1e-2
        initial = svm_objective(np.zeros(2), 0.0, data.features, y_pm, lam)
        finals = []
        for seed in range(10):
            m = train_linear_svm(data, lam=lam, epochs=10, seed=seed)
            finals.append(svm_objective(m.weights, m.bias, data.features, y_pm, lam))
        assert np.mean(finals) < initial


def unbootstrapped_forest(data: Dataset, n_trees: int, max_depth: int | None,
                          seed: int) -> RfModel:
    """train_random_forest with every tree grown on all the rows, in order."""
    d = data.features.shape[1]
    trees = [_grow_tree(data.features, data.labels.astype(float),
                        np.random.default_rng(seed + t), depth=0, max_depth=max_depth,
                        n_subset=max(1, math.isqrt(d)))
             for t in range(n_trees)]
    return RfModel(trees=trees, n_trees=n_trees, max_depth=max_depth, seed=seed, dim=d)


class TestRandomForest:
    def test_pure_node_becomes_leaf(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1, 1, 1])
        data = Dataset(features=X, labels=y)
        # The tree grower alone: train_random_forest refuses one-class data.
        model = unbootstrapped_forest(data, n_trees=1, max_depth=5, seed=0)
        root = model.trees[0]
        assert root == {"leaf": 1.0}

    def test_one_dimensional_threshold(self):
        X = np.array([[0.1], [0.2], [0.3], [0.7], [0.8], [0.9]])
        y = np.array([0, 0, 0, 1, 1, 1])
        data = Dataset(features=X, labels=y)
        model = unbootstrapped_forest(data, n_trees=1, max_depth=1, seed=0)
        assert train_accuracy(model, data) == 1.0

    def test_memorizes_consistent_data_without_bootstrap(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 2, size=40)
        data = Dataset(features=X, labels=y)
        model = unbootstrapped_forest(data, n_trees=3, max_depth=None, seed=1)
        assert train_accuracy(model, data) == 1.0

    def test_depth_must_be_positive(self):
        with pytest.raises(DataError):
            train_random_forest(separable_2d(5), max_depth=0)

    def test_pure_leaf_scores_are_exact(self):
        model = RfModel(
            trees=[{"leaf": 1.0}], n_trees=1, max_depth=1,
            seed=0, dim=2,
        )
        assert model.score(np.array([0.0, 0.0])) in (0.0, 1.0)


@pytest.mark.parametrize("family", sorted(TRAINERS))
@pytest.mark.parametrize("cls", [0, 1])
def test_every_family_refuses_one_class_data(family, cls):
    data = separable_2d(5)
    one_class = Dataset(features=data.features, labels=np.full(len(data.labels), cls))
    with pytest.raises(DataError, match="^training data must contain both classes$"):
        TRAINERS[family](one_class, HYPERPARAMETER_DEFAULTS[family], 0)


class TestPredict:
    def test_tie_breaks_to_machine(self):
        model = LogRegModel(weights=np.zeros(2), bias=0.0, l2=0.0)
        x = np.array([1.0, 2.0])
        assert predict(model, x) == 0.5
        assert label(model, x) == 1

    def test_svm_threshold_is_zero(self):
        model = SvmModel(weights=np.array([1.0]), bias=0.0, lam=0.1)
        assert label(model, np.array([0.0])) == 1  # margin 0 ties to Machine
        assert label(model, np.array([-0.1])) == 0

    def test_dimension_mismatch(self):
        model = LogRegModel(weights=np.zeros(2), bias=0.0, l2=0.0)
        with pytest.raises(DataError):
            predict(model, np.array([1.0]))


def _first_leaf(node: dict) -> dict:
    while "leaf" not in node:
        node = node["left"]
    return node


def _root(**changes):
    """An RfModel change: the first tree's root node with *changes*."""
    return lambda m: {"trees": [{**m.trees[0], **changes}, *m.trees[1:]]}


def _leaf_of(value):
    """An RfModel change: the first tree's leftmost leaf holding *value*."""
    def change(m):
        trees = copy.deepcopy(m.trees)
        _first_leaf(trees[0])["leaf"] = value
        return {"trees": trees}
    return change


class TestModelRules:
    """Each model class refuses, when it is built, a model that breaks one
    of its family's rules: a trained model and a loaded one alike."""

    @pytest.mark.parametrize("family, change", [
        ("logreg", lambda m: {"weights": m.weights[None, :]}),
        ("logreg", lambda m: {"weights": np.full_like(m.weights, np.nan)}),
        ("logreg", lambda m: {"bias": math.inf}),
        ("logreg", lambda m: {"l2": -1.0}),
        ("gnb", lambda m: {"means": np.vstack([m.means, m.means[:1]])}),
        ("gnb", lambda m: {"means": m.means[0]}),
        ("gnb", lambda m: {"means": np.full_like(m.means, np.inf)}),
        ("gnb", lambda m: {"variances": m.variances[:, 1:]}),
        ("gnb", lambda m: {"variances": np.full_like(m.variances, np.nan)}),
        ("gnb", lambda m: {"variances": -m.variances}),
        ("gnb", lambda m: {"priors": np.array([0.5, 0.25, 0.25])}),
        ("gnb", lambda m: {"priors": np.array([np.inf, 0.5])}),
        ("gnb", lambda m: {"priors": np.array([0.0, 1.0])}),
        ("gnb", lambda m: {"var_smoothing": 0.0}),
        ("svm", lambda m: {"weights": np.full_like(m.weights, np.inf)}),
        ("svm", lambda m: {"weights": m.weights[0]}),
        ("svm", lambda m: {"bias": math.nan}),
        ("svm", lambda m: {"lam": 0.0}),
        ("random_forest", lambda m: {"trees": [], "n_trees": 0}),
        ("random_forest", lambda m: {"trees": m.trees[1:]}),
        ("random_forest", lambda m: {"max_depth": 0}),
        ("random_forest", lambda m: {"seed": -1}),
        ("random_forest", lambda m: {"trees": [{"leaf": 0.5}], "n_trees": 1, "dim": 0}),
        ("random_forest", _root(feature=4)),
        ("random_forest", _root(feature=-1)),
        ("random_forest", _root(feature=1.0)),
        ("random_forest", _root(threshold=math.inf)),
        ("random_forest", _root(threshold="0.5")),
        ("random_forest", _root(note=1)),
        ("random_forest", _root(leaf=0.5)),
        ("random_forest", lambda m: {"trees": [["leaf", 0.5], *m.trees[1:]]}),
        ("random_forest", _leaf_of(7.0)),
        ("random_forest", _leaf_of(-0.5)),
        ("random_forest", _leaf_of(math.nan)),
        ("random_forest", _leaf_of(True)),
    ], ids=["logreg_weights_2d", "logreg_weights_nan", "logreg_bias_inf", "logreg_l2_negative",
            "gnb_three_classes", "gnb_means_1d", "gnb_means_inf", "gnb_variance_width",
            "gnb_variances_nan", "gnb_variances_negative", "gnb_three_priors",
            "gnb_prior_inf", "gnb_prior_zero", "gnb_smoothing_zero", "svm_weights_inf",
            "svm_weights_scalar", "svm_bias_nan", "svm_lambda_zero", "rf_no_trees",
            "rf_n_trees_mismatch", "rf_max_depth_zero", "rf_seed_negative", "rf_dim_zero",
            "rf_feature_dim", "rf_feature_negative", "rf_feature_float", "rf_threshold_inf",
            "rf_threshold_string", "rf_node_unknown_key", "rf_split_with_leaf",
            "rf_node_list", "rf_leaf_7", "rf_leaf_negative", "rf_leaf_nan", "rf_leaf_boolean"])
    def test_broken_rule_refused(self, fixtures_dir, family, change):
        model = load_model(fixtures_dir / "models" / f"{family}.model.json")
        with pytest.raises(DataError):
            replace(model, **change(model))


class TestPersistence:
    @pytest.fixture()
    def probe(self):
        return np.random.default_rng(9).normal(size=(100, 2))

    def _models(self):
        data = separable_2d(15, seed=3)
        return [
            train_logreg(data, epochs=30, seed=1),
            train_gnb(data, var_smoothing=1e-8),
            train_linear_svm(data, epochs=10, seed=1),
            train_random_forest(data, n_trees=5, max_depth=4, seed=1),
        ]

    def test_round_trip_predictions_identical(self, tmp_path, probe):
        for model in self._models():
            path, again = tmp_path / f"{model.family}.json", tmp_path / "again.json"
            save_model(model, path)
            loaded = load_model(path)
            save_model(loaded, again)
            assert again.read_bytes() == path.read_bytes()
            for x in probe:
                assert predict(loaded, x) == predict(model, x)

    @pytest.mark.parametrize("family", ["logreg", "gnb", "svm", "random_forest"])
    def test_fixture_resaves_byte_for_byte(self, fixtures_dir, tmp_path, family):
        """A model.json that an earlier save_model wrote loads and re-saves
        to the same bytes."""
        path, again = fixtures_dir / "models" / f"{family}.model.json", tmp_path / "again.json"
        save_model(load_model(path), again)
        assert again.read_bytes() == path.read_bytes()

    def test_schema_version_gate(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(self._models()[0], path)
        payload = json.loads(path.read_text())
        payload["schema_version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="unsupported schema_version 999, expected 1"):
            load_model(path)

    def test_truncated_file_errors(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(self._models()[0], path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(DataError, match="malformed JSON"):
            load_model(path)

    def test_corrupted_numeric_field_errors(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(self._models()[0], path)
        payload = json.loads(path.read_text())
        payload["weights"][0] = "not-a-number"
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="corrupted model field"):
            load_model(path)

    def test_unknown_family_errors(self, tmp_path):
        path = tmp_path / "m.json"
        for family in ("mlp", ["svm"], {"a": 1}, None, 3):
            path.write_text(json.dumps({"schema_version": 1, "family": family, "dim": 2}))
            with pytest.raises(DataError, match="unknown model family"):
                load_model(path)
