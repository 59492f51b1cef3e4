"""Config-driven command line: ingest, stats, train, detect, evaluate.

One global seed in the config deterministically derives every module seed
(SHA-256 over the field path), so a single knob reproduces an entire
experiment. All outputs land under the output directory with fixed names:
splits.json, stats.json, model.json, metrics.json, robustness.json.

Exit codes: 0 success, 2 config error, 3 data/model error, 4 IO error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import classifiers, corpus_stats, embeddings, evaluation, ingest, zeroshot
from .errors import ConfigError, DataError
from .ingest import Corpus, Document, Label

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_IO = 4

CLASSIFIER_FAMILIES = ("logreg", "gnb", "svm", "random_forest")
ZEROSHOT_METHODS = ("detect_gpt", "single_revise")

# Config keys with their defaults; a value is converted to its default's type.
SKIPGRAM_DEFAULTS = {"dim": 32, "window": 5, "negatives": 5, "epochs": 3,
                     "learning_rate": 0.025, "min_count": 2, "subsample": 1e-3}
ZEROSHOT_DEFAULTS = {"order": 3, "discount": 0.75, "k": 10, "mask_fraction": 0.15,
                     "threshold": 0.0}


def derive_seed(root_seed: int, path: str) -> int:
    """Stable per-module seed: SHA-256 over 'root/path', first 8 bytes."""
    digest = hashlib.sha256(f"{root_seed}/{path}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _section(raw: dict, name: str, default=None) -> dict | None:
    """raw[name], which must be an object; *default* when absent or null."""
    value = raw.get(name)
    if value is None:
        return default
    if not isinstance(value, dict):
        raise ConfigError(f"{name} section must be an object")
    return value


def _typed(section: str, raw: dict, defaults: dict) -> dict:
    """Each key of *defaults*, read from *raw* and converted to the type
    of its default."""
    out = {}
    for key, default in defaults.items():
        value = raw.get(key, default)
        try:
            out[key] = type(default)(value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(
                f"{section}.{key} must be {type(default).__name__}, got {value!r}"
            ) from None
    return out


@dataclass(frozen=True)
class ZeroshotConfig:
    """The zeroshot config section, typed; absent keys take their defaults."""

    order: int
    discount: float
    k: int
    mask_fraction: float
    threshold: float
    methods: tuple[str, ...]

    @classmethod
    def from_dict(cls, raw: dict) -> "ZeroshotConfig":
        methods = raw.get("methods", ["detect_gpt"])
        if not isinstance(methods, list):
            raise ConfigError("zeroshot.methods must be a list of method names")
        for m in methods:
            if m not in ZEROSHOT_METHODS:
                raise ConfigError(f"unknown zeroshot method {m!r}")
        return cls(methods=tuple(methods), **_typed("zeroshot", raw, ZEROSHOT_DEFAULTS))


@dataclass
class RunConfig:
    seed: int
    output_dir: Path
    hc3_path: Path
    split: ingest.SplitSpec
    conllu: dict[Label, Path]
    embedding_source: str  # "train" | "load"
    embedding_params: dict
    embedding_path: Path | None
    classifier: dict | None
    zeroshot: ZeroshotConfig | None
    transforms: list[evaluation.AdversarialTransform]
    detect_method: str

    @classmethod
    def from_file(
        cls,
        config_path: str | Path,
        output_override: str | None = None,
        seed_override: int | None = None,
    ) -> "RunConfig":
        config_path = Path(config_path)
        if not config_path.exists():
            raise ConfigError(f"config file not found: {config_path}")
        try:
            raw = json.loads(config_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{config_path}: invalid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{config_path}: config must be a JSON object")
        base = config_path.parent

        def resolve(p: str) -> Path:
            path = Path(p)
            return path if path.is_absolute() else base / path

        try:
            seed = int(seed_override if seed_override is not None else raw["seed"])
        except KeyError:
            raise ConfigError("config missing required field 'seed'") from None
        except (TypeError, ValueError):
            raise ConfigError("config field 'seed' must be an integer") from None

        dataset = raw.get("dataset")
        if not isinstance(dataset, dict) or "hc3_path" not in dataset:
            raise ConfigError("config needs dataset.hc3_path")
        hc3_path = resolve(str(dataset["hc3_path"]))
        if not hc3_path.exists():
            raise DataError(f"dataset file not found: {hc3_path}")

        conllu: dict[Label, Path] = {}
        for key, label in (("human", Label.HUMAN), ("machine", Label.MACHINE)):
            value = _section(dataset, "conllu", {}).get(key)
            if value is not None:
                path = resolve(str(value))
                if not path.exists():
                    raise DataError(f"CoNLL-U file not found: {path}")
                conllu[label] = path

        fractions = _typed("split", _section(raw, "split", {}),
                           {"train": 0.8, "val": 0.1, "test": 0.1})
        try:
            split_spec = ingest.SplitSpec(
                train_frac=fractions["train"],
                val_frac=fractions["val"],
                test_frac=fractions["test"],
                seed=derive_seed(seed, "split"),
            )
        except DataError as exc:
            raise ConfigError(f"invalid split spec: {exc}") from exc

        emb_raw = _section(raw, "embeddings", {"source": "train"})
        source = emb_raw.get("source")
        if source not in ("train", "load"):
            raise ConfigError("embeddings.source must be 'train' or 'load'")
        embedding_path: Path | None = None
        if source == "load":
            if "path" not in emb_raw:
                raise ConfigError("embeddings.source 'load' needs embeddings.path")
            embedding_path = resolve(str(emb_raw["path"]))
            if not embedding_path.exists():
                raise DataError(f"embedding file not found: {embedding_path}")
        params = _typed("embeddings", emb_raw, SKIPGRAM_DEFAULTS)

        classifier = raw.get("classifier")
        if classifier is not None:
            if not isinstance(classifier, dict) or "family" not in classifier:
                raise ConfigError("classifier section needs a 'family'")
            if classifier["family"] not in CLASSIFIER_FAMILIES:
                raise ConfigError(
                    f"unknown classifier family {classifier['family']!r}; "
                    f"expected one of {CLASSIFIER_FAMILIES}"
                )

        zs = _section(raw, "zeroshot")
        zeroshot_cfg = ZeroshotConfig.from_dict(zs) if zs is not None else None

        if not isinstance(raw.get("transforms", []), list):
            raise ConfigError("transforms must be a list")
        transforms = []
        seen: set[str] = set()
        for i, t in enumerate(raw.get("transforms", [])):
            try:
                tf = evaluation.AdversarialTransform(
                    kind=t["kind"],
                    intensity=float(t.get("intensity", 0.1)),
                    seed=derive_seed(seed, f"transforms.{i}.{t['kind']}"),
                )
            except (KeyError, TypeError, ValueError, AttributeError, DataError) as exc:
                raise ConfigError(f"invalid transform #{i}: {exc}") from exc
            key = f"{tf.kind}@{tf.intensity}"
            if key in seen:
                raise ConfigError(f"transform #{i} repeats {key}")
            seen.add(key)
            transforms.append(tf)

        detect_method = _section(raw, "detect", {}).get("method")
        if detect_method is None:
            detect_method = "classifier" if classifier is not None else "detect_gpt"
        if detect_method not in ("classifier",) + ZEROSHOT_METHODS:
            raise ConfigError(f"unknown detect method {detect_method!r}")

        output_dir = Path(output_override) if output_override else resolve(
            str(raw.get("output_dir", "out"))
        )
        return cls(
            seed=seed,
            output_dir=output_dir,
            hc3_path=hc3_path,
            split=split_spec,
            conllu=conllu,
            embedding_source=source,
            embedding_params=params,
            embedding_path=embedding_path,
            classifier=classifier,
            zeroshot=zeroshot_cfg,
            transforms=transforms,
            detect_method=detect_method,
        )


# -- artifact IO under the output directory --


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _corpus_path(cfg: RunConfig) -> Path:
    return cfg.output_dir / "corpus.jsonl"


def _load_cached_corpus(cfg: RunConfig) -> tuple[Corpus, dict[str, list[str]]]:
    corpus_path = _corpus_path(cfg)
    splits_path = cfg.output_dir / "splits.json"
    if not corpus_path.exists() or not splits_path.exists():
        raise DataError(
            f"no ingested corpus under {cfg.output_dir}; run 'ingest' first"
        )
    docs = []
    lineno = 0
    try:
        with corpus_path.open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                rec = json.loads(line)
                if not (isinstance(rec["id"], str) and isinstance(rec["body"], str)):
                    raise TypeError("id and body must be strings")
                docs.append(Document(
                    id=rec["id"], body=rec["body"], label=Label(rec["label"]),
                    source_question=rec.get("question"),
                ))
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{corpus_path}:{lineno}: malformed record: {exc!r}") from exc
    try:
        manifest = json.loads(splits_path.read_text(encoding="utf-8"))
        splits = {name: manifest[name] for name in ("train", "val", "test")}
        if not all(isinstance(ids, list) and all(isinstance(i, str) for i in ids)
                   for ids in splits.values()):
            raise TypeError("train, val and test must be lists of document ids")
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{splits_path}: malformed split manifest: {exc!r}") from exc
    return Corpus(tuple(docs)), splits


def _split_corpora(corpus: Corpus, manifest: dict[str, list[str]]) -> dict[str, Corpus]:
    by_id = {d.id: d for d in corpus.documents}
    out = {}
    for name, ids in manifest.items():
        try:
            out[name] = Corpus(tuple(by_id[i] for i in ids))
        except KeyError as exc:
            raise DataError(f"split manifest references unknown id {exc}") from exc
    return out


# -- commands --


def cmd_ingest(cfg: RunConfig) -> int:
    corpus = ingest.load_hc3(cfg.hc3_path)
    if not corpus.documents:
        raise DataError(f"{cfg.hc3_path}: no documents survived ingestion")
    train, val, test = ingest.split(corpus, cfg.split)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    with _corpus_path(cfg).open("w", encoding="utf-8") as fh:
        for d in corpus.documents:
            fh.write(json.dumps(
                {"id": d.id, "label": d.label.value, "body": d.body,
                 "question": d.source_question},
                sort_keys=True,
            ) + "\n")
    _write_json(cfg.output_dir / "splits.json", {
        "seed": cfg.split.seed,
        "fractions": {"train": cfg.split.train_frac, "val": cfg.split.val_frac,
                      "test": cfg.split.test_frac},
        "train": [d.id for d in train.documents],
        "val": [d.id for d in val.documents],
        "test": [d.id for d in test.documents],
    })
    print(f"documents: {len(corpus)}")
    print(f"class_counts: human={corpus.class_counts[Label.HUMAN]} "
          f"machine={corpus.class_counts[Label.MACHINE]}")
    print(f"splits: train={len(train)} val={len(val)} test={len(test)}")
    return EXIT_OK


def cmd_stats(cfg: RunConfig) -> int:
    corpus, _ = _load_cached_corpus(cfg)
    parses = None
    if cfg.conllu:
        parses = {
            label: ingest.load_conllu(path) for label, path in cfg.conllu.items()
        }
    report = corpus_stats.corpus_report(corpus, parses=parses)
    _write_json(cfg.output_dir / "stats.json", report.to_dict())
    print(f"stats written to {cfg.output_dir / 'stats.json'}")
    return EXIT_OK


def _embedding_matrix(cfg: RunConfig, train_texts: list[str]) -> embeddings.EmbeddingMatrix:
    if cfg.embedding_source == "load":
        return embeddings.load_vectors(cfg.embedding_path)
    config = embeddings.SkipGramConfig(
        **cfg.embedding_params, seed=derive_seed(cfg.seed, "embeddings")
    )
    return embeddings.train_skipgram(train_texts, config)


def _dataset_from(corpus_docs, emb) -> classifiers.Dataset:
    feats = np.stack([
        embeddings.doc_vector(d.body, emb).values for d in corpus_docs
    ])
    labels = np.array([1 if d.label == Label.MACHINE else 0 for d in corpus_docs])
    return classifiers.Dataset(
        features=feats, labels=labels, ids=tuple(d.id for d in corpus_docs)
    )


def _train_classifier(cfg: RunConfig, data: classifiers.Dataset):
    section = cfg.classifier
    family = section["family"]
    seed = derive_seed(cfg.seed, "classifier")
    if family == "logreg":
        return classifiers.train_logreg(
            data,
            l2=float(section.get("l2", 1e-4)),
            epochs=int(section.get("epochs", 150)),
            lr=float(section.get("lr", 0.5)),
            seed=seed,
        )
    if family == "gnb":
        if section.get("tune", False):
            smoothing = classifiers.tune_gnb(
                data, budget=int(section.get("budget", 20)), seed=seed
            )
        else:
            smoothing = float(section.get("var_smoothing", 1e-9))
        return classifiers.train_gnb(data, var_smoothing=smoothing)
    if family == "svm":
        return classifiers.train_linear_svm(
            data,
            lam=float(section.get("lambda", 1e-3)),
            epochs=int(section.get("epochs", 50)),
            seed=seed,
        )
    if family == "random_forest":
        return classifiers.train_random_forest(
            data,
            n_trees=int(section.get("n_trees", 50)),
            max_depth=section.get("max_depth", 8),
            seed=seed,
        )
    raise ConfigError(f"unknown classifier family {family!r}")


def cmd_train(cfg: RunConfig) -> int:
    corpus, manifest = _load_cached_corpus(cfg)
    splits = _split_corpora(corpus, manifest)
    trained_something = False

    if cfg.classifier is not None:
        emb = _embedding_matrix(cfg, splits["train"].bodies())
        embeddings.export_vectors(emb, cfg.output_dir / "embeddings.txt")
        data = _dataset_from(splits["train"].documents, emb)
        model = _train_classifier(cfg, data)
        classifiers.save_model(model, cfg.output_dir / "model.json")
        val = _dataset_from(splits["val"].documents, emb)
        preds = [classifiers.predict(model, x) for x in val.features]
        report = evaluation.metrics(
            evaluation.confusion([p.label for p in preds], val.labels.tolist()),
            [p.score for p in preds],
            val.labels.tolist(),
        )
        print(f"classifier: {model.family}")
        for name in ("precision", "recall", "f1", "accuracy", "auroc"):
            print(f"validation {name}: {getattr(report, name):.4f}")
        trained_something = True

    if cfg.zeroshot is not None:
        machine_texts = [d.body for d in splits["train"].by_label(Label.MACHINE)]
        if not machine_texts:
            raise DataError("zeroshot training needs Machine documents in train split")
        lm = zeroshot.train_kn_lm(
            machine_texts, order=cfg.zeroshot.order, discount=cfg.zeroshot.discount
        )
        zeroshot.save_lm(lm, cfg.output_dir / "lm.json")
        ppl = zeroshot.perplexity(lm, machine_texts)
        print(f"lm: order={lm.order} vocab={lm.vocabulary.size} "
              f"train_perplexity={ppl:.3f}")
        trained_something = True

    if not trained_something:
        raise ConfigError("config has neither a classifier nor a zeroshot section")
    return EXIT_OK


def _method_scorers(
    cfg: RunConfig, methods: list[str], val: Corpus | None = None
) -> list[tuple[evaluation.DetectorScorer, zeroshot.NGramLM | None]]:
    """Build the unified scorers for the requested methods, each paired
    with its language model (None for classifiers) so callers can account
    for scoring passes. Zeroshot thresholds come from the validation
    Youden point when *val* is given.
    """
    scorers: list[tuple[evaluation.DetectorScorer, zeroshot.NGramLM | None]] = []
    zs = cfg.zeroshot or ZeroshotConfig.from_dict({})
    lm: zeroshot.NGramLM | None = None
    for method in methods:
        if method == "classifier":
            model_path = cfg.output_dir / "model.json"
            emb_path = cfg.output_dir / "embeddings.txt"
            if not model_path.exists() or not emb_path.exists():
                raise DataError(
                    f"missing trained model under {cfg.output_dir}; run 'train' first"
                )
            model = classifiers.load_model(model_path)
            emb = embeddings.load_vectors(emb_path)

            def clf_score(doc: Document, _m=model, _e=emb) -> float:
                return classifiers.predict(_m, embeddings.doc_vector(doc.body, _e).values).score

            scorers.append((
                evaluation.DetectorScorer(
                    name=f"classifier:{model.family}", score_fn=clf_score,
                    threshold=model.threshold,
                ),
                None,
            ))
            continue
        if lm is None:
            lm_path = cfg.output_dir / "lm.json"
            if not lm_path.exists():
                raise DataError(
                    f"missing trained language model under {cfg.output_dir}; run 'train' first"
                )
            lm = zeroshot.load_lm(lm_path)
            # One config, and so one substitution sampler, for every method
            # and document of this command.
            base = zeroshot.PerturbConfig(
                pool=lm.vocabulary,
                mask_fraction=zs.mask_fraction,
                seed=derive_seed(cfg.seed, "zeroshot.perturb"),
            )
        if method == "detect_gpt":
            score_fn, pcfg = zeroshot.detect_gpt_score, replace(base, k=max(2, zs.k))
        else:
            score_fn, pcfg = zeroshot.single_revise_score, replace(base, k=1)

        def zs_score(doc: Document, _f=score_fn, _lm=lm, _c=pcfg) -> float:
            return _f(_lm, doc, _c).d

        threshold = zs.threshold
        if val is not None:
            labels = [1 if d.label == Label.MACHINE else 0 for d in val.documents]
            scores = [zs_score(d) for d in val.documents]
            threshold = evaluation.youden_threshold(scores, labels)
        scorers.append((
            evaluation.DetectorScorer(name=method, score_fn=zs_score, threshold=threshold),
            lm,
        ))
    return scorers


def cmd_detect(cfg: RunConfig, input_path: str, method: str | None,
               debug: bool = False) -> int:
    method = method or cfg.detect_method
    path = Path(input_path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    scorer, lm = _method_scorers(cfg, [method])[0]
    passes_before = lm.scoring_passes if lm else 0
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["id", "score", "label", "method"])
    n_docs = 0
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                body = ingest.normalize(text)
                doc = Document(id=str(lineno), body=body, label=Label.HUMAN)
                score = scorer.score_fn(doc)
            except DataError as exc:
                print(f"skipping line {lineno}: {exc}", file=sys.stderr)
                continue
            label = "machine" if score >= scorer.threshold else "human"
            writer.writerow([lineno, repr(score), label, scorer.name])
            n_docs += 1
    if debug and n_docs and lm is not None:
        passes = lm.scoring_passes - passes_before
        print(
            f"debug: lm scoring passes = {passes} "
            f"({n_docs} docs, {passes / n_docs:.1f} per doc)",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_evaluate(cfg: RunConfig) -> int:
    corpus, manifest = _load_cached_corpus(cfg)
    splits = _split_corpora(corpus, manifest)
    test = splits["test"]
    if test.class_counts[Label.HUMAN] == 0 or test.class_counts[Label.MACHINE] == 0:
        raise DataError("test split must contain both classes")

    methods: list[str] = []
    if cfg.classifier is not None and (cfg.output_dir / "model.json").exists():
        methods.append("classifier")
    if cfg.zeroshot is not None and (cfg.output_dir / "lm.json").exists():
        methods.extend(cfg.zeroshot.methods)
    if not methods:
        raise DataError("nothing to evaluate; run 'train' first")

    scorers = _method_scorers(cfg, methods, val=splits["val"])
    metrics_payload: dict[str, dict] = {}
    robustness_payload: dict[str, dict] = {}
    for scorer, _ in scorers:
        report = evaluation.robustness_report(scorer, test, cfg.transforms)
        metrics_payload[scorer.name] = {
            "threshold": scorer.threshold,
            **report.before.to_dict(),
        }
        robustness_payload[scorer.name] = report.to_dict()
        _write_robustness_csv(cfg, scorer.name, report, len(scorers) > 1)
        print(f"[{scorer.name}] threshold={scorer.threshold:.4f}")
        for name in ("precision", "recall", "f1", "accuracy", "auroc"):
            print(f"[{scorer.name}] test {name}: {getattr(report.before, name):.4f}")
    _write_json(cfg.output_dir / "metrics.json", {"methods": metrics_payload})
    _write_json(cfg.output_dir / "robustness.json", {"methods": robustness_payload})
    return EXIT_OK


def _write_robustness_csv(cfg: RunConfig, name: str,
                          report: evaluation.RobustnessReport, multi: bool) -> None:
    safe = name.replace(":", "_")
    fname = f"robustness_{safe}.csv" if multi else "robustness.csv"
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["transform", "metric", "before", "after", "delta"])
    for key, entry in report.per_transform.items():
        for metric in ("precision", "recall", "f1", "accuracy", "auroc"):
            writer.writerow([
                key, metric,
                repr(entry["before"][metric]),
                repr(entry["after"][metric]),
                repr(entry["delta"][metric]),
            ])
    (cfg.output_dir / fname).write_text(out.getvalue(), encoding="utf-8")


# -- entry point --


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgtdetect",
        description="Machine-generated text detection pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("ingest", "stats", "train", "detect", "evaluate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--output", default=None, help="override the output directory")
        p.add_argument("--seed", type=int, default=None, help="override the global seed")
        if name == "detect":
            p.add_argument("input", help="plain-text file, one document per line")
            p.add_argument("--method", default=None,
                           choices=("classifier",) + ZEROSHOT_METHODS)
            p.add_argument("--debug", action="store_true",
                           help="print scoring-pass accounting to stderr")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = RunConfig.from_file(args.config, args.output, args.seed)
        if args.command == "ingest":
            return cmd_ingest(cfg)
        if args.command == "stats":
            return cmd_stats(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "detect":
            return cmd_detect(cfg, args.input, args.method, args.debug)
        if args.command == "evaluate":
            return cmd_evaluate(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
