"""Config-driven command line: ingest, stats, train, detect, evaluate.

One global seed in the config deterministically derives every module seed
(SHA-256 over the field path), so a single knob reproduces an entire
experiment. All outputs land under the output directory with fixed names:
splits.json, stats.json, model.json, lm.json and its binary copy lm.bin,
metrics.json, robustness.json.

Exit codes: 0 success, 2 config error, 3 data/model error, 4 IO error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

# classifiers, corpus_stats, embeddings, evaluation and sections are
# imported where they are used, so that a process pays only for the families
# its command runs: a config's classifier, embeddings and transforms sections
# are read through sections alone, only train, evaluate and a classifier
# detect import the classifier and skip-gram code, and only train with a
# classifier and evaluate import the metrics and attacks.
from . import ingest, zeroshot
from .errors import ConfigError, DataError, load_json, parse_json, read_lines
from .ingest import Corpus, DetectorScorer, Document, Label
from .synthetic import stable_seed as derive_seed  # SHA-256 over 'root/path'

if TYPE_CHECKING:
    from . import classifiers, embeddings, sections

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_IO = 4

# The split keys with their defaults, typed by the rule of `_as`. The keys
# and defaults of every other section are its module's.
SPLIT_DEFAULTS = {"train": 0.8, "val": 0.1, "test": 0.1}
# The top-level config keys; every other object's keys are named where it
# is read, and _object refuses any other key.
TOP_KEYS = ("seed", "output_dir", "dataset", "split", "embeddings", "classifier", "zeroshot",
            "transforms", "detect")


def _object(value, path: str, keys) -> dict:
    """*value*, which must be a JSON object holding only *keys*; *path*
    names it in errors (empty for the whole config)."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path or 'config'} must be an object")
    for key in value:
        if key not in keys:
            name = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown config key {name!r}")
    return value


def _section(raw: dict, path: str, keys, default=None) -> dict | None:
    """The object under the last name of *path* in *raw*, held to *keys* by
    _object; *default* when absent or null."""
    value = raw.get(path.rpartition(".")[2])
    return default if value is None else _object(value, path, keys)


def _as(kind: type, value, name: str):
    """*value* as a bool, int or float config value. A boolean is never a
    number, only a boolean is a boolean, and a fraction is never an
    integer; numeric strings and integral floats convert."""
    try:
        if isinstance(value, bool) != (kind is bool):
            raise TypeError
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be {kind.__name__}, got {value!r}") from None


def _typed(section: str, raw: dict, defaults: dict, nullable: tuple[str, ...] = ()) -> dict:
    """Each key of *defaults*, read from *raw* and typed as its default; a
    key in *nullable* may also be null."""
    out = {}
    for key, default in defaults.items():
        value = raw.get(key, default)
        nulled = value is None and key in nullable
        out[key] = None if nulled else _as(type(default), value, f"{section}.{key}")
    return out


def _detector(section: str, value, keys: Callable, check: Callable) -> dict:
    """The detector section *value*, typed as its module declares it: its
    choice, the keys it reads and those that may be null by keys(value),
    absent keys at their defaults, and their ranges by check. The
    module's DataError is a ConfigError."""
    if not isinstance(value, dict):
        raise ConfigError(f"{section} must be an object")
    try:
        choice, defaults, nullable = keys(value)
        typed = _typed(section, _object(value, section, (*choice, *defaults)), defaults,
                       nullable)
        check(typed)
    except DataError as exc:
        raise ConfigError(f"invalid {section} section: {exc}") from exc
    return {**choice, **typed}


@dataclass
class RunConfig:
    seed: int
    output_dir: Path
    hc3_path: Path
    split: ingest.SplitSpec
    conllu: dict[Label, Path]
    # Skip-gram training, or with embeddings.source "load" the vectors'
    # path; both None with no embeddings and no classifier section.
    skipgram: sections.SkipGramConfig | None
    embedding_path: Path | None
    classifier: dict | None  # _detector's typed sections
    zeroshot: dict | None
    transforms: list[sections.AdversarialTransform]
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
        raw = _object(load_json(config_path, ConfigError), "", TOP_KEYS)
        base = config_path.parent

        def resolve(value, name: str) -> Path:
            """The path string *value*, relative to the config's directory."""
            if not isinstance(value, str):
                raise ConfigError(f"{name} must be a path string, got {value!r}")
            path = Path(value)
            return path if path.is_absolute() else base / path

        if seed_override is None and "seed" not in raw:
            raise ConfigError("config missing required field 'seed'")
        seed = _as(int, raw["seed"] if seed_override is None else seed_override, "seed")

        dataset = _section(raw, "dataset", ("hc3_path", "conllu"), {})
        if "hc3_path" not in dataset:
            raise ConfigError("config needs dataset.hc3_path")
        hc3_path = resolve(dataset["hc3_path"], "dataset.hc3_path")
        if not hc3_path.exists():
            raise DataError(f"dataset file not found: {hc3_path}")

        conllu: dict[Label, Path] = {}
        conllu_raw = _section(dataset, "dataset.conllu", ("human", "machine"), {})
        for key, label in (("human", Label.HUMAN), ("machine", Label.MACHINE)):
            value = conllu_raw.get(key)
            if value is not None:
                path = resolve(value, f"dataset.conllu.{key}")
                if not path.exists():
                    raise DataError(f"CoNLL-U file not found: {path}")
                conllu[label] = path

        fractions = _typed("split", _section(raw, "split", SPLIT_DEFAULTS, {}), SPLIT_DEFAULTS)
        try:
            split_spec = ingest.SplitSpec(
                train_frac=fractions["train"],
                val_frac=fractions["val"],
                test_frac=fractions["test"],
                seed=derive_seed(seed, "split"),
            )
        except DataError as exc:
            raise ConfigError(f"invalid split spec: {exc}") from exc

        skipgram, embedding_path = None, None
        if raw.get("embeddings") is not None or raw.get("classifier") is not None:
            from . import sections

            defaults = sections.SKIPGRAM_DEFAULTS
            emb_raw = _section(raw, "embeddings", ("source", "path", *defaults), {})
            source = emb_raw.get("source", "train")
            if source not in ("train", "load"):
                raise ConfigError("embeddings.source must be 'train' or 'load'")
            if source == "load":
                if "path" not in emb_raw:
                    raise ConfigError("embeddings.source 'load' needs embeddings.path")
                embedding_path = resolve(emb_raw["path"], "embeddings.path")
                if not embedding_path.exists():
                    raise DataError(f"embedding file not found: {embedding_path}")
            elif "path" in emb_raw:
                raise ConfigError("embeddings.path needs embeddings.source 'load'")
            try:
                skipgram = sections.SkipGramConfig(
                    **_typed("embeddings", emb_raw, defaults),
                    seed=derive_seed(seed, "embeddings"),
                )
            except DataError as exc:
                raise ConfigError(f"invalid embeddings section: {exc}") from exc

        classifier = raw.get("classifier")
        if classifier is not None:
            from . import sections

            classifier = _detector("classifier", classifier, sections.section_keys,
                                   sections.check_hyperparameters)
        zeroshot_cfg = raw.get("zeroshot")
        if zeroshot_cfg is not None:
            zeroshot_cfg = _detector("zeroshot", zeroshot_cfg, zeroshot.section_keys,
                                     zeroshot.check_parameters)

        if not isinstance(raw.get("transforms", []), list):
            raise ConfigError("transforms must be a list")
        transforms = []
        seen: set[str] = set()
        for i, t in enumerate(raw.get("transforms", [])):
            from . import sections

            _object(t, f"transforms.{i}", ("kind", "intensity"))
            try:
                tf = sections.AdversarialTransform(
                    kind=t["kind"],
                    intensity=_as(float, t.get("intensity", 0.1), f"transforms.{i}.intensity"),
                    seed=derive_seed(seed, f"transforms.{i}.{t['kind']}"),
                )
            except (KeyError, TypeError, ValueError, AttributeError, DataError) as exc:
                raise ConfigError(f"invalid transform #{i}: {exc}") from exc
            key = f"{tf.kind}@{tf.intensity}"
            if key in seen:
                raise ConfigError(f"transform #{i} repeats {key}")
            seen.add(key)
            transforms.append(tf)

        detect_method = _section(raw, "detect", ("method",), {}).get("method")
        if detect_method is None:
            # The first detector the config names.
            detect_method = ("classifier" if classifier is not None
                             else zeroshot_cfg["methods"][0] if zeroshot_cfg is not None
                             else zeroshot.DEFAULT_METHOD)
        if detect_method not in ("classifier", *zeroshot.METHODS):
            raise ConfigError(f"unknown detect method {detect_method!r}")

        output_dir = Path(output_override) if output_override else resolve(
            raw.get("output_dir", "out"), "output_dir"
        )
        return cls(
            seed=seed,
            output_dir=output_dir,
            hc3_path=hc3_path,
            split=split_spec,
            conllu=conllu,
            skipgram=skipgram,
            embedding_path=embedding_path,
            classifier=classifier,
            zeroshot=zeroshot_cfg,
            transforms=transforms,
            detect_method=detect_method,
        )


# -- artifact IO under the output directory --


@contextmanager
def _staged(output_dir: Path) -> Iterator[Callable[[str], Path]]:
    """Write a command's files all or none: stage(name) is the temporary
    path in *output_dir* to write the file *name* to. Once the block ends
    without an error every staged file is renamed to its name; on any error
    the staged files are removed, so every file in *output_dir* is as it
    was before the command.
    """
    output_dir.mkdir(parents=True, exist_ok=True)
    staged: dict[Path, Path] = {}

    def stage(name: str) -> Path:
        path = output_dir / f".{name}.tmp"
        staged[path] = output_dir / name
        return path

    try:
        yield stage
    except BaseException:
        for path in staged:
            path.unlink(missing_ok=True)
        raise
    for path, final in staged.items():
        path.replace(final)


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _artifact(cfg: RunConfig, name: str, command: str) -> Path:
    """The file *name* under the output directory, which *command* writes;
    DataError when it is missing."""
    path = cfg.output_dir / name
    if not path.exists():
        raise DataError(f"missing {path}; run '{command}' first")
    return path


def _load_cached_corpus(cfg: RunConfig) -> tuple[Corpus, dict[str, list[str]]]:
    corpus_path = _artifact(cfg, "corpus.jsonl", "ingest")
    splits_path = _artifact(cfg, "splits.json", "ingest")
    docs = []
    for lineno, line in read_lines(corpus_path):
        rec = parse_json(line, f"{corpus_path}:{lineno}")
        try:
            if not (isinstance(rec["id"], str) and isinstance(rec["body"], str)):
                raise TypeError("id and body must be strings")
            docs.append(Document(
                id=rec["id"], body=rec["body"], label=Label(rec["label"]),
                source_question=rec.get("question"),
            ))
        except (ValueError, KeyError, TypeError) as exc:
            raise DataError(f"{corpus_path}:{lineno}: malformed record: {exc!r}") from exc
    manifest = load_json(splits_path)
    try:
        splits = {name: manifest[name] for name in ("train", "val", "test")}
        if not all(isinstance(ids, list) and all(isinstance(i, str) for i in ids)
                   for ids in splits.values()):
            raise TypeError("train, val and test must be lists of document ids")
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{splits_path}: malformed split manifest: {exc!r}") from exc
    return Corpus(tuple(docs)), splits


def _split_corpora(corpus: Corpus, manifest: dict[str, list[str]]) -> dict[str, Corpus]:
    """Each split of *manifest* as a corpus; DataError for an id the corpus
    lacks or one the manifest lists twice, in two splits or in one."""
    by_id = {d.id: d for d in corpus.documents}
    split_of: dict[str, str] = {}
    out = {}
    for name, ids in manifest.items():
        for i in ids:
            if i in split_of:
                raise DataError(f"split manifest lists document {i!r} in {split_of[i]} "
                                f"and again in {name}")
            split_of[i] = name
        try:
            out[name] = Corpus(tuple(by_id[i] for i in ids))
        except KeyError as exc:
            raise DataError(f"split manifest references unknown id {exc}") from exc
    return out


# -- detectors: trained artifacts as scorers --


def _classifier_scorer(model: classifiers.AnyModel,
                       emb: embeddings.EmbeddingMatrix) -> DetectorScorer:
    from . import classifiers, embeddings

    def score(doc: Document) -> float:
        return classifiers.predict(model, embeddings.doc_vector(doc.body, emb).values).score

    return DetectorScorer(
        name=f"classifier:{model.family}", score_fn=score, threshold=model.threshold
    )


def _load_classifier_scorer(cfg: RunConfig) -> DetectorScorer:
    from . import classifiers, embeddings

    model_path = _artifact(cfg, "model.json", "train")
    emb_path = _artifact(cfg, "embeddings.txt", "train")
    model = classifiers.load_model(model_path)
    emb = embeddings.load_vectors(emb_path)
    if emb.dim != model.dim:
        raise DataError(
            f"{model_path}: model dimension {model.dim} != embedding "
            f"dimension {emb.dim} of {emb_path}"
        )
    return _classifier_scorer(model, emb)


def _zeroshot_scorers(cfg: RunConfig, lm: zeroshot.NGramLM,
                      methods: tuple[str, ...]) -> list[DetectorScorer]:
    """One scorer per method, each cut at the config threshold."""
    return zeroshot.scorers(lm, methods, cfg.zeroshot, derive_seed(cfg.seed, "zeroshot.perturb"))


# -- commands --


def cmd_ingest(cfg: RunConfig) -> int:
    corpus = ingest.load_hc3(cfg.hc3_path)
    if not corpus.documents:
        raise DataError(f"{cfg.hc3_path}: no documents survived ingestion")
    train, val, test = ingest.split(corpus, cfg.split)
    with _staged(cfg.output_dir) as stage:
        with stage("corpus.jsonl").open("w", encoding="utf-8") as fh:
            for d in corpus.documents:
                fh.write(json.dumps(
                    {"id": d.id, "label": d.label.value, "body": d.body,
                     "question": d.source_question},
                    sort_keys=True,
                ) + "\n")
        _write_json(stage("splits.json"), {
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
    from . import corpus_stats

    corpus, _ = _load_cached_corpus(cfg)
    parses = {label: ingest.load_conllu(path) for label, path in cfg.conllu.items()}
    report = corpus_stats.corpus_report(corpus, parses=parses or None)
    with _staged(cfg.output_dir) as stage:
        _write_json(stage("stats.json"), report)
    print(f"stats written to {cfg.output_dir / 'stats.json'}")
    return EXIT_OK


def _dataset_from(corpus_docs, emb) -> classifiers.Dataset:
    from . import classifiers, embeddings

    feats = np.stack([
        embeddings.doc_vector(d.body, emb).values for d in corpus_docs
    ])
    labels = np.array([1 if d.label == Label.MACHINE else 0 for d in corpus_docs])
    return classifiers.Dataset(
        features=feats, labels=labels, ids=tuple(d.id for d in corpus_docs)
    )


def cmd_train(cfg: RunConfig) -> int:
    """Train every configured model, then write the artifacts: a model that
    fails to train, or a file that fails to write, leaves embeddings.txt,
    model.json, lm.json and lm.bin as they were, never a new file beside
    an old one."""
    if cfg.classifier is None and cfg.zeroshot is None:
        raise ConfigError("config has neither a classifier nor a zeroshot section")
    corpus, manifest = _load_cached_corpus(cfg)
    splits = _split_corpora(corpus, manifest)

    if cfg.classifier is not None:
        from . import classifiers, embeddings, evaluation

        emb = (embeddings.load_vectors(cfg.embedding_path) if cfg.embedding_path
               else embeddings.train_skipgram(splits["train"].bodies(), cfg.skipgram))
        train = classifiers.TRAINERS[cfg.classifier["family"]]
        model = train(_dataset_from(splits["train"].documents, emb), cfg.classifier,
                      derive_seed(cfg.seed, "classifier"))
        report = evaluation.evaluate(_classifier_scorer(model, emb), splits["val"].documents)
    if cfg.zeroshot is not None:
        machine_texts = [d.body for d in splits["train"].by_label(Label.MACHINE)]
        if not machine_texts:
            raise DataError("zeroshot training needs Machine documents in train split")
        lm = zeroshot.train(machine_texts, cfg.zeroshot)

    with _staged(cfg.output_dir) as stage:
        if cfg.classifier is not None:
            embeddings.export_vectors(emb, stage("embeddings.txt"))
            classifiers.save_model(model, stage("model.json"))
        if cfg.zeroshot is not None:
            lm_json = stage("lm.json")
            zeroshot.save_lm(lm, lm_json)
            zeroshot.save_lm_bin(lm, stage("lm.bin"), lm_json)
    if cfg.classifier is not None:
        print(f"classifier: {model.family}")
        for name in evaluation.METRIC_NAMES:
            print(f"validation {name}: {getattr(report, name):.4f}")
    if cfg.zeroshot is not None:
        print(f"lm: order={lm.order} vocab={lm.vocabulary.size} "
              f"train_perplexity={lm.train_perplexity:.3f}")
    return EXIT_OK


def cmd_detect(cfg: RunConfig, input_path: str, method: str | None,
               debug: bool = False) -> int:
    method = method or cfg.detect_method
    section = "classifier" if method == "classifier" else "zeroshot"
    if getattr(cfg, section) is None:
        raise ConfigError(f"detect method {method!r} needs a {section} section")
    path = Path(input_path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    # Decoded in full before any output; held, not read again, so that a
    # pipe works too.
    lines = list(read_lines(path))
    if method == "classifier":
        lm, scorer = None, _load_classifier_scorer(cfg)
    else:
        lm = zeroshot.load_lm_fast(_artifact(cfg, "lm.json", "train"))
        [scorer] = _zeroshot_scorers(cfg, lm, (method,))
    passes_before = lm.scoring_passes if lm else 0
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["id", "score", "label", "method"])
    n_docs = 0
    for lineno, line in lines:
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
        label = "machine" if scorer.label(score) else "human"
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
    from . import evaluation

    if cfg.classifier is None and cfg.zeroshot is None:
        raise ConfigError("config has neither a classifier nor a zeroshot section")
    corpus, manifest = _load_cached_corpus(cfg)
    splits = _split_corpora(corpus, manifest)
    test = splits["test"]
    if test.class_counts[Label.HUMAN] == 0 or test.class_counts[Label.MACHINE] == 0:
        raise DataError("test split must contain both classes")

    scorers: list[DetectorScorer] = []
    if cfg.classifier is not None:
        scorers.append(_load_classifier_scorer(cfg))
    if cfg.zeroshot is not None:
        lm = zeroshot.load_lm_fast(_artifact(cfg, "lm.json", "train"))
        val = splits["val"].documents
        labels = [1 if d.label == Label.MACHINE else 0 for d in val]
        for scorer in _zeroshot_scorers(cfg, lm, cfg.zeroshot["methods"]):
            threshold = evaluation.youden_threshold([scorer.score_fn(d) for d in val], labels)
            scorers.append(replace(scorer, threshold=threshold))

    metrics_payload: dict[str, dict] = {}
    robustness_payload: dict[str, dict] = {}
    with _staged(cfg.output_dir) as stage:
        for scorer in scorers:
            report = evaluation.robustness_report(scorer, test, cfg.transforms)
            metrics_payload[scorer.name] = {"threshold": scorer.threshold, **report["before"]}
            robustness_payload[scorer.name] = report
            safe = scorer.name.replace(":", "_")
            fname = f"robustness_{safe}.csv" if len(scorers) > 1 else "robustness.csv"
            _write_robustness_csv(stage(fname), report)
            print(f"[{scorer.name}] threshold={scorer.threshold:.4f}")
            for name in evaluation.METRIC_NAMES:
                print(f"[{scorer.name}] test {name}: {report['before'][name]:.4f}")
        _write_json(stage("metrics.json"), {"methods": metrics_payload})
        _write_json(stage("robustness.json"), {"methods": robustness_payload})
    return EXIT_OK


def _write_robustness_csv(path: Path, report: dict) -> None:
    from . import evaluation

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    columns = ("before", "after", "delta")
    writer.writerow(["transform", "metric", *columns])
    for key, entry in report["transforms"].items():
        for metric in evaluation.METRIC_NAMES:
            writer.writerow([key, metric, *(repr(entry[c][metric]) for c in columns)])
    path.write_text(out.getvalue(), encoding="utf-8")


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
                           choices=("classifier", *zeroshot.METHODS))
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
