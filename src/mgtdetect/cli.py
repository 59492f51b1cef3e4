"""Config-driven command line: ingest, stats, train, detect, evaluate.

One global seed in the config deterministically derives every module seed
(SHA-256 over the field path), so a single knob reproduces an entire
experiment. All outputs land under the output directory with fixed names:
splits.json, stats.json, model.json, lm.json and its binary copy (zeroshot.save_lm),
metrics.json, robustness.json and one robustness_<detector>.csv per detector.

Exit codes: 0 success, 2 config error, 3 data/model error, 4 IO error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import tempfile
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import TYPE_CHECKING

# numpy, classifiers, corpus_stats, embeddings, evaluation and zeroshot are
# imported where they are used, so that a process pays only for the families
# its command runs: every config section is read through sections alone, so
# ingest and stats import no numpy; only train, evaluate and detect import
# the detectors, only train, evaluate and a classifier detect the classifier
# and skip-gram code, and only train with a classifier and evaluate the
# metrics and attacks.
from . import ingest, sections
from .errors import ConfigError, DataError, json_keys, load_json, parse_json, read_lines
from .ingest import Corpus, DetectorScorer, Document, Label
from .sections import stable_seed as derive_seed  # SHA-256 over 'root/path'

if TYPE_CHECKING:
    from . import classifiers, embeddings, zeroshot

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_IO = 4

# The split keys with their defaults, typed by the rule of `_as`. The keys
# and defaults of every other section are its module's.
SPLIT_DEFAULTS = {"train": 0.8, "val": 0.1, "test": 0.1}
# The top-level config keys; every other object's keys are named where it
# is read, and _read refuses any other key.
TOP_KEYS = ("seed", "output_dir", "dataset", "split", "embeddings", "classifier", "zeroshot",
            "transforms")
# The keys of ingest's corpus.jsonl records and splits.json (_load_splits).
RECORD_KEYS = {"body", "id", "label", "question"}
MANIFEST_KEYS = ("fractions", "seed", "test", "train", "val")


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


def _keys(as_is: tuple[str, ...] = (), defaults: dict | None = None) -> Callable:
    """The keys function of an object that makes no choice: those of
    *as_is* it holds, with their values, and the typed keys *defaults*."""
    return lambda value: ({k: value[k] for k in as_is if k in value}, defaults or {}, ())


def _checked(check: Callable) -> Callable:
    """The build of a detector section: its typed keys held to their ranges
    by *check*, and the whole section as one dict."""
    return lambda choice, typed: check(typed) or {**choice, **typed}


def _read(value, path: str, keys: Callable,
          build: Callable = lambda choice, typed: {**choice, **typed}):
    """The config object *value* at *path* (empty for the whole config; null
    reads as an empty object), as build(choice, typed) makes it.

    keys(value) gives the keys taken as they are, with their values (a
    choice such as the classifier family, or a path), the typed keys with
    their defaults, and the typed keys that may also be null. Any other key
    is refused; an absent typed key takes its default, and each is typed by
    _as. A DataError of keys or build is a ConfigError naming *path*."""
    value = {} if value is None else value
    if not isinstance(value, dict):
        raise ConfigError(f"{path or 'config'} must be an object")
    try:
        choice, defaults, nullable = keys(value)
        for key in value:
            if key not in choice and key not in defaults:
                name = f"{path}.{key}" if path else key
                raise ConfigError(f"unknown config key {name!r}")
        typed = {}
        for key, default in defaults.items():
            got = value.get(key, default)
            nulled = got is None and key in nullable
            typed[key] = None if nulled else _as(type(default), got, f"{path}.{key}")
        return build(choice, typed)
    except DataError as exc:
        raise ConfigError(f"invalid {path}: {exc}") from exc


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
    classifier: dict | None  # _read's typed detector sections
    zeroshot: dict | None
    transforms: list[sections.AdversarialTransform]

    @property
    def detectors(self) -> tuple[str, ...]:
        """The detectors the config names: "classifier", then the zeroshot methods."""
        return ((("classifier",) if self.classifier is not None else ())
                + (self.zeroshot["methods"] if self.zeroshot is not None else ()))

    @property
    def detect_method(self) -> str:
        """detect's method without --method: the first detector, else DEFAULT_METHOD."""
        return (*self.detectors, sections.DEFAULT_METHOD)[0]

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
        raw = _read(load_json(config_path, ConfigError), "", _keys(TOP_KEYS))
        base = config_path.parent

        def resolve(value, name: str, what: str | None = None) -> Path:
            """The path string *value*, relative to the config's directory;
            a DataError when *what* names the file and no file is there (a
            directory is not one)."""
            if not isinstance(value, str):
                raise ConfigError(f"{name} must be a path string, got {value!r}")
            path = base / value  # an absolute value is kept as it is
            if what and not path.is_file():
                raise DataError(f"{what} not found: {path}")
            return path

        if seed_override is None and "seed" not in raw:
            raise ConfigError("config missing required field 'seed'")
        seed = _as(int, raw["seed"] if seed_override is None else seed_override, "seed")

        dataset = _read(raw.get("dataset"), "dataset", _keys(("hc3_path", "conllu")))
        if "hc3_path" not in dataset:
            raise ConfigError("config needs dataset.hc3_path")
        hc3_path = resolve(dataset["hc3_path"], "dataset.hc3_path", "dataset file")
        conllu = _read(dataset.get("conllu"), "dataset.conllu", _keys(("human", "machine")))
        conllu = {Label(key): resolve(value, f"dataset.conllu.{key}", "CoNLL-U file")
                  for key, value in conllu.items() if value is not None}

        split_spec = _read(raw.get("split"), "split", _keys(defaults=SPLIT_DEFAULTS),
                           lambda _, f: ingest.SplitSpec(f["train"], f["val"], f["test"],
                                                         derive_seed(seed, "split")))

        skipgram = embedding_path = classifier = None
        if raw.get("embeddings") is not None or raw.get("classifier") is not None:
            # Source "train" reads the skip-gram keys, "load" only the path.
            choice, skipgram = _read(
                raw.get("embeddings"), "embeddings", sections.embedding_keys,
                lambda choice, typed: (choice, sections.SkipGramConfig(
                    **typed, seed=derive_seed(seed, "embeddings")) if typed else None))
            if choice["source"] == "load":
                embedding_path = resolve(choice["path"], "embeddings.path", "embedding file")
            if raw.get("classifier") is not None:
                classifier = _read(raw["classifier"], "classifier", sections.classifier_keys,
                                   _checked(sections.check_hyperparameters))

        zeroshot_cfg = raw.get("zeroshot")
        if zeroshot_cfg is not None:
            zeroshot_cfg = _read(zeroshot_cfg, "zeroshot", sections.zeroshot_keys,
                                 _checked(sections.check_parameters))

        if not isinstance(raw.get("transforms", []), list):
            raise ConfigError("transforms must be a list")
        transforms = []
        seen: set[str] = set()
        for i, value in enumerate(raw.get("transforms", [])):
            tf = _read(value, f"transforms.{i}", _keys(("kind",), {"intensity": 0.1}),
                       lambda choice, typed: sections.AdversarialTransform(
                           choice.get("kind"), typed["intensity"],
                           derive_seed(seed, f"transforms.{i}.{choice.get('kind')}")))
            key = f"{tf.kind}@{tf.intensity}"
            if key in seen:
                raise ConfigError(f"transform #{i} repeats {key}")
            seen.add(key)
            transforms.append(tf)

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
        )


# -- artifact IO under the output directory --


@contextmanager
def _staged(output_dir: Path) -> Iterator[Path]:
    """Write a command's files all or none: the block writes them under
    their names to the fresh hidden directory it is given in *output_dir*,
    and only once it ends without an error are they moved into
    *output_dir*. The directory is removed either way, on an error with its
    files, so that every file in *output_dir* is as it was before."""
    output_dir.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=".staged-", dir=output_dir))
    try:
        yield stage
        for path in sorted(stage.iterdir()):
            path.replace(output_dir / path.name)
    finally:
        for path in stage.iterdir():
            path.unlink()
        stage.rmdir()


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


def _corpus_line(d: Document) -> str:
    """*d*'s corpus.jsonl line: json.dumps({"id", "label", "body", "question"},
    sort_keys=True) and a newline, formatted key by key around the string
    encoder json.dumps calls for each str value."""
    question = "null" if d.source_question is None else _json_str(d.source_question)
    return (f'{{"body": {_json_str(d.body)}, "id": {_json_str(d.id)}, '
            f'"label": "{d.label.value}", "question": {question}}}\n')


def _load_splits(cfg: RunConfig) -> tuple[Corpus, dict[str, Corpus]]:
    """The ingested corpus and each split of its manifest as a corpus;
    DataError for a malformed record or manifest, for an id the corpus
    lacks, or for one the manifest lists twice, in two splits or in one."""
    corpus_path = _artifact(cfg, "corpus.jsonl", "ingest")
    splits_path = _artifact(cfg, "splits.json", "ingest")
    docs = []
    for lineno, line in read_lines(corpus_path):
        rec = parse_json(line, f"{corpus_path}:{lineno}")
        try:
            if type(rec) is not dict or rec.keys() != RECORD_KEYS:
                raise ValueError(f"a record holds the keys {sorted(RECORD_KEYS)} and no other")
            if not (isinstance(rec["id"], str) and isinstance(rec["body"], str)
                    and isinstance(rec["question"], (str, type(None)))):
                raise TypeError("id and body must be strings, question a string or null")
            docs.append(Document(
                id=rec["id"], body=rec["body"], label=Label(rec["label"]),
                source_question=rec["question"],
            ))
        except (ValueError, KeyError, TypeError) as exc:
            raise DataError(f"{corpus_path}:{lineno}: malformed record: {exc!r}") from exc
    manifest = load_json(splits_path)
    try:
        json_keys(manifest, MANIFEST_KEYS)
        manifest = {name: manifest[name] for name in ("train", "val", "test")}
        if not all(isinstance(ids, list) and all(isinstance(i, str) for i in ids)
                   for ids in manifest.values()):
            raise TypeError("train, val and test must be lists of document ids")
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{splits_path}: malformed split manifest: {exc!r}") from exc
    by_id = {d.id: d for d in docs}
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
    return Corpus(tuple(docs)), out


# -- detectors: trained artifacts as scorers --


def _classifier_scorer(model: classifiers.AnyModel,
                       emb: embeddings.EmbeddingMatrix) -> DetectorScorer:
    from . import classifiers, embeddings

    def score(doc: Document) -> float:
        return classifiers.predict(model, embeddings.doc_vector(doc.body, emb).values)

    return DetectorScorer(
        name=f"classifier:{model.family}", score_fn=score, threshold=model.threshold
    )


def _scorers(cfg: RunConfig, methods: tuple[str, ...]
             ) -> tuple[list[DetectorScorer], zeroshot.NGramLM | None]:
    """The scorer of each of *methods*, in order, built from the trained
    artifacts and cut at the family or config threshold, and the LM the
    zero-shot ones score under (None without one)."""
    built: dict[str, DetectorScorer] = {}
    if "classifier" in methods:
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
        built["classifier"] = _classifier_scorer(model, emb)
    lm = None
    if zeroshot_methods := [m for m in methods if m != "classifier"]:
        from . import zeroshot

        lm = zeroshot.load_lm_fast(_artifact(cfg, "lm.json", "train"))
        built.update(zip(zeroshot_methods, zeroshot.scorers(
            lm, zeroshot_methods, cfg.zeroshot, derive_seed(cfg.seed, "zeroshot.perturb"))))
    return [built[m] for m in methods], lm


# -- commands --


def cmd_ingest(cfg: RunConfig) -> int:
    corpus = ingest.load_hc3(cfg.hc3_path)
    if not corpus.documents:
        raise DataError(f"{cfg.hc3_path}: no documents survived ingestion")
    train, val, test = ingest.split(corpus, cfg.split)
    with _staged(cfg.output_dir) as stage:
        with (stage / "corpus.jsonl").open("w", encoding="utf-8") as fh:
            fh.writelines(map(_corpus_line, corpus.documents))
        _write_json(stage / "splits.json", {
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

    corpus, _ = _load_splits(cfg)
    parses = {label: ingest.load_conllu(path) for label, path in cfg.conllu.items()}
    report = corpus_stats.corpus_report(corpus, parses=parses or None)
    with _staged(cfg.output_dir) as stage:
        _write_json(stage / "stats.json", report)
    print(f"stats written to {cfg.output_dir / 'stats.json'}")
    return EXIT_OK


def _dataset_from(corpus_docs, emb) -> classifiers.Dataset:
    import numpy as np

    from . import classifiers, embeddings

    feats = np.stack([
        embeddings.doc_vector(d.body, emb).values for d in corpus_docs
    ])
    labels = np.array([1 if d.label == Label.MACHINE else 0 for d in corpus_docs])
    return classifiers.Dataset(features=feats, labels=labels)


def cmd_train(cfg: RunConfig) -> int:
    """Train every configured model, then write the artifacts: a model that
    fails to train, or a file that fails to write, leaves embeddings.txt,
    model.json and lm.json with its binary copy as they were, never a new
    file beside an old one."""
    if not cfg.detectors:
        raise ConfigError("config has neither a classifier nor a zeroshot section")
    if cfg.zeroshot is not None:
        # Imported before the corpus is read: imported after it, the desk
        # train process peaked at 41.2 MB, not 38.9 MB.
        from . import zeroshot
    _, splits = _load_splits(cfg)

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
        lm = zeroshot.train_kn_lm(machine_texts, order=cfg.zeroshot["order"],
                                  discount=cfg.zeroshot["discount"])

    with _staged(cfg.output_dir) as stage:
        if cfg.classifier is not None:
            embeddings.export_vectors(emb, stage / "embeddings.txt")
            classifiers.save_model(model, stage / "model.json")
        if cfg.zeroshot is not None:
            zeroshot.save_lm(lm, stage / "lm.json")
    if cfg.classifier is not None:
        print(f"classifier: {model.family}")
        for name in evaluation.METRIC_NAMES:
            print(f"validation {name}: {report[name]:.4f}")
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
    # A directory is no input file; anything else that exists (a pipe,
    # /dev/stdin) is read.
    if not path.exists() or path.is_dir():
        raise DataError(f"input file not found: {path}")
    # Decoded in full before any output; held, not read again, so that a
    # pipe works too.
    lines = list(read_lines(path))
    [scorer], lm = _scorers(cfg, (method,))
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

    if not cfg.detectors:
        raise ConfigError("config has neither a classifier nor a zeroshot section")
    if cfg.zeroshot is not None:
        from . import zeroshot  # before the corpus is read, as in cmd_train
    _, splits = _load_splits(cfg)
    test = splits["test"]
    if test.class_counts[Label.HUMAN] == 0 or test.class_counts[Label.MACHINE] == 0:
        raise DataError("test split must contain both classes")

    scorers, _ = _scorers(cfg, cfg.detectors)
    val = splits["val"].documents
    labels = [1 if d.label == Label.MACHINE else 0 for d in val]
    for i, method in enumerate(cfg.detectors):
        if method != "classifier":  # cut at its validation Youden point
            threshold = evaluation.youden_threshold([scorers[i].score_fn(d) for d in val], labels)
            scorers[i] = replace(scorers[i], threshold=threshold)

    metrics_payload: dict[str, dict] = {}
    robustness_payload: dict[str, dict] = {}
    with _staged(cfg.output_dir) as stage:
        for scorer in scorers:
            report = evaluation.robustness_report(scorer, test, cfg.transforms)
            metrics_payload[scorer.name] = {"threshold": scorer.threshold, **report["before"]}
            robustness_payload[scorer.name] = report
            safe = scorer.name.replace(":", "_")
            _write_robustness_csv(stage / f"robustness_{safe}.csv", report)
            print(f"[{scorer.name}] threshold={scorer.threshold:.4f}")
            for name in evaluation.METRIC_NAMES:
                print(f"[{scorer.name}] test {name}: {report['before'][name]:.4f}")
        _write_json(stage / "metrics.json", {"methods": metrics_payload})
        _write_json(stage / "robustness.json", {"methods": robustness_payload})
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
                           choices=("classifier", *sections.METHODS))
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
