import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import re
import resource
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import mgtdetect
from mgtdetect import classifiers, embeddings, evaluation, ingest, sections, synthetic, zeroshot
from mgtdetect.cli import _corpus_line, derive_seed, main
from mgtdetect.errors import DataError
from mgtdetect.ingest import Document, Label
from mgtdetect.sections import HYPERPARAMETER_DEFAULTS, SKIPGRAM_DEFAULTS
from mgtdetect.sections import PARAMETER_DEFAULTS as ZEROSHOT_DEFAULTS
from mgtdetect.synthetic import write_hc3_file


def base_config(output_dir: str = "out") -> dict:
    return {
        "seed": 7,
        "output_dir": output_dir,
        "dataset": {"hc3_path": "data.jsonl"},
        "split": {"train": 0.8, "val": 0.1, "test": 0.1},
        "embeddings": {
            "source": "train", "dim": 16, "window": 3, "epochs": 2,
            "min_count": 2, "learning_rate": 0.05, "subsample": 0.01,
        },
        "classifier": {"family": "logreg", "epochs": 80},
        "zeroshot": {
            "order": 3, "discount": 0.75, "k": 3, "mask_fraction": 0.15,
            "methods": ["detect_gpt", "single_revise"],
        },
        "transforms": [
            {"kind": "case_flip", "intensity": 0.0},
            {"kind": "special_chars", "intensity": 0.2},
        ],
    }


@pytest.fixture(scope="module")
def workspace(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("cli")
    write_hc3_file(root / "data.jsonl", n_lines=40, seed=17)
    (root / "config.json").write_text(json.dumps(base_config()))
    assert main(["ingest", "--config", str(root / "config.json")]) == 0
    assert main(["train", "--config", str(root / "config.json")]) == 0
    return root


# Strings that json escapes, each in its own way, or writes unescaped.
HOSTILE = ['say "hi"', "back\\slash", "rub\x7fout", "line\u2028break", "caf\u00e9 na\u00efve",
           "smile \U0001F600 wide", "lone \ud800 half"]


def cfg_path(workspace: Path) -> str:
    return str(workspace / "config.json")


def split_documents(out: Path, name: str) -> list[Document]:
    """The documents of one split of an ingested output directory, in
    manifest order."""
    by_id = {}
    for line in (out / "corpus.jsonl").read_text().splitlines():
        rec = json.loads(line)
        by_id[rec["id"]] = Document(id=rec["id"], body=rec["body"], label=Label(rec["label"]))
    return [by_id[i] for i in json.loads((out / "splits.json").read_text())[name]]


class TestIngest:
    def test_manifest_has_three_disjoint_id_lists(self, workspace):
        manifest = json.loads((workspace / "out" / "splits.json").read_text())
        parts = [set(manifest[k]) for k in ("train", "val", "test")]
        assert all(parts)
        assert not (parts[0] & parts[1] or parts[0] & parts[2] or parts[1] & parts[2])

    def test_missing_data_file_exits_3_with_path(self, tmp_path, capsys):
        config = base_config()
        config["dataset"]["hc3_path"] = "nope.jsonl"
        (tmp_path / "config.json").write_text(json.dumps(config))
        rc = main(["ingest", "--config", str(tmp_path / "config.json")])
        assert rc == 3
        assert "nope.jsonl" in capsys.readouterr().err

    @pytest.mark.parametrize("changes, what", [
        ({"dataset__hc3_path": ""}, "dataset file"),
        ({"dataset__conllu": {"human": ""}}, "CoNLL-U file"),
        ({"dataset__conllu": {"human": "sample.conllu", "machine": ""}}, "CoNLL-U file"),
        ({"embeddings": {"source": "load", "path": ""}}, "embedding file"),
    ], ids=["hc3_path", "conllu.human", "conllu.machine", "embeddings.path"])
    def test_directory_as_input_file_exits_3_at_config_read(self, workspace, fixtures_dir,
                                                            tmp_path, capsys, changes, what):
        # "" names the config's own directory.
        shutil.copy(fixtures_dir / "sample.conllu", tmp_path)
        config = write_config(tmp_path, workspace, **changes)
        assert main(["ingest", "--config", config]) == 3
        line = one_error_line(capsys, "data error:")
        assert line == f"data error: {what} not found: {tmp_path}"
        assert not (tmp_path / "out").exists()

    def test_corpus_lines_are_json_dumps(self, workspace, tmp_path):
        """Each corpus.jsonl line is what json.dumps(sort_keys=True) writes
        for it and for its document, for every string json escapes."""
        data = tmp_path / "data.jsonl"
        with data.open("w", encoding="utf-8") as fh:
            for i in range(14):
                q, a = HOSTILE[i % len(HOSTILE)], HOSTILE[-1 - i % len(HOSTILE)]
                fh.write(json.dumps({"question": q, "human_answers": [f"{a} {i}"],
                                     "chatgpt_answers": [f"{i} {a}"]}) + "\n")
        assert "\\ud800" in data.read_text(encoding="utf-8")
        config = write_config(tmp_path, workspace, dataset__hc3_path=str(data))
        assert main(["ingest", "--config", config]) == 0
        lines = (tmp_path / "out" / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
        docs = ingest.load_hc3(data).documents
        assert len(lines) == len(docs) == 28
        for line, d in zip(lines, docs):
            assert line == json.dumps(json.loads(line), sort_keys=True)
            assert line == json.dumps({"id": d.id, "label": d.label.value, "body": d.body,
                                       "question": d.source_question}, sort_keys=True)

    def test_corpus_line_without_question(self):
        d = Document(id="1-m1", body='a "quoted" caf\u00e9 \U0001F600', label=Label.MACHINE)
        assert _corpus_line(d) == json.dumps({"id": d.id, "label": "machine", "body": d.body,
                                              "question": None}, sort_keys=True) + "\n"

    def test_rerun_produces_identical_manifest(self, workspace):
        before = (workspace / "out" / "splits.json").read_bytes()
        assert main(["ingest", "--config", cfg_path(workspace)]) == 0
        assert (workspace / "out" / "splits.json").read_bytes() == before

    def test_output_dir_collision_exits_4(self, workspace, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        rc = main(["ingest", "--config", cfg_path(workspace),
                   "--output", str(blocked)])
        assert rc == 4

    @pytest.mark.parametrize("record", [
        {"question": ["q"], "human_answers": [None, 12], "chatgpt_answers": [{"a": 1}, False]},
        {"question": "q", "human_answers": ["fine."], "chatgpt_answers": ["fine.", 12]},
    ], ids=["question", "answer"])
    def test_non_string_field_exits_3(self, workspace, tmp_path, capsys, record):
        data = tmp_path / "data.jsonl"
        data.write_text((workspace / "data.jsonl").read_text() + json.dumps(record) + "\n")
        config = write_config(tmp_path, workspace, dataset__hc3_path=str(data))
        assert main(["ingest", "--config", config]) == 3
        assert "data.jsonl: line 41" in one_error_line(capsys, "data error:")

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["ingest", "--config", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("answer, reason", [("   ", "empty after normalization"),
                                                ("?!", "no word tokens")])
    def test_blank_answer_is_skipped_with_one_line(self, workspace, tmp_path, answer, reason):
        """An answer that normalizes to nothing, or to no word token, is left
        out of the corpus, with one stderr line naming it; ingest still
        succeeds, and so does stats on the corpus it wrote."""
        data = tmp_path / "data.jsonl"
        record = {"question": "q", "human_answers": [answer], "chatgpt_answers": ["fine."]}
        data.write_text((workspace / "data.jsonl").read_text() + json.dumps(record) + "\n")
        config = write_config(tmp_path, workspace, dataset__hc3_path=str(data))
        rc, err, _ = run_entry_point("ingest", "--config", config)
        assert (rc, err) == (0, [f"skipping 41-h1: {reason}"])
        ids = [json.loads(line)["id"]
               for line in (tmp_path / "out" / "corpus.jsonl").read_text().splitlines()]
        assert "41-m1" in ids and "41-h1" not in ids
        assert run_entry_point("stats", "--config", config)[:2] == (0, [])

    def test_seed_override_changes_splits(self, workspace, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["ingest", "--config", cfg_path(workspace),
                     "--output", out_a, "--seed", "99"]) == 0
        assert main(["ingest", "--config", cfg_path(workspace),
                     "--output", out_b, "--seed", "99"]) == 0
        a = json.loads((Path(out_a) / "splits.json").read_text())
        b = json.loads((Path(out_b) / "splits.json").read_text())
        assert a == b  # same override is reproducible
        base = json.loads((workspace / "out" / "splits.json").read_text())
        assert a["train"] != base["train"]  # and differs from seed 7


class TestStats:
    def test_report_sections(self, workspace):
        assert main(["stats", "--config", cfg_path(workspace)]) == 0
        report = json.loads((workspace / "out" / "stats.json").read_text())
        for cls in ("human", "machine"):
            assert set(report[cls]) == {
                "answer_length", "sentence_length", "ttr", "fkgl",
            }

    def test_dependency_section_with_conllu(self, workspace, fixtures_dir, tmp_path):
        config = base_config()
        config["dataset"]["conllu"] = {
            "human": str(fixtures_dir / "sample.conllu"),
            "machine": str(fixtures_dir / "sample.conllu"),
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        out = str(tmp_path / "outc")
        (tmp_path / "data.jsonl").write_bytes((workspace / "data.jsonl").read_bytes())
        assert main(["ingest", "--config", str(cfg), "--output", out]) == 0
        assert main(["stats", "--config", str(cfg), "--output", out]) == 0
        report = json.loads((Path(out) / "stats.json").read_text())
        assert "dependency_distance" in report["human"]

    def test_stats_before_ingest_exits_3(self, workspace, tmp_path):
        rc = main(["stats", "--config", cfg_path(workspace),
                   "--output", str(tmp_path / "fresh")])
        assert rc == 3

    @pytest.mark.parametrize("val", [["no-such-id"], None], ids=["unknown_id", "listed_twice"])
    def test_manifest_is_checked_as_train_checks_it(self, workspace, tmp_path, capsys, val):
        """stats refuses a manifest that train refuses, with train's line."""
        out = tmp_path / "out"
        shutil.copytree(workspace / "out", out)
        manifest = json.loads((out / "splits.json").read_text())
        manifest["val"] = val or manifest["val"] + manifest["train"][:1]
        (out / "splits.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        lines = []
        for command in ("train", "stats"):
            assert main([command, "--config", cfg_path(workspace), "--output", str(out)]) == 3
            lines.append(one_error_line(capsys, "data error:"))
        assert lines[0] == lines[1]

    def test_unwritable_report_exits_4(self, workspace, tmp_path):
        out = tmp_path / "out4"
        assert main(["ingest", "--config", cfg_path(workspace),
                     "--output", str(out)]) == 0
        (out / "stats.json").mkdir()  # report path occupied by a directory
        rc = main(["stats", "--config", cfg_path(workspace), "--output", str(out)])
        assert rc == 4


class TestTrain:
    def test_validation_f1_printed_high(self, workspace, capsys):
        assert main(["train", "--config", cfg_path(workspace)]) == 0
        out = capsys.readouterr().out
        match = re.search(r"validation f1: ([0-9.]+)", out)
        assert match is not None
        assert float(match.group(1)) >= 0.9

    def test_validation_lines_are_the_classifier_scorer_metrics(self, workspace, capsys):
        assert main(["train", "--config", cfg_path(workspace)]) == 0
        printed = re.findall(r"^validation (\w+): (.*)$", capsys.readouterr().out, re.M)
        out = workspace / "out"
        model = classifiers.load_model(out / "model.json")
        emb = embeddings.load_vectors(out / "embeddings.txt")
        scorer = ingest.DetectorScorer(
            name="classifier",
            score_fn=lambda d: classifiers.predict(
                model, embeddings.doc_vector(d.body, emb).values),
            threshold=model.threshold,
        )
        report = evaluation.evaluate(scorer, split_documents(out, "val"))
        assert printed == [(name, f"{report[name]:.4f}")
                           for name in evaluation.METRIC_NAMES]

    def test_unknown_family_exits_2(self, workspace, tmp_path):
        config = base_config()
        config["classifier"]["family"] = "mlp"
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        (tmp_path / "data.jsonl").write_bytes((workspace / "data.jsonl").read_bytes())
        assert main(["train", "--config", str(cfg)]) == 2

    def test_rerun_identical_model_bytes(self, workspace):
        model = (workspace / "out" / "model.json").read_bytes()
        lm = (workspace / "out" / "lm.json").read_bytes()
        assert main(["train", "--config", cfg_path(workspace)]) == 0
        assert (workspace / "out" / "model.json").read_bytes() == model
        assert (workspace / "out" / "lm.json").read_bytes() == lm


class TestDetect:
    def test_empty_input_header_only(self, workspace, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        rc = main(["detect", "--config", cfg_path(workspace), str(empty)])
        assert rc == 0
        assert capsys.readouterr().out == "id,score,label,method\n"

    def test_single_revise_two_passes_per_doc(self, workspace, tmp_path, capsys):
        inp = tmp_path / "in.txt"
        inp.write_text("waa wab wac wad wae waf wag wah.\nwba wbb wbc wbd wbe wbf wbg.\n")
        rc = main(["detect", "--config", cfg_path(workspace), str(inp),
                   "--method", "single_revise", "--debug"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "2.0 per doc" in err

    def test_detect_gpt_k_plus_one_passes(self, workspace, tmp_path, capsys):
        inp = tmp_path / "in.txt"
        inp.write_text("waa wab wac wad wae waf wag wah.\n")
        rc = main(["detect", "--config", cfg_path(workspace), str(inp),
                   "--method", "detect_gpt", "--debug"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "4.0 per doc" in err  # config k = 3

    def test_deterministic_output(self, workspace, tmp_path, capsys):
        inp = tmp_path / "in.txt"
        inp.write_text("waa wab wac wad wae.\nThe human wrote this line here.\n")
        args = ["detect", "--config", cfg_path(workspace), str(inp)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert first.splitlines()[0] == "id,score,label,method"
        assert len(first.splitlines()) == 3

    def test_reads_a_pipe(self, workspace):
        """The input is read once: a pipe, which cannot be read twice,
        gives every row."""
        proc = subprocess.run(
            [sys.executable, "-m", "mgtdetect.cli", "detect", "--config", cfg_path(workspace),
             "/dev/stdin", "--method", "single_revise"],
            input="waa wab wac wad wae waf wag.\nwab wac wad wae waf wag wah.\n",
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert [row.split(",")[0] for row in proc.stdout.splitlines()] == ["id", "1", "2"]

    @pytest.mark.parametrize("name", ["missing.txt", "a_directory"])
    def test_input_that_is_no_file_exits_3(self, workspace, tmp_path, capsys, name):
        (tmp_path / "a_directory").mkdir()
        inp = tmp_path / name
        capsys.readouterr()
        assert main(["detect", "--config", cfg_path(workspace), str(inp)]) == 3
        assert one_error_line(capsys, "data error:") == f"data error: input file not found: {inp}"

    @pytest.mark.parametrize("method", ["detect_gpt", "single_revise"])
    def test_prints_what_per_text_oracle_scoring_prints(self, workspace, tmp_path, capsys,
                                                         method):
        """An input with wordless, blank and invisible lines in the middle
        gives the rows and skip lines of an oracle that perturbs and scores
        one text at a time."""
        from test_zeroshot import oracle_detect_gpt_score, oracle_single_revise_score

        out = workspace / "out"
        lines = [json.loads(rec)["body"] for rec in (out / "corpus.jsonl").read_text()
                 .splitlines()][:40]
        lines[12:12] = ["!!! ?", "", "   ", "\u200b"]
        lines[30:30] = ["... ,", ""]
        inp = tmp_path / "in.txt"
        inp.write_text("\n".join(lines) + "\n")

        config = base_config()
        k = config["zeroshot"]["k"] if method == "detect_gpt" else 1
        oracle = oracle_detect_gpt_score if k > 1 else oracle_single_revise_score
        lm = zeroshot.load_lm(out / "lm.json")
        pcfg = zeroshot.PerturbConfig(pool=lm.vocabulary,
                                      mask_fraction=config["zeroshot"]["mask_fraction"],
                                      seed=derive_seed(config["seed"], "zeroshot.perturb"), k=k)
        rows, skipped = ["id,score,label,method"], []
        for lineno, line in enumerate(lines, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                doc = Document(id=str(lineno), body=ingest.normalize(text), label=Label.HUMAN)
                d = oracle(lm, doc, pcfg).d
            except DataError as exc:
                skipped.append(f"skipping line {lineno}: {exc}")
                continue
            rows.append(f"{lineno},{d!r},{'machine' if d >= 0.0 else 'human'},{method}")
        n = len(rows) - 1
        assert n == 40 and len(skipped) == 3

        capsys.readouterr()
        assert main(["detect", "--config", cfg_path(workspace), str(inp),
                     "--method", method, "--debug"]) == 0
        printed = capsys.readouterr()
        assert printed.out == "\n".join(rows) + "\n"
        err = printed.err.splitlines()
        assert [e for e in err if e.startswith("skipping line")] == skipped
        assert err[-1] == (f"debug: lm scoring passes = {(k + 1) * n} "
                           f"({n} docs, {k + 1:.1f} per doc)")

    def test_missing_model_exits_3(self, workspace, tmp_path):
        out = tmp_path / "untrained"
        assert main(["ingest", "--config", cfg_path(workspace),
                     "--output", str(out)]) == 0
        inp = tmp_path / "in.txt"
        inp.write_text("some words here.\n")
        rc = main(["detect", "--config", cfg_path(workspace), str(inp),
                   "--output", str(out)])
        assert rc == 3


@pytest.fixture(scope="module")
def evaluated(workspace, tmp_path_factory) -> Path:
    """evaluate's reports, written to a copy of workspace/out: a test that
    copies workspace/out sees the same files whichever tests ran before it."""
    out = tmp_path_factory.mktemp("evaluated") / "out"
    shutil.copytree(workspace / "out", out)
    assert main(["evaluate", "--config", cfg_path(workspace), "--output", str(out)]) == 0
    return out


class TestTooFewWordsToRewrite:
    """A curvature score refuses a document of which floor(mask_fraction *
    words) masks no word: 6 words or fewer at the config's 0.15."""

    SHORT = ("document '{}' has 6 word tokens; curvature scoring at mask_fraction 0.15 "
             "needs at least 7")

    @pytest.mark.parametrize("method", ["detect_gpt", "single_revise"])
    def test_detect_skips_six_words_and_scores_seven(self, workspace, tmp_path, method):
        inp = tmp_path / "in.txt"
        inp.write_text("waa wab wac wad wae waf.\nwaa wab wac wad wae waf wag.\n")
        rc, err, printed = run_entry_point("detect", "--config", cfg_path(workspace), str(inp),
                                           "--method", method)
        assert (rc, err) == (0, ["skipping line 1: " + self.SHORT.format(1)])
        header, row = printed.splitlines()
        assert header == "id,score,label,method"
        assert row.startswith("2,") and row.endswith(f",{method}")

    def test_evaluate_exits_3_on_a_six_word_test_document(self, workspace, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(workspace / "out", out)
        record = {"body": "waa wab wac wad wae waf.", "id": "99-h1", "label": "human",
                  "question": "q"}
        with open(out / "corpus.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        manifest = json.loads((out / "splits.json").read_text())
        manifest["test"].append("99-h1")
        (out / "splits.json").write_text(json.dumps(manifest))
        config = write_config(tmp_path, workspace, classifier=None, embeddings=None)
        rc, err, _ = run_entry_point("evaluate", "--config", config)
        assert (rc, err) == (3, ["data error: " + self.SHORT.format("99-h1")])


class TestEvaluate:
    def test_metric_fields_in_range(self, evaluated):
        payload = json.loads((evaluated / "metrics.json").read_text())
        for report in payload["methods"].values():
            for field in ("precision", "recall", "f1", "accuracy", "auroc"):
                assert 0.0 <= report[field] <= 1.0

    def test_identity_transform_deltas_zero(self, evaluated):
        payload = json.loads((evaluated / "robustness.json").read_text())
        for report in payload["methods"].values():
            entry = report["transforms"]["case_flip@0.0"]
            assert all(v == 0.0 for v in entry["delta"].values())

    def test_method_tags_present(self, evaluated):
        metrics_payload = json.loads((evaluated / "metrics.json").read_text())
        robustness_payload = json.loads((evaluated / "robustness.json").read_text())
        expected = {"classifier:logreg", "detect_gpt", "single_revise"}
        assert set(metrics_payload["methods"]) == expected
        assert set(robustness_payload["methods"]) == expected

    def test_zeroshot_thresholds_are_validation_youden_points(self, evaluated):
        methods = json.loads((evaluated / "metrics.json").read_text())["methods"]
        config = base_config()
        lm = zeroshot.load_lm(evaluated / "lm.json")
        base = zeroshot.PerturbConfig(pool=lm.vocabulary,
                                      mask_fraction=config["zeroshot"]["mask_fraction"],
                                      seed=derive_seed(config["seed"], "zeroshot.perturb"))
        val = split_documents(evaluated, "val")
        labels = [int(d.label == Label.MACHINE) for d in val]
        for method, curvature, k in (
            ("detect_gpt", zeroshot.detect_gpt_score, config["zeroshot"]["k"]),
            ("single_revise", zeroshot.single_revise_score, 1),
        ):
            scores = [curvature(lm, d, replace(base, k=k)).d for d in val]
            assert methods[method]["threshold"] == evaluation.youden_threshold(scores, labels)

    def test_csv_summaries_written(self, evaluated):
        csvs = list(evaluated.glob("robustness_*.csv"))
        assert len(csvs) == 3
        header = csvs[0].read_text().splitlines()[0]
        assert header == "transform,metric,before,after,delta"

    def test_single_class_test_split_exits_3(self, workspace, tmp_path):
        out = tmp_path / "broken"
        assert main(["ingest", "--config", cfg_path(workspace),
                     "--output", str(out)]) == 0
        manifest = json.loads((out / "splits.json").read_text())
        manifest["test"] = [i for i in manifest["test"] if "-h" in i]
        (out / "splits.json").write_text(json.dumps(manifest))
        rc = main(["evaluate", "--config", cfg_path(workspace), "--output", str(out)])
        assert rc == 3


@pytest.fixture(scope="class")
def golden_run(fixtures_dir, tmp_path_factory) -> Path:
    """ingest, stats, train and evaluate run on the committed 30-question
    corpus in fixtures/reports, with CoNLL-U parses and two transforms; the
    directory holding config.json and out/. The classifier is left out: its
    skip-gram and SVM numbers go through BLAS, which may differ in the last
    bit between numpy builds."""
    root = tmp_path_factory.mktemp("golden")
    golden = fixtures_dir / "reports"
    conllu = str(fixtures_dir / "sample.conllu")
    config = {
        "seed": 7,
        "output_dir": str(root / "out"),
        "dataset": {"hc3_path": str(golden / "data.jsonl"),
                    "conllu": {"human": conllu, "machine": conllu}},
        "split": {"train": 0.6, "val": 0.2, "test": 0.2},
        "zeroshot": {"order": 3, "k": 3, "methods": ["detect_gpt", "single_revise"]},
        "transforms": [{"kind": "case_flip", "intensity": 0.1},
                       {"kind": "special_chars", "intensity": 0.2}],
    }
    (root / "config.json").write_text(json.dumps(config))
    for command in ("ingest", "stats", "train", "evaluate"):
        assert main([command, "--config", str(root / "config.json")]) == 0, command
    return root


class TestGoldenReports:
    REPORTS = ("stats.json", "metrics.json", "robustness.json", "robustness_detect_gpt.csv",
               "robustness_single_revise.csv")

    def test_zero_shot_reports_match_their_golden_copies(self, fixtures_dir, golden_run):
        """The pipeline of golden_run writes the report bytes kept in
        fixtures/reports."""
        golden = fixtures_dir / "reports"
        for name in self.REPORTS:
            assert (golden_run / "out" / name).read_bytes() == (golden / name).read_bytes(), name

    @pytest.mark.parametrize("method, passes", [("detect_gpt", 4), ("single_revise", 2)])
    def test_detect_on_odd_input_matches_its_golden_copy(self, fixtures_dir, golden_run, capsys,
                                                         method, passes):
        """detect --debug on lines full of abbreviations, whose rewrites are
        mostly spliced and tokenized as text, prints the CSV kept in
        fixtures/reports and k + 1 scoring passes per document."""
        golden = fixtures_dir / "reports"
        capsys.readouterr()
        assert main(["detect", "--config", str(golden_run / "config.json"),
                     str(golden / "detect_odd.txt"), "--method", method, "--debug"]) == 0
        out, err = capsys.readouterr()
        assert out.encode() == (golden / f"detect_{method}.csv").read_bytes()
        assert err == f"debug: lm scoring passes = {4 * passes} (4 docs, {passes}.0 per doc)\n"


def one_error_line(capsys, prefix: str) -> str:
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(prefix), err
    return err[0]


def file_bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def list_train_ids_again(out: Path, split: str, n: int) -> str:
    """Append the first *n* train ids of the manifest in *out* to *split*
    as well; the first of them."""
    manifest = json.loads((out / "splits.json").read_text())
    ids = manifest["train"][:n]
    manifest[split] += ids
    (out / "splits.json").write_text(json.dumps(manifest))
    return ids[0]


def write_config(tmp_path: Path, workspace: Path, **changes) -> str:
    config = base_config(str(tmp_path / "out"))
    config["dataset"]["hc3_path"] = str(workspace / "data.jsonl")
    for dotted, value in changes.items():
        section, _, key = dotted.partition("__")
        if key:
            config[section][key] = value
        else:
            config[section] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


class TestConfiguredDetectors:
    """Each command runs exactly the detectors its config names: a missing
    artifact is an error, never a detector skipped."""

    @pytest.mark.parametrize("artifact", ["model.json", "lm.json"])
    def test_evaluate_with_missing_artifact_exits_3(self, workspace, tmp_path, capsys,
                                                    artifact):
        out = tmp_path / "out"
        shutil.copytree(workspace / "out", out)
        (out / artifact).unlink()
        capsys.readouterr()
        rc = main(["evaluate", "--config", cfg_path(workspace), "--output", str(out)])
        assert rc == 3
        assert "run 'train' first" in one_error_line(capsys, "data error:")

    def test_evaluate_without_detector_exits_2(self, workspace, tmp_path, capsys):
        shutil.copytree(workspace / "out", tmp_path / "out")
        config = write_config(tmp_path, workspace, classifier=None, zeroshot=None)
        capsys.readouterr()
        assert main(["evaluate", "--config", config]) == 2
        one_error_line(capsys, "config error:")

    @pytest.mark.parametrize("command, zeroshot", [
        ("train", None), ("evaluate", None), ("train", {"methods": []}),
        ("evaluate", {"methods": []}), ("detect", {"methods": []}),
    ], ids=["train", "evaluate", "train_no_methods", "evaluate_no_methods",
            "detect_no_methods"])
    def test_no_detector_exits_2_before_any_file_is_read(self, workspace, tmp_path, capsys,
                                                         command, zeroshot):
        """In a fresh output directory, with no corpus.jsonl to read, a
        config that names no detector for the command is a config error:
        also a zeroshot section whose methods list is empty."""
        config = write_config(tmp_path, workspace, classifier=None, zeroshot=zeroshot)
        inp = tmp_path / "in.txt"
        inp.write_text("waa wab wac wad wae.\n")
        args = [str(inp)] if command == "detect" else []
        capsys.readouterr()
        assert main([command, "--config", config, *args]) == 2
        one_error_line(capsys, "config error:")
        assert not (tmp_path / "out").exists()

    def test_detect_defaults_to_a_method_the_config_names(self, workspace, tmp_path, capsys):
        """With no classifier section, no detect section and no --method,
        detect scores with the first of zeroshot.methods."""
        shutil.copytree(workspace / "out", tmp_path / "out")
        config = write_config(tmp_path, workspace, classifier=None, embeddings=None,
                              zeroshot={"methods": ["single_revise"]})
        inp = tmp_path / "in.txt"
        inp.write_text("waa wab wac wad wae waf wag.\nwaf wag wah wai waj wak wal.\n")
        capsys.readouterr()
        assert main(["detect", "--config", config, str(inp)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.rsplit(",", 1)[1] for row in rows] == ["single_revise"] * 2

    @pytest.mark.parametrize("changes, csv_name", [
        ({"zeroshot": None}, "robustness_classifier_logreg.csv"),
        ({"classifier": None, "embeddings": None, "zeroshot__methods": ["single_revise"]},
         "robustness_single_revise.csv"),
    ], ids=["classifier", "single_revise"])
    def test_one_detector_csv_is_named_by_it(self, workspace, tmp_path, changes, csv_name):
        """Every robustness CSV is named by its detector, the only one too."""
        shutil.copytree(workspace / "out", tmp_path / "out")
        config = write_config(tmp_path, workspace, **changes)
        assert main(["evaluate", "--config", config]) == 0
        assert [p.name for p in (tmp_path / "out").glob("robustness*.csv")] == [csv_name]

    @pytest.mark.parametrize("command", ["ingest", "stats", "train", "detect", "evaluate"])
    def test_detect_section_is_an_unknown_key(self, workspace, tmp_path, capsys, command):
        """--method is the one method switch: every command refuses a detect section."""
        config = write_config(tmp_path, workspace, detect={"method": "single_revise"})
        args = ["in.txt"] if command == "detect" else []
        capsys.readouterr()
        assert main([command, "--config", config, *args]) == 2
        assert one_error_line(capsys, "config error:") == "config error: unknown config key 'detect'"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method, section", [("detect_gpt", "zeroshot"),
                                                 ("classifier", "classifier")])
    def test_detect_method_outside_config_exits_2(self, workspace, tmp_path, capsys,
                                                  method, section):
        shutil.copytree(workspace / "out", tmp_path / "out")
        config = write_config(tmp_path, workspace, **{section: None})
        inp = tmp_path / "in.txt"
        inp.write_text("waa wab wac wad wae.\n")
        capsys.readouterr()
        assert main(["detect", "--config", config, str(inp), "--method", method]) == 2
        one_error_line(capsys, "config error:")


class TestMalformedInputs:
    @pytest.mark.parametrize("command, changes", [
        ("train", {"zeroshot__order": "three"}),
        ("evaluate", {"zeroshot__k": "x"}),
        ("train", {"embeddings__dim": "abc"}),
        ("train", {"embeddings": 5}),
        ("train", {"zeroshot__methods": "detect_gpt"}),
        ("ingest", {"zeroshot__methods": ["table_row"]}),
        ("evaluate", {"zeroshot__methods": ["detect_gpt", "detect_gpt"]}),
        ("train", {"zeroshot__methods": ["single_revise", "detect_gpt", "single_revise"]}),
        ("train", {"zeroshot__threshold": None}),
        ("train", {"zeroshot__k": 1e400}),
        ("ingest", {"split__train": "most"}),
        ("ingest", {"split": [0.8, 0.1, 0.1]}),
        ("evaluate", {"transforms": [{"kind": "special_chars", "intensity": 0.1},
                                     {"kind": "case_flip", "intensity": 0.0},
                                     {"kind": "special_chars", "intensity": 0.1}]}),
        ("evaluate", {"transforms": [{"kind": "case_flip", "intensity": "high"}]}),
        ("evaluate", {"transforms": 5}),
        ("ingest", {"dataset__conllu": ["human.conllu"]}),
        ("detect", {"detect": "detect_gpt"}),
        # No silent coercion: a boolean is never a number and a fraction
        # is never an integer.
        ("ingest", {"seed": 7.9}),
        ("ingest", {"seed": True}),
        ("ingest", {"zeroshot__mask_fraction": True}),
        ("ingest", {"transforms": [{"kind": "case_flip", "intensity": True}]}),
        ("ingest", {"embeddings__epochs": False}),
        # Out of range: refused at parse time, before any command runs.
        ("ingest", {"zeroshot__k": 0}),
        ("ingest", {"zeroshot__k": 1}),
        ("ingest", {"zeroshot__k": -5}),
        ("ingest", {"zeroshot__threshold": float("nan")}),
        ("ingest", {"zeroshot__threshold": float("inf")}),
        ("ingest", {"zeroshot__order": 1}),
        ("ingest", {"zeroshot__discount": 1.5}),
        ("ingest", {"zeroshot__discount": 0.0}),
        ("ingest", {"zeroshot__mask_fraction": 2.0}),
        ("ingest", {"zeroshot__mask_fraction": -0.1}),
        ("ingest", {"embeddings__dim": 0}),
        # A path is a JSON string, never a value made into one.
        ("ingest", {"output_dir": None}),
        ("ingest", {"output_dir": ["a"]}),
        ("ingest", {"output_dir": 5}),
        ("ingest", {"dataset__hc3_path": True}),
        ("ingest", {"dataset__hc3_path": 5}),
        ("stats", {"dataset__conllu": {"human": True}}),
        ("stats", {"dataset__conllu": {"machine": ["machine.conllu"]}}),
        ("train", {"embeddings": {"source": "load", "path": 5}}),
        # A path is read only with source "load", never ignored.
        ("ingest", {"embeddings": {"path": "vectors.txt"}}),
        ("ingest", {"embeddings": {"source": "train", "path": "vectors.txt"}}),
        # A falsy source is neither "train" nor "load", never the default.
        ("ingest", {"embeddings": {"source": None}}),
        ("ingest", {"embeddings": {"source": False}}),
        ("ingest", {"embeddings": {"source": []}}),
        # Not finite: NaN would train with no update, inf overflow.
        ("ingest", {"embeddings__subsample": float("nan")}),
        ("ingest", {"embeddings__subsample": float("inf")}),
        ("ingest", {"embeddings__learning_rate": float("nan")}),
        ("ingest", {"embeddings__learning_rate": float("inf")}),
    ])
    def test_config_value_of_wrong_type_exits_2(self, workspace, tmp_path, capsys,
                                                command, changes):
        config = write_config(tmp_path, workspace, **changes)
        args = [command, "--config", config] + (["in.txt"] if command == "detect" else [])
        assert main(args) == 2
        one_error_line(capsys, "config error:")

    @pytest.mark.parametrize("classifier", [
        {"family": "logreg", "epochs": "many"},
        {"family": "logreg", "l2": [1e-4]},
        {"family": "logreg", "lr": "fast"},
        {"family": "gnb", "tune": "no"},
        {"family": "gnb", "tune": 1},
        {"family": "gnb", "tune": True, "budget": "ten"},
        {"family": "gnb", "var_smoothing": None},
        {"family": "svm", "lambda": "small"},
        {"family": "svm", "epochs": {}},
        {"family": "random_forest", "n_trees": "lots"},
        {"family": "random_forest", "max_depth": "deep"},
        {"family": "random_forest", "max_depth": 2.5},
        {"family": "random_forest", "max_depth": True},
        {"epochs": 3},
        "logreg",
        {"family": "svm", "epochs": 40.7},  # a fraction is never an integer
        # Out of range.
        {"family": "logreg", "epochs": 0},
        {"family": "logreg", "epochs": -1},
        {"family": "svm", "epochs": 0},
        {"family": "logreg", "l2": -1.0},
        {"family": "svm", "lambda": -1e-3},
        {"family": "svm", "lambda": 0.0},
        {"family": "gnb", "var_smoothing": 0},
        {"family": "gnb", "tune": True, "budget": 2},
        {"family": "random_forest", "n_trees": 0},
        {"family": "random_forest", "max_depth": 0},
        {"family": "logreg", "lr": -1},
        # Not finite.
        {"family": "logreg", "lr": float("nan")},
        {"family": "logreg", "l2": float("inf")},
        {"family": "gnb", "var_smoothing": float("nan")},
        {"family": "svm", "lambda": float("inf")},
    ])
    def test_classifier_value_of_wrong_type_exits_2(self, workspace, tmp_path, capsys,
                                                    classifier):
        config = write_config(tmp_path, workspace, classifier=classifier)
        assert main(["train", "--config", config]) == 2
        one_error_line(capsys, "config error:")

    @pytest.mark.parametrize("section, expected", [
        ({"family": "logreg"}, {"l2": 1e-4, "epochs": 150, "lr": 0.5}),
        ({"family": "gnb"}, {"tune": False, "budget": 20, "var_smoothing": 1e-9}),
        ({"family": "gnb", "tune": True, "budget": "7"},
         {"tune": True, "budget": 7, "var_smoothing": 1e-9}),
        ({"family": "svm", "lambda": 1}, {"lambda": 1.0, "epochs": 50}),
        ({"family": "random_forest"}, {"n_trees": 50, "max_depth": 8}),
        ({"family": "random_forest", "max_depth": None, "n_trees": 3.0},
         {"n_trees": 3, "max_depth": None}),
    ])
    def test_classifier_keys_typed_per_family(self, workspace, tmp_path, section, expected):
        from mgtdetect.cli import RunConfig

        config = write_config(tmp_path, workspace, classifier=section)
        typed = RunConfig.from_file(config).classifier
        assert typed == {"family": section["family"], **expected}
        assert all(type(typed[k]) is type(v) for k, v in expected.items())

    @pytest.mark.parametrize("changes, name", [
        ({"zeroshott": {"k": 3}}, "zeroshott"),
        ({"dataset__hc3": "data.jsonl"}, "dataset.hc3"),
        ({"dataset__conllu": {"humans": "human.conllu"}}, "dataset.conllu.humans"),
        ({"split__tran": 0.8}, "split.tran"),
        ({"embeddings__dimension": 8}, "embeddings.dimension"),
        ({"classifier": {"family": "svm", "lamda": 5.0}}, "classifier.lamda"),
        ({"classifier": {"family": "svm", "n_trees": 5}}, "classifier.n_trees"),
        ({"zeroshot__mask_fracton": 0.9}, "zeroshot.mask_fracton"),
        ({"transforms": [{"kind": "case_flip", "intensty": 0.9}]}, "transforms.0.intensty"),
        ({"detect": {"methods": "detect_gpt"}}, "detect"),
        ({"embeddings": {"source": "load", "path": "vectors.txt", "dim": 8}}, "embeddings.dim"),
    ])
    def test_unknown_config_key_exits_2(self, workspace, tmp_path, capsys, changes, name):
        """A key no config object reads is refused, never run at a
        default; a key of another classifier family is unknown too, and so
        is a skip-gram key beside embeddings.source "load"."""
        shutil.copy(workspace / "out" / "embeddings.txt", tmp_path / "vectors.txt")
        config = write_config(tmp_path, workspace, **changes)
        assert main(["ingest", "--config", config]) == 2
        assert f"'{name}'" in one_error_line(capsys, "config error:")

    def test_embeddings_source_defaults_to_train(self, workspace, tmp_path):
        from mgtdetect.cli import RunConfig

        config = write_config(tmp_path, workspace, embeddings={"dim": 8})
        parsed = RunConfig.from_file(config)
        assert (parsed.embedding_path, parsed.skipgram.dim) == (None, 8)

    def test_embeddings_source_load_reads_only_the_path(self, workspace, tmp_path):
        from mgtdetect.cli import RunConfig

        shutil.copy(workspace / "out" / "embeddings.txt", tmp_path / "vectors.txt")
        config = write_config(tmp_path, workspace,
                              embeddings={"source": "load", "path": "vectors.txt"})
        parsed = RunConfig.from_file(config)
        assert (parsed.embedding_path, parsed.skipgram) == (tmp_path / "vectors.txt", None)

    def test_readme_config_example(self, tmp_path):
        """The README's config example reads, with the values it and its
        bullets state."""
        from mgtdetect.cli import RunConfig
        from mgtdetect.sections import AdversarialTransform, SkipGramConfig

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("Config example", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        (tmp_path / "config.json").write_text(block)
        for name in ("data.jsonl", "human.conllu", "machine.conllu"):
            (tmp_path / name).write_text("")
        parsed = RunConfig.from_file(tmp_path / "config.json")
        assert (parsed.seed, parsed.output_dir, parsed.hc3_path) == (
            7, tmp_path / "out", tmp_path / "data.jsonl")
        assert parsed.conllu == {Label.HUMAN: tmp_path / "human.conllu",
                                 Label.MACHINE: tmp_path / "machine.conllu"}
        split = parsed.split
        assert (split.train_frac, split.val_frac, split.test_frac, split.seed) == (
            0.8, 0.1, 0.1, derive_seed(7, "split"))
        assert parsed.skipgram == SkipGramConfig(
            dim=32, window=5, negatives=5, epochs=3, learning_rate=0.025, min_count=2,
            subsample=0.001, seed=derive_seed(7, "embeddings"))
        assert parsed.embedding_path is None
        assert parsed.classifier == {"family": "svm", "lambda": 0.001, "epochs": 40}
        assert parsed.zeroshot == {"order": 3, "discount": 0.75, "k": 10,
                                   "mask_fraction": 0.15, "threshold": 0.0,
                                   "methods": ("detect_gpt", "single_revise")}
        assert parsed.transforms == [AdversarialTransform(
            "special_chars", 0.1, derive_seed(7, "transforms.0.special_chars"))]
        # The first detector the config names.
        assert parsed.detect_method == "classifier"

    def test_model_dimension_mismatch_exits_3(self, workspace, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(workspace / "out", out)
        payload = json.loads((out / "model.json").read_text())
        payload["weights"].pop()
        (out / "model.json").write_text(json.dumps(payload))
        inp = tmp_path / "in.txt"
        inp.write_text("waa wab wac wad wae.\nwab wac.\n")
        rc = main(["detect", "--config", cfg_path(workspace), str(inp),
                   "--method", "classifier", "--output", str(out)])
        assert rc == 3
        assert "model.json" in one_error_line(capsys, "data error:")

    def test_zeroshot_defaults(self, workspace, tmp_path):
        from mgtdetect.cli import RunConfig

        config = write_config(tmp_path, workspace, zeroshot={})
        zs = RunConfig.from_file(config).zeroshot
        assert zs == {"order": 3, "discount": 0.75, "k": 10, "mask_fraction": 0.15,
                      "threshold": 0.0, "methods": ("detect_gpt",)}

    @pytest.mark.parametrize("corrupt", [
        lambda out: (out / "corpus.jsonl").write_bytes(
            (out / "corpus.jsonl").read_bytes()[:500]),
        lambda out: (out / "corpus.jsonl").write_text("not json\n"),
        lambda out: (out / "corpus.jsonl").write_text('{"id": "x", "body": "b"}\n'),
        lambda out: (out / "corpus.jsonl").write_text('["x", "b", "human"]\n'),
        lambda out: (out / "corpus.jsonl").write_text(
            '{"id": "x", "body": "b", "label": "robot"}\n'),
        lambda out: (out / "corpus.jsonl").write_text(
            '{"id": "x", "body": ["b"], "label": "human"}\n'),
        lambda out: (out / "splits.json").write_text('{"train": [], "val": []}'),
        lambda out: (out / "splits.json").write_text('{"train": '),
        lambda out: (out / "splits.json").write_text(
            '{"train": [["x"]], "val": [], "test": []}'),
        lambda out: list_train_ids_again(out, "test", 20),
    ], ids=["truncated", "not_json", "missing_label", "not_object", "unknown_label",
            "body_not_string", "manifest_missing_test", "manifest_truncated",
            "manifest_ids_not_strings", "manifest_overlap"])
    def test_malformed_corpus_or_manifest_exits_3(self, workspace, tmp_path, capsys,
                                                  corrupt):
        out = tmp_path / "out"
        assert main(["ingest", "--config", cfg_path(workspace), "--output", str(out)]) == 0
        capsys.readouterr()
        corrupt(out)
        assert main(["train", "--config", cfg_path(workspace), "--output", str(out)]) == 3
        one_error_line(capsys, "data error:")

    @pytest.mark.parametrize("artifact, edit, line", [
        ("corpus.jsonl", lambda r: r.__setitem__("question", 5), "malformed record"),
        ("corpus.jsonl", lambda r: r.__setitem__("extra", 1), "malformed record"),
        ("corpus.jsonl", lambda r: r.pop("question"), "malformed record"),
        ("splits.json", lambda m: m.__setitem__("note", "x"), "malformed split manifest"),
    ], ids=["question_not_string", "extra_record_key", "no_question_key", "extra_manifest_key"])
    def test_record_or_manifest_off_its_keys_exits_3(self, workspace, tmp_path, capsys,
                                                     artifact, edit, line):
        """A corpus.jsonl record holds the four keys ingest writes, with
        question a string or null, and splits.json no key but its five:
        *edit* of the first record, or of the manifest, is refused."""
        out = tmp_path / "out"
        shutil.copytree(workspace / "out", out)
        path = out / artifact
        text = path.read_text(encoding="utf-8")
        first, rest = text.split("\n", 1) if artifact == "corpus.jsonl" else (text, "")
        value = json.loads(first)
        edit(value)
        path.write_text(json.dumps(value) + "\n" + rest, encoding="utf-8")
        capsys.readouterr()
        assert main(["stats", "--config", cfg_path(workspace), "--output", str(out)]) == 3
        assert f": {line}: " in one_error_line(capsys, "data error:")

    @pytest.mark.parametrize("split, command", [("test", "evaluate"), ("val", "train"),
                                                ("train", "train")])
    def test_manifest_listing_a_document_twice_names_it(self, workspace, tmp_path, capsys,
                                                        split, command):
        """An id in two splits, or twice in one, is refused before any
        detector runs: test metrics are never computed on training
        documents."""
        out = tmp_path / "out"
        shutil.copytree(workspace / "out", out)
        first = list_train_ids_again(out, split, 5)
        capsys.readouterr()
        assert main([command, "--config", cfg_path(workspace), "--output", str(out)]) == 3
        assert repr(first) in one_error_line(capsys, "data error:")

    @pytest.mark.parametrize("mutate", [
        lambda p: p["counts"].pop("1"),
        lambda p: p["counts"]["1"][0].__setitem__(-1, -2.0),
        lambda p: p["counts"]["2"][0].__setitem__(-2, 999999),
        lambda p: p.__setitem__("counts", {}),
        lambda p: p.__setitem__("end_id", p["end_id"] - 1),
        lambda p: p.__setitem__("order", "3"),
        lambda p: p["vocabulary"]["frequencies"].__setitem__("waa", 2.7),
        lambda p: p["counts"]["1"][0].__setitem__(-1, "2.0"),
        lambda p: [row.__setitem__(-1, 1e308) for row in p["counts"]["3"]],
        lambda p: p.__setitem__("note", "hello"),
        lambda p: p["vocabulary"].__setitem__("note", {}),
    ], ids=["level_1_deleted", "negative_count", "id_out_of_range", "no_counts",
            "end_id_mismatch", "order_string", "frequency_fractional", "count_string",
            "count_sum_overflow", "unknown_key", "unknown_vocabulary_key"])
    # A numpy warning fails the test, as it would print beside the error.
    @pytest.mark.filterwarnings("error")
    def test_corrupt_lm_exits_3(self, workspace, tmp_path, capsys, mutate):
        out = tmp_path / "out"
        shutil.copytree(workspace / "out", out)
        payload = json.loads((out / "lm.json").read_text())
        mutate(payload)
        (out / "lm.json").write_text(json.dumps(payload))
        inp = tmp_path / "in.txt"
        inp.write_text("waa wab wac wad wae.\n")
        rc = main(["detect", "--config", cfg_path(workspace), str(inp),
                   "--method", "detect_gpt", "--output", str(out)])
        assert rc == 3
        assert "lm.json" in one_error_line(capsys, "data error:")

    @pytest.mark.parametrize("artifact, method, mutate", [
        ("lm.json", "detect_gpt", lambda p: [row.__setitem__(-1, 1e308)
                                             for row in p["counts"]["3"]]),
        ("lm.json", "single_revise", lambda p: p.__setitem__("note", "hello")),
        ("model.json", "classifier", lambda p: p.__setitem__("note", "hello")),
    ], ids=["lm_count_sum_overflow", "lm_unknown_key", "model_unknown_key"])
    def test_refused_artifact_prints_one_line(self, workspace, tmp_path, artifact, method,
                                              mutate):
        """In a process of its own, where no test runner catches warnings,
        a refused artifact prints its one error line and nothing else."""
        out = tmp_path / "out"
        shutil.copytree(workspace / "out", out)
        payload = json.loads((out / artifact).read_text())
        mutate(payload)
        (out / artifact).write_text(json.dumps(payload))
        inp = tmp_path / "in.txt"
        inp.write_text("waa wab wac wad wae.\n")
        rc, err, printed = run_entry_point("detect", "--config", cfg_path(workspace), str(inp),
                                           "--method", method, "--output", str(out))
        assert rc == 3
        assert len(err) == 1 and err[0].startswith("data error:") and artifact in err[0], err
        assert printed == ""

    @pytest.mark.parametrize("field, value, rule", [
        ("order", 10**9, f"3 count levels for order {10**9}"),
        ("order", 10**400, f"3 count levels for order {10**400}"),
        ("vocabulary", {"word_to_id": {}, "frequencies": {}}, "vocabulary must contain UNK"),
    ], ids=["order_1e9", "order_1e400", "empty_vocabulary"])
    def test_refused_lm_names_the_rule(self, workspace, tmp_path, field, value, rule):
        """An order far past the file's count levels is refused before
        anything sized by it is built. The child's address space is capped
        at 1 GiB (a detect needs about 0.2), so that a regression fails
        here, not by the machine running out of memory."""
        out = tmp_path / "out"
        shutil.copytree(workspace / "out", out)
        payload = json.loads((out / "lm.json").read_text())
        payload[field] = value
        (out / "lm.json").write_text(json.dumps(payload))
        inp = tmp_path / "in.txt"
        inp.write_text("waa wab wac wad wae.\n")
        rc, err, printed = run_entry_point("detect", "--config", cfg_path(workspace), str(inp),
                                           "--method", "single_revise", "--output", str(out),
                                           address_space=1 << 30)
        assert rc == 3
        assert len(err) == 1 and err[0].startswith("data error:"), err
        assert err[0].endswith(f"lm.json: corrupted LM field: {rule}"), err
        assert printed == ""

    def test_underflowing_lm_skips_in_detect_and_exits_3_in_evaluate(self, workspace,
                                                                     tmp_path):
        """Every count finite and positive and every level's sum finite, but
        counts of 1e300 beside counts of 1 drive a back-off product to 0.0:
        detect skips the line, evaluate stops with one error line."""
        out = tmp_path / "out"
        shutil.copytree(workspace / "out", out)
        payload = json.loads((out / "lm.json").read_text())
        for rows in payload["counts"].values():
            for row in rows:
                row[-1] = 1e300 if row[-2] % 2 else 1.0
        (out / "lm.json").write_text(json.dumps(payload))
        inp = tmp_path / "in.txt"
        inp.write_text("waa wab wac wad wae waf wag.\n")
        config = write_config(tmp_path, workspace)
        rc, err, printed = run_entry_point("detect", "--config", config, str(inp),
                                           "--method", "detect_gpt")
        assert rc == 0
        assert len(err) == 1 and err[0].startswith("skipping line 1:"), err
        assert printed == "id,score,label,method\n"
        rc, err, printed = run_entry_point("evaluate", "--config", config)
        assert rc == 3
        assert len(err) == 1 and err[0].startswith("data error:"), err


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(Path(mgtdetect.__file__).parents[1]))


def run_entry_point(*args: str, address_space: int | None = None) -> tuple[int, list[str], str]:
    """The CLI entry point in a child process: exit code, stderr lines
    (where an uncaught exception would show as a traceback) and stdout.
    With *address_space*, the child may map at most that many bytes, so
    that a run that would take the machine's memory fails instead; a
    child still running after 120 s is killed and fails the test."""
    def cap() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    proc = subprocess.run([sys.executable, "-m", "mgtdetect.cli", *args],
                          capture_output=True, text=True, env=child_env(),
                          preexec_fn=None if address_space is None else cap, timeout=120)
    return proc.returncode, proc.stderr.splitlines(), proc.stdout


class TestInvalidUtf8:
    """A 0xff byte in a text input ends in the documented exit code and one
    error line, never in a traceback."""

    def test_config_exits_2(self, workspace, tmp_path):
        config = Path(write_config(tmp_path, workspace))
        config.write_bytes(b'{"note": "\xff", ' + config.read_bytes()[1:])
        rc, err, _ = run_entry_point("ingest", "--config", str(config))
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("config error:"), err

    def test_hc3_file_exits_3(self, workspace, tmp_path):
        data = tmp_path / "data.jsonl"
        data.write_bytes((workspace / "data.jsonl").read_bytes() + b'{"question": "q\xff", '
                         b'"human_answers": ["h."], "chatgpt_answers": ["m."]}\n')
        config = write_config(tmp_path, workspace, dataset__hc3_path=str(data))
        rc, err, _ = run_entry_point("ingest", "--config", config)
        assert rc == 3
        assert len(err) == 1 and err[0].startswith("data error:"), err
        assert "data.jsonl" in err[0]

    def test_conllu_file_exits_3(self, workspace, fixtures_dir, tmp_path):
        conllu = tmp_path / "human.conllu"
        conllu.write_bytes((fixtures_dir / "sample.conllu").read_bytes() + b"# \xff\n")
        shutil.copytree(workspace / "out", tmp_path / "out")
        config = write_config(tmp_path, workspace, dataset__conllu={"human": str(conllu)})
        rc, err, _ = run_entry_point("stats", "--config", config)
        assert rc == 3
        assert len(err) == 1 and err[0].startswith("data error:"), err
        assert "human.conllu" in err[0]

    def test_detect_input_exits_3(self, workspace, tmp_path):
        inp = tmp_path / "in.txt"
        inp.write_bytes(b"waa wab wac wad wae.\nwab \xff wac.\n")
        rc, err, _ = run_entry_point("detect", "--config", cfg_path(workspace), str(inp),
                                  "--method", "single_revise")
        assert rc == 3
        assert len(err) == 1 and err[0].startswith("data error:"), err
        assert "in.txt" in err[0]

    def test_detect_prints_nothing_when_a_late_line_is_bad(self, workspace, tmp_path):
        inp = tmp_path / "in.txt"
        inp.write_bytes(b"waa wab wac wad wae.\n" * 2000 + b"wab \xff wac.\n")
        rc, err, out = run_entry_point("detect", "--config", cfg_path(workspace), str(inp),
                                       "--method", "single_revise")
        assert rc == 3
        assert len(err) == 1 and err[0].startswith("data error:"), err
        assert "in.txt" in err[0]
        assert out == ""


# Nested past the recursion limit: json.loads raises RecursionError.
NESTED = "[" * 100_000 + "]" * 100_000


def _nest_config(tmp_path, workspace) -> tuple[str, ...]:
    config = Path(write_config(tmp_path, workspace))
    config.write_text(config.read_text()[:-1] + f', "note": {NESTED}}}')
    return "ingest", "--config", str(config)


def _nest_hc3(tmp_path, workspace) -> tuple[str, ...]:
    data = tmp_path / "data.jsonl"
    data.write_text((workspace / "data.jsonl").read_text() + NESTED + "\n")
    return "ingest", "--config", write_config(tmp_path, workspace,
                                              dataset__hc3_path=str(data))


def _nest_artifact(name: str, command: str):
    def nest(tmp_path, workspace) -> tuple[str, ...]:
        out = tmp_path / "out"
        shutil.copytree(workspace / "out", out)
        path = out / name
        path.write_text(path.read_text() + NESTED + "\n" if name.endswith(".jsonl")
                        else NESTED)
        args = (command, "--config", cfg_path(workspace), "--output", str(out))
        if command == "detect":
            (tmp_path / "in.txt").write_text("waa wab wac wad wae.\n")
            args += (str(tmp_path / "in.txt"), "--method", "single_revise")
        return args

    return nest


class TestNestedJson:
    """A JSON value nested past the recursion limit in any JSON input ends
    in its documented exit code and one error line naming the file."""

    @pytest.mark.parametrize("nest, rc, prefix, name", [
        (_nest_config, 2, "config error:", "config.json"),
        (_nest_hc3, 3, "data error:", "data.jsonl: line 41"),
        (_nest_artifact("corpus.jsonl", "train"), 3, "data error:", "corpus.jsonl:"),
        (_nest_artifact("splits.json", "train"), 3, "data error:", "splits.json"),
        (_nest_artifact("lm.json", "detect"), 3, "data error:", "lm.json"),
    ], ids=["config", "hc3", "corpus", "splits", "lm"])
    def test_exits_with_one_error_line(self, workspace, tmp_path, nest, rc, prefix, name):
        code, err, _ = run_entry_point(*nest(tmp_path, workspace))
        assert code == rc
        assert len(err) == 1 and err[0].startswith(prefix), err
        assert name in err[0]


class TestNumpyOnlyRuntime:
    def test_pipeline_imports_only_stdlib_and_numpy(self, workspace, fixtures_dir, tmp_path):
        """Every module that ingest, stats, train, evaluate and detect import
        (beyond those the interpreter loaded at start-up) is in the
        standard library, numpy or the package itself. Modules with no
        import spec were made in memory, not imported: numpy's Cython
        extensions register one (`_cython_<version>`) for their shared
        types."""
        conllu = str(fixtures_dir / "sample.conllu")
        config = write_config(tmp_path, workspace,
                              dataset__conllu={"human": conllu, "machine": conllu})
        inp = tmp_path / "in.txt"
        inp.write_text("waa wab wac wad wae.\n")
        report = tmp_path / "modules.json"
        script = f"""
import json, sys
startup = set(sys.modules)
from mgtdetect.cli import main
args = ["--config", {config!r}]
for command in (["ingest"], ["stats"], ["train"], ["evaluate"], ["detect", {str(inp)!r}]):
    assert main(command + args) == 0, command
imported = {{name.partition(".")[0] for name in set(sys.modules) - startup
            if getattr(sys.modules[name], "__spec__", None) is not None}}
open({str(report)!r}, "w").write(json.dumps(sorted(imported)))
"""
        subprocess.run([sys.executable, "-c", script], check=True, capture_output=True,
                       env=child_env())
        imported = set(json.loads(report.read_text()))
        assert {"mgtdetect", "numpy"} <= imported
        assert imported - set(sys.stdlib_module_names) == {"mgtdetect", "numpy"}

    def test_ingest_and_stats_import_no_numpy(self, workspace, fixtures_dir, tmp_path):
        """ingest then stats, in a fresh process, on a config with
        classifier, embeddings, zeroshot and transforms sections and
        CoNLL-U parses: every section is read through sections alone, so
        neither numpy nor the zero-shot or synthetic module is imported."""
        conllu = str(fixtures_dir / "sample.conllu")
        config = write_config(tmp_path, workspace,
                              dataset__conllu={"human": conllu, "machine": conllu})
        script = f"""
import sys
from mgtdetect.cli import main
for command in ("ingest", "stats"):
    assert main([command, "--config", {config!r}]) == 0, command
watched = ("numpy", "mgtdetect.zeroshot", "mgtdetect.synthetic")
print("imported:", *(name for name in watched if name in sys.modules))
"""
        proc = subprocess.run([sys.executable, "-c", script], check=True, capture_output=True,
                              text=True, env=child_env())
        assert proc.stdout.splitlines()[-1] == "imported:"
        assert proc.stderr == ""

    def test_zero_shot_train_and_detect_import_no_synthetic_code(self, workspace, tmp_path):
        """A zero-shot train and detect, in a fresh process, take their
        seeds from sections: the synthetic text module is not imported."""
        shutil.copytree(workspace / "out", tmp_path / "out")
        config = write_config(tmp_path, workspace, classifier=None, embeddings=None)
        inp = tmp_path / "in.txt"
        inp.write_text("waa wab wac wad wae waf wag.\n")
        script = f"""
import sys
from mgtdetect.cli import main
for command in (["train"], ["detect", {str(inp)!r}, "--method", "detect_gpt"]):
    assert main(command + ["--config", {config!r}]) == 0, command
print("imported:", *(name for name in ("mgtdetect.zeroshot", "mgtdetect.synthetic")
                     if name in sys.modules))
"""
        proc = subprocess.run([sys.executable, "-c", script], check=True, capture_output=True,
                              text=True, env=child_env())
        assert proc.stdout.splitlines()[-1] == "imported: mgtdetect.zeroshot"
        assert proc.stderr == ""

    def test_zero_shot_commands_import_no_classifier_or_stats_code(self, workspace, tmp_path):
        """ingest, train, evaluate and detect on a config with no classifier
        and no embeddings section leave classifiers, corpus_stats and
        embeddings unimported in a fresh process; ingest and detect, in a
        process of their own, leave evaluation unimported too, although the
        config holds transforms."""
        config = base_config(str(tmp_path / "out"))
        config["dataset"]["hc3_path"] = str(workspace / "data.jsonl")
        del config["classifier"], config["embeddings"]
        (tmp_path / "config.json").write_text(json.dumps(config))
        inp = tmp_path / "in.txt"
        inp.write_text("waa wab wac wad wae waf wag.\n")

        def imported_by(*commands: list[str]) -> set[str]:
            script = f"""
import sys
from mgtdetect.cli import main
args = ["--config", {str(tmp_path / "config.json")!r}]
for command in {list(commands)!r}:
    assert main(command + args) == 0, command
print(" ".join(sorted(name for name in sys.modules if name.startswith("mgtdetect."))))
"""
            proc = subprocess.run([sys.executable, "-c", script], check=True,
                                  capture_output=True, text=True, env=child_env())
            assert proc.stderr == ""
            return set(proc.stdout.splitlines()[-1].split())

        imported = imported_by(["ingest"], ["train"], ["evaluate"])
        assert {"mgtdetect.cli", "mgtdetect.zeroshot", "mgtdetect.evaluation"} <= imported
        assert not imported & {"mgtdetect.classifiers", "mgtdetect.corpus_stats",
                               "mgtdetect.embeddings"}
        imported = imported_by(["ingest"], ["detect", str(inp), "--method", "detect_gpt"])
        assert {"mgtdetect.cli", "mgtdetect.zeroshot", "mgtdetect.sections"} <= imported
        assert not imported & {"mgtdetect.classifiers", "mgtdetect.corpus_stats",
                               "mgtdetect.embeddings", "mgtdetect.evaluation"}

    def test_zero_shot_commands_on_a_full_config_import_no_classifier_code(self, workspace,
                                                                           tmp_path):
        """On a config with classifier, embeddings and zeroshot sections,
        ingest, stats and a zero-shot detect leave the classifier and
        skip-gram modules, and logging, unimported in a fresh process;
        train imports both modules."""
        shutil.copytree(workspace / "out", tmp_path / "out")
        config = write_config(tmp_path, workspace)
        inp = tmp_path / "in.txt"
        inp.write_text("waa wab wac wad wae waf wag.\n")
        script = f"""
import sys
from mgtdetect.cli import main
args = ["--config", {config!r}]
watched = ("mgtdetect.classifiers", "mgtdetect.embeddings", "logging")
for command in (["ingest"], ["stats"], ["detect", {str(inp)!r}, "--method", "detect_gpt"],
                ["detect", {str(inp)!r}, "--method", "single_revise"]):
    assert main(command + args) == 0, command
print("imported:", *(name for name in watched if name in sys.modules))
assert main(["train"] + args) == 0
print("imported:", *(name for name in watched if name in sys.modules))
"""
        proc = subprocess.run([sys.executable, "-c", script], check=True, capture_output=True,
                              text=True, env=child_env())
        before_train, after_train = (line.split()[1:] for line in proc.stdout.splitlines()
                                     if line.startswith("imported:"))
        assert before_train == []
        assert {"mgtdetect.classifiers", "mgtdetect.embeddings"} <= set(after_train)
        assert proc.stderr == ""

    @pytest.mark.parametrize("command", ["ingest", "stats", "detect"])
    @pytest.mark.parametrize("change", [
        {"classifier": {"family": "logreg", "l2": -1.0}},
        {"classifier": {"family": "mlp"}},
        {"transforms": [{"kind": "no_such_attack"}]},
        {"transforms": [{"kind": "case_flip", "intensity": 2.0}]},
        {"classifier": None, "embeddings": {"dim": 0}},
    ], ids=["classifier_range", "classifier_family", "transform_kind", "transform_range",
            "embeddings_range"])
    def test_bad_section_still_exits_2(self, workspace, tmp_path, capsys, command, change):
        """A section whose module a command does not run is still checked:
        the classifier and embeddings sections by their declarations in
        sections.py, the transforms by evaluation."""
        config = write_config(tmp_path, workspace, **change)
        args = [command, "--config", config]
        if command == "detect":
            inp = tmp_path / "in.txt"
            inp.write_text("waa wab wac wad wae.\n")
            args += [str(inp), "--method", "detect_gpt"]
        capsys.readouterr()
        assert main(args) == 2
        one_error_line(capsys, "config error:")


class TestMethodTable:
    def test_cli_takes_method_names_from_the_zeroshot_table(self, workspace, tmp_path,
                                                            monkeypatch, capsys):
        """A row added to sections.METHODS, with its score in zeroshot.SCORES,
        is a --method choice, passes the config's method check and is scored
        by the scorer builder, with no other change."""
        from mgtdetect.cli import RunConfig, build_parser

        rewrites = []

        def score(lm, doc, cfg):
            rewrites.append(cfg.k)
            return zeroshot.single_revise_score(lm, doc, cfg)

        monkeypatch.setitem(sections.METHODS, "table_row", 1)
        monkeypatch.setitem(zeroshot.SCORES, "table_row", score)
        args = ["detect", "--config", "config.json", "in.txt", "--method", "table_row"]
        assert build_parser().parse_args(args).method == "table_row"
        shutil.copytree(workspace / "out", tmp_path / "out")
        config = write_config(tmp_path, workspace, classifier=None, embeddings=None,
                              zeroshot__methods=["table_row"])
        parsed = RunConfig.from_file(config)
        assert (parsed.zeroshot["methods"], parsed.detect_method) == (("table_row",),
                                                                     "table_row")
        inp = tmp_path / "in.txt"
        inp.write_text("waa wab wac wad wae waf wag.\n")
        capsys.readouterr()
        assert main(["detect", "--config", config, str(inp)]) == 0
        assert capsys.readouterr().out.splitlines()[1].endswith(",table_row")
        assert rewrites == [1]

    def test_method_table_and_score_table_name_the_same_methods(self):
        """Each method of sections.METHODS has its score in zeroshot.SCORES,
        and no other method has one."""
        assert list(sections.METHODS) == list(zeroshot.SCORES)


class TestDefaults:
    def test_cli_defaults_are_the_library_defaults(self):
        def default(fn, name):
            return inspect.signature(fn).parameters[name].default

        feeds = {
            ("logreg", "l2"): (classifiers.train_logreg, "l2"),
            ("logreg", "epochs"): (classifiers.train_logreg, "epochs"),
            ("logreg", "lr"): (classifiers.train_logreg, "lr"),
            ("gnb", "budget"): (classifiers.tune_gnb, "budget"),
            ("gnb", "var_smoothing"): (classifiers.train_gnb, "var_smoothing"),
            ("svm", "lambda"): (classifiers.train_linear_svm, "lam"),
            ("svm", "epochs"): (classifiers.train_linear_svm, "epochs"),
            ("random_forest", "n_trees"): (classifiers.train_random_forest, "n_trees"),
            ("random_forest", "max_depth"): (classifiers.train_random_forest, "max_depth"),
        }
        # gnb's "tune" chooses tune_gnb over the fixed var_smoothing; it
        # feeds no library parameter.
        configured = {(f, k) for f, keys in HYPERPARAMETER_DEFAULTS.items() for k in keys}
        assert set(feeds) == configured - {("gnb", "tune")}
        assert HYPERPARAMETER_DEFAULTS["gnb"]["tune"] is False
        for (family, key), (fn, param) in feeds.items():
            assert HYPERPARAMETER_DEFAULTS[family][key] == default(fn, param), (family, key)
        perturb = zeroshot.PerturbConfig.__dataclass_fields__
        assert ZEROSHOT_DEFAULTS == {
            "order": default(zeroshot.train_kn_lm, "order"),
            "discount": default(zeroshot.train_kn_lm, "discount"),
            "k": perturb["k"].default,
            "mask_fraction": perturb["mask_fraction"].default,
            # The detect cut-off has no library default: d >= 0 means the
            # original scores at least as high as its rewrites.
            "threshold": 0.0,
        }
        # The documented skip-gram defaults, now read from SkipGramConfig.
        assert SKIPGRAM_DEFAULTS == {"dim": 32, "window": 5, "negatives": 5, "epochs": 3,
                                     "learning_rate": 0.025, "min_count": 2,
                                     "subsample": 1e-3}


def flip_middle_byte(path: Path) -> None:
    data = path.read_bytes()
    at = len(data) // 2
    path.write_bytes(data[:at] + bytes([data[at] ^ 1]) + data[at + 1:])


def rewrite_lm_json_from_another_model(path: Path) -> None:
    """lm.json replaced by that of another model, beside the old lm.bin."""
    other = path.with_name("other.json")
    zeroshot.save_lm(zeroshot.train_kn_lm(["waa wab wac.", "wab wac waa wad."], order=3), other)
    other.replace(path.with_suffix(".json"))
    other.with_suffix(".bin").unlink()


def copy_with_key_out_of_range(path: Path) -> None:
    """An lm.bin with valid digests whose level-2 keys end in one past the
    level's key range."""
    from test_zeroshot import appended, edited_copy, edited_grams

    lm = zeroshot.load_lm(path.with_suffix(".json"))
    copy = edited_copy(lm, grams=edited_grams(lm, 2, appended(lambda k: lm.base**2)))
    zeroshot._save_lm_bin(copy, path, path.with_suffix(".json"))


class TestLmCopy:
    """train writes lm.bin, the binary copy of lm.json, in the same staged
    block; detect and evaluate read the model from it when it is current
    and whole, else from lm.json, and print the same bytes either way."""

    def test_train_writes_the_copy_of_lm_json(self, workspace):
        from test_zeroshot import assert_same_model

        out = workspace / "out"
        assert_same_model(zeroshot._read_lm_bin(out / "lm.bin", out / "lm.json"),
                          zeroshot.load_lm(out / "lm.json"))

    @pytest.mark.parametrize("damage", [
        lambda p: None,
        lambda p: p.unlink(),
        lambda p: p.write_bytes(p.read_bytes()[:100]),
        flip_middle_byte,
        rewrite_lm_json_from_another_model,
        copy_with_key_out_of_range,
    ], ids=["intact", "missing", "truncated", "byte_flipped", "stale", "key_out_of_range"])
    # A numpy warning fails the test, as it would print on stderr.
    @pytest.mark.filterwarnings("error")
    def test_detect_prints_what_lm_json_alone_gives(self, workspace, tmp_path, capsys,
                                                     damage):
        out, alone = tmp_path / "out", tmp_path / "alone"
        shutil.copytree(workspace / "out", out)
        damage(out / "lm.bin")
        shutil.copytree(out, alone)
        (alone / "lm.bin").unlink(missing_ok=True)
        inp = tmp_path / "in.txt"
        inp.write_text("waa wab wac wad wae waf wag.\nwab wac waa wad wae waf wag.\n")
        capsys.readouterr()
        for method in ("detect_gpt", "single_revise"):
            printed = []
            for directory in (out, alone):
                assert main(["detect", "--config", cfg_path(workspace), str(inp), "--method",
                             method, "--output", str(directory)]) == 0
                captured = capsys.readouterr()
                assert captured.err == ""
                printed.append(captured.out)
            assert printed[0] == printed[1]
            assert len(printed[0].splitlines()) == 3

    @pytest.mark.parametrize("command", ["detect", "evaluate"])
    def test_corrupt_lm_json_beside_a_stale_copy_exits_3(self, workspace, tmp_path, command):
        out = tmp_path / "out"
        shutil.copytree(workspace / "out", out)
        payload = json.loads((out / "lm.json").read_text())
        payload["counts"]["1"][0][-1] = -2.0
        (out / "lm.json").write_text(json.dumps(payload))
        inp = tmp_path / "in.txt"
        inp.write_text("waa wab wac wad wae.\n")
        args = [str(inp), "--method", "detect_gpt"] if command == "detect" else []
        rc, err, _ = run_entry_point(command, "--config", cfg_path(workspace),
                                     "--output", str(out), *args)
        assert rc == 3
        assert len(err) == 1 and err[0].startswith("data error:") and "lm.json" in err[0], err

    @pytest.mark.parametrize("failure", ["lm_order", "lm_bin_write"])
    def test_failed_train_writes_no_copy_beside_an_old_lm_json(self, workspace, tmp_path,
                                                                capsys, monkeypatch, failure):
        """An output directory written before train wrote lm.bin: a train
        that fails, in training or in writing lm.bin, leaves it with its
        lm.json and no lm.bin."""
        out = tmp_path / "out"
        shutil.copytree(workspace / "out", out)
        (out / "lm.bin").unlink()
        before = file_bytes(out)
        if failure == "lm_order":
            config, code = write_config(tmp_path, workspace, zeroshot__order=60), 3
        else:
            save_lm_bin = zeroshot._save_lm_bin

            def failing(lm, path, json_path):
                save_lm_bin(lm, path, json_path)
                raise OSError(f"cannot write {path}")

            monkeypatch.setattr(zeroshot, "_save_lm_bin", failing)
            config, code = write_config(tmp_path, workspace, seed=8), 4
        capsys.readouterr()
        assert main(["train", "--config", config]) == code
        one_error_line(capsys, "data error:" if code == 3 else "io error:")
        assert file_bytes(out) == before


class TestStagedWrites:
    """Each command writes its files in one hidden directory inside the
    output directory, and leaves no such directory behind, whether it
    succeeds or fails."""

    def test_no_staging_directory_is_left(self, workspace, tmp_path, capsys, monkeypatch):
        from mgtdetect import cli

        out = tmp_path / "out"
        args = ["--config", cfg_path(workspace), "--output", str(out)]
        for command in ("ingest", "stats", "train", "evaluate"):
            assert main([command, *args]) == 0
            assert [p.name for p in out.iterdir() if p.name.startswith(".")] == []
        before = file_bytes(out)
        staged = []

        def failing(path, payload):
            path.write_text("partial")
            staged.append(path.parent)
            raise OSError(f"cannot write {path}")

        monkeypatch.setattr(cli, "_write_json", failing)
        capsys.readouterr()
        for command in ("ingest", "stats", "evaluate"):
            assert main([command, *args]) == 4
            one_error_line(capsys, "io error:")
        assert file_bytes(out) == before
        assert [p.parent for p in staged] == [out] * 3
        assert all(p.name.startswith(".") and not p.exists() for p in staged)


class TestOneLoadPerCommand:
    def test_evaluate_loads_lm_and_builds_sampler_once(self, workspace, tmp_path,
                                                       monkeypatch):
        from mgtdetect import zeroshot

        loads, json_loads, samplers = [], [], []
        load_lm_fast, load_lm = zeroshot.load_lm_fast, zeroshot.load_lm

        class Counting(zeroshot._SubstitutionSampler):
            def __init__(self, *args):
                samplers.append(args)
                super().__init__(*args)

        monkeypatch.setattr(zeroshot, "load_lm_fast",
                            lambda p: loads.append(p) or load_lm_fast(p))
        monkeypatch.setattr(zeroshot, "load_lm", lambda p: json_loads.append(p) or load_lm(p))
        monkeypatch.setattr(zeroshot, "_SubstitutionSampler", Counting)
        out = tmp_path / "out"
        shutil.copytree(workspace / "out", out)
        assert main(["evaluate", "--config", cfg_path(workspace), "--output", str(out)]) == 0
        assert len(loads) == 1
        assert json_loads == []  # read from lm.bin
        assert len(samplers) == 1

    def test_train_tokenizes_each_machine_text_once(self, tmp_path, monkeypatch, capsys):
        from mgtdetect import text_core, zeroshot
        from test_zeroshot import FIXTURES, GOLDEN_TEXTS, oracle_perplexity

        config = base_config()
        config["split"] = {"train": 0.6, "val": 0.2, "test": 0.2}
        del config["classifier"], config["embeddings"]
        (tmp_path / "config.json").write_text(json.dumps(config))
        args = ["--config", str(tmp_path / "config.json")]

        def ingest_with(machine):
            with (tmp_path / "data.jsonl").open("w") as fh:
                for i, answer in enumerate(machine):
                    fh.write(json.dumps({"question": f"q{i}", "human_answers": [f"human {i}."],
                                         "chatgpt_answers": [answer]}) + "\n")
            assert main(["ingest", *args]) == 0
            return json.loads((tmp_path / "out" / "splits.json").read_text())["train"]

        # The split depends on the seed and the class sizes only: place the
        # golden texts where the machine training documents fall.
        train_ids = ingest_with([f"filler {i}." for i in range(5)])
        slots = [i for i in range(5) if f"{i + 1}-m1" in train_ids]
        golden = iter(GOLDEN_TEXTS)
        ingest_with([next(golden) if i in slots else f"filler {i}." for i in range(5)])

        split_sentences, tokenize = text_core.split_sentences, text_core.tokenize
        calls = {"split_sentences": [], "tokenize": []}
        for module in (text_core, zeroshot):
            for name, fn in (("split_sentences", split_sentences),
                             ("tokenize", tokenize)):
                monkeypatch.setattr(module, name,
                                    lambda t, fn=fn, name=name: calls[name].append(t) or fn(t))
        train_kn_lm = zeroshot.train_kn_lm
        trained = []
        monkeypatch.setattr(zeroshot, "_log_probs_per_symbol",
                            lambda *a: pytest.fail("train scored its texts again"))
        monkeypatch.setattr(zeroshot, "train_kn_lm",
                            lambda *a, **k: trained.append(train_kn_lm(*a, **k)) or trained[0])
        assert main(["train", *args]) == 0
        monkeypatch.undo()

        machine_texts = calls["split_sentences"]
        assert sorted(machine_texts) == sorted(GOLDEN_TEXTS)
        assert calls["tokenize"] == [s for t in machine_texts for s in split_sentences(t)]
        ppl = oracle_perplexity(trained[0], machine_texts)
        assert trained[0].train_perplexity == ppl  # bit for bit
        assert f"train_perplexity={ppl:.3f}\n" in capsys.readouterr().out
        assert (tmp_path / "out" / "lm.json").read_bytes() == \
            (FIXTURES / "lm_golden.json").read_bytes()


@pytest.fixture(scope="module")
def family_models(workspace, tmp_path_factory) -> dict[str, bytes]:
    """model.json bytes of each classifier family at the workspace's
    embedding dimension."""
    from mgtdetect import classifiers

    dim = json.loads((workspace / "out" / "model.json").read_text())["dim"]
    rng = np.random.default_rng(0)
    data = classifiers.Dataset(features=rng.normal(size=(40, dim)), labels=np.arange(40) % 2)
    models = {
        "logreg": classifiers.train_logreg(data, epochs=5),
        "gnb": classifiers.train_gnb(data),
        "svm": classifiers.train_linear_svm(data, epochs=2),
        "random_forest": classifiers.train_random_forest(data, n_trees=3, max_depth=3),
    }
    root = tmp_path_factory.mktemp("models")
    blobs = {}
    for family, model in models.items():
        path = root / f"{family}.model.json"
        classifiers.save_model(model, path)
        blobs[family] = path.read_bytes()
    return blobs


def first_leaf(node: dict) -> dict:
    """The leftmost leaf of a model.json tree node."""
    while "leaf" not in node:
        node = node["left"]
    return node


class TestCorruptClassifierArtifacts:
    """A corrupt model.json or embeddings.txt makes `detect --method
    classifier` exit 3 with one data error line naming the file."""

    def _detect(self, workspace, tmp_path, capsys, model: bytes | None = None,
                vectors: bytes | None = None) -> str:
        out = tmp_path / "out"
        shutil.copytree(workspace / "out", out)
        if model is not None:
            (out / "model.json").write_bytes(model)
        if vectors is not None:
            (out / "embeddings.txt").write_bytes(vectors)
        inp = tmp_path / "in.txt"
        inp.write_text("waa wab wac wad wae.\nwab wac.\n")
        capsys.readouterr()
        rc = main(["detect", "--config", cfg_path(workspace), str(inp),
                   "--method", "classifier", "--output", str(out)])
        assert rc == 3
        return one_error_line(capsys, "data error:")

    @pytest.mark.parametrize("corrupt", [
        lambda b: b[:40] + b"\xff\xfe" + b[42:],
        lambda b: b"-5" + b[b.index(b" "):],
        lambda b: b"99999999999999999999" + b[b.index(b" "):],
        lambda b: b[:b.index(b" ")] + b" 0\n",
    ], ids=["invalid_utf8", "negative_count", "huge_count", "zero_dim"])
    def test_corrupt_embeddings_exit_3(self, workspace, tmp_path, capsys, corrupt):
        vectors = (workspace / "out" / "embeddings.txt").read_bytes()
        err = self._detect(workspace, tmp_path, capsys, vectors=corrupt(vectors))
        assert "embeddings.txt" in err

    @staticmethod
    def _overflowing_detect_args(workspace, tmp_path) -> list[str]:
        """detect on three lines, the second of two words whose vectors are
        all 1e308, so that their mean overflows."""
        out = tmp_path / "out"
        shutil.copytree(workspace / "out", out)
        rows = (out / "embeddings.txt").read_text().split("\n")
        words = [i for i, row in enumerate(rows) if row.split(" ")[0].isalpha()][:4]
        for i in words[:2]:
            surface, *values = rows[i].split(" ")
            rows[i] = " ".join([surface] + ["1e308"] * len(values))
        (out / "embeddings.txt").write_text("\n".join(rows))
        a, b, c, d = (rows[i].split(" ")[0] for i in words)
        inp = tmp_path / "in.txt"
        inp.write_text(f"{c} {d}.\n{a} {b}.\n{d}.\n")
        return ["detect", "--config", cfg_path(workspace), str(inp),
                "--method", "classifier", "--output", str(out)]

    def test_overflowing_feature_vector_skips_its_line(self, workspace, tmp_path, capsys):
        """Finite vectors whose mean overflows make one document's feature
        vector infinite: that line is skipped, the others are printed."""
        args = self._overflowing_detect_args(workspace, tmp_path)
        capsys.readouterr()
        assert main(args) == 0
        printed = capsys.readouterr()
        assert [row.split(",")[0] for row in printed.out.splitlines()] == ["id", "1", "3"]
        assert printed.err == "skipping line 2: feature vector must be finite\n"

    def test_overflow_prints_no_numpy_warning(self, workspace, tmp_path):
        """In a process of its own, where no test runner catches warnings,
        the skip line is all that reaches stderr."""
        rc, err, out = run_entry_point(*self._overflowing_detect_args(workspace, tmp_path))
        assert rc == 0
        assert err == ["skipping line 2: feature vector must be finite"]
        assert [row.split(",")[0] for row in out.splitlines()] == ["id", "1", "3"]

    @pytest.mark.parametrize("family", ["svm", "logreg"])
    def test_overflowing_score_prints_only_its_skip_line(self, workspace, tmp_path, family):
        """A linear model trained on the workspace's vectors, and one word
        whose finite vector is the largest float times the sign of each
        trained weight: every term of the dot product is positive, so it
        overflows whatever documents trained the model, logreg's sigmoid
        does not hide it, and in a process of its own the skip line is all
        that reaches stderr."""
        out = tmp_path / "out"
        shutil.copytree(workspace / "out", out)
        config = write_config(tmp_path, workspace, classifier={"family": family}, zeroshot=None,
                              embeddings={"source": "load",
                                          "path": str(workspace / "out" / "embeddings.txt")})
        assert main(["train", "--config", config]) == 0
        weights = json.loads((out / "model.json").read_text())["weights"]
        # The sum of |w| * max exceeds max only when the |w| sum to more than 1.
        assert sum(abs(w) for w in weights) > 1.0 + 1e-9
        rows = (out / "embeddings.txt").read_text().split("\n")
        i = next(i for i, row in enumerate(rows) if row.split(" ")[0].isalpha())
        word = rows[i].split(" ")[0]
        rows[i] = " ".join([word] + [repr(math.copysign(sys.float_info.max, w)) for w in weights])
        (out / "embeddings.txt").write_text("\n".join(rows))
        inp = tmp_path / "in.txt"
        inp.write_text(f"{word}.\n")
        rc, err, printed = run_entry_point("detect", "--config", config, str(inp),
                                           "--method", "classifier")
        assert rc == 0
        assert err == ["skipping line 1: prediction score must be finite"]
        assert printed.splitlines() == ["id,score,label,method"]

    def test_train_overflow_prints_only_its_error(self, workspace, tmp_path):
        """train on loaded vectors whose mean overflows: in a process of its
        own, the data error is all that reaches stderr, and no file of the
        output directory has changed."""
        out = tmp_path / "out"
        shutil.copytree(workspace / "out", out)
        before = file_bytes(out)
        header, *rows = (out / "embeddings.txt").read_text().splitlines()
        dim = int(header.split(" ")[1])
        lines = [header] + [" ".join([row.split(" ")[0]] + ["1e308"] * dim) for row in rows]
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("\n".join(lines) + "\n")
        config = write_config(tmp_path, workspace, zeroshot=None,
                              embeddings={"source": "load", "path": str(vectors)})
        rc, err, _ = run_entry_point("train", "--config", config)
        assert rc == 3
        assert err == ["data error: feature vector must be finite"]
        assert file_bytes(out) == before

    @pytest.mark.parametrize("classifier, learning_rate", [
        ({"family": "logreg", "lr": 1e300, "epochs": 3}, 0.025),
        ({"family": "logreg"}, 1e300),
    ], ids=["logreg_lr", "skipgram_learning_rate"])
    def test_diverging_training_prints_only_its_error(self, tmp_path, classifier,
                                                      learning_rate):
        """A learning rate inside its range on which the classifier or the
        skip-gram run diverges: in a process of its own, train exits 3 with
        one data error line and no numpy warning, and no file of the output
        directory has changed."""
        write_hc3_file(tmp_path / "data.jsonl", n_lines=40, seed=3)
        config = base_config(str(tmp_path / "out"))
        del config["zeroshot"]
        config.update(seed=3, classifier=classifier, embeddings={
            "dim": 8, "window": 3, "epochs": 1, "min_count": 1, "learning_rate": learning_rate})
        config["dataset"]["hc3_path"] = str(tmp_path / "data.jsonl")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["ingest", "--config", str(path)]) == 0
        before = file_bytes(tmp_path / "out")
        rc, err, _ = run_entry_point("train", "--config", str(path))
        assert rc == 3
        assert len(err) == 1 and err[0].startswith("data error:"), err
        assert file_bytes(tmp_path / "out") == before

    def test_failed_lm_training_writes_no_file(self, workspace, tmp_path, capsys):
        """The classifier trains, then the LM's order is refused: train
        exits 3 before it writes any of its artifacts."""
        out = tmp_path / "out"
        shutil.copytree(workspace / "out", out)
        before = file_bytes(out)
        config = write_config(tmp_path, workspace, classifier__epochs=7, zeroshot__order=60)
        capsys.readouterr()
        assert main(["train", "--config", config]) == 3
        one_error_line(capsys, "data error:")
        assert file_bytes(out) == before

    @pytest.mark.parametrize("module, name", [(classifiers, "save_model"),
                                              (zeroshot, "save_lm")])
    def test_failed_write_changes_no_file(self, workspace, tmp_path, capsys, monkeypatch,
                                          module, name):
        """A save that fails after it has written its file: train, under
        another seed, exits 4, every file of the output directory keeps its
        bytes, and no temporary file is left beside them."""
        out = tmp_path / "out"
        shutil.copytree(workspace / "out", out)
        before = file_bytes(out)
        save = getattr(module, name)

        def failing(artifact, path):
            save(artifact, path)
            raise OSError(f"cannot write {path}")

        monkeypatch.setattr(module, name, failing)
        config = write_config(tmp_path, workspace, seed=8)
        capsys.readouterr()
        assert main(["train", "--config", config]) == 4
        one_error_line(capsys, "io error:")
        assert file_bytes(out) == before
        # Unpatched, the same run changes the artifacts: the check above
        # could fail.
        monkeypatch.setattr(module, name, save)
        assert main(["train", "--config", config]) == 0
        after = file_bytes(out)
        assert sorted(after) == sorted(before) and after != before

    @pytest.mark.parametrize("family, mutate", [
        ("svm", lambda p: p.__setitem__("weights", [[w] for w in p["weights"]])),
        ("logreg", lambda p: p.__setitem__("weights", [[w] for w in p["weights"]])),
        ("logreg", lambda p: p.__setitem__("weights", 0.5)),
        ("logreg", lambda p: p.__setitem__("bias", 1e400)),
        ("gnb", lambda p: p.__setitem__("means", p["means"][0])),
        ("gnb", lambda p: p.__setitem__("means", p["means"] + [p["means"][0]])),
        ("gnb", lambda p: p.__setitem__("variances", [r[:-1] for r in p["variances"]])),
        ("gnb", lambda p: p.__setitem__("priors", p["priors"] + [0.5])),
        ("gnb", lambda p: p.__setitem__("priors", [-0.5, 1.5])),
        ("random_forest", lambda p: p["trees"][0].__setitem__("feature", 999)),
        ("random_forest", lambda p: p["trees"][0].__setitem__("feature", -1)),
        ("random_forest", lambda p: p.__setitem__("trees", [])),
        ("random_forest", lambda p: p.__setitem__("dim", 1e400)),
        ("random_forest", lambda p: p.__setitem__("max_depth", {"deep": [1]})),
        ("random_forest", lambda p: p.__setitem__("max_depth", 0)),
        ("random_forest", lambda p: p.__setitem__("n_trees", 999)),
        ("random_forest", lambda p: p.__setitem__("n_trees", 2.7)),
        ("random_forest", lambda p: p.__setitem__("seed", -5)),
        ("random_forest", lambda p: p.__setitem__("dim", p["dim"] + 0.5)),
        ("random_forest", lambda p: p["trees"][0].__setitem__("feature", 0.5)),
        ("logreg", lambda p: p.__setitem__("bias", "0.5")),
        ("logreg", lambda p: p.__setitem__("bias", True)),
        ("logreg", lambda p: p.__setitem__("l2", "1e-4")),
        ("logreg", lambda p: p.__setitem__("weights", [str(w) for w in p["weights"]])),
        ("gnb", lambda p: p["means"][0].__setitem__(0, False)),
        ("random_forest", lambda p: p["trees"][0].__setitem__("threshold", "0.5")),
        ("logreg", lambda p: p.__setitem__("note", "hello")),
        ("gnb", lambda p: p.__setitem__("weights", p["means"][0])),
        ("random_forest", lambda p: p.__setitem__("lambda", 1e-3)),
        ("logreg", lambda p: p.__setitem__("dim", "garbage")),
        ("logreg", lambda p: p.__setitem__("dim", 999)),
        ("logreg", lambda p: p.pop("dim")),
        ("gnb", lambda p: p.__setitem__("dim", "garbage")),
        ("gnb", lambda p: p.__setitem__("dim", 999)),
        ("gnb", lambda p: p.pop("dim")),
        ("svm", lambda p: p.__setitem__("dim", "garbage")),
        ("svm", lambda p: p.__setitem__("dim", 999)),
        ("svm", lambda p: p.pop("dim")),
        ("logreg", lambda p: p.__setitem__("l2", -1)),
        ("svm", lambda p: p.__setitem__("lambda", -1)),
        ("random_forest", lambda p: p["trees"][0].__setitem__("note", 1)),
        ("random_forest", lambda p: first_leaf(p["trees"][0]).__setitem__("leaf", 7.0)),
        ("random_forest", lambda p: p["trees"][0].__setitem__("leaf", 0.5)),
    ], ids=["svm_weights_2d", "logreg_weights_2d", "logreg_weights_scalar",
            "logreg_bias_infinite", "gnb_means_1d", "gnb_three_classes",
            "gnb_variance_width", "gnb_three_priors", "gnb_negative_prior",
            "rf_feature_999", "rf_feature_negative", "rf_no_trees", "rf_dim_overflow",
            "rf_max_depth_object", "rf_max_depth_zero", "rf_n_trees_999",
            "rf_n_trees_fractional", "rf_seed_negative", "rf_dim_fractional",
            "rf_feature_fractional", "logreg_bias_string", "logreg_bias_boolean",
            "logreg_l2_string", "logreg_weights_strings", "gnb_mean_boolean",
            "rf_threshold_string", "logreg_unknown_key", "gnb_logreg_key", "rf_svm_key",
            "logreg_dim_string", "logreg_dim_999", "logreg_dim_missing", "gnb_dim_string",
            "gnb_dim_999", "gnb_dim_missing", "svm_dim_string", "svm_dim_999",
            "svm_dim_missing", "logreg_l2_negative", "svm_lambda_negative",
            "rf_node_unknown_key", "rf_leaf_7", "rf_split_with_leaf"])
    def test_corrupt_model_exit_3(self, workspace, family_models, tmp_path, capsys,
                                  family, mutate):
        payload = json.loads(family_models[family])
        mutate(payload)
        err = self._detect(workspace, tmp_path, capsys, model=json.dumps(payload).encode())
        assert "model.json" in err

    @pytest.mark.parametrize("family", ["logreg", "gnb", "svm", "random_forest"])
    def test_intact_family_models_load(self, workspace, family_models, tmp_path, capsys,
                                       family):
        out = tmp_path / "out"
        shutil.copytree(workspace / "out", out)
        (out / "model.json").write_bytes(family_models[family])
        inp = tmp_path / "in.txt"
        inp.write_text("waa wab wac wad wae.\n")
        assert main(["detect", "--config", cfg_path(workspace), str(inp),
                     "--method", "classifier", "--output", str(out)]) == 0
        assert capsys.readouterr().out.count("\n") == 2


# -- fuzzing the classifier artifacts --

JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-2**70, max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=5),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=3),
    max_leaves=8,
)


def _json_paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _json_paths(node[key], prefix + (key,))
    elif isinstance(node, list):
        for i, item in enumerate(node[:3]):
            yield from _json_paths(item, prefix + (i,))


def _replace_at(node, path, value):
    if not path:
        return value
    node[path[0]] = _replace_at(node[path[0]], path[1:], value)
    return node


@st.composite
def byte_edits(draw, blob: bytes) -> bytes:
    out = bytearray(blob)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, max(len(out) - 1, 0)))
        kind = draw(st.sampled_from(["set", "insert", "delete", "truncate"]))
        byte = draw(st.integers(0, 255))
        if kind == "set" and out:
            out[pos] = byte
        elif kind == "insert":
            out.insert(pos, byte)
        elif kind == "delete" and out:
            del out[pos]
        elif kind == "truncate":
            del out[pos:]
    return bytes(out)


@st.composite
def model_field_edits(draw, blob: bytes) -> bytes:
    payload = json.loads(blob)
    paths = list(_json_paths(payload))
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(paths))
        payload = _replace_at(payload, path, draw(JSON_VALUES))
        paths = list(_json_paths(payload))
    return json.dumps(payload).encode()


@st.composite
def vector_token_edits(draw, blob: bytes) -> bytes:
    lines = blob.decode("utf-8").split("\n")
    row = draw(st.integers(0, min(len(lines) - 1, 4)))
    tokens = lines[row].split(" ")
    col = draw(st.integers(0, len(tokens) - 1))
    tokens[col] = draw(st.one_of(
        st.sampled_from(["", "-1", "0", "nan", "inf", "1e400", "unk", "<unk>", "a b",
                         "99999999999999999999", "0x10", str(len(lines))]),
        st.text(max_size=4),
    ))
    lines[row] = " ".join(tokens)
    return "\n".join(lines).encode("utf-8", errors="surrogatepass")


@pytest.fixture(scope="module")
def fuzz_dir(workspace, tmp_path_factory) -> tuple[Path, Path, Path]:
    """A copy of the trained output and a classifier-only config, so
    `evaluate` runs the classifier alone."""
    root = tmp_path_factory.mktemp("fuzz")
    out = root / "out"
    shutil.copytree(workspace / "out", out)
    config = base_config(str(out))
    config["dataset"]["hc3_path"] = str(workspace / "data.jsonl")
    del config["zeroshot"]
    (root / "config.json").write_text(json.dumps(config))
    inp = root / "in.txt"
    inp.write_text("waa wab wac wad wae.\nwab wac.\nThe human wrote this line here.\n")
    return root / "config.json", out, inp


def _run_quietly(args: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(args)
    return rc, err.getvalue()


class TestClassifierArtifactFuzz:
    """Mutated model.json and embeddings.txt never crash detect or evaluate:
    every run ends in exit 0 or 3 with no traceback."""

    @settings(deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), family=st.sampled_from(["logreg", "gnb", "svm", "random_forest"]),
           target=st.sampled_from(["model_bytes", "model_fields", "vector_bytes",
                                   "vector_tokens"]))
    def test_mutated_artifacts_exit_0_or_3(self, workspace, family_models, fuzz_dir,
                                           data, family, target):
        config, out, inp = fuzz_dir
        model = family_models[family]
        vectors = (workspace / "out" / "embeddings.txt").read_bytes()
        if target == "model_bytes":
            model = data.draw(byte_edits(model))
        elif target == "model_fields":
            model = data.draw(model_field_edits(model))
        elif target == "vector_bytes":
            vectors = data.draw(byte_edits(vectors))
        else:
            vectors = data.draw(vector_token_edits(vectors))
        (out / "model.json").write_bytes(model)
        (out / "embeddings.txt").write_bytes(vectors)
        for args in (["detect", "--config", str(config), str(inp), "--method", "classifier"],
                     ["evaluate", "--config", str(config)]):
            rc, err = _run_quietly(args)
            assert rc in (0, 3), (args[0], rc, err)
            assert "Traceback" not in err


# -- fuzzing the config and the ingested artifacts --


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _typed_fields(family: str) -> list[tuple[tuple, type]]:
    """(path, type) of every typed config value for one classifier family."""
    fields = [(("seed",), int), (("transforms", 0, "intensity"), float)]
    fields += [(("split", k), float) for k in ("train", "val", "test")]
    for section, defaults in (("embeddings", SKIPGRAM_DEFAULTS),
                              ("zeroshot", ZEROSHOT_DEFAULTS),
                              ("classifier", HYPERPARAMETER_DEFAULTS[family])):
        fields += [((section, k), type(v)) for k, v in defaults.items()]
    return fields


def other_kind(kind: type, nullable: bool) -> st.SearchStrategy:
    """A JSON value that the typing rule refuses for a field of *kind*."""
    kinds = [st.lists(JSON_SCALARS, max_size=3),
             st.dictionaries(st.text(max_size=3), JSON_SCALARS, max_size=2)]
    if not nullable:
        kinds.append(st.none())
    if kind is bool:
        kinds += [st.integers(), st.floats(), st.text(max_size=6)]
    else:
        kinds += [st.booleans(), st.text(max_size=6).filter(lambda t: not _is_number(t))]
    if kind is int:
        kinds.append(st.floats(allow_nan=False, allow_infinity=False)
                     .filter(lambda x: not x.is_integer()))
    return st.one_of(kinds)


def oracle_derive_seed(root_seed: int, path: str) -> int:
    """The CLI's former seed derivation, kept as an oracle."""
    digest = hashlib.sha256(f"{root_seed}/{path}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class TestDeriveSeed:
    @settings(max_examples=200)
    @given(root=st.integers(), path=st.text())
    def test_equals_former_derivation(self, root, path):
        assert derive_seed(root, path) == oracle_derive_seed(root, path)

    def test_one_derivation(self):
        assert derive_seed is synthetic.stable_seed

    @settings(max_examples=200)
    @given(seed=st.integers(), key=st.text())
    @example(seed=7, key="1-h\u00e9\U0001F600")
    def test_keyed_seed_is_stable_seed(self, seed, key):
        assert sections.keyed_seed(seed)(key) == sections.stable_seed(seed, key)


class TestConfigFuzz:
    """Any typed config value replaced by a value of another JSON kind makes
    every command exit 2 with one config error line."""

    @settings(deadline=None, max_examples=100,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), family=st.sampled_from(sorted(HYPERPARAMETER_DEFAULTS)))
    def test_value_of_another_kind_exits_2(self, workspace, tmp_path, data, family):
        config = base_config(str(tmp_path / "out"))
        config["dataset"]["hc3_path"] = str(workspace / "data.jsonl")
        config["classifier"] = {"family": family}
        path, kind = data.draw(st.sampled_from(_typed_fields(family)))
        target = config
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = data.draw(other_kind(kind, nullable=path[-1] == "max_depth"))
        (tmp_path / "config.json").write_text(json.dumps(config))
        # An accepted config would exit 3 here: nothing is ingested.
        rc, err = _run_quietly(["evaluate", "--config", str(tmp_path / "config.json")])
        assert rc == 2, (path, err)
        assert len(err.splitlines()) == 1 and err.startswith("config error:"), err


@st.composite
def artifact_edits(draw, blob: bytes, jsonl: bool) -> bytes:
    """Byte edits, a 0xff byte, a JSON value nested past the recursion
    limit, or JSON-field edits of the whole file (one line of a JSONL
    file)."""
    kind = draw(st.sampled_from(["bytes", "0xff", "nested", "fields"]))
    if kind == "bytes":
        return draw(byte_edits(blob))
    if kind == "0xff":
        pos = draw(st.integers(0, len(blob)))
        return blob[:pos] + b"\xff" + blob[pos:]
    lines = blob.split(b"\n") if jsonl else [blob]
    row = draw(st.integers(0, len(lines) - 2)) if jsonl else 0
    lines[row] = NESTED.encode() if kind == "nested" else draw(model_field_edits(lines[row]))
    return b"\n".join(lines)


@pytest.fixture(scope="module")
def zeroshot_fuzz_dir(workspace, tmp_path_factory):
    """A copy of the trained output, a zero-shot-only config (single_revise,
    no transforms, so each run is short), a detect input, and the intact
    bytes of the three artifacts the fuzz edits."""
    root = tmp_path_factory.mktemp("zsfuzz")
    out = root / "out"
    shutil.copytree(workspace / "out", out)
    config = base_config(str(out))
    config["dataset"]["hc3_path"] = str(workspace / "data.jsonl")
    del config["classifier"], config["embeddings"]
    config["zeroshot"]["methods"] = ["single_revise"]
    config["transforms"] = []
    (root / "config.json").write_text(json.dumps(config))
    inp = root / "in.txt"
    inp.write_text("waa wab wac wad wae.\nwab wac.\n")
    intact = {name: (out / name).read_bytes()
              for name in ("lm.json", "corpus.jsonl", "splits.json")}
    return root / "config.json", out, inp, intact


class TestIngestedArtifactFuzz:
    """Mutated lm.json, corpus.jsonl and splits.json never crash detect,
    evaluate or train: every run ends in exit 0, or in exit 3 with one
    data error line."""

    @settings(deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), target=st.sampled_from(["lm.json", "corpus.jsonl", "splits.json"]))
    def test_mutated_artifacts_exit_0_or_3(self, zeroshot_fuzz_dir, data, target):
        config, out, inp, intact = zeroshot_fuzz_dir
        for name, blob in intact.items():
            if name == target:
                blob = data.draw(artifact_edits(blob, jsonl=name.endswith(".jsonl")))
            (out / name).write_bytes(blob)
        for args in (["detect", "--config", str(config), str(inp), "--method", "single_revise"],
                     ["evaluate", "--config", str(config)],
                     ["train", "--config", str(config)]):
            rc, err = _run_quietly(args)
            assert rc in (0, 3), (args[0], rc, err)
            errors = [line for line in err.splitlines() if not line.startswith("skipping line")]
            if rc == 3:
                assert len(errors) == 1 and errors[0].startswith("data error:"), errors
            else:
                assert errors == [], errors
