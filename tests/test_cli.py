import json
import re
import shutil
from pathlib import Path

import pytest

from mgtdetect.cli import main
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


def cfg_path(workspace: Path) -> str:
    return str(workspace / "config.json")


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

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["ingest", "--config", str(tmp_path / "absent.json")]) == 2

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
        inp.write_text("waa wab wac wad wae waf wag wah.\nwba wbb wbc wbd wbe.\n")
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
def evaluated(workspace) -> Path:
    assert main(["evaluate", "--config", cfg_path(workspace)]) == 0
    return workspace / "out"


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


def one_error_line(capsys, prefix: str) -> str:
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(prefix), err
    return err[0]


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


class TestMalformedInputs:
    @pytest.mark.parametrize("command, changes", [
        ("train", {"zeroshot__order": "three"}),
        ("evaluate", {"zeroshot__k": "x"}),
        ("train", {"embeddings__dim": "abc"}),
        ("train", {"embeddings": 5}),
        ("train", {"zeroshot__methods": "detect_gpt"}),
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
    ])
    def test_config_value_of_wrong_type_exits_2(self, workspace, tmp_path, capsys,
                                                command, changes):
        config = write_config(tmp_path, workspace, **changes)
        args = [command, "--config", config] + (["in.txt"] if command == "detect" else [])
        assert main(args) == 2
        one_error_line(capsys, "config error:")

    def test_zeroshot_defaults(self, workspace, tmp_path):
        from mgtdetect.cli import RunConfig

        config = write_config(tmp_path, workspace, zeroshot={})
        zs = RunConfig.from_file(config).zeroshot
        assert (zs.order, zs.discount, zs.k, zs.mask_fraction, zs.threshold, zs.methods) == (
            3, 0.75, 10, 0.15, 0.0, ("detect_gpt",))

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
    ], ids=["truncated", "not_json", "missing_label", "not_object", "unknown_label",
            "body_not_string", "manifest_missing_test", "manifest_truncated",
            "manifest_ids_not_strings"])
    def test_malformed_corpus_or_manifest_exits_3(self, workspace, tmp_path, capsys,
                                                  corrupt):
        out = tmp_path / "out"
        assert main(["ingest", "--config", cfg_path(workspace), "--output", str(out)]) == 0
        capsys.readouterr()
        corrupt(out)
        assert main(["train", "--config", cfg_path(workspace), "--output", str(out)]) == 3
        one_error_line(capsys, "data error:")

    @pytest.mark.parametrize("mutate", [
        lambda p: p["counts"].pop("1"),
        lambda p: p["counts"]["1"][0].__setitem__(-1, -2.0),
        lambda p: p["counts"]["2"][0].__setitem__(-2, 999999),
        lambda p: p.__setitem__("counts", {}),
        lambda p: p.__setitem__("end_id", p["end_id"] - 1),
    ], ids=["level_1_deleted", "negative_count", "id_out_of_range", "no_counts",
            "end_id_mismatch"])
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


class TestOneLoadPerCommand:
    def test_evaluate_loads_lm_and_builds_sampler_once(self, workspace, tmp_path,
                                                       monkeypatch):
        from mgtdetect import zeroshot

        loads, samplers = [], []
        load_lm = zeroshot.load_lm

        class Counting(zeroshot._SubstitutionSampler):
            def __init__(self, *args):
                samplers.append(args)
                super().__init__(*args)

        monkeypatch.setattr(zeroshot, "load_lm", lambda p: loads.append(p) or load_lm(p))
        monkeypatch.setattr(zeroshot, "_SubstitutionSampler", Counting)
        out = tmp_path / "out"
        shutil.copytree(workspace / "out", out)
        assert main(["evaluate", "--config", cfg_path(workspace), "--output", str(out)]) == 0
        assert len(loads) == 1
        assert len(samplers) == 1
