#!/usr/bin/env python3
"""Benchmark of the mgtdetect command line on two seeded workloads.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 55 --trace 0

Every command runs in a fresh child process, one at a time: a closed loop
with one client. `--trace 0` reports the end-to-end metrics of untraced
commands; `--trace 1` runs the workload with spans around every layer (see
tracing.py) and reports the per-layer metrics. Both check the outputs: exit
codes, detect scores against direct library calls, scoring passes per
document, and byte-identical outputs whenever a command is repeated. The
last line of stdout is the JSON result. README.md defines every metric.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("desk", "wide")
SETUP_REPS = 5  # fewest set-ups per run; setup_s is their median
METHODS = ("detect_gpt", "single_revise")
ENTRY = "import sys; from mgtdetect.cli import main; sys.exit(main(sys.argv[1:]))"
# A fixed job that does not touch mgtdetect: interpreter start, the numpy
# import and dict-heavy pure Python, like the commands. It runs before and
# after every timed step of an untraced run; its wall time there tells how
# fast the shared machine ran during the step (see Runner.sandwich).
CALIBRATION = """
import json, math, numpy
counts = {}
for i in range(100_000):
    word = "w%d" % (i * 7919 % 5003)
    counts[word] = counts.get(word, 0) + 1
total = sum(math.log(v + 1.0) for v in counts.values())
json.dumps(sorted(counts.items()))
"""
REFERENCE_S = 0.25  # the calibration job's wall time that timings are scaled to
PASSES_RE = re.compile(r"lm scoring passes = (\d+) \((\d+) docs")

END_TO_END = {
    "setup_s": "s", "pipeline_s": "s", "ingest_s": "s", "train_s": "s",
    "detect_gpt_docs_per_s": "docs/s", "single_revise_docs_per_s": "docs/s",
    "detect_call_s": "s", "peak_rss_mb": "MB",
    "auroc.detect_gpt": "1", "auroc.single_revise": "1",
}


class BenchError(Exception):
    """A command failed or an output is wrong: the run is not measured."""


@dataclass
class Call:
    command: str
    method: str | None
    input: Path | None  # detect: the document file
    wall_s: float
    machine: float  # calibration wall time around the call ÷ REFERENCE_S
    rss_mb: float
    stdout: Path
    spans: Path | None
    docs: int = 0  # detect: documents scored

    @property
    def scaled_s(self) -> float:
        """Wall time at the machine speed where the calibration job takes
        REFERENCE_S."""
        return self.wall_s / self.machine


class Runner:
    """Starts one CLI child at a time and records its wall time, machine
    factor and peak RSS."""

    def __init__(self, workdir: Path, k: int, calibrate: bool):
        self.workdir = workdir
        self.k = k
        self.calibrate = calibrate
        path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        self.calls: list[Call] = []
        self.attempted = 0
        self.calibration_s: list[float] = []
        self.after: float | None = None  # the calibration that ended the last step

    def calibration(self) -> float:
        rc, wall, _ = self.child([sys.executable, "-c", CALIBRATION],
                                 self.workdir / "logs" / "calibration.out")
        if rc != 0:
            raise BenchError(f"the calibration job exited {rc}")
        self.calibration_s.append(wall)
        return wall

    def sandwich(self, step):
        """(step(), machine): `machine` is the mean wall time of the
        calibration jobs just before and just after the step, ÷ REFERENCE_S.
        Consecutive steps share the job between them. The shared machine's
        speed drifts by 10-20% over seconds to minutes, for every process
        alike; dividing by `machine` takes most of that out of a timing.
        1.0 when not calibrating."""
        if not self.calibrate:
            return step(), 1.0
        before = self.after if self.after is not None else self.calibration()
        result = step()
        self.after = self.calibration()
        return result, (before + self.after) / 2 / REFERENCE_S

    def child(self, argv: list[str], stdout: Path) -> tuple[int, float, float]:
        """(exit code, wall seconds, peak RSS in MB) of one child process."""
        with stdout.open("wb") as out, stdout.with_suffix(".err").open("wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=self.workdir)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def cli(self, args: list[str], trace: bool, input_path: Path | None = None) -> Call:
        command = args[0]
        method = args[args.index("--method") + 1] if "--method" in args else None
        tag = f"{len(self.calls):04d}.{command}" + (f".{method}" if method else "")
        stdout = self.workdir / "logs" / f"{tag}.out"
        spans = self.workdir / "traces" / f"{tag}.json" if trace else None
        argv = ([sys.executable, str(HERE / "traced_cli.py"), str(spans)] if trace
                else [sys.executable, "-c", ENTRY])
        argv += args + ([str(input_path)] if input_path else [])
        self.attempted += 1
        (rc, wall, rss), machine = self.sandwich(lambda: self.child(argv, stdout))
        if rc != 0:
            tail = stdout.with_suffix(".err").read_text(errors="replace")[-2000:]
            raise BenchError(f"`mgtdetect {' '.join(args)}` exited {rc}:\n{tail}")
        call = Call(command, method, input_path, wall, machine, rss, stdout, spans)
        if input_path:
            call.docs = self._check_detect(call)
        self.calls.append(call)
        return call

    def _check_detect(self, call: Call) -> int:
        lines = [l for l in call.input.read_text(encoding="utf-8").splitlines() if l.strip()]
        self.attempted += len(lines)
        rows = read_scores(call.stdout)
        if len(rows) != len(lines):
            raise BenchError(f"detect scored {len(rows)} of {len(lines)} lines of {call.input}")
        found = PASSES_RE.search(call.stdout.with_suffix(".err").read_text())
        per_doc = self.k + 1 if call.method == "detect_gpt" else 2
        if not found or int(found.group(1)) != per_doc * len(rows):
            raise BenchError(f"{call.method}: expected {per_doc} scoring passes per "
                             f"document, debug line was {found and found.group(0)!r}")
        return len(rows)

    def first_detect(self, method: str, input_path: Path) -> Call:
        return next(c for c in self.calls if c.method == method and c.input == input_path)


def read_scores(path: Path) -> dict[int, str]:
    """detect CSV -> {line number: score as printed}."""
    with path.open(encoding="utf-8", newline="") as fh:
        return {int(row["id"]): row["score"] for row in csv.DictReader(fh)}


def tree_digest(paths: list[Path]) -> str:
    """SHA-256 over the bytes of every file given, and the relative names and
    bytes of every file under every directory given."""
    h = hashlib.sha256()
    for base in paths:
        if not base.is_dir():
            h.update(hashlib.sha256(base.read_bytes()).digest())
            continue
        for f in sorted(p for p in base.rglob("*") if p.is_file()):
            h.update(f.relative_to(base).as_posix().encode() + b"\0")
            h.update(hashlib.sha256(f.read_bytes()).digest())
    return h.hexdigest()


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def middle_mean(values) -> float:
    """Interquartile mean: the mean of the middle half of the samples, with a
    quarter dropped at each end (none when there are fewer than four)."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut:len(values) - cut])


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        models = [l.split(":", 1)[1].strip() for l in cpuinfo.read_text().splitlines()
                  if l.startswith("model name")]
        cpu = models[0] if models else cpu
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        commit = head.read_text().strip()
        ref = ROOT / ".git" / commit.removeprefix("ref: ")
        if commit.startswith("ref: ") and ref.exists():
            commit = ref.read_text().strip()
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": nproc, "cpu": cpu, "seed": seed, "git_commit": commit,
        "src_sha256": hashlib.sha256(b"".join(
            p.read_bytes() for p in sorted((SRC / "mgtdetect").glob("*.py")))).hexdigest(),
    }


class Bench:
    """One run of one workload: set-ups, timed iterations, checks, metrics."""

    def __init__(self, args: argparse.Namespace):
        import inputs

        self.args = args
        self.scale = inputs.SCALES[args.scale]
        self.heldout = self.scale.heldout[args.workload]
        self.n_chunks = self.scale.chunks[args.workload]
        self.make = inputs.make_desk if args.workload == "desk" else inputs.make_wide
        self.zeroshot = inputs.ZEROSHOT
        self.k = int(self.zeroshot["k"])
        self.epochs = inputs.SKIPGRAM_EPOCHS
        self.workdir = Path(args.workdir).resolve() / args.workload
        shutil.rmtree(self.workdir, ignore_errors=True)
        for sub in ("logs", "traces", "inputs"):
            (self.workdir / sub).mkdir(parents=True)
        self.runner = Runner(self.workdir, self.k, calibrate=not args.trace)
        self.setup_s: list[float] = []  # scaled like Call.scaled_s
        self.iterations: list[tuple[int, list[Call]]] = []  # (chunk, calls) of each
        self.untraced_ref: list[Call] = []
        self.outputs = 0  # output_dirs made so far
        self.digests: dict[str, str] = {}  # output name -> digest of its first run

    def same(self, name: str, paths: list[Path]) -> None:
        digest = tree_digest(paths)
        first = self.digests.setdefault(name, digest)
        if digest != first:
            raise BenchError(f"{name}: bytes differ between two runs with one seed "
                             f"({first[:12]} vs {digest[:12]})")

    def set_up(self) -> None:
        """Generate the inputs; a repeat must give the same bytes."""
        def generate() -> float:
            start = time.perf_counter()
            self.inputs = self.make(self.workdir / "inputs", self.args.seed, self.scale,
                                    self.heldout, self.n_chunks)
            return time.perf_counter() - start

        wall, machine = self.runner.sandwich(generate)
        self.setup_s.append(wall / machine)
        self.same("inputs", [self.workdir / "inputs"])

    def detect(self, output: Path, input_path: Path, method: str, trace: bool) -> Call:
        call = self.runner.cli(["detect", "--config", str(self.inputs.config), "--output",
                                str(output), "--method", method, "--debug"], trace, input_path)
        self.same(f"{input_path.name}.{method}", [call.stdout])
        return call

    def iteration(self, index: int, trace: bool) -> list[Call]:
        """Every command into a fresh output_dir; `detect` runs both methods,
        each in a fresh process, on one chunk of the held-out documents."""
        chunk = self.inputs.chunks[index % self.n_chunks]
        out = self.workdir / f"out{self.outputs}"
        self.outputs += 1
        commands = (["ingest", "stats", "train", "evaluate"] if self.args.workload == "desk"
                    else ["ingest", "train"])
        calls = [self.runner.cli([c, "--config", str(self.inputs.config), "--output", str(out)],
                                 trace) for c in commands]
        calls += [self.detect(out, chunk.path, m, trace) for m in METHODS]
        self.same("output_dir", [out])
        if self.outputs > 1:  # out0 stays for verify()
            shutil.rmtree(out)
        return calls

    def measure(self, trace: bool) -> None:
        """Set up, then iterate for --seconds and at least once per chunk
        (untraced at least twice, to compare two output_dirs).
        The set-up is repeated after every iteration, and at least SETUP_REPS
        times, so setup_s is a median over the whole run. A traced
        run starts with one untraced iteration on chunk 0: the reference for
        output bytes and for the tracing overhead."""
        rc, _, _ = self.runner.child([sys.executable, "-c", "import mgtdetect.cli"],
                                     self.workdir / "logs" / "warm.out")
        if rc != 0:
            raise BenchError("cannot import mgtdetect.cli")
        self.set_up()
        deadline = time.perf_counter() + self.args.seconds
        if trace:
            self.untraced_ref = self.iteration(0, False)
        minimum = self.n_chunks if trace else max(2, self.n_chunks)
        started, index = time.perf_counter(), 0
        # Stop before an iteration that would end past the deadline, judged
        # by the mean iteration so far, so that a run lasts about --seconds.
        while index < minimum or (time.perf_counter()
                                  + (time.perf_counter() - started) / index <= deadline):
            self.iterations.append((index % self.n_chunks, self.iteration(index, trace)))
            index += 1
            self.set_up()
        while len(self.setup_s) < SETUP_REPS:
            self.set_up()

    # -- correctness against direct library calls --

    def verify(self) -> dict[str, float]:
        """Every printed detect score must equal a direct zeroshot call with
        the CLI's derived perturbation seed and exactly k + 1 (or 2) scoring
        passes. Returns the AUROC of each method: over the held-out
        documents, or for desk from metrics.json, checked the same way."""
        from mgtdetect import cli, evaluation, ingest, zeroshot

        model = self.workdir / "out0"
        lm = zeroshot.load_lm(model / "lm.json")
        seed = cli.derive_seed(self.args.seed, "zeroshot.perturb")

        def direct(method: str, bodies: list[str]) -> list[float]:
            k = self.k if method == "detect_gpt" else 1
            pcfg = zeroshot.PerturbConfig(pool=lm.vocabulary, seed=seed, k=k,
                                          mask_fraction=float(self.zeroshot["mask_fraction"]))
            score = zeroshot.detect_gpt_score if k > 1 else zeroshot.single_revise_score
            out = []
            for i, body in enumerate(bodies, start=1):
                before = lm.scoring_passes
                out.append(score(lm, ingest.Document(str(i), body, ingest.Label.HUMAN), pcfg).d)
                if lm.scoring_passes - before != k + 1:
                    raise BenchError(f"{method}: {lm.scoring_passes - before} scoring passes "
                                     f"for one document, expected {k + 1}")
            return out

        aurocs = {}
        for method in METHODS:
            scores, labels = [], []
            for chunk in self.inputs.chunks:
                path = chunk.path
                printed = read_scores(self.runner.first_detect(method, path).stdout)
                texts = path.read_text(encoding="utf-8").splitlines()
                for lineno, d in enumerate(direct(method, [ingest.normalize(t) for t in texts]), 1):
                    if repr(d) != printed.get(lineno):
                        raise BenchError(f"{method}: {path.name} line {lineno} printed "
                                         f"{printed.get(lineno)}, a direct call gives {d!r}")
                    scores.append(d)
                labels += chunk.labels
            aurocs[method] = evaluation.auroc(scores, labels)
        if self.args.workload != "desk":
            return aurocs

        report = json.loads((model / "metrics.json").read_text())["methods"]
        ids = json.loads((model / "splits.json").read_text())["test"]
        docs = {}
        for line in (model / "corpus.jsonl").read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            docs[rec["id"]] = rec
        labels = [int(docs[i]["label"] == "machine") for i in ids]
        for method in METHODS:
            expected = evaluation.auroc(direct(method, [docs[i]["body"] for i in ids]), labels)
            if expected != report[method]["auroc"]:
                raise BenchError(f"metrics.json {method} auroc {report[method]['auroc']!r}, "
                                 f"direct scores give {expected!r}")
        aurocs = {m: report[m]["auroc"] for m in METHODS}
        aurocs["classifier"] = next(v["auroc"] for name, v in report.items()
                                    if name.startswith("classifier:"))
        return aurocs

    # -- metrics --

    def end_to_end(self, aurocs: dict[str, float]) -> dict[str, float]:
        """Each timing is the interquartile mean of its scaled samples
        (Call.scaled_s) over the whole run; set-up time is their median."""
        calls = self.runner.calls
        iterations = [calls for _, calls in self.iterations]

        def times(command: str) -> list[float]:
            return [c.scaled_s for c in calls if c.command == command]

        def docs_per_s(method: str) -> float:
            return middle_mean(c.docs / c.scaled_s for c in calls if c.method == method)

        return {
            "setup_s": median(self.setup_s),
            "pipeline_s": middle_mean(sum(c.scaled_s for c in it) for it in iterations),
            "ingest_s": middle_mean(times("ingest")),
            "train_s": middle_mean(times("train")),
            "detect_gpt_docs_per_s": docs_per_s("detect_gpt"),
            "single_revise_docs_per_s": docs_per_s("single_revise"),
            "detect_call_s": middle_mean(statistics.fmean(c.scaled_s for c in it[-2:])
                                         for it in iterations),
            "peak_rss_mb": max(c.rss_mb for c in calls),
            "auroc.detect_gpt": aurocs["detect_gpt"],
            "auroc.single_revise": aurocs["single_revise"],
        }

    def per_layer(self, aurocs: dict[str, float]) -> dict[str, tuple[float, str]]:
        import layers

        traced = layers.Spans([[c.spans for c in calls] for _, calls in self.iterations])
        self.span_calls = traced.call_counts()
        ref = sum(c.wall_s for c in self.untraced_ref)
        same_work = median(sum(c.wall_s for c in calls)
                           for chunk, calls in self.iterations if chunk == 0)
        try:
            metrics = layers.metrics(traced, self.k, self.epochs)
        except layers.PassCountError as exc:
            raise BenchError(str(exc)) from None
        metrics.update({
            "classifiers.test_auroc": (aurocs.get("classifier", 0.0), "1"),
            "synthetic.generate_s": (median(self.setup_s), "s"),
            "synthetic.docs": (self.inputs.docs, "count"),
            "synthetic.tokens": (self.inputs.tokens, "count"),
            "synthetic.types": (self.inputs.types, "count"),
            "trace.overhead_frac": (same_work / ref - 1.0, "fraction"),
        })
        return metrics

    def run(self) -> dict:
        trace = bool(self.args.trace)
        self.measure(trace)
        aurocs = self.verify()
        if trace:
            metrics = self.per_layer(aurocs)
        else:
            metrics = {name: (value, END_TO_END[name])
                       for name, value in self.end_to_end(aurocs).items()}
        record = {
            "workload": self.args.workload, "scale": self.args.scale,
            "seconds": self.args.seconds, "trace": self.args.trace,
            "environment": environment(self.args.seed),
            "digests": self.digests,
            "iterations": len(self.iterations),
            "calibration_s": self.runner.calibration_s,
            "calls": [{"command": c.command, "method": c.method, "wall_s": c.wall_s,
                       "machine": c.machine, "rss_mb": c.rss_mb, "docs": c.docs}
                      for c in self.runner.calls],
            "auroc": aurocs,
        }
        if trace:
            record["span_calls"] = self.span_calls
        print(json.dumps({"record": record}, sort_keys=True))
        for name, (value, unit) in metrics.items():
            print(f"{name:40s} {value:>14.6g} {unit}", file=sys.stderr)
        return {
            "correct": True,
            "attempted": self.runner.attempted,
            "failed": 0,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the smoke test")
    parser.add_argument("--workdir", default=str(ROOT / ".perfbench_work"),
                        help="scratch space for inputs, outputs and spans")
    args = parser.parse_args(argv)
    if not (SRC / "mgtdetect" / "cli.py").is_file():
        print(f"perfbench: no mgtdetect sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench = Bench(args)
    try:
        result = bench.run()
    except BenchError as exc:
        print(f"perfbench: FAILED: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(bench.runner.attempted, 1),
                          "failed": 1, "metrics": {}}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
