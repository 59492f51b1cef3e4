"""Span recording around the public functions of each mgtdetect module.

Nothing inside `src/` is instrumented: `install()` replaces module
attributes with wrappers from here, so each call through a module's
namespace records a span (name, start, end, parent) in memory. `dump()`
writes the spans when the traced process ends, outside every output_dir.

Modules import helpers by name (`from .text_core import tokenize`), so a
function is wrapped in every namespace that holds it, under the name of the
module that defines it. Times are integer nanoseconds, so a span's self time
(its duration minus the time its children cover) is exact and never negative.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from pathlib import Path
from time import perf_counter_ns

LAYERS = ("cli", "ingest", "text_core", "corpus_stats", "embeddings",
          "classifiers", "zeroshot", "evaluation")

# Called once per token or per vocabulary word (the substitution sampler
# tests every pool word): a span there would cost more than the call itself.
UNWRAPPED = {"text_core.is_word_surface", "text_core.count_syllables"}


def _passes_before(args):
    return args[0].scoring_passes


def _passes_after(before, args, result):
    return {"passes": args[0].scoring_passes - before}


# span name -> (before(args) -> state or None, after(state, args, result) -> attrs)
OBSERVERS = {
    "zeroshot.detect_gpt_score": (_passes_before, _passes_after),
    "zeroshot.single_revise_score": (_passes_before, _passes_after),
    "zeroshot.perturb": (None, lambda _, a, r: {"noop": r.body == a[0].body}),
    "zeroshot.train_kn_lm": (None, lambda _, a, r: {"vocab": r.vocabulary.size}),
    "zeroshot.load_lm": (None, lambda _, a, r: {"vocab": r.vocabulary.size,
                                                "bytes": os.path.getsize(a[0])}),
    "zeroshot.save_lm": (None, lambda _, a, r: {"bytes": os.path.getsize(a[1])}),
    "embeddings.doc_vector": (None, lambda _, a, r: {"oov": r.oov_fraction}),
    "ingest.load_hc3": (None, lambda _, a, r: {"docs": len(r)}),
}


class Tracer:
    """In-memory spans: [name, start_ns, end_ns, parent_index, attrs]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        before, after = OBSERVERS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            state = before(args) if before else None
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if after:
                span[4] = after(state, args, result)
            return result

        return traced

    def dump(self, path: str | Path, extra: dict) -> None:
        payload = dict(extra, spans=self.spans)
        Path(path).write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")


def install(tracer: Tracer) -> None:
    """Wrap every public function of every layer, in every layer namespace
    that refers to it, plus the config parser `RunConfig.from_file`."""
    modules = {name: importlib.import_module(f"mgtdetect.{name}") for name in LAYERS}
    wrapped: dict[int, object] = {}
    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            owner = obj.__module__.rpartition(".")[2]
            if not obj.__module__.startswith("mgtdetect.") or owner not in modules:
                continue
            name = f"{owner}.{obj.__name__}"
            if name in UNWRAPPED:
                continue
            if id(obj) not in wrapped:
                wrapped[id(obj)] = tracer.wrap(name, obj)
            setattr(module, attr, wrapped[id(obj)])
    config_cls = modules["cli"].RunConfig
    parse = vars(config_cls)["from_file"].__func__
    config_cls.from_file = classmethod(tracer.wrap("cli.RunConfig.from_file", parse))


def load(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def self_times(spans: list[list]) -> list[int]:
    """Per span: duration minus the time covered by its direct children."""
    covered = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, covered)]
