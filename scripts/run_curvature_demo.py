#!/usr/bin/env python3
"""Head-to-head of the two zero-shot detectors.

Trains an order-3 language model on sentences from a synthetic "machine"
source, then scores model-sampled documents against word-shuffled human
paragraphs with the k-perturbation detector and the single-revision fast
path. Prints an AUROC and timing comparison.
"""

import argparse
import sys
import time
from pathlib import Path

from mgtdetect import zeroshot as zs
from mgtdetect.evaluation import auroc
from mgtdetect.synthetic import curvature_bench

HUMAN_FIXTURE = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "human_texts.txt"


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=202)
    parser.add_argument("--docs", type=int, default=200, help="documents per class")
    parser.add_argument("--k", type=int, default=20, help="perturbations per document")
    parser.add_argument("--sentences", type=int, default=2000,
                        help="training sentences for the language model")
    args = parser.parse_args(argv)

    paragraphs = [l.strip() for l in HUMAN_FIXTURE.read_text(encoding="utf-8").splitlines()
                  if l.strip()]
    lm, docs, labels = curvature_bench(paragraphs, args.seed, args.docs, args.sentences)
    print(f"language model: order={lm.order} vocab={lm.vocabulary.size} "
          f"docs={len(docs)}")

    rows = []
    for name, k in (("detect_gpt", args.k), ("single_revise", 1)):
        cfg = zs.PerturbConfig(pool=lm.vocabulary, mask_fraction=0.15,
                               seed=777, k=k)
        score_fn = zs.detect_gpt_score if k > 1 else zs.single_revise_score
        lm.scoring_passes = 0
        start = time.monotonic()
        scores = [score_fn(lm, d, cfg).d for d in docs]
        elapsed = time.monotonic() - start
        rows.append((name, auroc(scores, labels), lm.scoring_passes / len(docs),
                     elapsed / len(docs)))

    print(f"{'method':<14}{'AUROC':>8}{'passes/doc':>12}{'sec/doc':>10}")
    for name, score, passes, sec in rows:
        print(f"{name:<14}{score:>8.3f}{passes:>12.1f}{sec:>10.4f}")
    speedup = rows[0][3] / rows[1][3]
    print(f"single_revise speedup: {speedup:.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(run())
