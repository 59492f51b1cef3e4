"""Skip-gram word vectors trained with negative sampling, a loader for the
standard pretrained text format, and mean-pooled document feature vectors.

The training loop is deliberately single-threaded and seeded: identical
(corpus, config) pairs produce bit-identical matrices.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, EmptyEmbedding
from .text_core import UNK, Vocabulary, tokenize, vocab_from_counts

LR_FLOOR_FRACTION = 1e-4  # learning rate decays linearly to lr0 * this


@dataclass(frozen=True)
class SkipGramConfig:
    dim: int = 100
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    learning_rate: float = 0.025
    min_count: int = 2
    subsample: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.dim, self.window, self.negatives, self.min_count) < 1:
            raise DataError("dim, window, negatives, min_count must be >= 1")
        if self.epochs < 0:
            raise DataError("epochs must be >= 0")
        if self.learning_rate <= 0 or self.subsample <= 0:
            raise DataError("learning rate and subsample threshold must be > 0")


@dataclass
class EmbeddingMatrix:
    vocabulary: Vocabulary
    dim: int
    input_vectors: np.ndarray
    output_vectors: np.ndarray | None = None
    epoch_losses: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise DataError("dim must be >= 1")
        if not np.all(np.isfinite(self.input_vectors)):
            raise DataError("embedding rows must be finite")

    def vector(self, surface: str) -> np.ndarray | None:
        """Input vector for an in-vocabulary surface, else None."""
        idx = self.vocabulary.word_to_id.get(surface)
        if idx is None or idx >= len(self.input_vectors):
            return None
        return self.input_vectors[idx]


@dataclass(frozen=True)
class FeatureVector:
    values: np.ndarray
    oov_fraction: float

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.values)):
            raise DataError("feature vector must be finite")
        if not (0.0 <= self.oov_fraction <= 1.0):
            raise DataError("oov_fraction must lie in [0, 1]")


def sgns_loss_and_grads(
    center_vec: np.ndarray,
    context_vec: np.ndarray,
    negative_vecs: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Negative-sampling loss and analytic gradients for one training pair.

    loss = -log sigmoid(u_o . v_c) - sum_j log sigmoid(-u_nj . v_c)
    Returns (loss, grad_center, grad_context, grad_negatives).
    """
    pos_score = _sigmoid(context_vec @ center_vec)
    neg_scores = _sigmoid(negative_vecs @ center_vec)
    loss = -np.log(np.clip(pos_score, 1e-12, None)) - np.sum(
        np.log(np.clip(1.0 - neg_scores, 1e-12, None))
    )
    grad_center = (pos_score - 1.0) * context_vec + neg_scores @ negative_vecs
    grad_context = (pos_score - 1.0) * center_vec
    grad_negatives = neg_scores[:, None] * center_vec[None, :]
    return float(loss), grad_center, grad_context, grad_negatives


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def train_skipgram(texts: list[str], config: SkipGramConfig) -> EmbeddingMatrix:
    """Train skip-gram with negative sampling over the tokenized *texts*.

    Contract highlights: unigram^0.75 negative-sampling distribution,
    linear learning-rate decay to LR_FLOOR_FRACTION of the initial rate,
    input rows seeded uniform in [-0.5/dim, 0.5/dim], output rows zero,
    one mean loss recorded per epoch.
    """
    # One tokenization per text feeds the vocabulary and the id sequences.
    surfaces = [[t.surface for t in tokenize(text)] for text in texts]
    vocab = vocab_from_counts(Counter(s for seq in surfaces for s in seq), config.min_count)
    if vocab.size <= 1:
        raise DataError("vocabulary is empty apart from UNK")
    sequences = [[vocab.id_of(s) for s in seq] for seq in surfaces]
    total_tokens = sum(len(s) for s in sequences)
    if total_tokens < config.window + 1:
        raise DataError("corpus too small for the configured window")

    rng = np.random.default_rng(config.seed)
    dim = config.dim
    w_in = rng.uniform(-0.5 / dim, 0.5 / dim, size=(vocab.size, dim))
    w_out = np.zeros((vocab.size, dim))

    freqs = np.array([vocab.frequencies[s] for s in vocab.surfaces()], dtype=float)
    noise = freqs**0.75
    noise_cdf = np.cumsum(noise / noise.sum())
    keep_prob = np.ones_like(freqs)
    nz = freqs > 0
    keep_prob[nz] = np.minimum(
        1.0, np.sqrt(config.subsample * freqs.sum() / freqs[nz])
    )

    total_centers = max(total_tokens * max(config.epochs, 1), 1)
    seen = 0
    losses: list[float] = []
    lr0 = config.learning_rate
    for _ in range(config.epochs):
        epoch_loss = 0.0
        epoch_pairs = 0
        for seq in sequences:
            kept = [t for t in seq if rng.random() < keep_prob[t]]
            for i, center in enumerate(kept):
                progress = seen / total_centers
                lr = lr0 * (1.0 - progress * (1.0 - LR_FLOOR_FRACTION))
                seen += 1
                lo = max(0, i - config.window)
                hi = min(len(kept), i + config.window + 1)
                ctx_ids = np.array(kept[lo:i] + kept[i + 1 : hi], dtype=int)
                if ctx_ids.size == 0:
                    continue
                negs = _draw_negatives(rng, noise_cdf, config.negatives, ctx_ids)
                # One mini-batch per center: grads of every (center, context)
                # pair at the current parameters, applied together.
                v_c = w_in[center]
                u_ctx = w_out[ctx_ids]
                u_neg = w_out[negs]
                pos_scores = _sigmoid(u_ctx @ v_c)
                neg_scores = _sigmoid(u_neg @ v_c)
                epoch_loss += float(
                    -np.sum(np.log(np.clip(pos_scores, 1e-12, None)))
                    - np.sum(np.log(np.clip(1.0 - neg_scores, 1e-12, None)))
                )
                epoch_pairs += len(ctx_ids)
                g_center = (pos_scores - 1.0) @ u_ctx + np.einsum(
                    "ck,ckd->d", neg_scores, u_neg
                )
                g_ctx = (pos_scores - 1.0)[:, None] * v_c[None, :]
                g_neg = neg_scores[:, :, None] * v_c[None, None, :]
                np.add.at(w_out, ctx_ids, -lr * g_ctx)
                np.add.at(w_out, negs.reshape(-1), -lr * g_neg.reshape(-1, dim))
                w_in[center] = v_c - lr * g_center
        losses.append(epoch_loss / epoch_pairs if epoch_pairs else 0.0)

    return EmbeddingMatrix(
        vocabulary=vocab,
        dim=dim,
        input_vectors=w_in,
        output_vectors=w_out,
        epoch_losses=losses,
    )


def _draw_negatives(rng, noise_cdf: np.ndarray, k: int, contexts: np.ndarray) -> np.ndarray:
    """(len(contexts), k) draws from the noise distribution, re-drawing
    collisions with each pair's true context a bounded number of times.
    """
    n = len(contexts)
    negs = np.searchsorted(noise_cdf, rng.random((n, k)), side="right")
    for _ in range(10):
        mask = negs == contexts[:, None]
        hits = int(mask.sum())
        if hits == 0:
            break
        negs[mask] = np.searchsorted(noise_cdf, rng.random(hits), side="right")
    return negs


def load_vectors(path: str | Path) -> EmbeddingMatrix:
    """Load the standard text format: header ``count dim``, then one
    ``word v1 ... v_dim`` line per vector.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise DataError(f"{path}: header must be 'count dim'")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError as exc:
            raise DataError(f"{path}: non-integer header") from exc
        if count == 0:
            raise EmptyEmbedding(f"{path}: embedding declares zero vectors")
        if dim < 1:
            raise DataError(f"{path}: dim must be >= 1")
        matrix = np.empty((count, dim))
        word_to_id: dict[str, int] = {}
        for row, line in enumerate(fh):
            if row >= count:
                raise DataError(f"{path}: more vector lines than header count {count}")
            parts = line.rstrip("\n").split(" ")
            if len(parts) != dim + 1:
                raise DataError(
                    f"{path}: line {row + 2} has {len(parts) - 1} values, expected {dim}"
                )
            word = parts[0]
            if word in word_to_id:
                raise DataError(f"{path}: duplicate word {word!r} on line {row + 2}")
            word_to_id[word] = row
            try:
                matrix[row] = [float(x) for x in parts[1:]]
            except ValueError as exc:
                raise DataError(f"{path}: line {row + 2} has a non-numeric value") from exc
    if len(word_to_id) != count:
        raise DataError(f"{path}: header declares {count} rows, found {len(word_to_id)}")
    if not np.all(np.isfinite(matrix)):
        raise DataError(f"{path}: vectors must be finite")
    frequencies = {w: 1 for w in word_to_id}
    if UNK not in word_to_id:
        word_to_id = dict(word_to_id)
        word_to_id[UNK] = count
        frequencies[UNK] = 0
    vocab = Vocabulary(word_to_id=word_to_id, frequencies=frequencies)
    return EmbeddingMatrix(vocabulary=vocab, dim=dim, input_vectors=matrix)


def doc_vector(body: str, emb: EmbeddingMatrix) -> FeatureVector:
    """Mean of the input vectors of in-vocabulary word tokens.

    All-OOV or wordless bodies map to the zero vector with oov_fraction 1,
    so downstream classifiers never crash on noise.
    """
    words = [t.surface for t in tokenize(body) if t.is_word]
    vecs = []
    oov = 0
    for w in words:
        v = emb.vector(w)
        if v is None or w == UNK:
            oov += 1
        else:
            vecs.append(v)
    if not vecs:
        return FeatureVector(values=np.zeros(emb.dim), oov_fraction=1.0)
    return FeatureVector(
        values=np.mean(vecs, axis=0),
        oov_fraction=oov / len(words) if words else 1.0,
    )


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    """dot(u, v) / (|u| |v|); zero-norm inputs are an error."""
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise DataError("cosine similarity is undefined for zero vectors")
    return float(np.dot(u, v) / (nu * nv))


def export_vectors(emb: EmbeddingMatrix, path: str | Path) -> None:
    """Write the matrix in the load_vectors text format."""
    path = Path(path)
    surfaces = emb.vocabulary.surfaces()
    rows = min(len(emb.input_vectors), len(surfaces))
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"{rows} {emb.dim}\n")
        for i in range(rows):
            vals = " ".join(repr(float(x)) for x in emb.input_vectors[i])
            fh.write(f"{surfaces[i]} {vals}\n")
