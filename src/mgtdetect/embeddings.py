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

from .errors import DataError, read_lines
from .sections import SkipGramConfig
from .text_core import UNK, Vocabulary, tokenize, vocab_from_counts, word_tokens

LR_FLOOR_FRACTION = 1e-4  # learning rate decays linearly to lr0 * this


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

    Each center is one mini-batch: its context pairs and their negatives
    are scored at the current parameters, then every output row and the
    center's input row are updated together. The draws (one subsampling
    uniform per token, then per center the negatives and their re-draws)
    and the floating-point operations are fixed in order, so the result
    depends only on (texts, config) and the BLAS build.
    """
    # One tokenization per text feeds the vocabulary and the id sequences.
    surfaces = [tokenize(text) for text in texts]
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
    window, k = config.window, config.negatives
    id_arrays = [np.array(seq, dtype=int) for seq in sequences]
    random = rng.random
    draw = noise_cdf.searchsorted
    # cells[r] holds the flat indices of w_out's row r: a 1-D scatter is
    # the fast ufunc.at path and keeps the row-wise accumulation order.
    w_out_flat = w_out.reshape(-1)
    cells = np.arange(w_out.size).reshape(w_out.shape)
    # A diverging run ends in EmbeddingMatrix's DataError, not in numpy
    # warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.epochs):
            epoch_loss = 0.0
            epoch_pairs = 0
            for seq_ids in id_arrays:
                # One uniform per token, in token order, as one draw per text.
                kept = seq_ids[random(len(seq_ids)) < keep_prob[seq_ids]]
                n_kept = len(kept)
                for i in range(n_kept):
                    progress = seen / total_centers
                    lr = lr0 * (1.0 - progress * (1.0 - LR_FLOOR_FRACTION))
                    seen += 1
                    lo = max(0, i - window)
                    hi = min(n_kept, i + window + 1)
                    n = hi - lo - 1
                    if n == 0:
                        continue
                    # ids = contexts, then (n, k) negatives drawn from the noise
                    # CDF; a negative equal to its pair's context is re-drawn (in
                    # C order) at most 10 times.
                    ids = np.concatenate(
                        (kept[lo:i], kept[i + 1 : hi], draw(random(n * k), "right"))
                    )
                    ctx_ids = ids[:n, None]
                    negs = ids[n:].reshape(n, k)
                    for _ in range(10):
                        mask = negs == ctx_ids
                        hits = np.count_nonzero(mask)
                        if not hits:
                            break
                        negs[mask] = draw(random(hits), "right")
                    # The context block is scored as (n, dim) @ (dim,) and the
                    # negative block as (n, k, dim) @ (dim,): BLAS picks kernels
                    # by shape, so merging the two products could move the last
                    # bit. The elementwise steps run once over both blocks.
                    center = kept[i]
                    v_c = w_in[center]
                    u = w_out.take(ids, axis=0)
                    u_ctx = u[:n]
                    u_neg = u[n:].reshape(n, k, dim)
                    logits = np.empty(len(ids))
                    np.matmul(u_ctx, v_c, out=logits[:n])
                    np.matmul(u_neg, v_c, out=logits[n:].reshape(n, k))
                    scores = _sigmoid(logits)
                    # -log sigmoid(pos) - sum log(1 - sigmoid(neg)), clipped.
                    fit = 1.0 - scores
                    fit[:n] = scores[:n]
                    log_fit = np.log(np.maximum(fit, 1e-12))
                    epoch_loss += float(-np.add.reduce(log_fit[:n]) - np.add.reduce(log_fit[n:]))
                    epoch_pairs += n
                    scores[:n] -= 1.0  # d loss / d logit of each context pair
                    g_center = scores[:n] @ u_ctx + np.einsum(
                        "ck,ckd->d", scores[n:].reshape(n, k), u_neg
                    )
                    # Context rows first, then negative rows; a repeated row
                    # accumulates its updates in that order.
                    step = scores[:, None] * v_c
                    step *= -lr
                    np.add.at(w_out_flat, cells.take(ids, axis=0).ravel(), step.ravel())
                    w_in[center] = v_c - lr * g_center
            losses.append(epoch_loss / epoch_pairs if epoch_pairs else 0.0)

    return EmbeddingMatrix(
        vocabulary=vocab,
        dim=dim,
        input_vectors=w_in,
        output_vectors=w_out,
        epoch_losses=losses,
    )


def load_vectors(path: str | Path) -> EmbeddingMatrix:
    """Load the standard text format: header ``count dim``, then one
    ``word v1 ... v_dim`` line per vector. Malformed content (bad UTF-8,
    a header that is not two positive integers, lines of the wrong width,
    repeated words, non-finite values) raises DataError.
    """
    path = Path(path)
    lines = read_lines(path)
    _, first = next(lines, (1, ""))
    header = first.split()
    if len(header) != 2:
        raise DataError(f"{path}: header must be 'count dim'")
    try:
        count, dim = int(header[0]), int(header[1])
    except ValueError as exc:
        raise DataError(f"{path}: non-integer header") from exc
    if count == 0:
        raise DataError(f"{path}: embedding declares zero vectors")
    if count < 0 or dim < 1:
        raise DataError(f"{path}: header count and dim must be positive")
    rows: list[list[float]] = []
    word_to_id: dict[str, int] = {}
    for lineno, line in lines:
        row = lineno - 2
        if row >= count:
            raise DataError(f"{path}: more vector lines than header count {count}")
        parts = line.rstrip("\n").split(" ")
        if len(parts) != dim + 1:
            raise DataError(
                f"{path}: line {lineno} has {len(parts) - 1} values, expected {dim}"
            )
        word = parts[0]
        if word in word_to_id:
            raise DataError(f"{path}: duplicate word {word!r} on line {lineno}")
        word_to_id[word] = row
        try:
            rows.append([float(x) for x in parts[1:]])
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno} has a non-numeric value") from exc
    if len(word_to_id) != count:
        raise DataError(f"{path}: header declares {count} rows, found {len(word_to_id)}")
    matrix = np.array(rows, dtype=float)
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
    so downstream classifiers never crash on noise. A mean that overflows
    is refused by FeatureVector's finite check, so numpy need not warn of
    it too.
    """
    words = word_tokens(body)
    vecs = [v for v in map(emb.vector, words) if v is not None]
    if not vecs:
        return FeatureVector(values=np.zeros(emb.dim), oov_fraction=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.mean(vecs, axis=0)
    return FeatureVector(values=values, oov_fraction=(len(words) - len(vecs)) / len(words))


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
