"""Candidate assembly and contrastive losses over cosine score matrices.

A training batch of B rows yields a B x C score matrix whose column i is the
row-i positive (the batch diagonal).  Negative columns come from three
sources: the other rows' tails (in-batch), a FIFO queue of frozen tail
embeddings from recent batches (pre-batch), and each row's own head encoded
by the tail encoder (self-negative, one extra column scored row-wise).

Batch rows are (head, relation, tail) numbers of the graph and the queue
keeps each queued tail's entity number, so false negatives -- candidates
that form a known-true triple with the row's query, or that equal the
row's tail entity -- are masked on numbers alone.  Masking means
exclusion from the softmax and hinge sums, never a -inf sentinel, so masked
cells get exactly zero gradient and no overflow path exists.

All losses return exact analytic gradients with respect to the score matrix
(and, for the InfoNCE loss, the learnable log inverse temperature).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .encoder import TAU_FLOOR, temperature
from .errors import KgcError
from .graph import KnowledgeGraph

IN_BATCH = "IB"
PRE_BATCH = "PB"
SELF_NEGATIVE = "SN"


@dataclass
class LossConfig:
    """Shared loss hyperparameters.

    ``additive_margin`` is subtracted from the positive logit before the
    softmax; ``hinge_margin`` is the pairwise margin of the hinge losses;
    ``pre_batch_weight`` scales pre-batch logits inside the softmax loss.
    """

    additive_margin: float = 0.02
    hinge_margin: float = 0.8
    pre_batch_weight: float = 0.5

    def __post_init__(self) -> None:
        if not 0 <= self.additive_margin < math.inf:  # every comparison with nan is False
            raise KgcError(f"additive margin must be a finite number >= 0, got {self.additive_margin}")
        if not 0 < self.hinge_margin < math.inf:
            raise KgcError(f"hinge margin must be a finite number > 0, got {self.hinge_margin}")
        if not 0 < self.pre_batch_weight <= 1:
            raise KgcError(f"pre-batch weight must be in (0, 1], got {self.pre_batch_weight}")


@dataclass
class TrainingBatch:
    """One step's triples and their freshly encoded embeddings."""

    rows: np.ndarray  # (B, 3) (head, relation, tail) numbers of the graph
    hr_embs: np.ndarray  # (B, d) query vectors
    tail_embs: np.ndarray  # (B, d) positive tail vectors
    self_embs: Optional[np.ndarray] = None  # (B, d) heads encoded as candidates


class PreBatchQueue:
    """FIFO store of frozen tail embeddings from the most recent batches,
    each with the entity number of its tail.

    Entries are copies; nothing backpropagates into them.  Pushing beyond
    capacity evicts the oldest entries.  A zero-capacity queue stays empty.
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise KgcError(f"queue capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.entity_numbers = np.zeros(0, dtype=np.int64)  # (len,) of the queued tails, read-only
        self._embs: Optional[np.ndarray] = None  # (len, d), read-only

    def push(self, tail_embs: np.ndarray, entity_numbers: np.ndarray) -> "PreBatchQueue":
        if len(entity_numbers) != tail_embs.shape[0]:
            raise KgcError("one entity number per embedding row is required")
        numbers = np.concatenate([self.entity_numbers, np.asarray(entity_numbers, dtype=np.int64)])
        start = max(numbers.size - self.capacity, 0)  # numbers[-capacity:] would keep every row at 0
        rows = tail_embs if self._embs is None else np.concatenate([self._embs, tail_embs])
        self._embs, self.entity_numbers = rows[start:].copy(), numbers[start:]
        self._embs.flags.writeable = self.entity_numbers.flags.writeable = False
        return self

    def __len__(self) -> int:
        return self.entity_numbers.size

    def embeddings(self) -> np.ndarray:
        """The queued rows, oldest first, as one read-only array."""
        if not len(self):
            raise KgcError("queue is empty")
        return self._embs


@dataclass
class CandidateMatrix:
    """Scores, mask, and provenance for one batch's candidate pool.

    Column layout: the B in-batch tails first (row i's positive is column i),
    then the queue entries, then -- when self-negatives are on -- one final
    column holding each row's own head scored against its own query.
    ``mask`` is True where a cell participates in the loss.
    """

    scores: np.ndarray  # (B, C)
    mask: np.ndarray  # (B, C) bool
    provenance: np.ndarray  # (C,) of IB / PB / SN
    num_in_batch: int
    sn_column: Optional[int] = None

    @property
    def size(self) -> tuple[int, int]:
        return self.scores.shape

    def negatives_per_row(self) -> np.ndarray:
        return self.mask.sum(axis=1) - 1


def assemble_candidates(
    g: KnowledgeGraph,
    batch: TrainingBatch,
    queue: PreBatchQueue,
    use_self_negatives: bool,
) -> CandidateMatrix:
    """Score the batch against its candidate pool and mask false negatives.

    Scores are cosines of the unit query and candidate vectors.  A
    candidate entity e is masked for row (h, r, t) when (h, r, e) is a
    known triple in any split, or when e equals t (a duplicate of the
    positive).  The diagonal positive is always unmasked.  The whole block
    is masked at once, from one ``known_tails`` call on the batch's number
    rows.
    """
    B, d = batch.hr_embs.shape
    if batch.tail_embs.shape != (B, d):
        raise KgcError("query and tail embedding shapes disagree")
    if use_self_negatives and (batch.self_embs is None or batch.self_embs.shape != (B, d)):
        raise KgcError("self-negatives requested but self embeddings are missing")

    Q = len(queue)
    blocks = [batch.tail_embs] if Q == 0 else [batch.tail_embs, queue.embeddings()]
    C = B + Q + (1 if use_self_negatives else 0)

    scores = np.empty((B, C))
    scores[:, : B + Q] = batch.hr_embs @ np.vstack(blocks).T
    provenance = np.array([IN_BATCH] * B + [PRE_BATCH] * Q + ([SELF_NEGATIVE] if use_self_negatives else []))
    sn_column = C - 1 if use_self_negatives else None
    if use_self_negatives:
        scores[:, sn_column] = (batch.hr_embs * batch.self_embs).sum(axis=1)

    # one (row, distinct candidate) table of what each row must not score
    # as a negative: its known tails and its own tail; the columns are read
    # from it by each candidate's index into the distinct entity numbers
    heads, relations, tails = batch.rows.T
    distinct, column = np.unique(np.concatenate([tails, queue.entity_numbers, heads]), return_inverse=True)
    known_rows, known_tails = g.known_tails(heads, relations)
    at = distinct.searchsorted(known_tails)
    hit = distinct.take(at, mode="clip") == known_tails  # the known tails among the candidates
    excluded = np.zeros((B, distinct.size), dtype=bool)
    excluded[known_rows[hit], at[hit]] = True
    excluded[np.arange(B), column[:B]] = True

    mask = np.ones((B, C), dtype=bool)
    mask[:, : B + Q] = ~excluded[:, column[: B + Q]]
    mask[np.arange(B), np.arange(B)] = True
    if use_self_negatives:
        mask[:, sn_column] = ~excluded[np.arange(B), column[B + Q :]]
    return CandidateMatrix(scores, mask, provenance, B, sn_column)


def disable_in_batch_negatives(m: CandidateMatrix) -> None:
    """Mask every in-batch column except each row's own positive."""
    B = m.num_in_batch
    diag = m.mask[np.arange(B), np.arange(B)].copy()
    m.mask[:, :B] = False
    m.mask[np.arange(B), np.arange(B)] = diag


def limit_negatives(m: CandidateMatrix, max_negatives: int, rng: np.random.Generator) -> None:
    """Keep at most ``max_negatives`` unmasked negatives per row, sampled
    uniformly without replacement.

    Each row over the cap draws one ``rng.random`` key per column, rows in
    order, and keeps the ``max_negatives`` negatives of smallest (key,
    column).  The diagonal is never touched.  ``train`` passes the run's
    ``negatives`` stream.
    """
    if max_negatives < 0:
        raise KgcError(f"negative cap must be >= 0, got {max_negatives}")
    B, C = m.size
    negatives = m.mask.copy()
    negatives[np.arange(B), np.arange(B)] = False
    over = np.flatnonzero(np.count_nonzero(negatives, axis=1) > max_negatives)
    if not over.size:
        return
    keys = rng.random((over.size, C))
    keys[~negatives[over]] = np.inf  # an over-cap row has more than max_negatives finite keys
    kept = np.zeros((over.size, C), dtype=bool)
    if max_negatives:
        # a row keeps its keys below its max_negatives-th smallest key and,
        # of the keys equal to that one, the first in column order; sorted
        # values, unlike a sort's index order, are the same on every numpy
        bound = np.sort(keys, axis=1)[:, max_negatives - 1, None]
        kept = keys < bound
        ties = keys == bound
        kept |= ties & (np.cumsum(ties, axis=1) <= max_negatives - np.count_nonzero(kept, axis=1)[:, None])
    kept[np.arange(over.size), over] = m.mask[over, over]
    m.mask[over] = kept


def _positive_scores(m: CandidateMatrix) -> np.ndarray:
    B = m.num_in_batch
    return m.scores[np.arange(B), np.arange(B)]


def infonce_loss(
    m: CandidateMatrix, cfg: LossConfig, log_inv_tau: float
) -> tuple[float, np.ndarray, float]:
    """Additive-margin softmax loss with a learnable temperature.

    Per row, the positive logit is (score - margin) / tau and each unmasked
    negative contributes weight * score / tau, where the weight is
    ``pre_batch_weight`` for queue columns and 1 otherwise.  The loss is the
    mean over rows of the negative log softmax of the positive.  Returns the
    loss, its gradient with respect to the score matrix, and its gradient
    with respect to log(1/tau); the temperature gradient is zero when tau
    sits at the floor.
    """
    B, C = m.size
    tau = temperature(log_inv_tau)
    clamped = tau == TAU_FLOOR

    weights = np.ones(C)
    weights[m.provenance == PRE_BATCH] = cfg.pre_batch_weight
    diag = (np.arange(B), np.arange(B))

    adjusted = m.scores * weights[None, :]
    adjusted[diag] = m.scores[diag] - cfg.additive_margin
    logits = adjusted / tau

    include = m.mask
    row_max = np.max(logits, axis=1, where=include, initial=-np.inf)
    shifted = logits - row_max[:, None]
    expv = np.exp(shifted, where=include, out=np.zeros_like(shifted))
    denom = expv.sum(axis=1)
    probs = expv / denom[:, None]

    row_loss = -(logits[diag] - row_max - np.log(denom))
    loss = float(row_loss.mean())

    grad_logits = probs / B
    grad_logits[diag] -= 1.0 / B
    grad_scores = grad_logits * (weights[None, :] / tau)
    grad_scores[diag] = grad_logits[diag] / tau

    grad_log_inv_tau = 0.0 if clamped else float((grad_logits * logits).sum())
    return loss, grad_scores, grad_log_inv_tau


def _hinge_parts(m: CandidateMatrix, hinge_margin: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    B, C = m.size
    neg_include = m.mask.copy()
    neg_include[np.arange(B), np.arange(B)] = False
    violation = hinge_margin + m.scores - _positive_scores(m)[:, None]
    active = (violation > 0) & neg_include
    return neg_include, violation, active


def margin_loss(m: CandidateMatrix, cfg: LossConfig) -> tuple[float, np.ndarray]:
    """Mean-over-rows hinge loss, averaged over each row's unmasked negatives.

    Rows with no unmasked negatives contribute zero.  The subgradient at an
    exactly-met margin is zero.
    """
    B, C = m.size
    neg_include, violation, active = _hinge_parts(m, cfg.hinge_margin)
    counts = neg_include.sum(axis=1)
    hinged = np.where(active, violation, 0.0)
    safe_counts = np.where(counts > 0, counts, 1)
    row_loss = hinged.sum(axis=1) / safe_counts
    loss = float(row_loss.mean())

    row_coeff = np.where(counts > 0, 1.0 / (safe_counts * B), 0.0)
    grad_scores = active * row_coeff[:, None]
    grad_scores[np.arange(B), np.arange(B)] = -active.sum(axis=1) * row_coeff
    return loss, grad_scores


def margin_tau_loss(m: CandidateMatrix, cfg: LossConfig, tau: float = 0.05) -> tuple[float, np.ndarray]:
    """Hinge loss with self-adversarial weights at a fixed temperature.

    Each row's hinge terms are combined with softmax(term / tau) weights
    computed over its unmasked negatives.  The weights are treated as
    constants in the gradient: only the hinge terms themselves are
    differentiated.  With all terms equal this reduces to ``margin_loss``.
    """
    if tau <= 0:
        raise KgcError(f"temperature must be > 0, got {tau}")
    B, C = m.size
    neg_include, violation, active = _hinge_parts(m, cfg.hinge_margin)
    hinged = np.where(active, violation, 0.0)

    w_logits = hinged / tau
    row_max = np.max(w_logits, axis=1, where=neg_include, initial=0.0)
    expv = np.exp(w_logits - row_max[:, None], where=neg_include, out=np.zeros_like(w_logits))
    denom = expv.sum(axis=1)
    safe_denom = np.where(denom > 0, denom, 1.0)
    weights = expv / safe_denom[:, None]

    row_loss = (weights * hinged).sum(axis=1)
    loss = float(row_loss.mean())

    grad_scores = np.where(active, weights, 0.0) / B
    grad_scores[np.arange(B), np.arange(B)] = -(np.where(active, weights, 0.0).sum(axis=1)) / B
    return loss, grad_scores
