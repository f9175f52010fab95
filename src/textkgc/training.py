"""Training loop: schedule, clipping, adaptive updates, and the step pipeline.

Each step encodes a shuffled batch of (head, relation) queries and tails
(plus heads-as-candidates when self-negatives are on), assembles the
candidate matrix, computes the configured loss with exact gradients,
backpropagates into the gradients of the touched table rows, clips by
global norm, and applies a decoupled-weight-decay adaptive update under a
linear warmup/decay schedule.  All randomness comes from named streams of one seed,
so logs and checkpoints are bit-identical across runs at a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import contrastive as ct
from . import encoder as enc
from .errors import KgcError, NumericError
from .graph import KnowledgeGraph, Triple, augment_description
from .randomness import named_stream

LOSS_KINDS = ("infonce", "margin", "margin_tau")
NEGATIVE_SOURCES = ("ib", "pb", "sn")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
DECAY_CELLS = 2**17  # table elements per weight-decay chunk; bounds its reused buffer


@dataclass
class TrainConfig:
    batch_size: int = 1024
    epochs: int = 1
    peak_lr: float = 0.02
    warmup_steps: int = 400
    grad_clip: float = 10.0
    weight_decay: float = 1e-4
    dropout: float = 0.1
    loss_kind: str = "infonce"
    negatives: frozenset[str] = frozenset(NEGATIVE_SOURCES)
    pre_batches: int = 2
    seed: int = 42
    max_negatives: Optional[int] = None
    margin_tau_temperature: float = 0.05
    loss: ct.LossConfig = field(default_factory=ct.LossConfig)

    def __post_init__(self) -> None:
        self.negatives = frozenset(s.lower() for s in self.negatives)
        unknown = self.negatives - set(NEGATIVE_SOURCES)
        if unknown:
            raise KgcError(f"unknown negative sources: {', '.join(sorted(unknown))}")
        if not self.negatives:
            raise KgcError("at least one negative source is required")
        if "pb" in self.negatives and "ib" not in self.negatives:
            raise KgcError("pre-batch negatives require in-batch negatives")
        if "pb" in self.negatives and self.pre_batches < 1:
            raise KgcError("pre-batch negatives require pre_batches >= 1")
        if self.loss_kind not in LOSS_KINDS:
            raise KgcError(f"loss kind must be one of {LOSS_KINDS}, got {self.loss_kind!r}")
        if self.batch_size < 2:  # a batch of one row is never trained
            raise KgcError(f"batch size must be >= 2, got {self.batch_size}")
        if self.epochs < 1:
            raise KgcError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 < self.peak_lr < math.inf:  # every comparison with nan is False
            raise KgcError(f"peak learning rate must be a finite number > 0, got {self.peak_lr}")
        if self.warmup_steps < 0:
            raise KgcError(f"warmup steps must be >= 0, got {self.warmup_steps}")
        if not 0 < self.grad_clip < math.inf:
            raise KgcError(f"gradient clip must be a finite number > 0, got {self.grad_clip}")
        if not 0 <= self.weight_decay < math.inf:
            raise KgcError(f"weight decay must be a finite number >= 0, got {self.weight_decay}")
        if not 0 < self.margin_tau_temperature < math.inf:
            raise KgcError(
                f"margin_tau temperature must be a finite number > 0, got {self.margin_tau_temperature}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise KgcError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.pre_batches < 0:
            raise KgcError(f"pre-batch count must be >= 0, got {self.pre_batches}")
        if self.max_negatives is not None and self.max_negatives < 1:
            raise KgcError(f"negative cap must be >= 1, got {self.max_negatives}")


@dataclass
class OptimizerState:
    """Adaptive-moment state of both tables and the temperature.

    ``m_*``/``v_*`` are bucket-indexed ``(buckets, d)`` moment tables and
    ``touched_*`` ``(buckets,)`` masks of the rows that have ever had a
    gradient.  A row outside its mask has m = v = 0 exactly, so
    ``apply_update`` steps the moments of masked rows only.
    """

    m_hr: np.ndarray
    v_hr: np.ndarray
    m_tail: np.ndarray
    v_tail: np.ndarray
    touched_hr: np.ndarray
    touched_tail: np.ndarray
    m_tau: float = 0.0
    v_tau: float = 0.0
    step: int = 0

    @classmethod
    def zeros(cls, buckets: int, dim: int) -> "OptimizerState":
        shape = (buckets, dim)
        return cls(
            np.zeros(shape), np.zeros(shape), np.zeros(shape), np.zeros(shape),
            np.zeros(buckets, dtype=bool), np.zeros(buckets, dtype=bool),
        )


def lr_at(step: int, cfg: TrainConfig, total_steps: int) -> float:
    """Linear ramp to the peak over the warmup, then linear decay to zero.

    The effective warmup is capped at ``total_steps`` so short runs stay
    well-defined.
    """
    if total_steps < 1:
        raise KgcError(f"total steps must be >= 1, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise KgcError(f"step {step} outside [0, {total_steps}]")
    warmup = min(cfg.warmup_steps, total_steps)
    if step <= warmup:
        if warmup == 0:
            return cfg.peak_lr
        return cfg.peak_lr * step / warmup
    return cfg.peak_lr * (total_steps - step) / (total_steps - warmup)


def clip_gradients(grads: enc.GradientBuffer, max_norm: float) -> enc.GradientBuffer:
    """Scale the whole buffer down when its global L2 norm exceeds ``max_norm``."""
    if max_norm <= 0:
        raise KgcError(f"clip norm must be > 0, got {max_norm}")
    grads.assert_finite()
    norm = grads.global_norm()
    if norm > max_norm:
        grads.scale_(max_norm / norm)
    return grads


def apply_update(
    params: enc.EncoderParams,
    state: OptimizerState,
    grads: enc.GradientBuffer,
    lr: float,
    cfg: TrainConfig,
) -> tuple[enc.EncoderParams, OptimizerState]:
    """One adaptive-moment step with bias correction and decoupled weight decay.

    theta <- theta - lr * mhat / (sqrt(vhat) + eps) - lr * weight_decay * theta.
    Weight decay is not applied to the temperature parameter.

    m, v and the moment step run on the rows that have ever had a gradient
    only.  Every other row has m = v = 0, so its full-table step would be
    0 / (0 + eps) = 0 and leave it bitwise unchanged; every operation is
    elementwise, so each element gets the bits of the full-table update.
    Weight decay and the finiteness check cover the whole table, in one
    pass (``_decay``).
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t

    for table_name, ids, rows, m, v, touched in (
        (enc.HR_TABLE, grads.hr_ids, grads.hr, state.m_hr, state.v_hr, state.touched_hr),
        (enc.TAIL_TABLE, grads.tail_ids, grads.tail, state.m_tail, state.v_tail, state.touched_tail),
    ):
        table = params.table(table_name)
        touched[ids] = True
        live = np.flatnonzero(touched)
        g = np.zeros((live.size, table.shape[1]))
        g[np.searchsorted(live, ids)] = rows
        with np.errstate(over="ignore", invalid="ignore"):  # finiteness is checked below
            m_live = ADAM_BETA1 * m[live] + (1.0 - ADAM_BETA1) * g
            v_live = ADAM_BETA2 * v[live] + (1.0 - ADAM_BETA2) * np.square(g)
            m[live], v[live] = m_live, v_live
            update = (m_live / bc1) / (np.sqrt(v_live / bc2) + ADAM_EPS)
            table[live] -= lr * update
        finite = _decay(table, lr * cfg.weight_decay) if cfg.weight_decay else np.isfinite(table).all()
        if not finite:
            raise NumericError(f"non-finite parameter value in {table_name}_table after update")

    state.m_tau = ADAM_BETA1 * state.m_tau + (1.0 - ADAM_BETA1) * grads.log_inv_tau
    state.v_tau = ADAM_BETA2 * state.v_tau + (1.0 - ADAM_BETA2) * grads.log_inv_tau**2
    params.log_inv_tau -= lr * (state.m_tau / bc1) / (math.sqrt(state.v_tau / bc2) + ADAM_EPS)
    if not math.isfinite(params.log_inv_tau):
        raise NumericError("non-finite parameter value in log_inv_tau after update")
    return params, state


def _decay(table: np.ndarray, factor: float) -> bool:
    """``table -= factor * table`` in chunks of about ``DECAY_CELLS`` elements.

    Each chunk is multiplied into one reused buffer, subtracted in place and
    checked while it is still in cache.  These are the elementwise operations
    of the whole-table expression, so every element gets its bits.  Every
    chunk is decayed before the result is returned: True when every value of
    the table is finite.
    """
    rows = max(1, DECAY_CELLS // table.shape[1])
    buffer = np.empty((min(rows, table.shape[0]), table.shape[1]))
    finite = True
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, table.shape[0], rows):
            chunk = table[start : start + rows]
            scaled = buffer[: chunk.shape[0]]
            np.multiply(chunk, factor, out=scaled)
            np.subtract(chunk, scaled, out=chunk)
            if finite:
                finite = bool(np.isfinite(chunk).all())
    return finite


@dataclass(frozen=True)
class TrainTokens:
    """Token ids of the train split, one padded matrix per encoder role.

    Row i belongs to train triple i: ``query`` holds its head text, the
    separator and its relation text; ``tail`` its tail text; ``head`` its
    head text again, encoded on the candidate table as a self-negative.
    The head text excludes the tail's name from its neighbor augmentation
    (and vice versa) so the answer never leaks into the input.
    """

    query: enc.TokenIds
    tail: enc.TokenIds
    head: enc.TokenIds

    def __getitem__(self, rows) -> "TrainTokens":
        return TrainTokens(self.query[rows], self.tail[rows], self.head[rows])


def build_token_cache(g: KnowledgeGraph, params: enc.EncoderParams) -> TrainTokens:
    """Tokenize every train triple once, at the params' bucket count and token budget.

    One ``enc.token_ids`` call writes three rows per triple (query, tail,
    head), so each distinct text is hashed once and no per-triple token list
    is ever built; each matrix takes every third row.
    """

    def rows():
        for h, r, t in g.triples("train"):
            head = augment_description(g, h, exclude=t)
            yield head, g.relation(r).description
            yield (augment_description(g, t, exclude=h),)
            yield (head,)

    tokens = enc.token_ids(rows(), params.buckets, params.max_tokens)
    return TrainTokens(tokens[0::3], tokens[1::3], tokens[2::3])


def run_batch(
    g: KnowledgeGraph,
    params: enc.EncoderParams,
    rows: Sequence[Triple],
    tokens: TrainTokens,
    queue: ct.PreBatchQueue,
    cfg: TrainConfig,
    dropout_rng: Optional[np.random.Generator],
    negative_rng: Optional[np.random.Generator] = None,
) -> tuple[float, enc.GradientBuffer, ct.CandidateMatrix, ct.TrainingBatch]:
    """Forward and backward pass for one batch; no parameter update.

    ``tokens`` holds the batch's rows only.  Queries are encoded in one pass
    on the query table; tails, then heads as self-negatives, in one pass on
    the candidate table, so dropout draws come in that order.  Returns the
    loss, the gradient buffer, the candidate matrix, and the encoded batch
    (whose tail embeddings feed the queue).
    """
    use_sn = "sn" in cfg.negatives
    B = len(rows)
    hr_enc = enc.forward_hr(params, tokens.query, cfg.dropout, dropout_rng)
    candidates = enc.TokenIds.concat([tokens.tail, tokens.head]) if use_sn else tokens.tail
    cand_enc = enc.forward_tail(params, candidates, cfg.dropout, dropout_rng)

    batch = ct.TrainingBatch(
        rows=list(rows),
        hr_embs=hr_enc.output,
        tail_embs=cand_enc.output[:B],
        self_embs=cand_enc.output[B:] if use_sn else None,
    )
    matrix = ct.assemble_candidates(g, batch, queue, use_sn)
    if "ib" not in cfg.negatives:
        ct.disable_in_batch_negatives(matrix)
    if cfg.max_negatives is not None:
        if negative_rng is None:
            raise KgcError("a negative cap requires a random generator")
        ct.limit_negatives(matrix, cfg.max_negatives, negative_rng)

    if cfg.loss_kind == "infonce":
        loss, grad_scores, grad_tau = ct.infonce_loss(matrix, cfg.loss, params.log_inv_tau)
    elif cfg.loss_kind == "margin":
        loss, grad_scores = ct.margin_loss(matrix, cfg.loss)
        grad_tau = 0.0
    else:
        loss, grad_scores = ct.margin_tau_loss(matrix, cfg.loss, cfg.margin_tau_temperature)
        grad_tau = 0.0

    Q = len(queue)
    grad_hr = grad_scores[:, :B] @ batch.tail_embs
    if Q:
        grad_hr += grad_scores[:, B : B + Q] @ queue.embeddings()
    grad_cand = grad_scores[:, :B].T @ batch.hr_embs
    if use_sn:
        grad_sn = grad_scores[:, matrix.sn_column][:, None]
        grad_hr += grad_sn * batch.self_embs
        grad_cand = np.vstack([grad_cand, grad_sn * batch.hr_embs])

    hr_ids, hr_grads = enc.encode_backward(hr_enc, grad_hr)
    tail_ids, tail_grads = enc.encode_backward(cand_enc, grad_cand)
    buffer = enc.GradientBuffer(hr_ids, hr_grads, tail_ids, tail_grads, grad_tau)
    return loss, buffer, matrix, batch


def _steps_per_epoch(n: int, batch_size: int) -> int:
    full, rem = divmod(n, batch_size)
    return full + (1 if rem >= 2 else 0)


def train(
    g: KnowledgeGraph,
    params: enc.EncoderParams,
    cfg: TrainConfig,
    checkpoint_path: Optional[str] = None,
) -> tuple[enc.EncoderParams, list[str]]:
    """Run the full training loop and return the params and per-step log lines.

    The graph must be inverse-augmented.  A checkpoint is written at the end
    of every epoch when a path is given.  Each log line reads
    ``step=<n> loss=<f> lr=<f> tau=<f> fwd=<n>`` where ``fwd`` is the
    cumulative count of encoded texts: two per row (query and tail), three
    with self-negatives.
    """
    if not g.inverse_augmented:
        raise KgcError("training requires an inverse-augmented graph")
    triples = g.triples("train")
    n = len(triples)
    if n < 2:
        raise KgcError(f"need at least 2 training triples, got {n}")

    shuffle_rng = named_stream(cfg.seed, "shuffle")
    dropout_rng = named_stream(cfg.seed, "dropout")
    negative_rng = named_stream(cfg.seed, "negatives")

    tokens = build_token_cache(g, params)
    total_steps = _steps_per_epoch(n, cfg.batch_size) * cfg.epochs

    use_pb = "pb" in cfg.negatives
    queue = ct.PreBatchQueue(cfg.pre_batches * cfg.batch_size if use_pb else 0)
    state = OptimizerState.zeros(params.buckets, params.dim)
    texts_per_row = 3 if "sn" in cfg.negatives else 2
    encoded = 0
    log_lines: list[str] = []
    global_step = 0

    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            chunk = order[start : start + cfg.batch_size]
            if chunk.size < 2:
                continue
            rows = [triples[i] for i in chunk]
            lr = lr_at(global_step, cfg, total_steps)
            tau_now = enc.temperature(params.log_inv_tau)
            with np.errstate(over="ignore", invalid="ignore"):  # loss checked below
                loss, buffer, _, batch = run_batch(
                    g, params, rows, tokens[chunk], queue, cfg, dropout_rng, negative_rng
                )
            encoded += texts_per_row * len(rows)
            if not math.isfinite(loss):
                raise NumericError(f"non-finite loss at step {global_step}")
            clip_gradients(buffer, cfg.grad_clip)
            apply_update(params, state, buffer, lr, cfg)
            if use_pb:
                queue.push(batch.tail_embs, [row.tail for row in rows])
            log_lines.append(
                f"step={global_step} loss={loss!r} lr={lr!r} tau={tau_now!r} fwd={encoded}"
            )
            global_step += 1
        if checkpoint_path is not None:
            enc.save_checkpoint(params, checkpoint_path)
    return params, log_lines
