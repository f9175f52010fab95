"""Hashed-token embedding-bag encoder with exact manual gradients.

Two independent embedding tables share one tokenizer, ``token_ids``: the
``hr`` table embeds relation-aware queries (head text, a reserved separator
bucket, then relation text) and the ``tail`` table candidate entities.  A
text is encoded by averaging its token rows (with optional row dropout
during training) and L2-normalizing the mean, so every output is a unit
vector and dot products are cosines.

Forward and backward passes run over a whole batch of texts at once, held
as one zero-padded token-id matrix; a row's result is bitwise the same
whatever rows share its batch.  Backward passes replay the recorded
forward state, so gradients are exact for the sampled dropout mask; they
are checked against central finite differences in the test suite.
"""

from __future__ import annotations

import math
import os
from array import array
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import CheckpointError, KgcError, NumericError
from .files import format_row, parse_row, read_lines, replace_file
from .randomness import fnv1a_64

DEFAULT_BUCKETS = 30_000
DEFAULT_DIM = 64
DEFAULT_MAX_TOKENS = 50
INIT_SCALE = 0.05
DEFAULT_TEMPERATURE = 0.05
TAU_FLOOR = 1e-3  # the learnable temperature never goes below this
CHECKPOINT_MAGIC = "kgc-enc v2"
PAD_CELLS = 2**18  # (row, slot) cells padded per pass; bounds the bool mask of ``TokenIds.from_flat``

HR_TABLE = "hr"
TAIL_TABLE = "tail"


def separator_index(buckets: int) -> int:
    """The reserved bucket joining head and relation tokens; never produced by hashing."""
    return buckets - 1


def tokenize(text: str, buckets: int, max_tokens: int) -> list[int]:
    """Lowercase, split on whitespace, hash each token into a bucket.

    Hashes land in ``[0, buckets - 1)``; the top bucket is reserved for the
    separator.  The sequence is truncated to ``max_tokens``.
    """
    if buckets < 2:
        raise KgcError(f"bucket count must be >= 2, got {buckets}")
    if max_tokens < 1:
        raise KgcError(f"max_tokens must be >= 1, got {max_tokens}")
    hash_space = buckets - 1
    return [
        fnv1a_64(token.encode("utf-8")) % hash_space
        for token in text.lower().split()[:max_tokens]
    ]


@dataclass
class EncoderParams:
    """All trainable state: two embedding tables plus the log inverse temperature.

    The token budget every text is cut to is not trained, but it travels with
    the tables: a model only means something at the budget it was trained with.
    """

    hr_table: np.ndarray
    tail_table: np.ndarray
    log_inv_tau: float
    max_tokens: int = DEFAULT_MAX_TOKENS

    def __post_init__(self) -> None:
        if self.max_tokens < 1:
            raise KgcError(f"token budget must be >= 1, got {self.max_tokens}")

    @classmethod
    def initialize(
        cls,
        buckets: int,
        dim: int,
        rng: np.random.Generator,
        initial_temperature: float = DEFAULT_TEMPERATURE,
        max_tokens: int = DEFAULT_MAX_TOKENS,
    ) -> "EncoderParams":
        if buckets < 2:
            raise KgcError(f"bucket count must be >= 2, got {buckets}")
        if dim < 1:
            raise KgcError(f"dimension must be >= 1, got {dim}")
        # 1/t also overflows for a subnormal t, which would make log_inv_tau infinite
        if not (0.0 < initial_temperature < math.inf and 1.0 / initial_temperature < math.inf):
            raise KgcError(f"temperature must be a finite number > 0, got {initial_temperature}")
        hr = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(buckets, dim))
        tail = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(buckets, dim))
        return cls(hr, tail, math.log(1.0 / initial_temperature), max_tokens)

    @property
    def buckets(self) -> int:
        return self.hr_table.shape[0]

    @property
    def dim(self) -> int:
        return self.hr_table.shape[1]

    def table(self, name: str) -> np.ndarray:
        if name == HR_TABLE:
            return self.hr_table
        if name == TAIL_TABLE:
            return self.tail_table
        raise KgcError(f"unknown table {name!r}")

    def copy(self) -> "EncoderParams":
        return EncoderParams(self.hr_table.copy(), self.tail_table.copy(), self.log_inv_tau, self.max_tokens)


def temperature(log_inv_tau: float) -> float:
    """Softmax temperature recovered from its learnable log-inverse, floored at ``TAU_FLOOR``."""
    try:
        tau = math.exp(-log_inv_tau)
    except OverflowError:  # diverged parameter; the loss goes flat, not non-finite
        return math.inf
    return max(tau, TAU_FLOOR)


@dataclass(frozen=True)
class TokenIds:
    """Token sequences as one zero-padded id matrix plus each row's length.

    Row i holds its ``lengths[i]`` tokens in text order; the padding after
    them is never read as a token.
    """

    ids: np.ndarray  # (n, L) int32
    lengths: np.ndarray  # (n,) int64

    @classmethod
    def from_flat(cls, tokens: np.ndarray, lengths: np.ndarray) -> "TokenIds":
        """Rows of ``lengths[i]`` tokens each, taken in order from one flat array."""
        width = int(lengths.max(initial=0))
        if tokens.size == lengths.size * width:  # no row needs padding
            return cls(tokens.reshape(lengths.size, width), lengths)
        ids = np.zeros((lengths.size, width), dtype=np.int32)
        offsets = np.concatenate(([0], np.cumsum(lengths)))  # row i's tokens start at offsets[i]
        step = max(1, PAD_CELLS // width)  # rows per pass
        for start in range(0, lengths.size, step):
            stop = min(start + step, lengths.size)
            ids[start:stop][np.arange(width) < lengths[start:stop, None]] = tokens[offsets[start] : offsets[stop]]
        return cls(ids, lengths)

    @classmethod
    def concat(cls, parts: Sequence["TokenIds"]) -> "TokenIds":
        """The rows of every part in order, padded to the widest part."""
        width = max(part.ids.shape[1] for part in parts)
        ids = np.vstack([np.pad(part.ids, ((0, 0), (0, width - part.ids.shape[1]))) for part in parts])
        return cls(ids, np.concatenate([part.lengths for part in parts]))

    def __len__(self) -> int:
        return self.lengths.size

    def __getitem__(self, rows) -> "TokenIds":
        """The rows a slice or index array selects, trimmed to the longest of them."""
        lengths = self.lengths[rows]
        return TokenIds(self.ids[rows, : lengths.max(initial=0)], lengths)

    def valid(self) -> np.ndarray:
        """(n, L) bool, True at every real token."""
        return np.arange(self.ids.shape[1]) < self.lengths[:, None]


def token_ids(rows: Iterable[Sequence[str]], buckets: int, max_tokens: int) -> TokenIds:
    """One row per item of ``rows``, each item a sequence of texts: every
    text's ``tokenize``, the separator bucket between two texts, the whole
    cut to ``max_tokens``.

    An entity is a one-text item and a query a (head text, relation text)
    item.  Each distinct text is tokenized once per call, and each row is
    written into one flat C-int buffer as it is built.
    """
    separator = separator_index(buckets)
    memo: dict[str, array] = {}
    flat = array("i")
    lengths = array("q")
    for texts in rows:
        start = len(flat)
        for i, text in enumerate(texts):
            tokens = memo.get(text)
            if tokens is None:
                tokens = memo[text] = array("i", tokenize(text, buckets, max_tokens))
            if i:
                flat.append(separator)
            flat += tokens
        del flat[start + max_tokens :]
        lengths.append(len(flat) - start)
    memo.clear()  # frees the texts and their arrays before the padded copy is made
    return TokenIds.from_flat(np.frombuffer(flat, dtype=np.intc), np.frombuffer(lengths, dtype=np.int64))


@dataclass
class Encoding:
    """One batched forward pass and everything its backward pass replays."""

    tokens: TokenIds
    keep: Optional[np.ndarray]  # (B, L) bool: real tokens that survived dropout; None: all slots
    scale: float  # 1 / (1 - dropout), applied to survivors
    pre_norm: np.ndarray  # (B, d) mean-pooled vectors before normalization
    norm: np.ndarray  # (B,) their L2 norms
    output: np.ndarray  # (B, d) unit vectors
    degenerate: np.ndarray  # (B,) bool: no token survived; the row is the fixed fallback


def _fallback(dim: int) -> np.ndarray:
    out = np.zeros(dim)
    out[0] = 1.0
    return out


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row pair.

    Each one is a separate vector dot, so a row's result never depends on
    the rows batched with it (a matrix-vector product may sum some rows in
    another order).
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _bag_forward(
    table: np.ndarray,
    tokens: TokenIds,
    dropout: float,
    rng: Optional[np.random.Generator],
) -> Encoding:
    if not 0.0 <= dropout < 1.0:
        raise KgcError(f"dropout must be in [0, 1), got {dropout}")
    if dropout > 0.0 and rng is None:
        raise KgcError("dropout requires a random generator")
    ids, lengths = tokens.ids, tokens.lengths
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise KgcError("token bucket out of range for the embedding table")
    keep = None
    scale = 1.0
    if dropout > 0.0:
        # one draw per real token, row after row, each row in text order
        keep = np.zeros(ids.shape, dtype=bool)
        keep[tokens.valid()] = rng.random(int(lengths.sum())) >= dropout
        scale = 1.0 / (1.0 - dropout)
    elif lengths.min(initial=ids.shape[1]) < ids.shape[1]:
        keep = tokens.valid()
    rows = table[ids]
    if keep is not None:
        rows[~keep] = 0.0
    # each row's token rows are added one after another in text order, so
    # trailing padding adds exact zeros and never changes a row's bits
    pre_norm = rows.sum(axis=1) * (scale / np.maximum(lengths, 1))[:, None]
    norm = np.sqrt(_row_dots(pre_norm, pre_norm))
    degenerate = norm == 0.0  # empty or all-dropped rows pool to zero
    output = pre_norm / np.where(degenerate, 1.0, norm)[:, None]
    if degenerate.any():
        output[degenerate] = _fallback(table.shape[1])
    return Encoding(tokens, keep, scale, pre_norm, norm, output, degenerate)


def forward_tail(
    params: EncoderParams,
    tokens: TokenIds,
    dropout: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> Encoding:
    """Unit-vector embeddings of entity texts on the candidate table."""
    return _bag_forward(params.tail_table, tokens, dropout, rng)


def forward_hr(
    params: EncoderParams,
    tokens: TokenIds,
    dropout: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> Encoding:
    """Unit-vector embeddings of relation-aware queries (two-text ``token_ids`` rows)."""
    return _bag_forward(params.hr_table, tokens, dropout, rng)


@dataclass
class GradientBuffer:
    """Gradients of the table rows one batch touched, plus the temperature scalar.

    ``hr_ids`` and ``tail_ids`` hold the sorted ids of each table's touched
    rows, and ``hr`` and ``tail`` one gradient row per id.  Rows never
    touched have no entry.
    """

    hr_ids: np.ndarray  # (n_hr,)
    hr: np.ndarray  # (n_hr, d)
    tail_ids: np.ndarray  # (n_tail,)
    tail: np.ndarray  # (n_tail, d)
    log_inv_tau: float = 0.0

    def global_norm(self) -> float:
        total = self.log_inv_tau**2 + float(np.vdot(self.hr, self.hr))
        total += float(np.vdot(self.tail, self.tail))
        return math.sqrt(total)

    def scale_(self, factor: float) -> None:
        self.hr *= factor
        self.tail *= factor
        self.log_inv_tau *= factor

    def assert_finite(self) -> None:
        tables = ((HR_TABLE, self.hr_ids, self.hr), (TAIL_TABLE, self.tail_ids, self.tail))
        for table, ids, grads in tables:
            bad = ~np.isfinite(grads).all(axis=1)
            if bad.any():
                raise NumericError(f"non-finite gradient in {table}_table[{ids[bad.argmax()]}]")
        if not math.isfinite(self.log_inv_tau):
            raise NumericError("non-finite gradient in log_inv_tau")


def encode_backward(encoding: Encoding, upstream: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """d(loss)/d(table rows) for one batched encoding, given d(loss)/d(output).

    Each row's upstream gradient is first pulled back through the L2
    normalization (projecting out the radial component, then dividing by
    the pre-norm length) and then distributed uniformly over the row's
    surviving tokens; a token that occurs more than once collects every
    share, added in row order and then text order.  Degenerate rows (no
    surviving tokens) have constant output and contribute nothing.  Returns
    the sorted ids of the touched table rows and one gradient row per id.

    The shares are scattered by one ``np.bincount`` over flat (id, column)
    bins: it adds each weight into a zeroed bin in input order, so every
    element gets the same additions in the same order as ``np.add.at``.
    """
    upstream = np.asarray(upstream, dtype=float)
    output = encoding.output
    if upstream.shape != output.shape:
        raise KgcError(f"upstream gradient shape {upstream.shape} does not match output {output.shape}")
    live = ~encoding.degenerate
    radial = _row_dots(upstream, output)
    grad_pre = (upstream - radial[:, None] * output) / np.where(live, encoding.norm, 1.0)[:, None]
    per_token = grad_pre * (encoding.scale / np.maximum(encoding.tokens.lengths, 1))[:, None]
    keep = np.ones(encoding.tokens.ids.shape, dtype=bool) if encoding.keep is None else encoding.keep
    rows, cols = np.nonzero(keep & live[:, None])
    ids, slot = np.unique(encoding.tokens.ids[rows, cols], return_inverse=True)
    d = output.shape[1]
    flat = (slot.reshape(-1, 1) * d + np.arange(d)).ravel()
    grads = np.bincount(flat, weights=per_token[rows].ravel(), minlength=ids.size * d)
    # with no tokens at all bincount returns integer zeros
    return ids, grads.reshape(ids.size, d).astype(float, copy=False)


# -- checkpoint io ----------------------------------------------------------


def save_checkpoint(params: EncoderParams, path: str) -> None:
    """Write a text checkpoint: header, hr rows, tail rows, temperature line.

    It is replaced whole or not at all: a failed write leaves ``path`` as it was.
    """
    with replace_file(path) as handle:
        handle.write(f"{CHECKPOINT_MAGIC} {params.buckets} {params.dim} {params.max_tokens}\n")
        for table in (params.hr_table, params.tail_table):
            for row in table:
                handle.write(format_row(row) + "\n")
        handle.write(f"log_inv_tau {params.log_inv_tau!r}\n")


def load_checkpoint(path: str) -> EncoderParams:
    """The params of a ``save_checkpoint`` file; every fault is a ``CheckpointError`` at its line."""
    lines = read_lines(path, CheckpointError)
    header = next(lines, (1, ""))[1]
    try:
        magic, buckets, dim, max_tokens = header.rsplit(" ", 3)
        buckets, dim, max_tokens = int(buckets), int(dim), int(max_tokens)
    except ValueError:
        magic = None
    size = os.path.getsize(path)
    # the 2 * buckets * dim values take at least two bytes each, so a larger
    # claim cannot fit; checked before the tables are allocated, and loose
    # enough that a cut-off file still names the line where it ends
    if magic != CHECKPOINT_MAGIC or buckets < 2 or dim < 1 or max_tokens < 1 or buckets * dim > size:
        raise CheckpointError(path, 1, f"bad checkpoint header: {header!r}")
    tables = []
    for name in (HR_TABLE, TAIL_TABLE):
        table = np.empty((buckets, dim))
        first = 2 + len(tables) * buckets  # the line of the table's first row
        for i in range(buckets):
            lineno, line = next(lines, (first + i, None))
            if line is None:
                raise CheckpointError(path, lineno, f"truncated {name} table")
            values = line.split()
            if len(values) != dim:
                raise CheckpointError(path, lineno, f"expected {dim} values, got {len(values)}")
            table[i] = parse_row(path, lineno, values)
        finite = np.isfinite(table).all(axis=1)
        if not finite.all():
            raise CheckpointError(path, first + int(np.argmin(finite)), f"non-finite value in {name} table")
        tables.append(table)
    lineno, line = next(lines, (2 + 2 * buckets, ""))
    fields = line.split()
    if len(fields) != 2 or fields[0] != "log_inv_tau":
        raise CheckpointError(path, lineno, "expected final 'log_inv_tau <value>' line")
    try:
        log_inv_tau = float(fields[1])
    except ValueError:
        raise CheckpointError(path, lineno, "unparseable temperature") from None
    if not math.isfinite(log_inv_tau):
        raise CheckpointError(path, lineno, "non-finite temperature")
    if next(lines, None) is not None:
        raise CheckpointError(path, lineno + 1, "trailing data after temperature line")
    return EncoderParams(tables[0], tables[1], log_inv_tau, max_tokens)
