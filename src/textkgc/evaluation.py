"""Filtered entity-ranking evaluation over a precomputed entity index.

Head prediction is evaluated as tail prediction on the inverse triple, so a
single ranking code path covers both directions.  Candidates that form a
known-true triple with the query are discarded before ranking (the target
itself always stays), ties share a mean rank, and an optional re-ranking pass
adds a constant boost to the head's k-hop train-graph neighborhood.  A split
is ranked in chunks of queries, each scored against every entity at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import encoder as enc
from .errors import CheckpointError, KgcError, UnknownIdError
from .files import format_row, parse_row, read_lines, replace_file
from .graph import KnowledgeGraph, Triple, augment_description, k_hop_neighbors

TAIL_DIRECTION = "tail"
HEAD_DIRECTION = "head"
DIRECTIONS = (TAIL_DIRECTION, HEAD_DIRECTION)
HITS_LEVELS = (1, 3, 10)
UNKNOWN_CATEGORY = "unknown"
INDEX_CHUNK = 256  # texts encoded per forward pass; bounds the (chunk, L, d) gather
RANK_CELLS = 2**18  # (query, entity) scores per ranked chunk; bounds the (chunk, E) blocks


@dataclass(frozen=True)
class RerankConfig:
    """Score boost ``alpha`` for entities within ``hops`` undirected train
    edges of the query head.  ``alpha=0``, the default, disables re-ranking."""

    alpha: float = 0.0
    hops: int = 2

    def __post_init__(self) -> None:
        if not 0 <= self.alpha < math.inf:  # every comparison with nan is False
            raise KgcError(f"re-rank boost must be a finite number >= 0, got {self.alpha}")
        if self.hops < 1:
            raise KgcError(f"hop radius must be >= 1, got {self.hops}")


@dataclass
class EntityEmbeddingIndex:
    """All entity vectors as rows, in strictly increasing id order; built from
    a graph, row i is the graph's entity number i (``entity_numbers``)."""

    entity_ids: list[str]
    matrix: np.ndarray
    forward_passes: int

    def __post_init__(self) -> None:
        if self.matrix.ndim != 2 or self.matrix.shape[0] != len(self.entity_ids):
            raise KgcError("index needs one matrix row per entity id")
        if any(a >= b for a, b in zip(self.entity_ids, self.entity_ids[1:])):
            raise KgcError("index entity ids must be strictly increasing")


def build_index(g: KnowledgeGraph, params: enc.EncoderParams) -> EntityEmbeddingIndex:
    """Encode every entity's augmented description once, in eval mode."""
    ids = list(g.entity_ids)
    if not ids:
        raise KgcError("graph has no entities to index")
    matrix = np.empty((len(ids), params.dim))
    for start in range(0, len(ids), INDEX_CHUNK):
        chunk = ids[start : start + INDEX_CHUNK]
        texts = [(augment_description(g, e),) for e in chunk]
        tokens = enc.token_ids(texts, params.buckets, params.max_tokens)
        matrix[start : start + len(chunk)] = enc.forward_tail(params, tokens).output
    return EntityEmbeddingIndex(ids, matrix, forward_passes=len(ids))


def query_vector(
    g: KnowledgeGraph, params: enc.EncoderParams, pairs: Sequence[tuple[str, str]]
) -> np.ndarray:
    """Unit query vectors of (head, relation) pairs, one row per pair.

    Up to ``INDEX_CHUNK`` queries share a forward pass, and each distinct
    text of a chunk is tokenized once; a row's bits do not depend on the
    other pairs.
    """
    queries = [(augment_description(g, h), g.relation(r).description) for h, r in pairs]
    buckets, max_tokens = params.buckets, params.max_tokens
    return np.concatenate([
        enc.forward_hr(params, enc.token_ids(queries[start : start + INDEX_CHUNK], buckets, max_tokens)).output
        for start in range(0, len(queries), INDEX_CHUNK)
    ])


def rerank_scores(scores: np.ndarray, rows: np.ndarray, alpha: float) -> np.ndarray:
    """Return a copy of ``scores`` with ``alpha`` added once at each of the distinct ``rows``."""
    out = scores.copy()
    out[rows] += alpha
    return out


def _candidate_scores(
    g: KnowledgeGraph,
    idx: EntityEmbeddingIndex,
    heads: Sequence[str],
    queries: np.ndarray,
    rerank: Optional[RerankConfig],
) -> np.ndarray:
    """(query, entity) scores, each head's k-hop boost added to its query's row."""
    if len(idx.entity_ids) != len(g.entities):
        raise KgcError("the index must hold every entity of the graph")
    # one dot per cell, each summed the same way whatever the chunk, so
    # identical rows tie exactly (a BLAS product sums some cells in another order)
    scores = np.einsum("qj,ij->qi", queries, idx.matrix)
    if rerank is not None and rerank.alpha != 0.0:
        for row, head in enumerate(heads):
            scores[row] = rerank_scores(scores[row], k_hop_neighbors(g, head, rerank.hops), rerank.alpha)
    return scores


def _rank_chunk(
    g: KnowledgeGraph,
    idx: EntityEmbeddingIndex,
    triples: Sequence[Triple],
    queries: np.ndarray,
    rerank: Optional[RerankConfig],
) -> np.ndarray:
    """The ``rank_one`` rank of each triple, given its query vector as a row of ``queries``."""
    targets = g.entity_numbers([t for _, _, t in triples])
    heads = [h for h, _, _ in triples]
    scores = _candidate_scores(g, idx, heads, queries, rerank)
    rows = np.arange(len(triples))
    kept = np.ones(scores.shape, dtype=bool)
    kept[g.known_tails(g.entity_numbers(heads), g.relation_numbers([r for _, r, _ in triples]))] = False
    kept[rows, targets] = True
    target_scores = scores[rows, targets][:, None]
    greater = np.count_nonzero(kept & (scores > target_scores), axis=1)
    equal = np.count_nonzero(kept & (scores == target_scores), axis=1)  # includes the target
    return 1.0 + greater + (equal - 1) / 2.0


def rank_one(
    g: KnowledgeGraph,
    idx: EntityEmbeddingIndex,
    params: enc.EncoderParams,
    triple: Triple,
    rerank: Optional[RerankConfig] = None,
) -> float:
    """Filtered rank of the triple's tail among all entities.

    Candidates t' != t with (h, r, t') known in any split are discarded.
    rank = 1 + #{kept strictly above target} + #{kept tied with target}/2.
    """
    query = query_vector(g, params, [(triple.head, triple.relation)])
    return float(_rank_chunk(g, idx, [triple], query, rerank)[0])


class TripleRanking(NamedTuple):
    triple: Triple
    direction: str
    rank: float
    category: str


def _metrics(ranks: list[float]) -> dict[str, float]:
    arr = np.asarray(ranks, dtype=float)
    out = {"mrr": float(np.mean(1.0 / arr))}
    for level in HITS_LEVELS:
        out[f"hits{level}"] = float(np.mean(arr <= level))
    return out


@dataclass
class RankingResult:
    rankings: list[TripleRanking]
    per_direction: dict[str, dict[str, float]]
    overall: dict[str, float]
    by_category: dict[str, dict[str, float]]
    forward_passes: int
    reranked: bool

    def report(self) -> dict:
        out: dict = dict(self.overall)
        for direction in DIRECTIONS:
            out[direction] = dict(self.per_direction[direction])
        out["by_category"] = {cat: dict(row) for cat, row in sorted(self.by_category.items())}
        out["forward_passes"] = int(self.forward_passes)
        out["reranked"] = bool(self.reranked)
        return out


def breakdown_by_category(rankings: list[TripleRanking]) -> dict[str, dict[str, float]]:
    """MRR and triple count per relation category; empty groups never appear."""
    groups: dict[str, list[float]] = {}
    for row in rankings:
        groups.setdefault(row.category, []).append(row.rank)
    return {
        cat: {"mrr": float(np.mean([1.0 / r for r in ranks])), "count": len(ranks)}
        for cat, ranks in groups.items()
    }


def evaluate(
    g: KnowledgeGraph,
    idx: EntityEmbeddingIndex,
    params: enc.EncoderParams,
    split: str = "test",
    rerank: Optional[RerankConfig] = None,
) -> RankingResult:
    """Rank every triple of the split in order; inverse rows count as head prediction.

    All queries are encoded in one ``query_vector`` call, then ranked in
    chunks of about ``RANK_CELLS`` scores.  Overall metrics are the mean of
    the two directional metric sets, and ``forward_passes`` adds one query
    encoding per triple to the index cost.
    """
    if not g.inverse_augmented:
        raise KgcError("evaluation requires an inverse-augmented graph")
    triples = g.triples(split)
    if not triples:
        raise KgcError(f"split {split!r} has no triples")

    queries = query_vector(g, params, [(h, r) for h, r, _ in triples])
    chunk = max(1, RANK_CELLS // max(1, len(idx.entity_ids)))
    ranked = np.concatenate([
        _rank_chunk(g, idx, triples[start : start + chunk], queries[start : start + chunk], rerank)
        for start in range(0, len(triples), chunk)
    ])
    rankings = [
        TripleRanking(
            triple,
            HEAD_DIRECTION if g.relation(triple.relation).is_inverse else TAIL_DIRECTION,
            rank,
            g.relation_category(triple.relation) or UNKNOWN_CATEGORY,
        )
        for triple, rank in zip(triples, ranked.tolist())
    ]

    per_direction = {}
    for direction in DIRECTIONS:
        ranks = [row.rank for row in rankings if row.direction == direction]
        if not ranks:
            raise KgcError(f"split {split!r} has no {direction}-direction triples")
        per_direction[direction] = _metrics(ranks)
    overall = {
        key: float(np.mean([per_direction[d][key] for d in DIRECTIONS]))
        for key in per_direction[TAIL_DIRECTION]
    }
    return RankingResult(
        rankings=rankings,
        per_direction=per_direction,
        overall=overall,
        by_category=breakdown_by_category(rankings),
        forward_passes=idx.forward_passes + len(triples),
        reranked=rerank is not None and rerank.alpha != 0.0,
    )


def predict_topk(
    g: KnowledgeGraph,
    idx: EntityEmbeddingIndex,
    params: enc.EncoderParams,
    head: str,
    relation: str,
    k: int,
    rerank: Optional[RerankConfig] = None,
) -> list[tuple[str, float, bool]]:
    """Top-k candidates by score, unfiltered; known-true tails are flagged.

    Ties break toward the lexically smaller entity id, and k is clamped
    to the entity count.
    """
    if k < 1:
        raise KgcError(f"k must be >= 1, got {k}")
    query = query_vector(g, params, [(head, relation)])
    scores = _candidate_scores(g, idx, [head], query, rerank)[0]
    k = min(k, scores.size)
    # every row scoring at least the k-th largest score, ties included, in
    # row order; rows are in id order, so a stable sort breaks ties by id
    shortlist = np.flatnonzero(scores >= np.partition(scores, scores.size - k)[scores.size - k])
    order = shortlist[np.argsort(-scores[shortlist], kind="stable")[:k]]
    # scalars, not one-element arrays: their arithmetic costs no numpy array operations
    known = g.known(g.entity_numbers([head])[0], g.relation_numbers([relation])[0], order)
    return [(idx.entity_ids[i], float(scores[i]), flag) for i, flag in zip(order.tolist(), known.tolist())]


def write_embeddings(idx: EntityEmbeddingIndex, path: str) -> None:
    """Write one ``entity_id<TAB>v1 v2 ...`` line per entity, repr floats."""
    with replace_file(path) as fh:
        for entity_id, row in zip(idx.entity_ids, idx.matrix):
            fh.write(entity_id + "\t" + format_row(row) + "\n")


def read_embeddings(g: KnowledgeGraph, path: str) -> EntityEmbeddingIndex:
    """The index of the vectors in a ``write_embeddings`` file; costs no encoder passes.

    Each line holds a finite unit vector for a distinct id, all of one
    dimension; every entity of the graph needs a vector, and vectors of
    other ids are ignored.
    """
    vectors: dict[str, np.ndarray] = {}
    dim: Optional[int] = None
    for lineno, line in read_lines(path, CheckpointError):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise CheckpointError(path, lineno, "expected 'id<TAB>values'")
        ident, values = parts
        vec = np.array(parse_row(path, lineno, values.split()))
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise CheckpointError(path, lineno, f"dimension {vec.size} differs from first row ({dim})")
        if not abs(float(np.linalg.norm(vec)) - 1.0) <= 1e-6:  # also true for nan
            raise CheckpointError(path, lineno, f"vector for {ident!r} is not a finite unit vector")
        if ident in vectors:
            raise CheckpointError(path, lineno, f"duplicate entity id {ident!r}")
        vectors[ident] = vec
    if dim is None:
        raise CheckpointError(path, 1, "no vectors found")
    ids = list(g.entity_ids)
    if not ids:
        raise KgcError("graph has no entities to index")
    missing = [e for e in ids if e not in vectors]
    if missing:
        raise UnknownIdError(f"no precomputed vector for entity {missing[0]!r}")
    return EntityEmbeddingIndex(ids, np.stack([vectors[e] for e in ids]), forward_passes=0)
