"""Filtered entity-ranking evaluation over a precomputed entity index.

Head prediction is evaluated as tail prediction on the inverse triple, so a
single ranking code path covers both directions.  Candidates that form a
known-true triple with the query are discarded before ranking (the target
itself always stays), ties share a mean rank, and an optional re-ranking pass
adds a constant boost to the head's k-hop train-graph neighborhood.  A split
is ranked in chunks of queries, each scored against every entity at once by
one BLAS product; only the candidates whose product lies within rounding
distance of the target's are re-scored exactly, so ranks and ties are those
of the exact scores; with re-ranking on, one ``k_hop_mask`` walk marks the
neighborhoods of all the chunk's heads.  Everything inside works on the
graph's entity and relation numbers: an index's rows are its graph's
entities in sorted-id order, so a query's known tails are dropped, and its
neighborhood boosted, at their entity numbers.  Ids are numbered only where
they enter (``rank_one``'s triple and ``predict_topk``'s head and relation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import encoder as enc
from .errors import CheckpointError, KgcError, UnknownIdError
from .files import format_row, parse_row, read_lines, replace_file
from .graph import CATEGORIES, KnowledgeGraph, Triple, augment_description, k_hop_mask, k_hop_neighbors

TAIL_DIRECTION = "tail"
HEAD_DIRECTION = "head"
DIRECTIONS = (TAIL_DIRECTION, HEAD_DIRECTION)
HITS_LEVELS = (1, 3, 10)
INDEX_CHUNK = 256  # texts encoded per forward pass; bounds the (chunk, L, d) gather
# (query, entity) scores per ranked chunk: 2**20 is an 8 MB float64 block
# (52 queries on 20000 entities), and the chunk's bool masks add 1 MB each;
# on 20000 entities a re-ranked evaluation of 576 queries took 83 ms at 13
# queries per chunk, 70 ms at 52 and 69 ms at 104, so larger blocks buy no more
RANK_CELLS = 2**20
UNIT_ROUNDOFF = 2.0**-53
SMALLEST_SUBNORMAL = 2.0**-1074


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
    """All entity vectors as finite rows, in strictly increasing id order;
    built from a graph, row i is the graph's entity number i (``entity_numbers``).
    A non-finite matrix is rejected, and the largest row norm is recorded
    for ``score_band``."""

    entity_ids: list[str]
    matrix: np.ndarray
    forward_passes: int
    max_row_norm: float = field(init=False)

    def __post_init__(self) -> None:
        if self.matrix.ndim != 2 or self.matrix.shape[0] != len(self.entity_ids):
            raise KgcError("index needs one matrix row per entity id")
        if any(a >= b for a, b in zip(self.entity_ids, self.entity_ids[1:])):
            raise KgcError("index entity ids must be strictly increasing")
        if not np.isfinite(self.matrix).all():
            raise KgcError("index matrix must be finite")
        # einsum sums a cell in another order when the rows are not contiguous
        self.matrix = np.ascontiguousarray(self.matrix)
        self.max_row_norm = float(np.linalg.norm(self.matrix, axis=1).max(initial=0.0))

    def score_band(self, queries: np.ndarray, alpha: float) -> np.ndarray:
        """Per query row, a bound on how far two computed scores of one of its
        cells lie apart, whatever order the dot products sum in, boost included.

        Each sum of d products is within ``γ_d·‖q‖·‖m‖`` (plus ``d`` subnormal
        steps of underflow) of the true dot, and adding ``alpha`` rounds once
        more; the bound is doubled so that the rounding of the norms and of
        this arithmetic cannot make it too small.  Too large only costs
        re-scoring.
        """
        d = self.matrix.shape[1]
        gamma = d * UNIT_ROUNDOFF / (1.0 - d * UNIT_ROUNDOFF)
        reach = np.linalg.norm(queries, axis=1) * self.max_row_norm
        return 4.0 * (gamma * reach + d * SMALLEST_SUBNORMAL + UNIT_ROUNDOFF * (reach + alpha))


def build_index(g: KnowledgeGraph, params: enc.EncoderParams) -> EntityEmbeddingIndex:
    """Encode every entity's augmented description once, in eval mode."""
    count = len(g.entity_ids)
    if not count:
        raise KgcError("graph has no entities to index")
    matrix = np.empty((count, params.dim))
    for start in range(0, count, INDEX_CHUNK):
        texts = [(augment_description(g, e),) for e in range(start, min(start + INDEX_CHUNK, count))]
        tokens = enc.token_ids(texts, params.buckets, params.max_tokens)
        matrix[start : start + len(texts)] = enc.forward_tail(params, tokens).output
    return EntityEmbeddingIndex(list(g.entity_ids), matrix, forward_passes=count)


def query_vector(
    g: KnowledgeGraph, params: enc.EncoderParams, heads: np.ndarray, relations: np.ndarray
) -> np.ndarray:
    """Unit query vectors of (head, relation) pairs, given as entity and
    relation number arrays, one row per pair.

    Up to ``INDEX_CHUNK`` queries share a forward pass, and each distinct
    text of a chunk is tokenized once; a row's bits do not depend on the
    other pairs.
    """
    texts = g.relation_texts
    queries = [(augment_description(g, h), texts[r]) for h, r in zip(heads.tolist(), relations.tolist())]
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


def _exact_scores(queries: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """(query, row) dot products, each cell summed in one fixed order whatever
    the other rows, so identical rows tie exactly; every score that decides
    a tie or a top-k row comes from here (a BLAS product sums some cells in
    another order)."""
    return np.einsum("qj,ij->qi", queries, matrix)


def _row_counts(mask: np.ndarray) -> np.ndarray:
    """``np.count_nonzero(mask, axis=1)``, counted one row at a time: the
    axis form runs as an intp sum: 492 us against 85 us on a (52, 20000)
    block, and 78 ms against 70 ms for a re-ranked evaluation of 576
    queries on 20000 entities."""
    return np.fromiter(map(np.count_nonzero, mask), dtype=np.int64, count=len(mask))


def _rank_chunk(
    g: KnowledgeGraph,
    idx: EntityEmbeddingIndex,
    triples: np.ndarray,
    queries: np.ndarray,
    rerank: Optional[RerankConfig],
) -> np.ndarray:
    """The ``rank_one`` rank of each (head, relation, tail) number row of
    ``triples``, given its query vector as a row of ``queries``.

    Every cell is scored by one BLAS product, which lies within the index's
    ``score_band`` of the exact score.  A candidate whose product is further
    than twice that from the target's product is above or below the target's
    exact score whatever the rounding; only the candidates nearer than that,
    the target among them, are re-scored exactly and compared, so no tie is
    decided on a BLAS score.
    """
    heads, relations, targets = triples.T
    if len(idx.entity_ids) != len(g.entities):
        raise KgcError("the index must hold every entity of the graph")
    alpha, boosted = 0.0, None
    if rerank is not None and rerank.alpha != 0.0:
        alpha, boosted = rerank.alpha, k_hop_mask(g, heads, rerank.hops)
    scores = queries @ idx.matrix.T
    if boosted is not None:
        np.add(scores, alpha, out=scores, where=boosted)
    rows = np.arange(len(triples))
    target_scores = scores[rows, targets]
    # filtered candidates are nan, which no comparison counts
    scores[g.known_tails(heads, relations)] = np.nan
    scores[rows, targets] = target_scores
    band = 2.0 * idx.score_band(queries, alpha)
    above = (target_scores + band)[:, None]
    below = (target_scores - band)[:, None]
    greater = _row_counts(scores > above)
    near = _row_counts(scores >= below) - greater  # includes the target
    equal = np.ones(len(triples), dtype=np.int64)
    for row in np.flatnonzero(near > 1).tolist():
        cands = np.flatnonzero((scores[row] >= below[row]) & (scores[row] <= above[row]))
        exact = _exact_scores(queries[row : row + 1], idx.matrix[cands])[0]
        if boosted is not None:
            np.add(exact, alpha, out=exact, where=boosted[row, cands])
        target = exact[np.searchsorted(cands, targets[row])]
        greater[row] += np.count_nonzero(exact > target)
        equal[row] = np.count_nonzero(exact == target)
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
    The triple is ranked as a chunk of one, by the path ``evaluate`` takes.
    """
    numbers = g.triple_numbers([triple])
    query = query_vector(g, params, numbers[:, 0], numbers[:, 1])
    return float(_rank_chunk(g, idx, numbers, query, rerank)[0])


class TripleRanking(NamedTuple):
    triple: Triple
    rank: float


def _metrics(ranks: np.ndarray) -> dict[str, float]:
    out = {"mrr": float(np.mean(1.0 / ranks))}
    for level in HITS_LEVELS:
        out[f"hits{level}"] = float(np.mean(ranks <= level))
    return out


@dataclass
class RankingResult:
    """The ranks of one split's triples, in ``split_array`` order, and their metrics."""

    graph: KnowledgeGraph
    triples: np.ndarray  # (n, 3) (head, relation, tail) numbers of the ranked triples
    ranks: np.ndarray  # (n,) filtered ranks
    per_direction: dict[str, dict[str, float]]
    overall: dict[str, float]
    by_category: dict[str, dict[str, float]]
    forward_passes: int
    reranked: bool

    @property
    def rankings(self) -> list[TripleRanking]:
        """Each ranked triple, as ids, with its rank; built on each read."""
        ids, relation_ids = self.graph.entity_ids, self.graph.relation_ids
        return [
            TripleRanking(Triple(ids[h], relation_ids[r], ids[t]), rank)
            for (h, r, t), rank in zip(self.triples.tolist(), self.ranks.tolist())
        ]

    def report(self) -> dict:
        out: dict = dict(self.overall)
        for direction in DIRECTIONS:
            out[direction] = dict(self.per_direction[direction])
        out["by_category"] = {cat: dict(row) for cat, row in sorted(self.by_category.items())}
        out["forward_passes"] = int(self.forward_passes)
        out["reranked"] = bool(self.reranked)
        return out


def breakdown_by_category(categories: np.ndarray, ranks: np.ndarray) -> dict[str, dict[str, float]]:
    """MRR and triple count per relation category, given each ranked
    triple's index into ``CATEGORIES``; empty groups never appear."""
    counts = np.bincount(categories, minlength=len(CATEGORIES))
    return {
        CATEGORIES[c]: {"mrr": float(np.mean(1.0 / ranks[categories == c])), "count": int(counts[c])}
        for c in np.flatnonzero(counts).tolist()
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
    triples = g.split_array(split)
    if not len(triples):
        raise KgcError(f"split {split!r} has no triples")

    queries = query_vector(g, params, triples[:, 0], triples[:, 1])
    chunk = max(1, RANK_CELLS // max(1, len(idx.entity_ids)))
    ranks = np.concatenate([
        _rank_chunk(g, idx, triples[start : start + chunk], queries[start : start + chunk], rerank)
        for start in range(0, len(triples), chunk)
    ])

    inverse = g.is_inverse[triples[:, 1]]
    per_direction = {}
    for direction, rows in ((TAIL_DIRECTION, ~inverse), (HEAD_DIRECTION, inverse)):
        if not rows.any():
            raise KgcError(f"split {split!r} has no {direction}-direction triples")
        per_direction[direction] = _metrics(ranks[rows])
    overall = {
        key: float(np.mean([per_direction[d][key] for d in DIRECTIONS]))
        for key in per_direction[TAIL_DIRECTION]
    }
    return RankingResult(
        graph=g,
        triples=triples,
        ranks=ranks,
        per_direction=per_direction,
        overall=overall,
        by_category=breakdown_by_category(g.categories[triples[:, 1]], ranks),
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
    to the entity count.  The one query is scored by the exact einsum
    alone: banding it as ``_rank_chunk`` does costs more numpy calls than
    it saves at 200 entities.  Its boost comes from the one-entity
    ``k_hop_neighbors``.
    """
    if k < 1:
        raise KgcError(f"k must be >= 1, got {k}")
    heads, relations = g.entity_numbers([head]), g.relation_numbers([relation])
    query = query_vector(g, params, heads, relations)
    if len(idx.entity_ids) != len(g.entities):
        raise KgcError("the index must hold every entity of the graph")
    scores = _exact_scores(query, idx.matrix)[0]
    if rerank is not None and rerank.alpha != 0.0:
        scores = rerank_scores(scores, k_hop_neighbors(g, heads[0], rerank.hops), rerank.alpha)
    k = min(k, scores.size)
    # every row scoring at least the k-th largest score, ties included, in
    # row order; rows are in id order, so a stable sort breaks ties by id
    shortlist = np.flatnonzero(scores >= np.partition(scores, scores.size - k)[scores.size - k])
    order = shortlist[np.argsort(-scores[shortlist], kind="stable")[:k]]
    # scalars, not one-element arrays, so the key arithmetic in ``known``
    # makes no extra array
    known = g.known(heads[0], relations[0], order)
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
