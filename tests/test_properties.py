"""Property tests: the whole-array candidate mask and top-k selection against
per-cell and sort-based references kept here."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from textkgc import evaluation as ev
from textkgc.contrastive import PreBatchQueue, TrainingBatch, assemble_candidates
from textkgc.encoder import DEFAULT_MAX_TOKENS
from textkgc.evaluation import EntityEmbeddingIndex, RerankConfig, predict_topk, query_vector
from textkgc.graph import SPLITS, Triple

from conftest import make_graph, tiny_params


def _batch_for(rows, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(3, len(rows), dim))
    vectors /= np.linalg.norm(vectors, axis=2, keepdims=True)
    return TrainingBatch([Triple(*r) for r in rows], *vectors)


def _reference_mask(g, rows, queue_ids, use_self_negatives):
    """The per-cell masking loop, over a set of every split's triples."""
    known = {trip for split in SPLITS for trip in g.triples(split)}
    B, Q = len(rows), len(queue_ids)
    mask = np.ones((B, B + Q + (1 if use_self_negatives else 0)), dtype=bool)
    for i, (h, r, t) in enumerate(rows):
        for j, e in enumerate([row.tail for row in rows] + list(queue_ids)):
            if j != i and (e == t or (h, r, e) in known):
                mask[i, j] = False
        if use_self_negatives and (h == t or (h, r, h) in known):
            mask[i, -1] = False
    return mask


ENTITY_POOL = ["a", "b", "c", "d", "e"]
UNDECLARED = ["z0", "z1"]
_triples = st.tuples(
    st.sampled_from(ENTITY_POOL), st.sampled_from(["r", "s"]), st.sampled_from(ENTITY_POOL)
)


@settings(max_examples=300, deadline=None)
@given(
    train=st.lists(_triples, min_size=1, max_size=12),
    valid=st.lists(_triples, max_size=4),
    test=st.lists(_triples, max_size=4),
    rows=st.lists(
        st.tuples(
            st.sampled_from(ENTITY_POOL + UNDECLARED),
            st.sampled_from(["r", "s", "undeclared"]),
            st.sampled_from(ENTITY_POOL + UNDECLARED),
        ),
        min_size=1,
        max_size=6,
    ),
    pushes=st.lists(st.lists(st.sampled_from(ENTITY_POOL + UNDECLARED), max_size=5), max_size=3),
    capacity=st.integers(0, 8),
    use_self_negatives=st.booleans(),
)
def test_assemble_mask_matches_per_cell_reference(
    train, valid, test, rows, pushes, capacity, use_self_negatives
):
    # known triples in every split, repeated and reflexive tails, and queue
    # entries the graph does not declare
    g = make_graph(train=train, valid=valid, test=test)
    batch = _batch_for(rows)
    queue = PreBatchQueue(capacity)
    for ids in pushes:
        queue.push(np.tile(np.eye(4)[0], (len(ids), 1)), ids)
    m = assemble_candidates(g, batch, queue, use_self_negatives)
    assert np.array_equal(m.mask, _reference_mask(g, batch.rows, queue.entity_ids, use_self_negatives))


@settings(max_examples=200, deadline=None)
@given(
    levels=st.lists(st.integers(0, 3), min_size=2, max_size=12),
    k=st.integers(1, 14),
    rerank=st.booleans(),
)
@example(levels=[2, 1, 1, 1, 0], k=2, rerank=False)  # three ties straddle the k-th score
@example(levels=[1, 1, 0, 1, 0, 1], k=6, rerank=False)  # k = |E|
def test_predict_topk_matches_sorted_reference(levels, k, rerank):
    ids = [f"e{i:02d}" for i in range(len(levels))]
    g = make_graph(train=[(ids[i], "r", ids[i + 1]) for i in range(len(ids) - 1)], augment=True)
    params = tiny_params()
    q = query_vector(g, params, ids[0], "r")
    # equal levels give bitwise-equal rows, so their scores tie exactly
    idx = EntityEmbeddingIndex(ids, np.outer([0.1 * level for level in levels], q), forward_passes=0)
    cfg = RerankConfig(0.05, 2) if rerank else None

    scores = ev._candidate_scores(g, idx, params, ids[0], "r", cfg, DEFAULT_MAX_TOKENS)
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))[:k]
    known = g.known_tails(ids[0], "r")
    want = [(ids[i], float(scores[i]), ids[i] in known) for i in order]
    assert predict_topk(g, idx, params, ids[0], "r", k, cfg) == want
