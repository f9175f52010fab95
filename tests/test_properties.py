"""Property tests: the graph's split arrays and relation categories
against the string construction and the per-triple classification kept
in conftest, the whole-array candidate mask, the batched known-tail
lookup, undeclared ids raising where they are numbered, top-k selection
and chunked ranking against per-cell, per-query and sort-based
references kept here, the three losses' gradients against central
differences, the numbered neighbor walks (text augmentation and the
re-rank boost) against string-set references kept here, texts to token
ids against a per-item reference, the banded ranks, the encoder's
backward scatter and the touched-row optimizer update against the
einsum, ``np.add.at`` and dense references in conftest, and the loaders
fed corrupted files."""

import math
import re
from collections import Counter

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from textkgc import encoder as enc
from textkgc import evaluation as ev
from textkgc import training as tr
from textkgc.contrastive import (
    IN_BATCH,
    PRE_BATCH,
    SELF_NEGATIVE,
    LossConfig,
    PreBatchQueue,
    TrainingBatch,
    assemble_candidates,
    infonce_loss,
    margin_loss,
    margin_tau_loss,
)
from textkgc.encoder import (
    TAU_FLOOR,
    GradientBuffer,
    encode_backward,
    forward_hr,
    forward_tail,
    load_checkpoint,
    save_checkpoint,
    separator_index,
    token_ids,
    tokenize,
)
from textkgc.errors import CheckpointError, KgcError, ParseError, UnknownIdError
from textkgc.evaluation import (
    EntityEmbeddingIndex,
    RerankConfig,
    evaluate,
    predict_topk,
    query_vector,
    rank_one,
    read_embeddings,
    rerank_scores,
    write_embeddings,
)
from textkgc.graph import (
    CATEGORIES,
    SHORT_DESCRIPTION_TOKENS,
    SPLITS,
    UNKNOWN_CATEGORY,
    Entity,
    KnowledgeGraph,
    Relation,
    Triple,
    add_inverse_triples,
    augment_description,
    classify_relation,
    k_hop_mask,
    k_hop_neighbors,
    load_graph,
)
from textkgc.training import OptimizerState, TrainConfig, apply_update

from conftest import (
    decoupled_dense_update,
    dense_apply_update,
    entity_number,
    id_queries,
    make_graph,
    optimizer_bytes,
    pad,
    plain_matrix,
    query_layout,
    reference_encode_backward,
    reference_category,
    reference_rank_chunk,
    reference_splits,
    tiny_params,
    write_dataset,
)


def _batch_for(g, rows, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(3, len(rows), dim))
    vectors /= np.linalg.norm(vectors, axis=2, keepdims=True)
    return TrainingBatch(g.triple_numbers(rows), *vectors)


def _reference_mask(g, rows, queue_ids, use_self_negatives):
    """The per-cell masking loop over id triples and queued ids, against a
    set of every split's triples."""
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
RELATION_POOL = ["r", "s"]
_triples = st.tuples(
    st.sampled_from(ENTITY_POOL), st.sampled_from(RELATION_POOL), st.sampled_from(ENTITY_POOL)
)


def _pool_graph(train, valid=(), test=()):
    """A graph that declares every pool id, whether or not a triple holds it."""
    return KnowledgeGraph(
        [Entity(e, e.upper()) for e in ENTITY_POOL],
        [Relation(r, r) for r in RELATION_POOL],
        {"train": train, "valid": valid, "test": test},
    )


@settings(max_examples=300, deadline=None)
@given(
    train=st.lists(_triples, min_size=1, max_size=12),
    valid=st.lists(_triples, max_size=4),
    test=st.lists(_triples, max_size=4),
    rows=st.lists(_triples, min_size=1, max_size=6),
    pushes=st.lists(st.lists(st.sampled_from(ENTITY_POOL), max_size=5), max_size=3),
    capacity=st.integers(0, 8),
    use_self_negatives=st.booleans(),
)
def test_assemble_mask_matches_per_cell_reference(
    train, valid, test, rows, pushes, capacity, use_self_negatives
):
    # known triples in every split, repeated and reflexive tails, and ids
    # that no triple holds
    g = _pool_graph(train, valid, test)
    batch = _batch_for(g, rows)
    queue = PreBatchQueue(capacity)
    for ids in pushes:
        queue.push(np.tile(np.eye(4)[0], (len(ids), 1)), g.entity_numbers(ids))
    pushed = [e for ids in pushes for e in ids]
    queued = pushed[len(pushed) - len(queue) :]  # the newest, up to the capacity
    assert [g.entity_ids[n] for n in queue.entity_numbers.tolist()] == queued
    m = assemble_candidates(g, batch, queue, use_self_negatives)
    assert np.array_equal(m.mask, _reference_mask(g, [Triple(*r) for r in rows], queued, use_self_negatives))


@settings(max_examples=300, deadline=None)
@given(
    train=st.lists(_triples, max_size=12),
    valid=st.lists(_triples, max_size=4),
    test=st.lists(_triples, max_size=4),
    queries=st.lists(st.tuples(st.sampled_from(ENTITY_POOL), st.sampled_from(RELATION_POOL)), max_size=8),
)
def test_known_tails_match_each_querys_key_slice(train, valid, test, queries):
    # the whole-batch lookup against one key-block slice per query, and both
    # against the split triples themselves
    g = _pool_graph(train, valid, test)
    heads = g.entity_numbers([h for h, _ in queries])
    relations = g.relation_numbers([r for _, r in queries])
    rows, tails = g.known_tails(heads, relations)
    keys, E, R = g._triple_keys, len(g.entity_ids), len(g.relations)
    known = {trip for split in SPLITS for trip in g.triples(split)}
    for i, (h, r) in enumerate(queries):
        first = (int(heads[i]) * R + int(relations[i])) * E
        want = (keys[keys.searchsorted(first) : keys.searchsorted(first + E)] - first).tolist()
        assert tails[rows == i].tolist() == want
        assert [g.entity_ids[t] for t in want] == sorted(t for t in g.entity_ids if (h, r, t) in known)
    assert np.all(np.diff(rows) >= 0) and rows.size == tails.size


_SPLIT_LISTS = dict(
    train=st.lists(_triples, max_size=12),
    valid=st.lists(_triples, max_size=6),
    test=st.lists(_triples, max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(**_SPLIT_LISTS)
@example(  # a duplicate in one split, a triple in all three, a reflexive one
    train=[("a", "r", "b"), ("a", "r", "b"), ("c", "s", "c")], valid=[("a", "r", "b")], test=[("a", "r", "b")]
)
def test_split_arrays_match_the_string_construction(train, valid, test):
    splits = {"train": train, "valid": valid, "test": test}
    raw = _pool_graph(train, valid, test)
    for g, augment in ((raw, False), (add_inverse_triples(raw), True)):
        want, report = reference_splits(splits, augment)
        assert g.load_report == report
        assert g.relation_numbers(sorted(g.relations)).tolist() == list(range(len(g.relations)))
        assert g.entity_numbers(sorted(g.entities)).tolist() == list(range(len(g.entities)))
        for split in SPLITS:
            assert list(g.triples(split)) == want[split]
            rows = g.split_array(split)
            assert rows.dtype == np.int64 and rows.shape == (len(want[split]), 3)
            assert rows.tolist() == g.triple_numbers(want[split]).tolist()
        # every (h, r, t) cell, against a set of every split's triples
        known = {trip for rows in want.values() for trip in rows}
        E, R = len(g.entities), len(g.relations)
        cells = g.known(np.arange(E)[:, None, None], np.arange(R)[None, :, None], np.arange(E)[None, None, :])
        for h, r, t in np.ndindex(E, R, E):
            assert cells[h, r, t] == ((g.entity_ids[h], g.relation_ids[r], g.entity_ids[t]) in known)


@settings(max_examples=150, deadline=None)
@given(**_SPLIT_LISTS, seed=st.integers(0, 2**16))
@example(  # "r" is 1-n at the threshold and "s" has no train triple
    train=[("a", "r", "b"), ("a", "r", "c"), ("d", "r", "e")], valid=[], test=[("a", "s", "b")], seed=0
)
def test_category_array_matches_the_per_triple_reference(train, valid, test, seed):
    raw = _pool_graph(train, valid, test)
    aug = add_inverse_triples(raw)
    for g in (raw, aug):
        for n, relation_id in enumerate(g.relation_ids):
            want = reference_category(g, relation_id)
            assert CATEGORIES[g.categories[n]] == want
            assert g.is_inverse[n] == g.relation(relation_id).is_inverse
            if want == UNKNOWN_CATEGORY:
                with pytest.raises(KgcError, match="no train triples"):
                    classify_relation(g, relation_id)
            else:
                assert classify_relation(g, relation_id) == want
    assume(test)
    # the report counts each ranked triple under its relation's category,
    # relations without train triples under "unknown"
    vectors = np.random.default_rng(seed).normal(size=(len(aug.entities), 8))
    idx = EntityEmbeddingIndex(list(aug.entity_ids), vectors, forward_passes=0)
    result = evaluate(aug, idx, tiny_params(), "test")
    want = Counter(reference_category(aug, r) for _, r, _ in aug.triples("test"))
    assert {cat: row["count"] for cat, row in result.by_category.items()} == dict(want)


@settings(max_examples=200, deadline=None)
@given(
    train=st.lists(_triples, min_size=1, max_size=12),
    rows=st.lists(_triples, min_size=1, max_size=6),
    queued=st.lists(st.sampled_from(ENTITY_POOL), max_size=5),
    at=st.integers(0, 5),
    field=st.sampled_from(["head", "relation", "tail", "queue"]),
    use_self_negatives=st.booleans(),
)
def test_undeclared_ids_raise_where_they_are_numbered(train, rows, queued, at, field, use_self_negatives):
    # one undeclared id among declared ones: in a batch row (and so in the
    # triple ranked), or among the ids of the pre-batch queue's tails (and so
    # as the ranked tail)
    g = _pool_graph(train)
    kind, ghost = ("relation", "nope") if field == "relation" else ("entity", "zz")
    pool = RELATION_POOL if kind == "relation" else ENTITY_POOL
    numbers = g.relation_numbers if kind == "relation" else g.entity_numbers
    rows = [Triple(*row) for row in rows]
    if field == "queue":
        queued = queued[:at] + [ghost] + queued[at:]
        triple = rows[0]._replace(tail=ghost)
    else:
        i = at % len(rows)
        rows[i] = triple = rows[i]._replace(**{field: ghost})

    def named():
        return pytest.raises(UnknownIdError, match=re.escape(f"unknown {kind} id: {ghost!r}"))

    with named():
        numbers(pool[:at] + [ghost] + pool[at:])
    with named():  # a batch's rows and the queue's tails are numbered before they are assembled
        batch = _batch_for(g, rows)
        queue = PreBatchQueue(8).push(np.tile(np.eye(4)[0], (len(queued), 1)), g.entity_numbers(queued))
        assemble_candidates(g, batch, queue, use_self_negatives)
    params = tiny_params()
    with named():
        rank_one(g, ev.build_index(g, params), params, triple)
    with named():  # so ``known`` is never asked about it
        g.triple_numbers([triple])


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
    q = id_queries(g, params, [(ids[0], "r")])
    # equal levels give bitwise-equal rows, so their scores tie exactly
    idx = EntityEmbeddingIndex(ids, np.outer([0.1 * level for level in levels], q[0]), forward_passes=0)
    cfg = RerankConfig(0.05, 2) if rerank else None

    scores = ev._exact_scores(q, idx.matrix)[0]
    if cfg is not None:
        scores = rerank_scores(scores, k_hop_neighbors(g, entity_number(g, ids[0]), cfg.hops), cfg.alpha)
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))[:k]
    _, tails = g.known_tails(g.entity_numbers(ids[:1]), g.relation_numbers(["r"]))
    known = {ids[n] for n in tails.tolist()}  # ids are sorted
    want = [(ids[i], float(scores[i]), ids[i] in known) for i in order]
    assert predict_topk(g, idx, params, ids[0], "r", k, cfg) == want


# -- loss gradients against central differences -----------------------------------

_loss_matrices = dict(
    seed=st.integers(0, 2**32 - 1),
    B=st.integers(1, 4),
    extra=st.integers(0, 4),  # queue and self-negative columns after the B in-batch ones
    empty_rows=st.integers(0, 2),  # leading rows left with no unmasked negative
)


def _loss_matrix(seed, B, extra, empty_rows, scale=1.0):
    rng = np.random.default_rng(seed)
    C = B + extra
    mask = rng.random((B, C)) < 0.7
    mask[:empty_rows] = False
    mask[np.arange(B), np.arange(B)] = True
    provenance = [IN_BATCH] * B + list(rng.choice([PRE_BATCH, SELF_NEGATIVE], size=extra))
    return plain_matrix(rng.uniform(-scale, scale, size=(B, C)), provenance=provenance, mask=mask)


def _central_differences(loss, m, step):
    """d loss / d score of every cell, by central differences."""
    out = np.zeros(m.size)
    for cell in np.ndindex(*m.size):
        orig = m.scores[cell]
        m.scores[cell] = orig + step
        hi = loss(m)
        m.scores[cell] = orig - step
        lo = loss(m)
        m.scores[cell] = orig
        out[cell] = (hi - lo) / (2 * step)
    return out


def _assert_gradients_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6 * max(1.0, np.abs(want).max(initial=0.0)))


def _negatives(m):
    """The unmasked cells off the diagonal."""
    B = m.num_in_batch
    negatives = m.mask.copy()
    negatives[np.arange(B), np.arange(B)] = False
    return negatives


@settings(max_examples=150, deadline=None)
@given(
    **_loss_matrices,
    at_floor=st.booleans(),
    log_inv_tau=st.floats(0.5, 3.0),
    pre_batch_weight=st.floats(0.05, 1.0),
    additive_margin=st.floats(0.0, 0.1),
)
def test_infonce_gradients_match_central_differences(
    seed, B, extra, empty_rows, at_floor, log_inv_tau, pre_batch_weight, additive_margin
):
    # at the floor the logits are 1000x the scores, so the scores are drawn
    # small and the step scales with tau
    if at_floor:
        log_inv_tau = -math.log(TAU_FLOOR) + log_inv_tau  # tau below the floor, clamped to it
    tau = max(math.exp(-log_inv_tau), TAU_FLOOR)
    m = _loss_matrix(seed, B, extra, empty_rows, scale=0.01 if at_floor else 1.0)
    cfg = LossConfig(additive_margin=additive_margin, pre_batch_weight=pre_batch_weight)
    _, grads, grad_tau = infonce_loss(m, cfg, log_inv_tau)
    want = _central_differences(lambda mm: infonce_loss(mm, cfg, log_inv_tau)[0], m, 1e-5 * tau)
    _assert_gradients_close(grads, want)
    step = 1e-6
    hi, lo = (infonce_loss(m, cfg, log_inv_tau + d)[0] for d in (step, -step))
    if at_floor:
        assert grad_tau == 0.0 and hi == lo  # a clamped tau does not move the loss
    else:
        assert grad_tau == pytest.approx((hi - lo) / (2 * step), rel=1e-5, abs=1e-7)
    assert not grads[:empty_rows].any()  # a row with only its positive has no loss to move


@settings(max_examples=150, deadline=None)
@given(**_loss_matrices, hinge_margin=st.floats(0.1, 1.5))
def test_margin_loss_gradients_match_central_differences(seed, B, extra, empty_rows, hinge_margin):
    m = _loss_matrix(seed, B, extra, empty_rows)
    cfg = LossConfig(hinge_margin=hinge_margin)
    violation = hinge_margin + m.scores - np.diag(m.scores)[:, None]
    assume(np.all(np.abs(violation[_negatives(m)]) > 1e-4))  # no central difference at the kink
    _, grads = margin_loss(m, cfg)
    _assert_gradients_close(grads, _central_differences(lambda mm: margin_loss(mm, cfg)[0], m, 1e-6))
    assert not grads[:empty_rows].any()


@settings(max_examples=150, deadline=None)
@given(**_loss_matrices, hinge_margin=st.floats(0.1, 1.5), tau=st.floats(0.02, 1.0))
def test_margin_tau_gradients_match_central_differences(seed, B, extra, empty_rows, hinge_margin, tau):
    # the defined gradient holds each row's softmax weights constant, so the
    # reference differentiates the hinge sum under weights computed here once
    m = _loss_matrix(seed, B, extra, empty_rows)
    cfg = LossConfig(hinge_margin=hinge_margin)
    negatives = _negatives(m)
    violation = hinge_margin + m.scores - np.diag(m.scores)[:, None]
    assume(np.all(np.abs(violation[negatives]) > 1e-4))
    hinged = np.where(negatives, np.maximum(violation, 0.0), 0.0)
    weights = np.where(negatives, np.exp(hinged / tau), 0.0)
    weights /= np.where(negatives.any(axis=1), weights.sum(axis=1), 1.0)[:, None]

    def frozen(mm):
        v = hinge_margin + mm.scores - np.diag(mm.scores)[:, None]
        return float((weights * np.where(negatives, np.maximum(v, 0.0), 0.0)).sum() / B)

    loss, grads = margin_tau_loss(m, cfg, tau)
    assert loss == pytest.approx(frozen(m), rel=1e-12, abs=1e-15)
    _assert_gradients_close(grads, _central_differences(frozen, m, 1e-6))
    assert not grads[:empty_rows].any()


# -- numbered neighbor walks -----------------------------------------------------


def _string_neighbors(g):
    """Undirected train neighbors as a dict of id-string sets."""
    neighbors = {}
    for h, _, t in g.triples("train"):
        neighbors.setdefault(h, set()).add(t)
        neighbors.setdefault(t, set()).add(h)
    return neighbors


def _reference_augment(g, entity_id, exclude=None):
    """Augmentation over a string-set neighbor map, names in sorted-id order."""
    ent = g.entity(entity_id)
    base = ent.description.strip() or ent.name
    if len(base.split()) >= SHORT_DESCRIPTION_TOKENS:
        return base
    neighbor_ids = set(_string_neighbors(g).get(entity_id, ()))
    neighbor_ids.discard(entity_id)
    if exclude is not None:
        neighbor_ids.discard(exclude)
    if not neighbor_ids:
        return base
    return base + " " + " ".join(g.entity(n).name for n in sorted(neighbor_ids))


def _reference_hood(g, entity_id, k):
    """Ids within k undirected train hops, excluding self, by frontier sets."""
    neighbors = _string_neighbors(g)
    seen, frontier = {entity_id}, {entity_id}
    for _ in range(k):
        frontier = {m for f in frontier for m in neighbors.get(f, ())} - seen
        seen |= frontier
    return seen - {entity_id}


_DESCRIPTIONS = st.sampled_from(["", "  ", "few words", " ".join(["w"] * (SHORT_DESCRIPTION_TOKENS - 1)),
                                 " ".join(["w"] * SHORT_DESCRIPTION_TOKENS)])


@settings(max_examples=300, deadline=None)
@given(
    train=st.lists(_triples, max_size=12),
    test=st.lists(_triples, min_size=1, max_size=4),
    descriptions=st.lists(_DESCRIPTIONS, min_size=len(ENTITY_POOL), max_size=len(ENTITY_POOL)),
    augment=st.booleans(),
)
@example(  # a reflexive triple, and c has no train neighbor
    train=[("a", "r", "a"), ("a", "r", "b"), ("b", "s", "a")], test=[("c", "s", "a")],
    descriptions=[""] * len(ENTITY_POOL), augment=True,
)
def test_augment_description_matches_string_set_reference(train, test, descriptions, augment):
    # reflexive train triples, entities only the test split declares (no
    # train neighbors), and plain and inverse-augmented graphs; every entity
    # number against every exclude, none, and one past the last number,
    # which names no entity, as "zz" names none in the reference
    g = make_graph(
        train=train,
        test=test,
        descriptions=dict(zip(ENTITY_POOL, descriptions)),
        names={e: f"Name {e.upper()}" for e in ENTITY_POOL},
        augment=augment,
    )
    ids = g.entity_ids
    for e, entity_id in enumerate(ids):
        assert augment_description(g, e) == _reference_augment(g, entity_id)
        for exclude, exclude_id in [*enumerate(ids), (len(ids), "zz")]:
            assert augment_description(g, e, exclude=exclude) == _reference_augment(g, entity_id, exclude_id)


@settings(max_examples=200, deadline=None)
@given(
    train=st.lists(_triples, min_size=1, max_size=12),
    test=st.lists(_triples, min_size=1, max_size=4),
    heads=st.lists(st.sampled_from(ENTITY_POOL), min_size=1, max_size=5),
    alpha=st.floats(0.0, 2.0),
    hops=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
@example(  # c has an empty neighborhood, a a reflexive edge
    train=[("a", "r", "a"), ("a", "r", "b")], test=[("c", "r", "a")], heads=["c", "a", "c"],
    alpha=0.05, hops=2, seed=0,
)
def test_rerank_boost_matches_a_per_neighbor_loop(train, test, heads, alpha, hops, seed):
    g = make_graph(train=train, test=test, augment=True)
    heads = [h for h in heads if h in g.entities] or [g.entity_ids[0]]
    rng = np.random.default_rng(seed)
    idx = EntityEmbeddingIndex(list(g.entity_ids), rng.normal(size=(len(g.entity_ids), 4)), forward_passes=0)
    queries = rng.normal(size=(len(heads), 4))
    base = ev._exact_scores(queries, idx.matrix)
    mask = k_hop_mask(g, g.entity_numbers(heads), hops)
    want = base.copy()
    for row, h in enumerate(heads):
        assert set(np.flatnonzero(mask[row]).tolist()) == {idx.entity_ids.index(e) for e in _reference_hood(g, h, hops)}
        for e in _reference_hood(g, h, hops):
            want[row, idx.entity_ids.index(e)] += alpha
        # predict_topk's boost
        got = rerank_scores(base[row], k_hop_neighbors(g, entity_number(g, h), hops), alpha)
        assert got.tobytes() == want[row].tobytes()
    # _rank_chunk's boost, one mask per chunk
    got = base.copy()
    np.add(got, alpha, out=got, where=mask)
    assert got.tobytes() == want.tobytes()


_IDS = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"), min_size=1, max_size=4
)


@settings(max_examples=100, deadline=None)
@given(
    ids=st.lists(_IDS, min_size=2, max_size=6, unique=True),
    dim=st.integers(1, 5),
    exponents=st.lists(st.integers(-100, 100), min_size=1, max_size=5),
    seed=st.integers(0, 2**16),
)
def test_read_embeddings_round_trips_written_vectors(tmp_path_factory, ids, dim, exponents, seed):
    rng = np.random.default_rng(seed)
    g = make_graph(train=[(a, "r", b) for a, b in zip(ids, ids[1:])])
    vectors = rng.normal(size=(len(ids), dim)) * 10.0 ** np.resize(np.array(exponents, dtype=float), dim)
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    vectors[0] = -0.0
    vectors[0, 0] = -1.0
    idx = EntityEmbeddingIndex(list(g.entity_ids), vectors, forward_passes=0)
    path = str(tmp_path_factory.mktemp("vectors") / "vectors.tsv")
    write_embeddings(idx, path)
    back = read_embeddings(g, path)
    assert back.entity_ids == idx.entity_ids
    assert back.matrix.tobytes() == idx.matrix.tobytes()
    assert back.forward_passes == 0


# -- the chunked read path -----------------------------------------------------


def _sort_reference_rank(g, idx, q, triple, rerank):
    """Mean 1-based place of the target's score among the kept scores, sorted."""
    h, r, t = triple
    scores = np.einsum("ij,j->i", idx.matrix, q)  # one query at a time
    if rerank is not None:
        for n in k_hop_neighbors(g, entity_number(g, h), rerank.hops).tolist():
            scores[idx.entity_ids.index(g.entity_ids[n])] += rerank.alpha
    known = {trip for split in SPLITS for trip in g.triples(split)}
    target = scores[idx.entity_ids.index(t)]
    kept = sorted(
        (s for e, s in zip(idx.entity_ids, scores) if e == t or (h, r, e) not in known), reverse=True
    )
    places = [place for place, s in enumerate(kept, start=1) if s == target]
    return sum(places) / len(places)


@settings(max_examples=150, deadline=None)
@given(
    train=st.lists(_triples, min_size=1, max_size=10),
    valid=st.lists(_triples, max_size=4),
    test=st.lists(_triples, min_size=1, max_size=6),
    picks=st.lists(st.integers(0, 2), min_size=len(ENTITY_POOL), max_size=len(ENTITY_POOL)),
    chunk=st.sampled_from([1, 2, 1000]),
    rerank=st.booleans(),
)
def test_evaluate_ranks_match_rank_one_and_a_sort_reference(train, valid, test, picks, chunk, rerank):
    # known triples in every split, reflexive ones among them; each entity's
    # row is one of three vectors, so entities sharing a vector tie exactly
    g = make_graph(train=train, valid=valid, test=test, augment=True)
    ids = sorted(g.entities)
    pool = np.random.default_rng(4).normal(size=(3, 8))
    idx = EntityEmbeddingIndex(ids, pool[[picks[ENTITY_POOL.index(e)] for e in ids]], forward_passes=0)
    params = tiny_params()
    cfg = RerankConfig(0.05, 2) if rerank else None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ev, "RANK_CELLS", chunk * len(ids))  # chunk queries per ranked block
        result = evaluate(g, idx, params, "test", cfg)
    assert [row.triple for row in result.rankings] == list(g.triples("test"))
    for row in result.rankings:
        q = id_queries(g, params, [row.triple[:2]])[0]
        assert row.rank == rank_one(g, idx, params, row.triple, cfg)
        assert row.rank == _sort_reference_rank(g, idx, q, row.triple, cfg)


_ROW_MAKES = st.tuples(st.sampled_from(["fresh", "copy", "up", "down"]), st.integers(0, 2**16))
_PAIRS = st.tuples(st.integers(0, 22), st.integers(0, 22))


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 23),  # most counts are no multiple of 4, so BLAS sums the tail rows in another order
    dim=st.integers(1, 40),
    makes=st.lists(_ROW_MAKES, min_size=23, max_size=23),
    train=st.lists(_PAIRS, min_size=1, max_size=12),
    test=st.lists(_PAIRS, min_size=1, max_size=8),
    boost=st.sampled_from(["off", "zero", "tie", "any"]),
    hops=st.integers(1, 2),
    chunk=st.sampled_from([1, 2, 3, 1000]),
    seed=st.integers(0, 2**16),
)
@example(  # three twins and a 1-ulp neighbor of e00 in the tail rows of 7
    n=7, dim=32, makes=[("fresh", 0)] * 3 + [("copy", 0), ("up", 0), ("copy", 0), ("down", 0)] + [("fresh", 0)] * 16,
    train=[(1, 2)], test=[(1, 0), (2, 0), (0, 6)], boost="off", hops=1, chunk=1, seed=0,
)
def test_banded_ranks_match_the_einsum_reference(n, dim, makes, train, test, boost, hops, chunk, seed):
    # rows are fresh (norms in [0.5, 2]), exact copies of an earlier row, or
    # that row with one component moved one ulp up or down
    rng = np.random.default_rng(seed)
    ids = [f"e{i:02d}" for i in range(n)]
    g = make_graph(
        train=[(ids[h % n], "r", ids[t % n]) for h, t in train],
        test=[(ids[h % n], "r", ids[t % n]) for h, t in test],
        entities=ids,
        augment=True,
    )
    rows = np.empty((n, dim))
    for i, (make, pick) in enumerate(makes[:n]):
        if make == "fresh" or i == 0:
            v = rng.normal(size=dim)
            rows[i] = v / np.linalg.norm(v) * rng.uniform(0.5, 2.0)
            continue
        rows[i] = rows[pick % i]
        if make != "copy":
            j = pick % dim
            rows[i, j] = np.nextafter(rows[i, j], np.inf if make == "up" else -np.inf)
    idx = EntityEmbeddingIndex(ids, rows, forward_passes=0)
    params = tiny_params(dim=dim, seed=seed)
    triples = g.triples("test")
    queries = id_queries(g, params, [(h, r) for h, r, _ in triples])

    alpha = float(rng.uniform(0.0, 0.5)) if boost == "any" else 0.0
    if boost == "tie":  # the boost lifts a neighbor of the first head onto a row outside its neighborhood
        exact = np.einsum("qj,ij->qi", queries[:1], idx.matrix)[0]
        hood = k_hop_neighbors(g, entity_number(g, triples[0].head), hops).tolist()
        gaps = [exact[a] - exact[b] for a in range(n) if a not in hood for b in hood if exact[a] >= exact[b]]
        alpha = float(gaps[seed % len(gaps)]) if gaps else 0.0
    cfg = None if boost == "off" else RerankConfig(alpha, hops)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ev, "RANK_CELLS", chunk * n)  # chunk queries per ranked block
        got = np.array([row.rank for row in evaluate(g, idx, params, "test", cfg).rankings])
    assert got.tobytes() == reference_rank_chunk(g, idx, triples, queries, cfg).tobytes()

    # queries that are not unit vectors, straight into the ranker
    raw = rng.normal(size=(len(triples), dim)) * rng.uniform(0.5, 2.0, size=(len(triples), 1))
    got = ev._rank_chunk(g, idx, g.split_array("test"), raw, cfg)
    assert got.tobytes() == reference_rank_chunk(g, idx, triples, raw, cfg).tobytes()

    # a re-scored cell is the full einsum's cell, whichever rows are re-scored
    full = np.einsum("qj,ij->qi", raw, idx.matrix)
    for row in range(len(triples)):
        cols = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
        assert ev._exact_scores(raw[row : row + 1], idx.matrix[cols])[0].tobytes() == full[row, cols].tobytes()


_RELATIONS = ["r", "s", "inverse::r", "inverse::s"]


@settings(max_examples=100, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.sampled_from(ENTITY_POOL), st.sampled_from(_RELATIONS)), min_size=1, max_size=12
    ),
    chunk=st.sampled_from([1, 2, 256]),
)
def test_query_vector_batch_matches_each_query_alone(pairs, chunk):
    # texts of several lengths, so batched rows carry padding
    descriptions = {e: " ".join(["word"] * i + [e]) for i, e in enumerate(ENTITY_POOL)}
    descriptions.update(r="relates to", s="is near")
    g = make_graph(
        train=[("a", "r", "b"), ("b", "s", "c"), ("c", "r", "d"), ("d", "s", "e")],
        descriptions=descriptions,
        augment=True,
    )
    params = tiny_params(buckets=64, dim=16)
    heads = g.entity_numbers([h for h, _ in pairs])
    relations = g.relation_numbers([r for _, r in pairs])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ev, "INDEX_CHUNK", chunk)
        batch = query_vector(g, params, heads, relations)
    for row, h, r, (_, relation_id) in zip(batch, heads.tolist(), relations.tolist(), pairs):
        alone = query_vector(g, params, np.array([h]), np.array([r]))[0]
        tokens = query_layout(
            tokenize(augment_description(g, h), params.buckets, params.max_tokens),
            tokenize(g.relation(relation_id).description, params.buckets, params.max_tokens),
            params.buckets,
            params.max_tokens,
        )
        direct = forward_hr(params, pad([tokens])).output[0]
        assert row.tobytes() == alone.tobytes() == direct.tobytes()


# -- texts to token ids ------------------------------------------------------------

_texts = st.one_of(
    st.sampled_from(["", " ", "  \t\n "]),
    st.text(alphabet="aB \t\n", max_size=16),
    st.lists(st.sampled_from(["alpha", "Beta", "c", "DD"]), max_size=40).map(" ".join),
)


def _reference_row(item, buckets, max_tokens):
    """Each text's ``tokenize``, the separator between two texts, the whole cut to the budget."""
    row = tokenize(item[0], buckets, max_tokens)
    for text in item[1:]:
        row = row + [separator_index(buckets)] + tokenize(text, buckets, max_tokens)
    return row[:max_tokens]


@settings(max_examples=300, deadline=None)
@given(
    pool=st.lists(_texts, min_size=1, max_size=6),
    picks=st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=2), max_size=10),
    buckets=st.integers(2, 64),
    max_tokens=st.integers(1, 60),
    pad_cells=st.sampled_from([1, 7, enc.PAD_CELLS]),
)
def test_token_ids_match_a_per_item_reference(pool, picks, buckets, max_tokens, pad_cells):
    # items of one or two texts, drawn from a small pool so texts repeat
    items = [[pool[i % len(pool)] for i in pick] for pick in picks]
    tokenized = []

    def counted(text, *args):
        tokenized.append(text)
        return tokenize(text, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enc, "tokenize", counted)
        mp.setattr(enc, "PAD_CELLS", pad_cells)  # padded in passes of a few rows, or all at once
        got = token_ids(items, buckets, max_tokens)
    assert sorted(tokenized) == sorted({text for item in items for text in item})  # once per distinct text
    want = [_reference_row(item, buckets, max_tokens) for item in items]
    assert got.ids.dtype == np.int32 and got.lengths.dtype == np.int64
    assert got.ids.shape == (len(items), max(map(len, want), default=0))
    assert got.lengths.tolist() == list(map(len, want))
    assert got.ids.tolist() == [row + [0] * (got.ids.shape[1] - len(row)) for row in want]
    for item, row in zip(items, want):
        alone = token_ids([item], buckets, max_tokens)
        assert alone.ids.tolist() == [row] and alone.lengths.tolist() == [len(row)]


# -- the encoder's backward scatter ----------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    texts=st.lists(st.lists(st.integers(0, 6), max_size=9), min_size=1, max_size=8),
    dim=st.integers(1, 6),
    dropout=st.sampled_from([0.0, 0.3, 0.9]),
    exponents=st.lists(st.integers(-20, 20), min_size=1, max_size=8),
    seed=st.integers(0, 2**16),
)
def test_backward_scatter_matches_add_at(texts, dim, dropout, exponents, seed):
    rng = np.random.default_rng(seed)
    params = tiny_params(buckets=8, dim=dim, seed=seed)
    for forward in (forward_hr, forward_tail):
        drng = np.random.default_rng(seed) if dropout else None
        encoding = forward(params, pad(texts), dropout, drng)
        scales = 10.0 ** np.resize(np.array(exponents, dtype=float), len(texts))
        upstream = rng.normal(size=(len(texts), dim)) * scales[:, None]
        upstream[rng.random(upstream.shape) < 0.1] = -0.0
        ids, grads = encode_backward(encoding, upstream)
        ref_ids, ref_grads = reference_encode_backward(encoding, upstream)
        assert ids.tobytes() == ref_ids.tobytes()
        assert grads.shape == ref_grads.shape and grads.tobytes() == ref_grads.tobytes()


# -- the touched-row optimizer update ------------------------------------------

_ROW_IDS = st.lists(st.integers(0, 7), unique=True).map(sorted)


@settings(max_examples=200, deadline=None)
@given(
    steps=st.lists(
        st.tuples(_ROW_IDS, _ROW_IDS, st.floats(0.0, 1.0), st.integers(-4, 2)), min_size=1, max_size=8
    ),
    weight_decay=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    seed=st.integers(0, 2**16),
)
@example(steps=[([0], [], 0.1, 0), ([], [], 0.1, 0), ([], [], 0.1, 0), ([0], [1], 0.1, 0)],
         weight_decay=1e-4, seed=0)  # row 0 left out, then touched again
def test_touched_row_update_matches_dense_reference(steps, weight_decay, seed):
    dim = 3
    rng = np.random.default_rng(seed)
    params = tiny_params(buckets=8, dim=dim, seed=seed)
    params.hr_table[rng.integers(8), rng.integers(dim)] = -0.0
    ref_params = params.copy()
    state, ref_state = OptimizerState.zeros(8, dim), OptimizerState.zeros(8, dim)
    cfg = TrainConfig(weight_decay=weight_decay)
    for hr_ids, tail_ids, lr, exponent in steps:
        buf = _update_buffer(rng, hr_ids, tail_ids, exponent, dim)
        apply_update(params, state, buf, lr, cfg)
        dense_apply_update(ref_params, ref_state, buf, lr, cfg)
        assert optimizer_bytes(params, state) == optimizer_bytes(ref_params, ref_state)


def _update_buffer(rng, hr_ids, tail_ids, exponent, dim):
    grads = [rng.normal(size=(len(ids), dim)) * 10.0**exponent for ids in (hr_ids, tail_ids)]
    if hr_ids:
        grads[0][0, 0] = -0.0
    return GradientBuffer(
        np.array(hr_ids, dtype=np.int64), grads[0],
        np.array(tail_ids, dtype=np.int64), grads[1], rng.normal(),
    )


@settings(max_examples=200, deadline=None)
@given(
    steps=st.lists(
        st.tuples(_ROW_IDS, _ROW_IDS, st.floats(0.0, 1.0), st.integers(-4, 2)), min_size=1, max_size=8
    ),
    weight_decay=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    seed=st.integers(0, 2**16),
)
def test_scale_law_matches_the_decoupled_law(steps, weight_decay, seed):
    """The scale law is the decoupled AdamW law up to rounding.

    Fed the same gradients, m, v and the temperature agree bitwise, and so do
    the tables when weight_decay is 0 (the scale stays exactly 1).  Otherwise
    each step adds rounding errors of a few units in the last place of
    M = max |W| and A = lr · max |update|: the decoupled step rounds
    lr · update, W - lr · update, the decay product and the difference (at
    most 3.5 units of u = eps / 2 of M + A); the scale law rounds lr / scale,
    its product with the update, V - that (at most 3 u of M + A, in W
    units), 1 - lr · weight_decay and its product with the scale (2 u of
    M + A, a relative error of the whole table) and the fold (u of M).
    Errors add up and never grow: later steps multiply them by
    1 - lr · weight_decay <= 1.  So the folded tables may differ by at most
    9.5 u (M + A) per step; the test allows 8 eps (M + A) = 16 u.
    """
    dim = 3
    rng = np.random.default_rng(seed)
    params = tiny_params(buckets=8, dim=dim, seed=seed)
    ref_params = params.copy()
    state, ref_state = OptimizerState.zeros(8, dim), OptimizerState.zeros(8, dim)
    cfg = TrainConfig(weight_decay=weight_decay)
    eps = np.finfo(float).eps
    tolerance = 0.0
    for hr_ids, tail_ids, lr, exponent in steps:
        buf = _update_buffer(rng, hr_ids, tail_ids, exponent, dim)
        before = max(np.abs(ref_params.hr_table).max(), np.abs(ref_params.tail_table).max())
        apply_update(params, state, buf, lr, cfg)
        decoupled_dense_update(ref_params, ref_state, buf, lr, cfg)
        assert optimizer_bytes(params, state)[2:6] == optimizer_bytes(ref_params, ref_state)[2:6]  # m, v
        assert params.log_inv_tau.hex() == ref_params.log_inv_tau.hex()
        bc1, bc2 = 1.0 - tr.ADAM_BETA1**state.step, 1.0 - tr.ADAM_BETA2**state.step
        update = max(
            np.abs((m / bc1) / (np.sqrt(v / bc2) + tr.ADAM_EPS)).max()
            for m, v in ((state.m_hr, state.v_hr), (state.m_tail, state.v_tail))
        )
        after = max(np.abs(ref_params.hr_table).max(), np.abs(ref_params.tail_table).max())
        tolerance += 8 * eps * (max(before, after) + lr * update)
        for table, ref in ((params.hr_table, ref_params.hr_table), (params.tail_table, ref_params.tail_table)):
            if weight_decay == 0.0:
                assert state.scale == 1.0 and table.tobytes() == ref.tobytes()
            else:
                assert np.abs(table * state.scale - ref).max() <= tolerance


# -- loaders fed corrupted files ---------------------------------------------------

_PIECES = st.sampled_from(
    [b"\xff", b"\xc3(", b"\x00", b"\t", b"nan", b"\n", b"\r", b" ", b"-", b"99"]
) | st.binary(min_size=1, max_size=4)
_EDITS = st.lists(
    st.tuples(st.floats(0.0, 1.0), st.sampled_from(["insert", "overwrite", "cut"]), _PIECES),
    min_size=1,
    max_size=4,
)


def _corrupt(base: bytes, edits) -> bytes:
    data = bytearray(base)
    for where, kind, piece in edits:
        at = int(where * len(data))
        if kind == "insert":
            data[at:at] = piece
        elif kind == "overwrite":
            data[at : at + len(piece)] = piece
        else:
            del data[at:]
    return bytes(data)


def _assert_names_line(err, path):
    if isinstance(err, (ParseError, CheckpointError)):
        assert re.match(re.escape(path) + r":\d+: ", str(err)), str(err)


@settings(max_examples=200, deadline=None)
@given(which=st.integers(0, 4), edits=_EDITS)
@example(which=0, edits=[(0.5, "insert", b"\xff")])  # invalid UTF-8
@example(which=3, edits=[(0.3, "overwrite", b"\x00")])  # NUL
@example(which=4, edits=[(0.2, "insert", b"\t")])  # stray tab
@example(which=1, edits=[(0.0, "insert", b"nan\t")])
@example(which=2, edits=[(1.0, "insert", b"\xe2\x82")])  # truncated multibyte sequence at the end
def test_graph_loader_raises_only_typed_errors(tmp_path_factory, which, edits):
    paths = write_dataset(
        tmp_path_factory.mktemp("fuzz"),
        [("a", "r", "b"), ("b", "r", "c")],
        [("a", "r", "c")],
        [("c", "s", "a")],
        [("a", "A", "first thing"), ("b", "B", ""), ("c", "C", "third")],
        [("r", "rel", "relates"), ("s", "sib")],
    )
    with open(paths[which], "rb") as fh:
        base = fh.read()
    with open(paths[which], "wb") as fh:
        fh.write(_corrupt(base, edits))
    try:
        load_graph(*paths)
    except (ParseError, UnknownIdError) as err:
        _assert_names_line(err, paths[which])


@settings(max_examples=200, deadline=None)
@given(embeddings=st.booleans(), edits=_EDITS)
@example(embeddings=False, edits=[(0.5, "insert", b"\xff")])
@example(embeddings=True, edits=[(0.5, "insert", b"\xff")])
@example(embeddings=False, edits=[(0.0, "overwrite", b"\x00")])
@example(embeddings=True, edits=[(0.4, "insert", b"\t")])
@example(embeddings=False, edits=[(0.6, "overwrite", b"nan")])
def test_checkpoint_loaders_raise_only_checkpoint_errors(tmp_path_factory, embeddings, edits):
    path = str(tmp_path_factory.mktemp("fuzz") / "file.tsv")
    if embeddings:
        base = b"a\t1.0 0.0\nb\t0.6 0.8\nc\t0.0 -1.0\n"
    else:
        save_checkpoint(tiny_params(buckets=4, dim=2), path)
        with open(path, "rb") as fh:
            base = fh.read()
    with open(path, "wb") as fh:
        fh.write(_corrupt(base, edits))
    g = make_graph(train=[("a", "r", "b"), ("b", "r", "c")])
    try:
        read_embeddings(g, path) if embeddings else load_checkpoint(path)
    except CheckpointError as err:
        _assert_names_line(err, path)
    except UnknownIdError as err:  # a corrupted id leaves an entity without a vector
        assert embeddings and re.fullmatch(r"no precomputed vector for entity '[abc]'", str(err)), str(err)
