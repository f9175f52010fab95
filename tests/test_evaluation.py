"""Entity index, filtered ranking, re-ranking, metrics, and prediction."""

import json
import math

import numpy as np
import pytest

from textkgc import encoder as enc
from textkgc import evaluation as ev
from textkgc import graph as kg
from textkgc.encoder import (
    forward_tail,
    tokenize,
)
from textkgc.errors import KgcError, UnknownIdError
from textkgc.evaluation import (
    EntityEmbeddingIndex,
    RerankConfig,
    build_index,
    evaluate,
    predict_topk,
    query_vector,
    rank_one,
    read_embeddings,
    rerank_scores,
    write_embeddings,
)
from textkgc.graph import Triple, augment_description

from conftest import make_graph, pad, tiny_params

REPORT_KEYS = {
    "mrr", "hits1", "hits3", "hits10",
    "tail", "head", "by_category", "forward_passes", "reranked",
}


def crafted_index(ids, matrix):
    return EntityEmbeddingIndex(list(ids), np.asarray(matrix, dtype=float), forward_passes=0)


def rows_with_scores(query, forward_scores, inverse_query=None, inverse_scores=None):
    """Build index rows whose dot products with the given queries land near targets.

    Rows live in span(q, w) with w the unit residual of the inverse query, so
    both directions' scores are controlled to within float round-off.
    """
    q = np.asarray(query, dtype=float)
    if inverse_query is None:
        return np.outer(np.asarray(forward_scores, dtype=float), q)
    qi = np.asarray(inverse_query, dtype=float)
    alpha = float(q @ qi)
    resid = qi - alpha * q
    beta = float(np.linalg.norm(resid))
    w = resid / beta
    a = np.asarray(forward_scores, dtype=float)
    b = (np.asarray(inverse_scores, dtype=float) - a * alpha) / beta
    return np.outer(a, q) + np.outer(b, w)


# -- index construction ------------------------------------------------------


def test_index_rejects_ids_out_of_order():
    # top-k breaks score ties by row order, which is id order only when the
    # ids increase strictly
    with pytest.raises(KgcError, match="strictly increasing"):
        crafted_index(["b", "a"], np.eye(2))
    with pytest.raises(KgcError, match="strictly increasing"):
        crafted_index(["a", "a"], np.eye(2))


def test_index_rows_are_the_graph_entity_numbers():
    g = make_graph(train=[("c", "r", "a"), ("d", "r", "a")], augment=True)
    params = tiny_params()
    idx = build_index(g, params)
    assert idx.entity_ids == list(g.entity_ids) == ["a", "c", "d"]
    assert g.entity_numbers(["a", "c", "d"]).tolist() == [0, 1, 2]
    idx.entity_ids.append("e")  # the index holds a copy of the numbering
    assert g.entity_ids == ("a", "c", "d")
    idx = build_index(g, params)
    for missing in ("", "b", "e"):
        with pytest.raises(UnknownIdError, match=f"unknown entity id: '{missing}'"):
            rank_one(g, idx, params, Triple("a", "r", missing))


def test_build_index_one_row_per_entity(encoded_rows):
    g = make_graph(
        train=[("a", "r", "b"), ("c", "r", "d")],
        test=[("a", "r", "d")],
        descriptions={"a": "first thing", "b": "second thing", "r": "relates"},
        augment=True,
    )
    params = tiny_params()
    idx = build_index(g, params)
    assert idx.entity_ids == sorted(g.entities)
    assert idx.matrix.shape == (4, params.dim)
    assert encoded_rows["rows"] == 4
    assert idx.forward_passes == 4
    norms = np.linalg.norm(idx.matrix, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_build_index_rows_encode_augmented_descriptions():
    g = make_graph(train=[("a", "r", "b")], descriptions={"a": "short text"}, augment=True)
    params = tiny_params()
    idx = build_index(g, params)
    for row, entity_id in enumerate(idx.entity_ids):
        assert g.entity_numbers([entity_id]).tolist() == [row]
        tokens = tokenize(augment_description(g, entity_id), params.buckets, params.max_tokens)
        expected = forward_tail(params, pad([tokens])).output[0]
        assert np.array_equal(idx.matrix[row], expected)


def test_build_index_is_deterministic_and_pure():
    g = make_graph(train=[("a", "r", "b"), ("b", "r", "c")], augment=True)
    params = tiny_params()
    first = build_index(g, params)
    second = build_index(g, params)
    assert np.array_equal(first.matrix, second.matrix)


def test_build_index_rows_do_not_depend_on_the_chunking(monkeypatch):
    rows = [(f"e{i}", "r", f"e{i + 1}") for i in range(12)]
    descriptions = {f"e{i}": " ".join(f"w{j}" for j in range(i % 5)) for i in range(13)}
    g = make_graph(train=rows, descriptions=descriptions, augment=True)
    params = tiny_params(buckets=64, dim=16)
    whole = build_index(g, params)
    for chunk in (1, 3, 5):
        monkeypatch.setattr(ev, "INDEX_CHUNK", chunk)
        chunked = build_index(g, params)
        assert chunked.entity_ids == whole.entity_ids
        assert chunked.matrix.tobytes() == whole.matrix.tobytes()


# -- rank_one ----------------------------------------------------------------


def _rank_fixture(extra_valid=()):
    # the a-b edge uses relation q so b stays a fair (a, r, ?) competitor
    g = make_graph(
        train=[("a", "q", "b"), ("b", "r", "c")],
        valid=list(extra_valid),
        test=[("a", "r", "c")],
        augment=True,
    )
    params = tiny_params()
    q = query_vector(g, params, [("a", "r")])[0]
    return g, params, q


def test_rank_one_top_scoring_target():
    g, params, q = _rank_fixture()
    ids = sorted(g.entities)
    scores = [0.9 if e == "c" else -0.5 for e in ids]
    idx = crafted_index(ids, rows_with_scores(q, scores))
    assert rank_one(g, idx, params, Triple("a", "r", "c")) == 1.0


def test_rank_one_counts_strictly_greater():
    g, params, q = _rank_fixture()
    ids = sorted(g.entities)  # a, b, c
    want = {"a": -0.5, "b": 0.9, "c": 0.4}
    idx = crafted_index(ids, rows_with_scores(q, [want[e] for e in ids]))
    assert rank_one(g, idx, params, Triple("a", "r", "c")) == 2.0


def test_rank_one_filters_known_competitors():
    # same geometry, but (a, r, b) is known, so b is discarded before counting
    g, params, q = _rank_fixture(extra_valid=[("a", "r", "b")])
    ids = sorted(g.entities)
    want = {"a": -0.5, "b": 0.9, "c": 0.4}
    idx = crafted_index(ids, rows_with_scores(q, [want[e] for e in ids]))
    assert rank_one(g, idx, params, Triple("a", "r", "c")) == 1.0


def test_rank_one_mean_tie():
    g, params, q = _rank_fixture()
    ids = sorted(g.entities)
    rows = rows_with_scores(q, [-0.5, 0.7, 0.7])
    rows[1] = rows[2].copy()  # bitwise-equal rows tie exactly
    idx = crafted_index(ids, rows)
    assert rank_one(g, idx, params, Triple("a", "r", "c")) == 1.5


def test_rank_one_unknown_target():
    g, params, q = _rank_fixture()
    idx = crafted_index(sorted(g.entities), rows_with_scores(q, [0.1, 0.2, 0.3]))
    with pytest.raises(UnknownIdError):
        rank_one(g, idx, params, Triple("a", "r", "zzz"))


def test_rank_one_rejects_an_index_of_other_entities():
    # the known-tail filter reads index rows as the graph's entity numbers
    g, params, q = _rank_fixture()
    idx = crafted_index(["a", "c"], rows_with_scores(q, [0.1, 0.3]))
    with pytest.raises(KgcError, match="every entity"):
        rank_one(g, idx, params, Triple("a", "r", "c"))


def test_rank_one_matches_exhaustive_oracle():
    master = np.random.default_rng(20240817)
    for _ in range(60):
        n = int(master.integers(3, 12))
        ids = [f"e{i}" for i in range(n)]
        def draw(count):
            return [
                (ids[int(master.integers(n))], f"r{int(master.integers(2))}",
                 ids[int(master.integers(n))])
                for _ in range(count)
            ]
        g = make_graph(
            train=draw(int(master.integers(2, 10))),
            valid=draw(int(master.integers(0, 3))),
            test=draw(int(master.integers(1, 4))),
            augment=True,
        )
        params = tiny_params(seed=int(master.integers(1000)))
        idx = build_index(g, params)
        for triple in g.triples("test"):
            got = rank_one(g, idx, params, triple)
            # the row-wise dot rank_one scores with: texts that hold the same
            # colliding buckets in another order score an ulp apart, and the
            # oracle must see those gaps as the program does
            q = query_vector(g, params, [(triple.head, triple.relation)])[0]
            scores = np.einsum("ij,j->i", idx.matrix, q)
            target = scores[idx.entity_ids.index(triple.tail)]
            numbered = sorted(g.entities)  # known_tails counts in sorted-id order
            _, tails = g.known_tails(g.entity_numbers([triple.head]), g.relation_numbers([triple.relation]))
            known = {numbered[n] for n in tails.tolist()}
            kept = [
                s for e, s in zip(idx.entity_ids, scores)
                if e == triple.tail or e not in known
            ]
            greater = sum(1 for s in kept if s > target)
            equal = sum(1 for s in kept if s == target)
            assert got == 1.0 + greater + (equal - 1) / 2.0
            unfiltered = 1.0 + sum(1 for s in scores if s > target) + (
                sum(1 for s in scores if s == target) - 1
            ) / 2.0
            assert got <= unfiltered


# -- re-ranking --------------------------------------------------------------


def test_rerank_scores_bumps_exactly_the_neighborhood():
    scores = np.array([0.5, 0.25, 0.125, 0.0625])
    out = rerank_scores(scores, np.array([1, 3]), alpha=0.05)
    diff = out - scores
    assert abs(diff[1] - 0.05) <= 1e-12 and abs(diff[3] - 0.05) <= 1e-12
    assert diff[0] == 0.0 and diff[2] == 0.0
    assert scores[1] == 0.25  # input untouched
    with pytest.raises(IndexError):
        rerank_scores(scores, np.array([4]), alpha=0.05)


def test_rerank_flips_argmax_inside_two_hops():
    # d scores 0.90, c scores 0.87; c is two hops from a, d is disconnected
    g = make_graph(train=[("a", "r", "b"), ("b", "r", "c"), ("d", "r", "e")], augment=True)
    params = tiny_params()
    q = query_vector(g, params, [("a", "r")])[0]
    ids = sorted(g.entities)
    want = {"a": 0.0, "b": 0.1, "c": 0.87, "d": 0.90, "e": 0.2}
    idx = crafted_index(ids, rows_with_scores(q, [want[e] for e in ids]))

    plain = predict_topk(g, idx, params, "a", "r", k=1)
    assert plain[0][0] == "d"
    boosted = predict_topk(g, idx, params, "a", "r", k=1, rerank=RerankConfig(0.05, 2))
    assert boosted[0][0] == "c"
    assert boosted[0][1] == pytest.approx(0.92, abs=1e-9)


def test_rerank_alpha_zero_is_inert():
    g = make_graph(train=[("a", "r", "b"), ("b", "r", "c")], test=[("a", "r", "c")], augment=True)
    params = tiny_params()
    idx = build_index(g, params)
    plain = evaluate(g, idx, params)
    off = evaluate(g, idx, params, rerank=RerankConfig(alpha=0.0, hops=2))
    assert plain.report() == off.report()
    assert off.reranked is False
    on = evaluate(g, idx, params, rerank=RerankConfig(alpha=0.05, hops=2))
    assert on.reranked is True


def test_rerank_config_validation():
    with pytest.raises(KgcError):
        RerankConfig(alpha=-0.01, hops=2)
    with pytest.raises(KgcError):
        RerankConfig(alpha=0.05, hops=0)
    for alpha in (math.nan, math.inf):
        with pytest.raises(KgcError, match="finite"):
            RerankConfig(alpha=alpha, hops=2)


# -- evaluate ----------------------------------------------------------------


def _two_direction_fixture():
    """One test triple whose forward rank is 1 and inverse rank is 4."""
    g = make_graph(
        train=[("e3", "r", "e4")],
        test=[("e1", "r", "e2")],
        augment=True,
    )
    params = tiny_params()
    qf = query_vector(g, params, [("e1", "r")])[0]
    qi = query_vector(g, params, [("e2", "inverse::r")])[0]
    ids = sorted(g.entities)  # e1..e4
    forward = {"e1": 0.10, "e2": 0.90, "e3": 0.30, "e4": 0.20}
    inverse = {"e1": 0.10, "e2": 0.85, "e3": 0.60, "e4": 0.50}
    matrix = rows_with_scores(
        qf, [forward[e] for e in ids], qi, [inverse[e] for e in ids]
    )
    return g, params, crafted_index(ids, matrix)


def test_evaluate_directional_metrics_frozen_example():
    g, params, idx = _two_direction_fixture()
    result = evaluate(g, idx, params)
    assert result.per_direction["tail"]["mrr"] == pytest.approx(1.0, rel=1e-12)
    assert result.per_direction["head"]["mrr"] == pytest.approx(0.25, rel=1e-12)
    assert result.overall["mrr"] == pytest.approx(0.625, rel=1e-12)
    assert result.overall["hits3"] == pytest.approx(0.5, rel=1e-12)
    assert result.overall["hits10"] == pytest.approx(1.0, rel=1e-12)
    assert result.forward_passes == 2  # crafted index costs nothing, one query per row


def test_evaluate_category_breakdown_pools_directions():
    g, params, idx = _two_direction_fixture()
    result = evaluate(g, idx, params)
    assert result.by_category == {
        "1-1": {"mrr": pytest.approx(0.625, rel=1e-12), "count": 2}
    }


def test_evaluate_report_shape():
    g, params, idx = _two_direction_fixture()
    report = evaluate(g, idx, params).report()
    assert set(report) == REPORT_KEYS
    json.dumps(report)  # everything must serialize
    assert report["hits1"] <= report["hits3"] <= report["hits10"]
    assert report["mrr"] >= report["hits1"] + (report["hits10"] - report["hits1"]) / 10 - 1e-12
    assert report["reranked"] is False
    assert isinstance(report["forward_passes"], int)


def test_evaluate_category_recombination_matches_overall(rng):
    rows = [(f"h{i}", f"r{i % 3}", f"t{i % 5}") for i in range(12)]
    test_rows = [("h1", "r0", "t3"), ("h2", "r1", "t0"), ("h3", "r2", "t2")]
    g = make_graph(train=rows, test=test_rows, augment=True)
    params = tiny_params(seed=3)
    idx = build_index(g, params)
    result = evaluate(g, idx, params)
    pooled = sum(row["mrr"] * row["count"] for row in result.by_category.values())
    total = sum(row["count"] for row in result.by_category.values())
    assert total == len(result.rankings)
    # equal direction counts make the direction mean equal the pooled mean
    assert pooled / total == pytest.approx(result.overall["mrr"], abs=1e-9)


def test_evaluate_unknown_category_bucket():
    # the test relation never occurs in train, so it cannot be classified
    g = make_graph(train=[("a", "q", "b")], test=[("a", "r", "b")], augment=True)
    params = tiny_params()
    idx = build_index(g, params)
    result = evaluate(g, idx, params)
    assert set(result.by_category) == {"unknown"}
    assert result.by_category["unknown"]["count"] == 2


def test_evaluate_split_selection_and_errors():
    g = make_graph(
        train=[("a", "r", "b"), ("b", "r", "c")],
        valid=[("a", "r", "c")],
        augment=True,
    )
    params = tiny_params()
    idx = build_index(g, params)
    result = evaluate(g, idx, params, split="valid")
    assert len(result.rankings) == 2
    with pytest.raises(KgcError, match="no triples"):
        evaluate(g, idx, params, split="test")
    plain = make_graph(train=[("a", "r", "b")], test=[("a", "r", "b")])
    with pytest.raises(KgcError, match="inverse"):
        evaluate(plain, build_index(plain, params), params)


def test_evaluate_classifies_each_relation_once(monkeypatch):
    def graph():
        rows = [(f"h{i}", f"r{i % 3}", f"t{i % 4}") for i in range(12)]
        test_rows = [("h0", "r0", "t1"), ("h2", "r2", "t3"), ("h4", "r1", "t0"), ("h3", "r0", "t2")]
        return make_graph(train=rows, test=test_rows + [("h1", "x", "t1")], augment=True)

    g = graph()
    params = tiny_params(seed=5)
    idx = build_index(g, params)
    expected = evaluate(g, idx, params).report()

    g = graph()
    calls = []
    original = kg.classify_relation

    def counted(graph, relation_id, *args):
        calls.append(relation_id)
        return original(graph, relation_id, *args)

    monkeypatch.setattr(kg, "classify_relation", counted)
    first = evaluate(g, idx, params)
    distinct = {t.relation for t in g.triples("test")}
    assert sorted(calls) == sorted(distinct)  # once each, unknown "x" included
    second = evaluate(g, idx, params)
    assert len(calls) == len(distinct)  # a second evaluation reuses them
    assert first.report() == second.report() == expected
    assert first.by_category["unknown"]["count"] == 2


def test_evaluate_counts_forward_passes_through_counter(encoded_rows):
    g = make_graph(train=[("a", "r", "b"), ("b", "r", "c")], test=[("a", "r", "c")], augment=True)
    params = tiny_params()
    idx = build_index(g, params)
    result = evaluate(g, idx, params)
    # 3 entities indexed once, then one query encoding per augmented test row
    assert encoded_rows["rows"] == 3 + 2
    assert result.forward_passes == 5


def test_evaluate_tokenizes_each_distinct_text_once(monkeypatch):
    # heads and relations repeat across the split, and one query per chunk
    # spreads the repeats over many chunks
    g = make_graph(
        train=[("a", "r", "b"), ("b", "q", "c"), ("c", "r", "a")],
        test=[("a", "r", "c"), ("a", "q", "b"), ("b", "r", "a"), ("c", "q", "a")],
        descriptions={"a": "alpha", "b": "beta words", "q": "qualifies"},
        augment=True,
    )
    params = tiny_params()
    idx = build_index(g, params)
    want = evaluate(g, idx, params).report()
    calls = []
    original = enc.tokenize

    def counted(text, *args, **kwargs):
        calls.append(text)
        return original(text, *args, **kwargs)

    monkeypatch.setattr(enc, "tokenize", counted)
    monkeypatch.setattr(ev, "RANK_CELLS", 1)
    assert evaluate(g, idx, params).report() == want
    triples = g.triples("test")
    texts = {augment_description(g, h) for h, _, _ in triples}
    texts |= {g.relation(r).description for _, r, _ in triples}
    assert sorted(calls) == sorted(texts)


# -- predict_topk ------------------------------------------------------------


def test_predict_topk_orders_and_flags():
    g = make_graph(train=[("a", "r", "b"), ("b", "r", "c")], augment=True)
    params = tiny_params()
    q = query_vector(g, params, [("a", "r")])[0]
    ids = sorted(g.entities)
    want = {"a": 0.1, "b": 0.8, "c": 0.5}
    idx = crafted_index(ids, rows_with_scores(q, [want[e] for e in ids]))
    out = predict_topk(g, idx, params, "a", "r", k=3)
    assert [row[0] for row in out] == ["b", "c", "a"]
    assert [row[2] for row in out] == [True, False, False]  # (a, r, b) is known
    scores = [row[1] for row in out]
    assert scores == sorted(scores, reverse=True)


def test_predict_topk_tie_breaks_toward_smaller_id():
    g = make_graph(train=[("a", "r", "b"), ("a", "r", "c")], augment=True)
    params = tiny_params()
    q = query_vector(g, params, [("a", "r")])[0]
    rows = rows_with_scores(q, [0.0, 0.7, 0.7])
    rows[2] = rows[1].copy()
    idx = crafted_index(sorted(g.entities), rows)
    out = predict_topk(g, idx, params, "a", "r", k=2)
    assert [row[0] for row in out] == ["b", "c"]


def test_identical_rows_tie_exactly_in_rank_and_topk():
    # matrix-vector BLAS kernels sum the trailing rows of a matrix in another
    # order, which splits bitwise-identical rows by a rounding step
    others = [f"o{i}" for i in range(4)]
    twins = [f"t{i}" for i in range(7)]
    g = make_graph(train=[("a", "r", "o0")] + [("o1", "q", t) for t in twins], augment=True)
    params = tiny_params(buckets=64, dim=32, seed=8)
    q = query_vector(g, params, [("a", "r")])[0]
    ids = sorted(g.entities)  # a, o0..o3, t0..t6
    rng = np.random.default_rng(3)
    twin = rng.normal(size=32)
    twin /= np.linalg.norm(twin)
    rows = []
    for e in ids:
        if e in twins:
            rows.append(twin)
        else:
            v = rng.normal(size=32)
            rows.append(v / np.linalg.norm(v))
    idx = crafted_index(ids, rows)
    twin_rows = [ids.index(t) for t in twins]
    scores = np.einsum("ij,j->i", idx.matrix, q)
    twin_score = float(twin @ q)

    rank = rank_one(g, idx, params, Triple("a", "r", "t3"))
    others_above = sum(1 for e in ids if e not in twins and scores[ids.index(e)] > twin_score)
    assert rank == 1.0 + others_above + (7 - 1) / 2.0

    top = predict_topk(g, idx, params, "a", "r", k=len(ids))
    tied = [(e, s) for e, s, _ in top if e in twins]
    assert [e for e, _ in tied] == twins  # ordered by id
    assert len({s for _, s in tied}) == 1  # bitwise-equal scores
    assert all(scores[r] == scores[twin_rows[0]] for r in twin_rows)


def test_predict_topk_clamps_k_and_validates():
    g = make_graph(train=[("a", "r", "b")], augment=True)
    params = tiny_params()
    idx = build_index(g, params)
    assert len(predict_topk(g, idx, params, "a", "r", k=50)) == 2
    with pytest.raises(KgcError, match="k must be >= 1"):
        predict_topk(g, idx, params, "a", "r", k=0)
    with pytest.raises(UnknownIdError):
        predict_topk(g, idx, params, "ghost", "r", k=1)


# -- precomputed vectors and export ------------------------------------------


def test_write_embeddings_roundtrip(tmp_path):
    g = make_graph(train=[("a", "r", "b"), ("b", "r", "c")], augment=True)
    params = tiny_params()
    idx = build_index(g, params)
    path = tmp_path / "vectors.tsv"
    write_embeddings(idx, str(path))
    rebuilt = read_embeddings(g, str(path))
    assert rebuilt.entity_ids == idx.entity_ids
    assert np.array_equal(rebuilt.matrix, idx.matrix)
    assert rebuilt.forward_passes == 0


def test_index_from_precomputed_requires_every_entity(tmp_path):
    g = make_graph(train=[("a", "r", "b"), ("b", "r", "c")], augment=True)
    params = tiny_params()
    idx = build_index(g, params)
    path = tmp_path / "vectors.tsv"
    with open(path, "w") as fh:
        entity_id = idx.entity_ids[0]
        row = idx.matrix[0]
        fh.write(entity_id + "\t" + " ".join(repr(float(v)) for v in row) + "\n")
    with pytest.raises(UnknownIdError, match="no precomputed vector for entity 'b'"):
        read_embeddings(g, str(path))


def test_evaluate_on_precomputed_index_matches_encoder_index(tmp_path):
    g = make_graph(
        train=[("a", "r", "b"), ("b", "r", "c")], test=[("a", "r", "c")], augment=True
    )
    params = tiny_params()
    idx = build_index(g, params)
    path = tmp_path / "vectors.tsv"
    write_embeddings(idx, str(path))
    rebuilt = read_embeddings(g, str(path))
    a = evaluate(g, idx, params).report()
    b = evaluate(g, rebuilt, params).report()
    a.pop("forward_passes")
    assert b.pop("forward_passes") == 2  # only the query encodings remain
    assert a == b
