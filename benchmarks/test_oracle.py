"""Hand-checked cases for the benchmark's oracle (``python3 -m pytest benchmarks``)."""

import numpy as np
import pytest

from oracle import Oracle, filtered_rank, fnv1a_64, top_rows


def tiny(max_tokens=50):
    """a-b-c-d path over train, e isolated; b and e share one description."""
    entities = [
        ("a", "Alpha", "x y"),
        ("b", "Beta", "same words here"),
        ("c", "Gamma", " ".join(["long"] * 20)),
        ("d", "Delta", ""),
        ("e", "Eps", "same words here"),
    ]
    relations = [("r", "rel", "links to"), ("s", "other", "")]
    train = [("a", "r", "b"), ("b", "r", "c"), ("c", "s", "d")]
    valid = [("a", "r", "d")]
    test = [("a", "s", "e")]
    return Oracle(train, valid, test, entities, relations, max_tokens)


def test_fnv1a_matches_published_vectors():
    assert fnv1a_64(b"") == 0xCBF29CE484222325
    assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a_64(b"foobar") == 0x85944171F73967E8


def test_short_texts_get_sorted_neighbor_names():
    o = tiny()
    assert o.entity_text("a") == "x y Beta"
    assert o.entity_text("b") == "same words here Alpha Gamma"
    assert o.entity_text("c") == " ".join(["long"] * 20)  # 20 tokens: not short
    assert o.entity_text("d") == "Delta Gamma"  # empty description falls back to the name
    assert o.entity_text("e") == "same words here"  # no neighbors


def test_relation_texts_and_inverse_rows():
    o = tiny()
    assert o.relation_text["r"] == "links to"
    assert o.relation_text["s"] == "other"  # empty description falls back to the name
    assert o.relation_text["inverse::r"] == "inverse links to"
    assert o.known[("a", "r")] == {"b", "d"}
    assert o.known[("d", "inverse::r")] == {"a"}
    assert o.eval_triples([("a", "s", "e")]) == [("a", "s", "e"), ("e", "inverse::s", "a")]


def test_tokens_hash_lowercase_words_and_truncate():
    o = tiny(max_tokens=3)
    buckets = 7
    want = [fnv1a_64(w.encode()) % 6 for w in ("one", "two", "three")]
    assert o.tokens("One TWO three four", buckets) == want


def test_encode_mean_pools_normalizes_and_falls_back():
    table = np.array([[3.0, 0.0], [0.0, 3.0], [1.0, 1.0], [-1.0, -1.0]])
    # mean of rows 0, 0, 1 is (2, 1); unit length is (2, 1) / sqrt(5)
    np.testing.assert_allclose(Oracle.encode(table, [0, 0, 1]), np.array([2.0, 1.0]) / np.sqrt(5.0))
    np.testing.assert_array_equal(Oracle.encode(table, []), [1.0, 0.0])
    np.testing.assert_array_equal(Oracle.encode(table, [2, 3]), [1.0, 0.0])  # rows cancel


def test_query_is_head_separator_relation_truncated():
    o = tiny(max_tokens=4)
    buckets = 11
    hr = np.arange(buckets * 2, dtype=float).reshape(buckets, 2) + 1.0
    o.use_tables(hr, hr.copy())
    head = o.tokens("x y Beta", buckets)  # three tokens, then the separator
    want = Oracle.encode(hr, head + [buckets - 1])
    np.testing.assert_array_equal(o.query("a", "r"), want)


def test_rank_averages_tied_positions_after_filtering():
    scores = np.array([0.5, 0.9, 0.5, 0.2, 0.5])
    # sorted: 0.9, 0.5, 0.5, 0.5, 0.2 -> the target's score spans positions 2..4
    assert filtered_rank(scores, 0) == 3.0
    assert filtered_rank(scores, 0, drop=[1]) == 2.0
    assert filtered_rank(scores, 0, drop=[1, 2]) == 1.5
    assert filtered_rank(scores, 0, drop=[0, 1, 2, 4]) == 1.0  # the target is never dropped
    assert filtered_rank(scores, 3) == 5.0


def test_top_rows_break_ties_by_row_order():
    scores = np.array([0.1, 0.7, 0.7, 0.9, 0.7])
    assert top_rows(scores, 3) == [3, 1, 2]
    assert top_rows(scores, 10) == [3, 1, 2, 4, 0]


def test_identical_texts_tie_exactly_in_rank_and_topk():
    o = tiny()
    rng = np.random.default_rng(3)
    table = rng.uniform(-1, 1, size=(13, 4))
    # e keeps its own text; give b the same text by dropping b's neighbors
    o.neighbors.pop("b")
    o.neighbors["a"].discard("b")
    o.neighbors["c"].discard("b")
    o.use_tables(table, table.copy())
    scores = o.scores("a", "s")
    assert scores[o.row_of["b"]] == scores[o.row_of["e"]]
    assert o.rank(("a", "s", "e")) % 1 == 0.5
    top = [e for e, _, _ in o.topk("a", "s", 5)]
    assert top.index("b") + 1 == top.index("e")


def test_k_hop_walks_undirected_train_edges():
    o = tiny()
    assert o.k_hop("a", 1) == {"b"}
    assert o.k_hop("a", 2) == {"b", "c"}
    assert o.k_hop("b", 2) == {"a", "c", "d"}
    assert o.k_hop("e", 2) == set()


def test_rerank_adds_alpha_to_the_neighborhood_only():
    o = tiny()
    table = np.random.default_rng(5).uniform(-1, 1, size=(13, 4))
    o.use_tables(table, table.copy())
    base = o.scores("a", "r")
    boosted = o.scores("a", "r", alpha=0.25, hops=2)
    for e in o.ids:
        extra = 0.25 if e in ("b", "c") else 0.0
        assert boosted[o.row_of[e]] == base[o.row_of[e]] + extra


def test_topk_flags_known_tails():
    o = tiny()
    table = np.random.default_rng(7).uniform(-1, 1, size=(13, 4))
    o.use_tables(table, table.copy())
    flags = {e: known for e, _, known in o.topk("a", "r", 5)}
    assert flags == {"a": False, "b": True, "c": False, "d": True, "e": False}


@pytest.mark.parametrize("seed", [0, 1])
def test_rank_matches_a_direct_count(seed):
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, 4, size=50).astype(float)  # many exact ties
    drop = rng.choice(50, size=10, replace=False).tolist()
    for target in range(50):
        kept = [scores[i] for i in range(50) if i == target or i not in drop]
        greater = sum(s > scores[target] for s in kept)
        equal = sum(s == scores[target] for s in kept)
        assert filtered_rank(scores, target, drop) == 1 + greater + (equal - 1) / 2
