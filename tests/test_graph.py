"""Graph loading, inverse augmentation, neighborhoods, categories, filtering."""

import numpy as np
import pytest

from textkgc.errors import KgcError, ParseError, UnknownIdError
from textkgc.graph import (
    CARDINALITY_THRESHOLD,
    INVERSE_DESCRIPTION_PREFIX,
    INVERSE_ID_PREFIX,
    KnowledgeGraph,
    Entity,
    Relation,
    Triple,
    add_inverse_triples,
    augment_description,
    classify_relation,
    k_hop_mask,
    k_hop_neighbors,
    load_graph,
)

from conftest import entity_number, make_graph, write_dataset


# -- file loading ------------------------------------------------------------


def _write(tmp_path, train, valid=(), test=(), entities=None, relations=None):
    if entities is None:
        ids = sorted({x for row in (*train, *valid, *test) for x in (row[0], row[2])})
        entities = [(e, f"name of {e}", f"description of {e}") for e in ids]
    if relations is None:
        ids = sorted({row[1] for row in (*train, *valid, *test)})
        relations = [(r, f"{r} name", f"{r} relates things") for r in ids]
    return write_dataset(tmp_path, train, valid, test, entities, relations)


def test_load_graph_dedups_exact_duplicates(tmp_path):
    paths = _write(tmp_path, train=[("a", "r", "b"), ("a", "r", "b")])
    g = load_graph(*paths)
    assert g.triples("train") == (Triple("a", "r", "b"),)
    assert g.split_array("train").tolist() == [[0, 0, 1]]  # numbers in sorted-id order
    with pytest.raises(ValueError, match="read-only"):
        g.split_array("train")[0, 0] = 1
    assert g.load_report["duplicates_removed"] == 1
    assert g.load_report["splits"]["train"] == 1


def test_load_graph_empty_train_succeeds(tmp_path):
    paths = _write(tmp_path, train=[], valid=[("a", "r", "b")], test=[("b", "r", "a")])
    g = load_graph(*paths)
    assert g.triples("train") == ()
    assert g.load_report["splits"] == {"train": 0, "valid": 1, "test": 1}


def test_load_graph_unknown_id_names_offender(tmp_path):
    paths = _write(tmp_path, train=[("a", "r", "b")])
    (tmp_path / "train.tsv").write_text("a\tr\tb\nx\tr\tb\n", encoding="utf-8")
    with pytest.raises(UnknownIdError, match="x"):
        load_graph(*paths)


def test_load_graph_malformed_line_reports_position(tmp_path):
    paths = _write(tmp_path, train=[("a", "r", "b")])
    (tmp_path / "train.tsv").write_text("a\tr\tb\na\tr\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_graph(*paths)
    assert err.value.line == 2
    assert "train.tsv" in str(err.value)


def test_load_graph_non_utf8_reports_position(tmp_path):
    # "\r" breaks a line as it does in text-mode reading; the bad byte is on line 3
    paths = _write(tmp_path, train=[("a", "r", "b")])
    (tmp_path / "train.tsv").write_bytes(b"a\tr\tb\r\na\tr\tb\rb\tr\t\xe9\n")
    with pytest.raises(ParseError, match="not valid UTF-8") as err:
        load_graph(*paths)
    assert err.value.line == 3
    assert err.value.path == paths[0]
    (tmp_path / "train.tsv").write_bytes(b"a\tr\tb\n")
    (tmp_path / "relations.tsv").write_bytes(b"r\tr name\tr relates \xe2\x82")  # cut mid-character
    with pytest.raises(ParseError, match="relations.tsv:1: not valid UTF-8"):
        load_graph(*paths)


def test_load_graph_blank_lines_skipped(tmp_path):
    paths = _write(tmp_path, train=[("a", "r", "b")])
    (tmp_path / "train.tsv").write_text("\na\tr\tb\n\n", encoding="utf-8")
    g = load_graph(*paths)
    assert len(g.triples("train")) == 1


def test_description_file_two_field_form(tmp_path):
    paths = _write(
        tmp_path,
        train=[("a", "r", "b")],
        entities=[("a", "alpha"), ("b", "beta", "a b c")],
        relations=[("r", "rel name")],
    )
    g = load_graph(*paths)
    assert g.entity("a").description == ""
    assert g.entity("a").name == "alpha"
    assert g.entity("b").description == "a b c"
    # relation description falls back to the name column when absent
    assert g.relation("r").description == "rel name"


def test_description_file_duplicate_id_rejected(tmp_path):
    paths = _write(tmp_path, train=[("a", "r", "b")])
    (tmp_path / "entities.tsv").write_text("a\tA\tx\nb\tB\ty\na\tA2\tz\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_graph(*paths)
    assert err.value.line == 3


def test_description_file_empty_id_rejected(tmp_path):
    paths = _write(tmp_path, train=[("a", "r", "b")])
    (tmp_path / "entities.tsv").write_text("a\tA\tx\n\tB\ty\nb\tC\tz\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_graph(*paths)


def test_cross_split_duplicates_flagged_not_removed(tmp_path):
    paths = _write(tmp_path, train=[("a", "r", "b")], valid=[("a", "r", "b")])
    g = load_graph(*paths)
    assert g.load_report["cross_split_duplicates"] == 1
    assert len(g.triples("train")) == 1 and len(g.triples("valid")) == 1


# -- inverse augmentation ----------------------------------------------------


def test_add_inverse_doubles_triples_and_relations():
    g = make_graph(train=[("a", "r", "b")])
    aug = add_inverse_triples(g)
    assert set(aug.triples("train")) == {
        Triple("a", "r", "b"),
        Triple("b", INVERSE_ID_PREFIX + "r", "a"),
    }
    assert len(aug.relations) == 2 * len(g.relations)
    assert aug.inverse_augmented


def test_inverse_description_gets_prefix():
    g = make_graph(train=[("a", "r", "b")], descriptions={"r": "instance of"})
    aug = add_inverse_triples(g)
    inv = aug.relation(INVERSE_ID_PREFIX + "r")
    assert inv.description == INVERSE_DESCRIPTION_PREFIX + "instance of"
    assert inv.is_inverse and inv.forward_id == "r"


def test_double_augmentation_rejected():
    aug = make_graph(train=[("a", "r", "b")], augment=True)
    before = aug.triples("train")
    with pytest.raises(KgcError):
        add_inverse_triples(aug)
    assert aug.triples("train") == before


def test_augmentation_covers_every_split():
    aug = make_graph(
        train=[("a", "r", "b")], valid=[("b", "r", "c")], test=[("c", "r", "a")], augment=True
    )
    for split in ("train", "valid", "test"):
        assert len(aug.triples(split)) == 2
        fwd = [t for t in aug.triples(split) if not aug.relation(t.relation).is_inverse]
        for h, r, t in fwd:
            assert Triple(t, INVERSE_ID_PREFIX + r, h) in aug.triples(split)


def test_inverse_id_collision_rejected():
    g = make_graph(train=[("a", "r", "b"), ("a", INVERSE_ID_PREFIX + "r", "b")])
    with pytest.raises(KgcError):
        add_inverse_triples(g)


def test_inverse_of_round_trips():
    aug = make_graph(train=[("a", "r", "b")], augment=True)
    assert aug.inverse_of("r") == INVERSE_ID_PREFIX + "r"
    assert aug.inverse_of(INVERSE_ID_PREFIX + "r") == "r"
    plain = make_graph(train=[("a", "r", "b")])
    with pytest.raises(KgcError):
        plain.inverse_of("r")


# -- k-hop neighborhoods -----------------------------------------------------


def hop_ids(g, entity_id, k):
    """``k_hop_neighbors`` of the entity's number, mapped back to entity ids."""
    return {g.entity_ids[n] for n in k_hop_neighbors(g, entity_number(g, entity_id), k).tolist()}


def test_k_hop_on_a_chain():
    g = make_graph(train=[("a", "r", "b"), ("b", "r", "c")])
    assert hop_ids(g, "a", 1) == {"b"}
    assert hop_ids(g, "a", 2) == {"b", "c"}
    assert hop_ids(g, "b", 1) == {"a", "c"}


def test_k_hop_numbers_increase():
    # in a small set 33 iterates before 2, so set order is not number order
    ids = [f"e{i:02d}" for i in range(40)]
    g = make_graph(
        train=[(ids[0], "r", ids[33]), (ids[0], "r", ids[2]), (ids[39], "r", ids[2])],
        test=[(e, "r", e) for e in ids],
    )
    assert k_hop_neighbors(g, 0, 1).tolist() == [2, 33]  # e00
    assert k_hop_neighbors(g, 0, 2).tolist() == [2, 33, 39]
    assert g.neighbor_numbers(2).tolist() == [0, 39]  # e02


def test_k_hop_isolated_entity_is_empty():
    g = make_graph(train=[("a", "r", "b")], test=[("c", "r", "a")])
    assert hop_ids(g, "c", 3) == set()
    assert k_hop_neighbors(g, entity_number(g, "c"), 3).dtype == np.int64


def test_k_hop_excludes_self_and_validates():
    g = make_graph(train=[("a", "r", "b"), ("b", "r", "a"), ("a", "s", "a")])
    assert "a" not in hop_ids(g, "a", 5)
    with pytest.raises(UnknownIdError):  # an id is checked where it is numbered
        g.entity_numbers(["zz"])
    with pytest.raises(KgcError):
        k_hop_neighbors(g, entity_number(g, "a"), 0)
    with pytest.raises(KgcError, match="hop count must be >= 1, got 0"):
        k_hop_mask(g, g.entity_numbers(["a"]), 0)
    assert not k_hop_mask(g, g.entity_numbers(["a", "a"]), 5)[:, entity_number(g, "a")].any()
    assert k_hop_mask(g, np.zeros(0, dtype=np.int64), 2).shape == (0, len(g.entity_ids))


def test_k_hop_monotone_in_k(rng):
    for _ in range(50):
        n = int(rng.integers(3, 15))
        edges = []
        for _ in range(int(rng.integers(2, 25))):
            h, t = rng.integers(0, n, size=2)
            edges.append((f"e{h}", "r", f"e{t}"))
        g = make_graph(train=edges)
        start = f"e{rng.integers(0, n)}"
        if start not in g.entities:
            continue
        for k in range(1, 5):
            assert hop_ids(g, start, k) <= hop_ids(g, start, k + 1)


def test_k_hop_matches_bfs_oracle(rng):
    for _ in range(50):
        n = int(rng.integers(3, 12))
        edges = [
            (f"e{rng.integers(0, n)}", "r", f"e{rng.integers(0, n)}")
            for _ in range(int(rng.integers(2, 20)))
        ]
        g = make_graph(train=edges)
        undirected = {}
        for h, _, t in g.triples("train"):
            undirected.setdefault(h, set()).add(t)
            undirected.setdefault(t, set()).add(h)
        k = int(rng.integers(1, 4))
        for start in g.entity_ids:
            # plain frontier expansion, recomputed from scratch
            seen, frontier = {start}, {start}
            reach = set()
            for _ in range(k):
                frontier = {m for f in frontier for m in undirected.get(f, ())} - seen
                seen |= frontier
                reach |= frontier
            assert hop_ids(g, start, k) == reach - {start}
            numbers = k_hop_neighbors(g, entity_number(g, start), k)
            assert numbers.dtype == np.int64
            assert numbers.tolist() == g.entity_numbers(sorted(reach - {start})).tolist()  # increasing
        # every head of a chunk at once, in any order and repeated
        heads = rng.integers(0, len(g.entity_ids), size=int(rng.integers(1, 2 * n)))
        mask = k_hop_mask(g, heads, k)
        assert mask.shape == (len(heads), len(g.entity_ids)) and mask.dtype == bool
        for row, head in enumerate(heads.tolist()):
            assert np.flatnonzero(mask[row]).tolist() == k_hop_neighbors(g, head, k).tolist()


# -- relation categories -----------------------------------------------------


def test_classify_relation_spec_cases():
    one_one = make_graph(train=[("a", "r", "b"), ("c", "r", "d")])
    assert classify_relation(one_one, "r") == "1-1"

    one_n = make_graph(train=[("a", "r", "b"), ("a", "r", "c"), ("d", "r", "e"), ("d", "r", "f")])
    assert classify_relation(one_n, "r") == "1-n"

    n_n = make_graph(train=[("a", "r", "b"), ("a", "r", "c"), ("d", "r", "b"), ("d", "r", "c")])
    assert classify_relation(n_n, "r") == "n-n"

    n_one = make_graph(train=[("a", "r", "b"), ("c", "r", "b"), ("d", "r", "e"), ("f", "r", "e")])
    assert classify_relation(n_one, "r") == "n-1"


def test_classify_relation_requires_train_occurrence():
    g = make_graph(train=[("a", "r", "b")], test=[("a", "q", "b")])
    with pytest.raises(KgcError):
        classify_relation(g, "q")


def test_classify_inverse_uses_forward_counts():
    aug = make_graph(
        train=[("a", "r", "b"), ("a", "r", "c"), ("d", "r", "e"), ("d", "r", "f")], augment=True
    )
    assert classify_relation(aug, "r") == "1-n"
    assert classify_relation(aug, INVERSE_ID_PREFIX + "r") == "1-n"


def test_classify_relation_matches_counting_oracle(rng):
    for _ in range(200):
        n_ent = int(rng.integers(2, 10))
        n_tr = int(rng.integers(1, 100))
        triples = {
            (f"e{rng.integers(0, n_ent)}", "r", f"e{rng.integers(0, n_ent)}") for _ in range(n_tr)
        }
        g = make_graph(train=sorted(triples))
        per_head, per_tail = {}, {}
        for h, _, t in triples:
            per_head[h] = per_head.get(h, 0) + 1
            per_tail[t] = per_tail.get(t, 0) + 1
        tph = float(np.mean(list(per_head.values())))
        hpt = float(np.mean(list(per_tail.values())))
        # head-side slot reflects heads-per-tail, tail-side slot tails-per-head
        want = f"{'1' if hpt < 1.5 else 'n'}-{'1' if tph < 1.5 else 'n'}"
        assert classify_relation(g, "r") == want


def test_classify_threshold_boundary():
    assert CARDINALITY_THRESHOLD == 1.5
    # tails per head exactly at the threshold crosses into the many bucket
    g = make_graph(train=[("a", "r", "b"), ("a", "r", "c"), ("d", "r", "e")])
    assert classify_relation(g, "r") == "1-n"
    # 7 triples over 5 heads: 1.4 tails per head, just below it
    below = [(h, "r", t) for h, t in ("ab", "ac", "de", "df", "gh", "ij", "kl")]
    assert classify_relation(make_graph(train=below), "r") == "1-1"
    # the same on the head side, with heads and tails swapped
    g = make_graph(train=[("b", "r", "a"), ("c", "r", "a"), ("e", "r", "d")])
    assert classify_relation(g, "r") == "n-1"
    assert classify_relation(make_graph(train=[(t, r, h) for h, r, t in below]), "r") == "1-1"


# -- description augmentation ------------------------------------------------


def test_long_description_returned_unchanged():
    text = " ".join(f"w{i}" for i in range(30))
    g = make_graph(train=[("a", "r", "b")], descriptions={"a": text})
    assert augment_description(g, entity_number(g, "a")) == text


def test_short_description_appends_sorted_neighbor_names():
    g = make_graph(
        train=[("a", "r", "y"), ("x", "r", "a")],
        descriptions={"a": "tiny desc here"},
        names={"x": "X", "y": "Y", "a": "A"},
    )
    a, x = g.entity_numbers(["a", "x"]).tolist()
    assert augment_description(g, a) == "tiny desc here X Y"
    assert augment_description(g, a, exclude=x) == "tiny desc here Y"


def test_empty_description_falls_back_to_name():
    g = make_graph(train=[("a", "r", "b")], names={"a": "Alpha Org"})
    assert augment_description(g, entity_number(g, "a")).startswith("Alpha Org")


def test_threshold_counts_whitespace_tokens():
    exactly = " ".join(f"t{i}" for i in range(20))
    below = " ".join(f"t{i}" for i in range(19))
    g = make_graph(
        train=[("a", "r", "b"), ("c", "r", "d")],
        descriptions={"a": exactly, "c": below},
        names={"b": "B", "d": "D"},
    )
    assert augment_description(g, entity_number(g, "a")) == exactly
    assert augment_description(g, entity_number(g, "c")) == below + " D"


# -- filter index ------------------------------------------------------------


def _known(g, triple):
    """``known`` of one id triple."""
    return bool(g.known(*g.triple_numbers([triple])[0]))


def test_known_membership():
    aug = make_graph(train=[("a", "r", "b")], test=[("a", "r", "c")], augment=True)
    assert _known(aug, Triple("a", "r", "b"))
    assert _known(aug, Triple("a", "r", "c"))
    assert _known(aug, Triple("b", INVERSE_ID_PREFIX + "r", "a"))
    assert not _known(aug, Triple("b", "r", "a"))
    with pytest.raises(UnknownIdError, match="unknown entity id: 'zz'"):
        aug.triple_numbers([("a", "r", "zz")])  # an undeclared id is numbered nowhere
    with pytest.raises(UnknownIdError, match="unknown relation id: 'q'"):
        aug.triple_numbers([("a", "q", "b")])


def test_known_no_false_positives(rng):
    triples = [(f"e{i}", f"r{i % 3}", f"e{(i * 7) % 20}") for i in range(0, 20, 2)]
    g = make_graph(train=triples)
    truth = set(g.triples("train"))
    ents = sorted(g.entities)
    rels = sorted(g.relations)
    for _ in range(10_000):
        probe = Triple(
            ents[rng.integers(0, len(ents))],
            rels[rng.integers(0, len(rels))],
            ents[rng.integers(0, len(ents))],
        )
        assert _known(g, probe) == (probe in truth)


def _tails_of(g, head, relation):
    """``known_tails`` of one query, as a list of tail numbers."""
    rows, tails = g.known_tails(g.entity_numbers([head]), g.relation_numbers([relation]))
    assert rows.tolist() == [0] * len(tails)
    return tails.tolist()


def test_known_tails_accumulates_across_splits():
    g = make_graph(train=[("a", "r", "b")], valid=[("a", "r", "c")], test=[("a", "r", "d")])
    assert _tails_of(g, "a", "r") == [1, 2, 3]  # b, c, d
    assert _tails_of(g, "b", "r") == []


def test_known_answers_whole_arrays():
    g = make_graph(train=[("a", "r", "b")], valid=[("a", "r", "c")], test=[("c", "s", "a")])
    assert g.entity_numbers(["b", "a", "c", "a"]).tolist() == [1, 0, 2, 0]
    assert g.relation_numbers(["s", "r", "s"]).tolist() == [1, 0, 1]
    heads = g.entity_numbers(["a", "c", "b"])
    relations = g.relation_numbers(["r", "s", "r"])
    candidates = g.entity_numbers(["a", "b", "c"])
    assert g.known(heads[:, None], relations[:, None], candidates).tolist() == [
        [False, True, True],
        [True, False, False],
        [False, False, False],  # a head that is in no known triple
    ]
    assert g.known(heads, relations, heads).tolist() == [False, False, False]
    assert _tails_of(g, "a", "r") == [1, 2]
    assert _tails_of(g, "c", "s") == [0]
    assert _tails_of(g, "b", "r") == []
    assert _tails_of(g, "a", "s") == []
    # a whole batch at once, with queries without tails among them
    rows, tails = g.known_tails(heads, relations)
    assert rows.tolist() == [0, 0, 1] and tails.tolist() == [1, 2, 0]
    heads, relations = g.entity_numbers(["b", "c", "a", "a"]), g.relation_numbers(["r", "s", "s", "r"])
    rows, tails = g.known_tails(heads, relations)
    assert rows.tolist() == [1, 3, 3] and tails.tolist() == [0, 1, 2]
    assert _known(g, ("c", "s", "a")) and not _known(g, ("a", "s", "c"))
    empty = KnowledgeGraph([Entity("a", "A")], [Relation("r", "r")], {})
    assert empty.known(0, 0, np.array([0])).tolist() == [False]
    assert _tails_of(empty, "a", "r") == []
    rows, tails = empty.known_tails(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    assert rows.size == tails.size == 0


def test_adjacency_covers_train_only():
    g = make_graph(train=[("a", "r", "b")], test=[("a", "q", "c")])
    a, b, c = g.entity_numbers(["a", "b", "c"]).tolist()
    assert g.neighbor_numbers(a).tolist() == [b]
    assert g.neighbor_numbers(c).tolist() == []
    with pytest.raises(UnknownIdError):  # an id is checked where it is numbered
        g.entity_numbers(["zz"])
    with pytest.raises(ValueError, match="read-only"):  # a view of the graph's own adjacency
        g.neighbor_numbers(a)[0] = 2


def test_entity_numbers_outside_the_graph_raise():
    # -1 would index the last entity and E would read past the adjacency
    g = make_graph(train=[("a", "r", "b"), ("b", "r", "c")])
    E = len(g.entity_ids)
    for number in (-1, E):
        with pytest.raises(KgcError, match=rf"entity number {number} is out of range \[0, {E}\)"):
            g.neighbor_numbers(number)
        with pytest.raises(KgcError, match="out of range"):
            augment_description(g, number)
        with pytest.raises(KgcError, match="out of range"):
            k_hop_neighbors(g, number, 2)
        with pytest.raises(KgcError, match=rf"entity number {number} is out of range"):
            k_hop_mask(g, np.array([1, number, 0]), 2)
    assert g.neighbor_numbers(E - 1).tolist() == [1]
    assert augment_description(g, E - 1) == "c b"


def test_accessors_raise_on_unknown_ids():
    g = make_graph(train=[("a", "r", "b")])
    with pytest.raises(UnknownIdError):
        g.entity("nope")
    with pytest.raises(UnknownIdError):
        g.relation("nope")
    with pytest.raises(KgcError):
        g.triples("fold")


def test_constructor_rejects_unknown_reference():
    with pytest.raises(UnknownIdError, match="ghost"):
        KnowledgeGraph(
            [Entity("a", "A"), Entity("b", "B")],
            [Relation("r", "rel")],
            {"train": [Triple("a", "r", "ghost")]},
        )
