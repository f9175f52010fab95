"""Candidate assembly, masking, the three losses, and their exact gradients."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from textkgc.contrastive import (
    IN_BATCH,
    PRE_BATCH,
    SELF_NEGATIVE,
    CandidateMatrix,
    LossConfig,
    PreBatchQueue,
    TrainingBatch,
    assemble_candidates,
    disable_in_batch_negatives,
    infonce_loss,
    limit_negatives,
    margin_loss,
    margin_tau_loss,
)
from textkgc.encoder import TAU_FLOOR
from textkgc.errors import KgcError
from conftest import make_graph, plain_matrix


def unit(vec):
    vec = np.asarray(vec, dtype=float)
    return vec / np.linalg.norm(vec)


# -- pre-batch queue ---------------------------------------------------------


def test_queue_fifo_eviction():
    q = PreBatchQueue(8)
    for batch in range(3):
        embs = np.full((4, 2), float(batch))
        q.push(embs, np.arange(4) + 10 * batch)
    assert len(q) == 8
    assert q.entity_numbers.dtype == np.int64
    assert q.entity_numbers.tolist() == [10, 11, 12, 13, 20, 21, 22, 23]
    assert np.array_equal(q.embeddings()[:4], np.full((4, 2), 1.0))


def test_queue_entries_are_frozen_copies():
    q = PreBatchQueue(4)
    embs, numbers = np.ones((2, 3)), np.array([0, 1])
    q.push(embs, numbers)
    embs[:] = 99.0
    numbers[:] = 7
    assert np.array_equal(q.embeddings(), np.ones((2, 3)))
    assert q.entity_numbers.tolist() == [0, 1]


def test_queue_edge_cases():
    assert len(PreBatchQueue(0).push(np.ones((2, 2)), [0, 1])) == 0
    empty = PreBatchQueue(0).push(np.ones((2, 2)), [0, 1]).push(np.ones((1, 2)), [2])
    assert len(empty) == 0 and empty.entity_numbers.tolist() == []
    with pytest.raises(KgcError):
        empty.embeddings()
    with pytest.raises(KgcError):
        PreBatchQueue(4).embeddings()
    with pytest.raises(KgcError):
        PreBatchQueue(-1)
    with pytest.raises(KgcError):
        PreBatchQueue(4).push(np.ones((2, 2)), [0])


def test_queue_push_larger_than_capacity_keeps_the_newest_rows():
    q = PreBatchQueue(3).push(np.arange(10.0).reshape(5, 2), np.arange(5))
    assert q.entity_numbers.tolist() == [2, 3, 4]
    assert np.array_equal(q.embeddings(), np.arange(4.0, 10.0).reshape(3, 2))
    q.push(np.full((2, 2), -1.0), np.array([5, 6]))
    assert q.entity_numbers.tolist() == [4, 5, 6]
    assert q.embeddings().tolist() == [[8.0, 9.0], [-1.0, -1.0], [-1.0, -1.0]]
    with pytest.raises(ValueError):
        q.embeddings()[0, 0] = 0.0  # read-only: callers cannot edit the queue
    with pytest.raises(ValueError):
        q.entity_numbers[0] = 0


# -- candidate assembly ------------------------------------------------------


def _batch_for(g, rows, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    B = len(rows)
    return TrainingBatch(
        rows=g.triple_numbers(rows),
        hr_embs=np.stack([unit(rng.normal(size=dim)) for _ in range(B)]),
        tail_embs=np.stack([unit(rng.normal(size=dim)) for _ in range(B)]),
        self_embs=np.stack([unit(rng.normal(size=dim)) for _ in range(B)]),
    )


def test_assemble_scores_cosine_extremes():
    # unit vectors scored against themselves, an orthogonal and an opposite one
    g = make_graph(train=[("a", "r", "b")], entities=["c", "d"])
    e = np.eye(3)
    batch = TrainingBatch(g.triple_numbers([("a", "r", "b")]), e[:1], e[:1], -e[:1])
    queue = PreBatchQueue(2).push(np.stack([e[1], -e[0]]), g.entity_numbers(["c", "d"]))
    m = assemble_candidates(g, batch, queue, use_self_negatives=True)
    assert m.scores.tolist() == [[1.0, 0.0, -1.0, -1.0]]
    assert m.mask.all()
    with pytest.raises(ValueError):  # queue rows of another dimension
        assemble_candidates(g, batch, PreBatchQueue(1).push(np.ones((1, 4)), [2]), False)


def test_assemble_layout_and_diagonal():
    g = make_graph(train=[("a", "r", "b"), ("c", "r", "d"),
                          ("x1", "r", "x2"), ("x2", "r", "x3")])
    batch = _batch_for(g, [("a", "r", "b"), ("c", "r", "d")])
    queue = PreBatchQueue(4).push(np.eye(4)[:3], g.entity_numbers(["x1", "x2", "x3"]))
    m = assemble_candidates(g, batch, queue, use_self_negatives=True)
    B, C = m.size
    assert (B, C) == (2, 2 + 3 + 1)
    assert list(m.provenance) == [IN_BATCH] * 2 + [PRE_BATCH] * 3 + [SELF_NEGATIVE]
    assert m.sn_column == 5
    assert m.mask[0, 0] and m.mask[1, 1]  # positives always usable
    expected_sn = (batch.hr_embs * batch.self_embs).sum(axis=1)
    assert np.allclose(m.scores[:, 5], expected_sn, atol=1e-12)
    assert np.allclose(m.scores[:, :2], batch.hr_embs @ batch.tail_embs.T, atol=1e-12)


def test_assemble_masks_shared_positive():
    g = make_graph(train=[("a", "r", "b"), ("c", "q", "b")])
    batch = _batch_for(g, [("a", "r", "b"), ("c", "q", "b")])
    m = assemble_candidates(g, batch, PreBatchQueue(0), use_self_negatives=False)
    assert not m.mask[0, 1]  # both rows share tail b: the other column IS the target
    assert not m.mask[1, 0]
    assert m.mask[0, 0] and m.mask[1, 1]


def test_assemble_masks_known_true_candidates():
    # (a, r, d) is a known valid triple, so d cannot serve as a's negative
    g = make_graph(train=[("a", "r", "b"), ("c", "r", "d")], valid=[("a", "r", "d")])
    batch = _batch_for(g, [("a", "r", "b"), ("c", "r", "d")])
    m = assemble_candidates(g, batch, PreBatchQueue(0), use_self_negatives=False)
    assert not m.mask[0, 1]
    assert m.mask[1, 0]


def test_assemble_masks_queue_entries():
    g = make_graph(train=[("a", "r", "b"), ("a", "r", "q2"), ("q1", "r", "q2")])
    batch = _batch_for(g, [("a", "r", "b")])
    queue = PreBatchQueue(4).push(np.eye(4)[:2], g.entity_numbers(["q1", "q2"]))
    m = assemble_candidates(g, batch, queue, use_self_negatives=False)
    assert m.mask[0, 1]  # q1 is a fair negative
    assert not m.mask[0, 2]  # (a, r, q2) is known


def test_assemble_masks_self_when_reflexive():
    g = make_graph(train=[("a", "r", "a"), ("c", "r", "d")])
    batch = _batch_for(g, [("a", "r", "a"), ("c", "r", "d")])
    m = assemble_candidates(g, batch, PreBatchQueue(0), use_self_negatives=True)
    assert not m.mask[0, m.sn_column]  # h == t
    assert m.mask[1, m.sn_column]

    g2 = make_graph(train=[("a", "r", "b"), ("a", "r", "a")])
    batch2 = _batch_for(g2, [("a", "r", "b")])
    m2 = assemble_candidates(g2, batch2, PreBatchQueue(0), use_self_negatives=True)
    assert not m2.mask[0, m2.sn_column]  # (h, r, h) is a known triple


def test_negative_count_law_small():
    for B in (4, 8):
        for P in (0, 1, 2):
            rows = [(f"h{i}", "r", f"t{i}") for i in range(B)]
            g = make_graph(train=rows, entities=[f"q{k}_{i}" for k in range(2) for i in range(B)])
            batch = _batch_for(g, rows)
            queue = PreBatchQueue(P * B)
            for k in range(P):
                ids = [f"q{k}_{i}" for i in range(B)]
                queue.push(np.tile(np.eye(4)[0], (B, 1)), g.entity_numbers(ids))
            m = assemble_candidates(g, batch, queue, use_self_negatives=True)
            assert m.negatives_per_row().tolist() == [(P + 1) * B] * B


def test_assemble_allocates_nothing_proportional_to_the_entity_count():
    # 50,000 entities and 8 rows, each head with 30 known tails: the mask
    # table spans the batch's distinct candidates, never every entity
    E, B = 50_000, 8
    ids = [f"e{i:05d}" for i in range(E)]
    rows = [(ids[i], "r", ids[B + i]) for i in range(B)]
    known = [(ids[i], "r", ids[E - 1 - 30 * i - k]) for i in range(B) for k in range(30)]
    g = make_graph(train=rows + known, entities=ids)
    batch = _batch_for(g, rows)
    queue = PreBatchQueue(2 * B).push(np.tile(np.eye(4)[0], (2 * B, 1)), g.entity_numbers(ids[-2 * B :]))
    tracemalloc.start()
    try:
        m = assemble_candidates(g, batch, queue, use_self_negatives=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < B * E / 10
    # the queue holds the last 16 entities, all known tails of row 0 only
    assert not m.mask[0, B : 3 * B].any() and m.mask[1:, B : 3 * B].all()
    assert m.negatives_per_row().tolist() == [(B - 1) + 1] + [(B - 1) + 2 * B + 1] * (B - 1)


def test_disable_in_batch_negatives_keeps_diagonal():
    g = make_graph(train=[("a", "r", "b"), ("c", "r", "d"), ("z", "r", "a")])
    batch = _batch_for(g, [("a", "r", "b"), ("c", "r", "d")])
    queue = PreBatchQueue(2).push(np.eye(4)[:1], g.entity_numbers(["z"]))
    m = assemble_candidates(g, batch, queue, use_self_negatives=True)
    disable_in_batch_negatives(m)
    assert m.mask[0, 0] and m.mask[1, 1]
    assert not m.mask[0, 1] and not m.mask[1, 0]
    assert m.mask[0, 2] and m.mask[0, 3]  # queue and self columns untouched


def test_limit_negatives_caps_each_row(rng):
    scores = rng.normal(size=(3, 12))
    m = plain_matrix(scores)
    before = m.mask.copy()
    limit_negatives(m, 4, rng)
    counts = m.negatives_per_row()
    assert counts.tolist() == [4, 4, 4]
    assert (m.mask <= before).all()  # only removals
    assert m.mask[np.arange(3), np.arange(3)].all()
    with pytest.raises(KgcError):
        limit_negatives(m, -1, rng)


def _limit_negatives_per_cell(mask, max_negatives, rng):
    """Reference cap: one row at a time, one cell at a time.  A row over the
    cap draws one key per column and keeps the negatives of smallest (key,
    column)."""
    B, C = mask.shape
    for i in range(B):
        negs = [j for j in range(C) if mask[i, j] and j != i]
        if len(negs) > max_negatives:
            keys = rng.random(C)
            keep = set(sorted(negs, key=lambda j: (keys[j], j))[:max_negatives])
            for j in negs:
                if j not in keep:
                    mask[i, j] = False


def _check_limit_against_reference(rng, keys):
    """``limit_negatives`` against the per-cell reference on 200 random
    masks and caps; ``keys(seed)`` makes the generator both draw from."""
    for _ in range(200):
        seed = int(rng.integers(1 << 30))
        B = int(rng.integers(1, 9))
        C = B + int(rng.integers(0, 12))
        mask = rng.random((B, C)) < rng.uniform(0.2, 1.0)
        mask[np.arange(B), np.arange(B)] = rng.random(B) < 0.9
        cap = int(rng.integers(0, C + 1))
        want = mask.copy()
        want_rng = keys(seed)
        _limit_negatives_per_cell(want, cap, want_rng)
        m = plain_matrix(np.zeros((B, C)), mask=mask)
        got_rng = keys(seed)
        limit_negatives(m, cap, got_rng)
        assert np.array_equal(m.mask, want)
        assert got_rng.random() == want_rng.random()  # same draws consumed


def test_limit_negatives_matches_per_cell_reference(rng):
    _check_limit_against_reference(rng, np.random.default_rng)


class _CoarseKeys:
    """A generator whose keys take the 3 values 0, 1/4 and 1/2, so a row's
    keys tie often; ``random()`` with no size draws an uncoarsened float,
    so comparing one such draw checks that two streams stand at one place."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def random(self, size=None):
        draw = self.rng.random(size)
        return draw if size is None else np.floor(draw * 3) / 4


def test_limit_negatives_breaks_key_ties_by_column(rng):
    _check_limit_against_reference(rng, _CoarseKeys)
    m = plain_matrix(np.zeros((2, 6)))
    limit_negatives(m, 2, SimpleNamespace(random=np.zeros))  # every key ties
    assert m.mask.tolist() == [[True, True, True, False, False, False], [True, True, True, False, False, False]]


def test_limit_negatives_keeps_each_negative_equally_often():
    # row 0 has the 7 usable negatives 1..7 (column 8 is masked), row 1 has
    # 2, fewer than the cap; 3000 capped draws keep each of row 0's
    # negatives about cap / 7 of the time
    B, C, cap, draws = 2, 9, 3, 3000
    mask = np.ones((B, C), dtype=bool)
    mask[0, 8] = False
    mask[1, 2:] = False
    rng = np.random.default_rng(11)
    kept = np.zeros((B, C))
    for _ in range(draws):
        m = plain_matrix(np.zeros((B, C)), mask=mask)
        limit_negatives(m, cap, rng)
        assert (m.mask <= mask).all()  # only removals
        assert m.mask[np.arange(B), np.arange(B)].all()  # the positive is never dropped
        assert m.negatives_per_row().tolist() == [cap, 1]  # min(n, cap)
        kept += m.mask
    share = kept / draws
    assert np.abs(share[0, 1:8] - cap / 7).max() < 0.03
    assert share[0, 8] == 0 and share[1].tolist() == [1, 1] + [0] * 7


def test_limit_negatives_noop_below_cap(rng):
    m = plain_matrix(rng.normal(size=(2, 5)))
    before = m.mask.copy()
    limit_negatives(m, 10, rng)
    assert np.array_equal(m.mask, before)


# -- InfoNCE -----------------------------------------------------------------

TAU05 = -math.log(0.05)  # log(1/tau) for tau = 0.05


def test_infonce_frozen_values():
    cfg = LossConfig(additive_margin=0.0)
    m = plain_matrix([[1.0, 0.0]], provenance=[IN_BATCH, SELF_NEGATIVE])
    loss, _, _ = infonce_loss(m, cfg, TAU05)
    assert loss == pytest.approx(math.log1p(math.exp(-20.0)), rel=1e-9)
    assert loss == pytest.approx(2.061e-9, rel=1e-3)

    m = plain_matrix([[0.37, 0.37]], provenance=[IN_BATCH, SELF_NEGATIVE])
    loss, _, _ = infonce_loss(m, cfg, 1.234)
    assert loss == pytest.approx(math.log(2.0), rel=1e-12)


def test_infonce_additive_margin_raises_loss():
    m = plain_matrix([[0.9, 0.1]], provenance=[IN_BATCH, SELF_NEGATIVE])
    base, _, _ = infonce_loss(m, LossConfig(additive_margin=0.0), TAU05)
    shifted, _, _ = infonce_loss(m, LossConfig(additive_margin=0.02), TAU05)
    assert shifted > base
    # margin on the positive logit only: equals shifting the positive score
    direct, _, _ = infonce_loss(
        plain_matrix([[0.88, 0.1]], provenance=[IN_BATCH, SELF_NEGATIVE]),
        LossConfig(additive_margin=0.0),
        TAU05,
    )
    assert shifted == pytest.approx(direct, rel=1e-12)


def test_infonce_matches_textbook_cross_entropy(rng):
    cfg = LossConfig(additive_margin=0.0, pre_batch_weight=1.0)
    for _ in range(20):
        scores = rng.uniform(-1, 1, size=(4, 4))
        log_inv_tau = float(rng.uniform(0.5, 3.0))
        tau = math.exp(-log_inv_tau)
        loss, _, _ = infonce_loss(plain_matrix(scores), cfg, log_inv_tau)
        logits = scores / tau
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        direct = float(-logp[np.arange(4), np.arange(4)].mean())
        assert abs(loss - direct) <= 1e-10


def test_infonce_pre_batch_weight_scales_queue_logits():
    cfg = LossConfig(additive_margin=0.0, pre_batch_weight=0.5)
    m = plain_matrix([[0.6, 0.8]], provenance=[IN_BATCH, PRE_BATCH])
    loss, _, _ = infonce_loss(m, cfg, TAU05)
    direct, _, _ = infonce_loss(
        plain_matrix([[0.6, 0.4]], provenance=[IN_BATCH, SELF_NEGATIVE]),
        LossConfig(additive_margin=0.0),
        TAU05,
    )
    assert loss == pytest.approx(direct, rel=1e-12)


def test_infonce_gradient_signs(rng):
    cfg = LossConfig()
    for _ in range(20):
        B, C = 3, 7
        m = plain_matrix(rng.uniform(-1, 1, size=(B, C)))
        _, grads, _ = infonce_loss(m, cfg, float(rng.uniform(0.0, 3.0)))
        diag = grads[np.arange(B), np.arange(B)]
        assert (diag < 0).all()  # pushing the positive up reduces loss
        off = grads[~np.eye(B, C, dtype=bool)]
        assert (off >= 0).all()


def test_infonce_fully_masked_row_contributes_zero():
    mask = np.array([[True, False, False], [True, True, True]])
    m = plain_matrix([[0.3, 0.9, 0.9], [0.1, 0.0, -0.5]], mask=mask)
    loss, grads, gtau = infonce_loss(m, LossConfig(additive_margin=0.0), TAU05)
    # same negatives for row 1, repositioned so its positive sits on the diagonal
    only_second, _, _ = infonce_loss(
        plain_matrix([[0.0, 0.1, -0.5]]), LossConfig(additive_margin=0.0), TAU05
    )
    assert loss == pytest.approx(only_second / 2.0, rel=1e-12)
    assert np.allclose(grads[0, 1:], 0.0)
    assert grads[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_infonce_temperature_floor_freezes_tau_gradient():
    assert TAU_FLOOR == 1e-3
    cfg = LossConfig()
    m = plain_matrix([[0.9, 0.2]])
    log_inv_tau = -math.log(1e-4)  # raw tau below the floor
    loss, _, gtau = infonce_loss(m, cfg, log_inv_tau)
    assert gtau == 0.0
    at_floor, _, _ = infonce_loss(m, cfg, -math.log(TAU_FLOOR))
    assert loss == pytest.approx(at_floor, rel=1e-12)


# -- margin losses -----------------------------------------------------------


def test_margin_loss_frozen_values():
    cfg = LossConfig(hinge_margin=0.8)
    m = plain_matrix([[1.0, 0.0]], provenance=[IN_BATCH, SELF_NEGATIVE])
    assert margin_loss(m, cfg)[0] == 0.0

    m = plain_matrix([[0.0, 0.0]], provenance=[IN_BATCH, SELF_NEGATIVE])
    assert margin_loss(m, cfg)[0] == pytest.approx(0.8, rel=1e-12)

    m = plain_matrix([[0.5, 0.4, -0.2]], provenance=[IN_BATCH, SELF_NEGATIVE, SELF_NEGATIVE])
    assert margin_loss(m, cfg)[0] == pytest.approx(0.4, rel=1e-12)


def test_margin_loss_zero_subgradient_at_hinge():
    cfg = LossConfig(hinge_margin=0.8)
    m = plain_matrix([[0.8, 0.0]], provenance=[IN_BATCH, SELF_NEGATIVE])
    loss, grads = margin_loss(m, cfg)
    assert loss == 0.0
    assert np.allclose(grads, 0.0)


def test_margin_loss_row_without_negatives_is_zero():
    mask = np.array([[True, False], [True, True]])
    m = plain_matrix([[0.0, 0.0], [0.0, 0.0]], mask=mask)
    loss, grads = margin_loss(m, LossConfig(hinge_margin=0.8))
    assert loss == pytest.approx(0.4, rel=1e-12)  # only row 1 contributes 0.8
    assert np.allclose(grads[0], 0.0)


def test_margin_tau_equals_margin_when_violations_tie():
    cfg = LossConfig(hinge_margin=0.8)
    m = plain_matrix([[0.1, 0.3, 0.3]], provenance=[IN_BATCH] * 3)
    plain, _ = margin_loss(m, cfg)
    weighted, _ = margin_tau_loss(m, cfg, tau=0.05)
    assert weighted == pytest.approx(plain, rel=1e-12)


def test_margin_tau_sharp_limit_selects_max():
    cfg = LossConfig(hinge_margin=0.8)
    # violations 1.0 and 0.0 (second negative is inactive)
    m = plain_matrix([[0.3, 0.5, -0.5]], provenance=[IN_BATCH] * 3)
    loss, _ = margin_tau_loss(m, cfg, tau=1e-4)
    assert loss == pytest.approx(1.0, abs=1e-9)


def test_margin_tau_frozen_value():
    cfg = LossConfig(hinge_margin=0.8)
    # pos 0.2, negatives 0.1 and -0.5 -> violations 0.7 and 0.1
    m = plain_matrix([[0.2, 0.1, -0.5]], provenance=[IN_BATCH] * 3)
    loss, _ = margin_tau_loss(m, cfg, tau=0.05)
    w = 1.0 / (1.0 + math.exp(-12.0))
    assert loss == pytest.approx(0.7 * w + 0.1 * (1 - w), rel=1e-12)
    assert loss == pytest.approx(0.699996, abs=5e-6)


def test_margin_tau_bounds(rng):
    cfg = LossConfig(hinge_margin=0.8)
    for _ in range(50):
        m = plain_matrix(rng.uniform(-1, 1, size=(1, 6)))
        violations = np.maximum(0.0, 0.8 + m.scores[0, 1:] - m.scores[0, 0])
        plain, _ = margin_loss(m, cfg)
        weighted, _ = margin_tau_loss(m, cfg, tau=0.05)
        assert weighted <= violations.max() + 1e-12
        assert weighted >= plain - 1e-12  # sharper weights never lower the bound
    with pytest.raises(KgcError):
        margin_tau_loss(plain_matrix(np.zeros((1, 2))), cfg, tau=0.0)


# -- shared loss properties --------------------------------------------------


def _random_masked_matrix(rng, B=3, C=8):
    scores = rng.uniform(-1, 1, size=(B, C))
    mask = rng.random((B, C)) < 0.7
    mask[np.arange(B), np.arange(B)] = True
    prov = np.array([IN_BATCH] * B + list(rng.choice([PRE_BATCH, SELF_NEGATIVE], size=C - B)))
    return plain_matrix(scores, provenance=prov, mask=mask)


def test_masked_cells_get_exactly_zero_gradient(rng):
    cfg = LossConfig()
    for _ in range(25):
        m = _random_masked_matrix(rng)
        for grads in (
            infonce_loss(m, cfg, TAU05)[1],
            margin_loss(m, cfg)[1],
            margin_tau_loss(m, cfg)[1],
        ):
            assert np.all(grads[~m.mask] == 0.0)


def test_losses_invariant_to_negative_permutation(rng):
    cfg = LossConfig()
    for _ in range(20):
        scores = rng.uniform(-1, 1, size=(1, 7))
        prov = np.array([IN_BATCH] + list(rng.choice([PRE_BATCH, SELF_NEGATIVE], size=6)))
        mask = np.concatenate([[True], rng.random(6) < 0.8])
        m = plain_matrix(scores, provenance=prov, mask=mask[None, :])
        perm = np.concatenate([[0], 1 + rng.permutation(6)])
        m2 = plain_matrix(scores[:, perm], provenance=prov[perm], mask=mask[perm][None, :])
        assert infonce_loss(m, cfg, TAU05)[0] == pytest.approx(
            infonce_loss(m2, cfg, TAU05)[0], abs=1e-12
        )
        assert margin_loss(m, cfg)[0] == pytest.approx(margin_loss(m2, cfg)[0], abs=1e-12)
        assert margin_tau_loss(m, cfg)[0] == pytest.approx(margin_tau_loss(m2, cfg)[0], abs=1e-12)


def test_loss_gradients_match_finite_differences(rng):
    step = 1e-4
    checked = 0
    trial = 0
    while checked < 40:
        trial += 1
        local = np.random.default_rng(trial)
        m = _random_masked_matrix(local, B=3, C=6)
        cfg = LossConfig(additive_margin=0.02, hinge_margin=0.8, pre_batch_weight=0.5)
        log_inv_tau = float(local.uniform(0.5, 3.0))
        kind = trial % 3
        if kind == 0:
            fn = lambda mm: infonce_loss(mm, cfg, log_inv_tau)[0]
            _, grads, _ = infonce_loss(m, cfg, log_inv_tau)
        elif kind == 1:
            hinge_args = 0.8 + m.scores - m.scores[np.arange(3), np.arange(3)][:, None]
            if np.any(np.abs(hinge_args[m.mask]) < 1e-3):
                continue  # FD is invalid at the hinge kink
            fn = lambda mm: margin_loss(mm, cfg)[0]
            _, grads = margin_loss(m, cfg)
        else:
            hinge_args = 0.8 + m.scores - m.scores[np.arange(3), np.arange(3)][:, None]
            if np.any(np.abs(hinge_args[m.mask]) < 1e-3):
                continue
            # frozen-weight surrogate: the defined gradient holds weights constant
            _, base_w = margin_tau_loss(m, cfg)
            weights = np.abs(base_w) * m.size[0]

            def fn(mm, w=weights, mask=m.mask.copy()):
                viol = 0.8 + mm.scores - mm.scores[np.arange(3), np.arange(3)][:, None]
                hinged = np.where((viol > 0) & mask, viol, 0.0)
                np.fill_diagonal(hinged[:, :3], 0.0)
                return float((w * hinged).sum() / mm.size[0])

            _, grads = margin_tau_loss(m, cfg)
        for i in range(m.size[0]):
            for j in range(m.size[1]):
                orig = m.scores[i, j]
                m.scores[i, j] = orig + step
                hi = fn(m)
                m.scores[i, j] = orig - step
                lo = fn(m)
                m.scores[i, j] = orig
                fd = (hi - lo) / (2 * step)
                denom = max(abs(grads[i, j]), abs(fd), 1e-6)
                assert abs(grads[i, j] - fd) / denom <= 1e-4, (trial, kind, i, j)
        checked += 1


def test_infonce_temperature_gradient_matches_finite_differences(rng):
    step = 1e-4
    cfg = LossConfig(additive_margin=0.02, pre_batch_weight=0.5)
    for trial in range(30):
        local = np.random.default_rng(1000 + trial)
        m = _random_masked_matrix(local, B=4, C=9)
        log_inv_tau = float(local.uniform(0.5, 2.5))
        _, _, gtau = infonce_loss(m, cfg, log_inv_tau)
        hi = infonce_loss(m, cfg, log_inv_tau + step)[0]
        lo = infonce_loss(m, cfg, log_inv_tau - step)[0]
        fd = (hi - lo) / (2 * step)
        denom = max(abs(gtau), abs(fd), 1e-6)
        assert abs(gtau - fd) / denom <= 1e-4, trial


def test_loss_config_validation():
    with pytest.raises(KgcError):
        LossConfig(additive_margin=-0.1)
    with pytest.raises(KgcError):
        LossConfig(hinge_margin=0.0)
    with pytest.raises(KgcError):
        LossConfig(pre_batch_weight=0.0)
    with pytest.raises(KgcError):
        LossConfig(pre_batch_weight=1.5)
