"""Schedule, clipping, the optimizer update, and the end-to-end training loop."""

import math

import numpy as np
import pytest

from textkgc.encoder import (
    EncoderParams,
    GradientBuffer,
    load_checkpoint,
    temperature,
)
from textkgc import encoder as enc
from textkgc import training as tr
from textkgc.errors import KgcError, NumericError
from textkgc.graph import add_inverse_triples, augment_description
from textkgc.randomness import named_stream
from textkgc.contrastive import LossConfig, PreBatchQueue
from textkgc.training import (
    OptimizerState,
    TrainConfig,
    apply_update,
    build_token_cache,
    clip_gradients,
    lr_at,
    run_batch,
    train,
)

import synth
from conftest import dense_apply_update, make_graph, optimizer_bytes, pad, query_layout, tiny_params


def fresh_params(seed=7, buckets=64, dim=8, max_tokens=enc.DEFAULT_MAX_TOKENS):
    return EncoderParams.initialize(buckets, dim, named_stream(seed, "init"), max_tokens=max_tokens)


def small_config(**kw):
    base = dict(
        batch_size=4,
        epochs=1,
        peak_lr=0.02,
        warmup_steps=400,
        dropout=0.0,
        negatives=frozenset({"ib"}),
        pre_batches=0,
        seed=42,
    )
    base.update(kw)
    return TrainConfig(**base)


def chain_graph(n=8, augment=True):
    rows = [(f"e{i}", "next", f"e{i + 1}") for i in range(n)]
    descriptions = {f"e{i}": f"node number {i} stands alone" for i in range(n + 1)}
    descriptions["next"] = "points to the following node"
    g = make_graph(train=rows, descriptions=descriptions)
    return add_inverse_triples(g) if augment else g


# -- learning-rate schedule --------------------------------------------------


def test_lr_schedule_frozen_points():
    cfg = small_config(peak_lr=0.02, warmup_steps=400)
    assert lr_at(0, cfg, total_steps=1400) == 0.0
    assert lr_at(400, cfg, total_steps=1400) == pytest.approx(0.02, rel=1e-12)
    assert lr_at(900, cfg, total_steps=1400) == pytest.approx(0.01, rel=1e-12)
    assert lr_at(1400, cfg, total_steps=1400) == 0.0


def test_lr_schedule_monotone_ramp_then_decay():
    cfg = small_config(peak_lr=0.1, warmup_steps=10)
    values = [lr_at(s, cfg, total_steps=30) for s in range(31)]
    assert all(b >= a for a, b in zip(values[:10], values[1:11]))
    assert all(b <= a for a, b in zip(values[10:30], values[11:31]))
    assert max(values) == pytest.approx(0.1, rel=1e-12)


def test_lr_schedule_clamps_warmup_to_horizon():
    cfg = small_config(peak_lr=0.02, warmup_steps=400)
    # 6-step run: warmup shrinks to the horizon instead of never peaking
    assert lr_at(6, cfg, total_steps=6) == pytest.approx(0.02, rel=1e-12)
    assert lr_at(3, cfg, total_steps=6) == pytest.approx(0.01, rel=1e-12)


def test_lr_schedule_zero_warmup_starts_at_peak():
    cfg = small_config(peak_lr=0.02, warmup_steps=0)
    assert lr_at(0, cfg, total_steps=10) == pytest.approx(0.02, rel=1e-12)


def test_lr_schedule_rejects_out_of_range_step():
    cfg = small_config()
    with pytest.raises(KgcError):
        lr_at(-1, cfg, total_steps=10)
    with pytest.raises(KgcError):
        lr_at(11, cfg, total_steps=10)
    with pytest.raises(KgcError):
        lr_at(0, cfg, total_steps=0)


# -- gradient clipping -------------------------------------------------------


def _rows(entries, dim):
    entries = sorted(entries or [])
    ids = np.array([idx for idx, _ in entries], dtype=np.int64)
    rows = np.array([vec for _, vec in entries], dtype=float).reshape(len(entries), dim)
    return ids, rows


def _buffer(hr=None, tail=None, tau=0.0, dim=4):
    """Gradient buffer from (bucket, row) pairs per table."""
    return GradientBuffer(*_rows(hr, dim), *_rows(tail, dim), log_inv_tau=tau)


def test_clip_leaves_small_gradients_alone():
    buf = _buffer(hr=[(0, [3.0, 0.0, 0.0, 0.0])], tail=[(1, [0.0, 4.0, 0.0, 0.0])])
    clip_gradients(buf, max_norm=10.0)
    assert buf.hr[0].tolist() == [3.0, 0.0, 0.0, 0.0]
    assert buf.tail[0].tolist() == [0.0, 4.0, 0.0, 0.0]


def test_clip_scales_large_gradients_to_max_norm():
    buf = _buffer(hr=[(0, [12.0, 0.0, 0.0, 0.0])], tail=[(1, [0.0, 16.0, 0.0, 0.0])])
    clip_gradients(buf, max_norm=10.0)
    assert buf.hr[0][0] == pytest.approx(6.0, rel=1e-12)
    assert buf.tail[0][1] == pytest.approx(8.0, rel=1e-12)


def test_clip_includes_temperature_in_global_norm(rng):
    for _ in range(20):
        buf = _buffer(
            hr=[(0, rng.normal(size=4) * 10)],
            tail=[(2, rng.normal(size=4) * 10)],
            tau=float(rng.normal() * 10),
        )
        clip_gradients(buf, max_norm=5.0)
        norm = math.sqrt(
            float((buf.hr[0] ** 2).sum() + (buf.tail[0] ** 2).sum()) + buf.log_inv_tau**2
        )
        assert norm <= 5.0 + 1e-9


def test_clip_zero_gradient_is_noop():
    buf = _buffer(tau=0.0)
    clip_gradients(buf, max_norm=1.0)
    assert buf.log_inv_tau == 0.0


def test_clip_rejects_non_finite_and_names_the_table():
    buf = _buffer(hr=[(3, [np.nan, 0.0, 0.0, 0.0])])
    with pytest.raises(NumericError, match=r"hr_table\[3\]"):
        clip_gradients(buf, max_norm=1.0)


# -- optimizer update --------------------------------------------------------


def test_update_single_step_matches_hand_computation():
    # fresh moments, g=1: update = lr * m_hat / (sqrt(v_hat) + eps) ~ lr
    params = tiny_params(buckets=4, dim=2)
    params.hr_table[:] = 0.0
    state = OptimizerState.zeros(4, 2)
    buf = _buffer(hr=[(1, [1.0, 0.0])], dim=2)
    cfg = small_config(weight_decay=0.0)
    apply_update(params, state, buf, lr=0.001, cfg=cfg)
    assert params.hr_table[1, 0] == pytest.approx(-0.001, abs=1e-9)
    assert params.hr_table[1, 1] == 0.0
    assert params.hr_table[0, 0] == 0.0
    assert state.step == 1


def test_update_zero_gradient_applies_pure_decay():
    params = tiny_params(buckets=4, dim=2)
    params.tail_table[:] = 2.0
    before_tau = params.log_inv_tau
    state = OptimizerState.zeros(4, 2)
    cfg = small_config(weight_decay=0.1)
    apply_update(params, state, _buffer(dim=2), lr=1.0, cfg=cfg)
    assert np.allclose(params.tail_table, 2.0 * 0.9, atol=1e-12)
    assert params.log_inv_tau == before_tau  # decay never touches the temperature


def test_update_moments_accumulate_across_steps():
    params = tiny_params(buckets=4, dim=2)
    state = OptimizerState.zeros(4, 2)
    cfg = small_config(weight_decay=0.0)
    for _ in range(3):
        apply_update(params, state, _buffer(hr=[(0, [1.0, 0.0])], dim=2), lr=0.001, cfg=cfg)
    assert state.step == 3
    assert state.m_hr[0, 0] == pytest.approx(1.0 - 0.9**3, rel=1e-12)
    assert state.v_hr[0, 0] == pytest.approx(1.0 - 0.999**3, rel=1e-9)


def test_update_temperature_gradient_moves_log_inv_tau():
    params = tiny_params(buckets=4, dim=2)
    before = params.log_inv_tau
    state = OptimizerState.zeros(4, 2)
    apply_update(params, state, _buffer(tau=1.0, dim=2), lr=0.001, cfg=small_config())
    assert params.log_inv_tau < before


def test_update_detects_non_finite_parameters():
    params = tiny_params(buckets=4, dim=2)
    params.hr_table[0, 0] = 1e308
    state = OptimizerState.zeros(4, 2)
    buf = _buffer(hr=[(0, [-1.0, 0.0])], dim=2)
    cfg = small_config(weight_decay=1.0)
    with pytest.raises(NumericError, match="hr_table"):
        for _ in range(50):
            apply_update(params, state, buf, lr=1e300, cfg=cfg)


def _random_buffer(rng, hr_ids, tail_ids, dim, scale=1.0):
    hr = [(i, (scale * rng.normal(size=dim)).tolist()) for i in hr_ids]
    tail = [(i, (scale * rng.normal(size=dim)).tolist()) for i in tail_ids]
    return _buffer(hr=hr, tail=tail, tau=scale * rng.normal(), dim=dim)


@pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
def test_update_matches_dense_reference_bitwise(weight_decay):
    buckets, dim = 16, 3
    params = tiny_params(buckets=buckets, dim=dim, seed=3)
    params.hr_table[5, 1] = -0.0  # touched at the first step
    params.hr_table[10, 2] = -0.0  # never touched
    ref_params = params.copy()
    state = OptimizerState.zeros(buckets, dim)
    ref_state = OptimizerState.zeros(buckets, dim)
    cfg = small_config(weight_decay=weight_decay)
    rng = np.random.default_rng(11)
    # rows 1, 5, 2 and 9 are touched, left out for several steps, then touched again
    schedule = [
        ([1, 5], [2, 9], 1.0),
        ([], [], 1.0),
        ([3], [9], 1.0),
        ([], [4], 1.0),
        ([7], [], 1.0),
        ([1, 5], [2], 1.0),
        ([1, 12], [2, 9, 15], 100.0),
    ]
    clipped = 0
    for step, (hr_ids, tail_ids, scale) in enumerate(schedule):
        buf = _random_buffer(rng, hr_ids, tail_ids, dim, scale)
        if step == 0:
            buf.hr[1, 0] = -0.0  # row 5
        norm = buf.global_norm()
        clip_gradients(buf, max_norm=5.0)
        clipped += norm > 5.0
        lr = 0.01 * (step + 1)
        apply_update(params, state, buf, lr, cfg)
        dense_apply_update(ref_params, ref_state, buf, lr, cfg)
        assert optimizer_bytes(params, state) == optimizer_bytes(ref_params, ref_state), step
    assert clipped == 1


@pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
@pytest.mark.parametrize("chunk_rows", [1, 3, 15, 17])  # 1, 3, buckets - 1 and buckets + 1 rows
def test_chunked_decay_matches_dense_reference_bitwise(monkeypatch, chunk_rows, weight_decay):
    buckets, dim = 16, 3
    monkeypatch.setattr(tr, "DECAY_CELLS", chunk_rows * dim)
    params = tiny_params(buckets=buckets, dim=dim, seed=4)
    params.tail_table[15, 0] = -0.0  # last row, first touched at the last step
    ref_params = params.copy()
    state, ref_state = OptimizerState.zeros(buckets, dim), OptimizerState.zeros(buckets, dim)
    cfg = small_config(weight_decay=weight_decay)
    rng = np.random.default_rng(chunk_rows)
    for step, (hr_ids, tail_ids) in enumerate([([0, 14], [3]), ([], []), ([15], [0, 9]), ([2], [15])]):
        buf = _random_buffer(rng, hr_ids, tail_ids, dim)
        apply_update(params, state, buf, 0.05, cfg)
        dense_apply_update(ref_params, ref_state, buf, 0.05, cfg)
        assert optimizer_bytes(params, state) == optimizer_bytes(ref_params, ref_state), step


@pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
@pytest.mark.parametrize("bad_row", [15, 1])  # the last chunk, alone; the first chunk
def test_update_detects_non_finite_value_in_any_chunk(monkeypatch, weight_decay, bad_row):
    buckets, dim = 16, 2
    monkeypatch.setattr(tr, "DECAY_CELLS", 3 * dim)
    params = tiny_params(buckets=buckets, dim=dim)
    params.tail_table[bad_row, 1] = np.inf  # a row no gradient ever touches
    ref_params = params.copy()
    state, ref_state = OptimizerState.zeros(buckets, dim), OptimizerState.zeros(buckets, dim)
    buf = _buffer(hr=[(0, [1.0, -1.0])], tail=[(2, [0.5, 0.5])], dim=dim)
    cfg = small_config(weight_decay=weight_decay)
    with pytest.raises(NumericError, match="tail_table"):
        apply_update(params, state, buf, lr=0.1, cfg=cfg)
    with pytest.raises(NumericError, match="tail_table"):
        dense_apply_update(ref_params, ref_state, buf, lr=0.1, cfg=cfg)
    # every chunk was decayed before the raise, as the whole-table step does
    assert optimizer_bytes(params, state) == optimizer_bytes(ref_params, ref_state)


def test_update_steps_only_touched_rows_and_keeps_the_rest_exact():
    buckets, dim = 16, 3
    params = tiny_params(buckets=buckets, dim=dim, seed=5)
    initial = params.copy()
    state = OptimizerState.zeros(buckets, dim)
    cfg = small_config(weight_decay=0.0)
    rng = np.random.default_rng(23)
    schedule = [([0, 6], [3]), ([], []), ([6, 11], []), ([], [3, 8]), ([2], [14])]
    for hr_ids, tail_ids in schedule:
        apply_update(params, state, _random_buffer(rng, hr_ids, tail_ids, dim), lr=0.05, cfg=cfg)
    for table, first, m, v, touched, k in (
        (params.hr_table, initial.hr_table, state.m_hr, state.v_hr, state.touched_hr, 0),
        (params.tail_table, initial.tail_table, state.m_tail, state.v_tail, state.touched_tail, 1),
    ):
        seen = np.zeros(buckets, dtype=bool)
        seen[[i for ids in schedule for i in ids[k]]] = True
        assert np.array_equal(touched, seen)
        zeros = np.zeros((np.count_nonzero(~seen), dim)).tobytes()
        assert m[~seen].tobytes() == zeros
        assert v[~seen].tobytes() == zeros
        assert table[~seen].tobytes() == first[~seen].tobytes()
        assert not np.array_equal(table[seen], first[seen])


# -- config validation -------------------------------------------------------


def test_train_config_rejects_bad_values():
    with pytest.raises(KgcError):
        small_config(batch_size=1)
    with pytest.raises(KgcError):
        small_config(epochs=0)
    with pytest.raises(KgcError):
        small_config(peak_lr=0.0)
    with pytest.raises(KgcError):
        small_config(dropout=1.0)
    with pytest.raises(KgcError):
        small_config(loss_kind="hinge")
    with pytest.raises(KgcError):
        small_config(negatives=frozenset({"ib", "hard"}))
    with pytest.raises(KgcError):
        small_config(negatives=frozenset())
    with pytest.raises(KgcError):
        small_config(negatives=frozenset({"pb"}), pre_batches=2)
    with pytest.raises(KgcError):
        small_config(negatives=frozenset({"ib", "pb"}), pre_batches=0)
    with pytest.raises(KgcError):
        small_config(warmup_steps=-1)
    with pytest.raises(KgcError):
        small_config(grad_clip=0.0)
    with pytest.raises(KgcError):
        small_config(max_negatives=0)


def test_train_config_rejects_a_batch_of_one_without_in_batch_negatives():
    # train skips every batch of fewer than 2 rows, so it would run no step
    for negatives in ({"sn"}, {"ib"}, {"ib", "sn"}):
        with pytest.raises(KgcError, match="batch size must be >= 2, got 1"):
            small_config(batch_size=1, negatives=frozenset(negatives))
    assert small_config(batch_size=2, negatives=frozenset({"sn"})).batch_size == 2


def test_configs_reject_non_finite_floats():
    for value in (math.nan, math.inf, -math.inf):
        for name in ("peak_lr", "grad_clip", "weight_decay", "margin_tau_temperature"):
            with pytest.raises(KgcError, match="must be a finite number"):
                small_config(**{name: value})
        for name in ("additive_margin", "hinge_margin"):
            with pytest.raises(KgcError, match="must be a finite number"):
                LossConfig(**{name: value})


def test_train_config_normalizes_negatives_case():
    cfg = small_config(negatives=frozenset({"IB", "Sn"}))
    assert cfg.negatives == frozenset({"ib", "sn"})


# -- token cache -------------------------------------------------------------


def test_token_cache_holds_one_padded_matrix_per_role(monkeypatch):
    g = chain_graph(4)
    params = fresh_params(buckets=64, max_tokens=6)
    original = enc.tokenize
    hashed = []

    def counted(text, *args):
        hashed.append(text)
        return original(text, *args)

    monkeypatch.setattr(enc, "tokenize", counted)
    cache = build_token_cache(g, params)
    assert len(hashed) == len(set(hashed))  # each distinct text once per call
    first = len(hashed)
    build_token_cache(g, params)
    assert len(hashed) == 2 * first  # nothing is kept between calls

    def row(tokens, i):
        assert not tokens.ids[i, tokens.lengths[i] :].any()  # zero padding
        return tokens.ids[i, : tokens.lengths[i]].tolist()

    triples = g.triples("train")
    assert len(cache.query) == len(cache.tail) == len(cache.head) == len(triples)
    for i, (h, r, t) in enumerate(triples):
        head = original(augment_description(g, h, exclude=t), 64, 6)
        rel = original(g.relation(r).description, 64, 6)
        assert row(cache.query, i) == query_layout(head, rel, 64, 6)
        assert row(cache.tail, i) == original(augment_description(g, t, exclude=h), 64, 6)
        assert row(cache.head, i) == head
    picked = cache[np.array([3, 0])]
    assert row(picked.tail, 0) == row(cache.tail, 3) and row(picked.tail, 1) == row(cache.tail, 0)


def _per_triple_token_cache(g, buckets, max_tokens):
    """The token cache built from one token list per triple and role, padded at the end."""
    heads, relations, tails = [], [], []
    for h, r, t in g.triples("train"):
        heads.append(enc.tokenize(augment_description(g, h, exclude=t), buckets, max_tokens))
        relations.append(enc.tokenize(g.relation(r).description, buckets, max_tokens))
        tails.append(enc.tokenize(augment_description(g, t, exclude=h), buckets, max_tokens))
    queries = [query_layout(h, r, buckets, max_tokens) for h, r in zip(heads, relations)]
    return pad(queries), pad(tails), pad(heads)


@pytest.mark.parametrize("max_tokens", [3, 6, 50])
def test_token_cache_is_byte_identical_to_per_triple_padding(max_tokens):
    for g, buckets in ((chain_graph(5), 64), (synth.pattern_graph(), 512)):
        cache = build_token_cache(g, fresh_params(buckets=buckets, max_tokens=max_tokens))
        reference = _per_triple_token_cache(g, buckets, max_tokens)
        for got, want in zip((cache.query, cache.tail, cache.head), reference):
            assert got.ids.dtype == want.ids.dtype and got.ids.shape == want.ids.shape
            assert got.ids.tobytes() == want.ids.tobytes()
            assert got.lengths.dtype == want.lengths.dtype
            assert got.lengths.tobytes() == want.lengths.tobytes()


# -- run_batch ---------------------------------------------------------------


def test_run_batch_forward_pass_accounting(encoded_rows):
    g = chain_graph(6)
    params = tiny_params(buckets=64, dim=8)
    tokens = build_token_cache(g, params)[:4]
    rows = g.triples("train")[:4]
    rng = np.random.default_rng(0)

    run_batch(g, params, rows, tokens, PreBatchQueue(0), small_config(), rng)
    assert encoded_rows["rows"] == 2 * len(rows)

    encoded_rows["rows"] = 0
    cfg_sn = small_config(negatives=frozenset({"ib", "sn"}))
    run_batch(g, params, rows, tokens, PreBatchQueue(0), cfg_sn, rng)
    assert encoded_rows["rows"] == 3 * len(rows)


def test_run_batch_matches_scalar_cross_check():
    # B=2, in-batch only, no dropout: the whole pipeline in closed form
    g = chain_graph(4)
    params = tiny_params(buckets=64, dim=8)
    cfg = small_config(batch_size=2)
    tokens = build_token_cache(g, params)[:2]
    rows = g.triples("train")[:2]
    rng = np.random.default_rng(0)
    loss, buf, matrix, batch = run_batch(g, params, rows, tokens, PreBatchQueue(0), cfg, rng)

    tau = temperature(params.log_inv_tau)
    scores = batch.hr_embs @ batch.tail_embs.T
    total = 0.0
    for i in range(2):
        logits = []
        for j in range(2):
            s = scores[i, j] - cfg.loss.additive_margin if i == j else scores[i, j]
            if matrix.mask[i, j]:
                logits.append(s / tau)
        pos = (scores[i, i] - cfg.loss.additive_margin) / tau
        total += -(pos - math.log(sum(math.exp(v) for v in logits)))
    assert loss == pytest.approx(total / 2.0, abs=1e-12)


def test_run_batch_requires_rng_for_negative_cap():
    g = chain_graph(6)
    params = tiny_params(buckets=64, dim=8)
    cfg = small_config(max_negatives=2)
    tokens = build_token_cache(g, params)[:4]
    rows = g.triples("train")[:4]
    with pytest.raises(KgcError, match="negative"):
        run_batch(g, params, rows, tokens, PreBatchQueue(0), cfg, np.random.default_rng(0))


# -- train loop --------------------------------------------------------------


def test_train_is_bit_reproducible():
    g = chain_graph(8)
    cfg = small_config(epochs=2)
    runs = []
    for _ in range(2):
        params = fresh_params()
        trained, log = train(g, params, cfg)
        runs.append((trained.hr_table.copy(), trained.tail_table.copy(),
                     trained.log_inv_tau, tuple(log)))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])
    assert runs[0][2] == runs[1][2]
    assert runs[0][3] == runs[1][3]


def test_train_seed_changes_trajectory():
    g = chain_graph(8)
    params_a = fresh_params()
    params_b = fresh_params()
    _, log_a = train(g, params_a, small_config(seed=1, dropout=0.2))
    _, log_b = train(g, params_b, small_config(seed=2, dropout=0.2))
    assert log_a != log_b


def test_train_log_reports_schedule_and_counter():
    g = chain_graph(8)
    params = fresh_params()
    cfg = small_config(warmup_steps=400)
    _, log = train(g, params, cfg)
    assert log[0].startswith("step=0 loss=")
    assert "lr=0.0 " in log[0]  # 0-based schedule: first step trains at lr 0
    assert "fwd=8" in log[0]  # 2 passes per row, batch of 4
    assert all("tau=" in line for line in log)


def test_train_step_count_handles_short_remainder():
    params = fresh_params()
    # 5 train rows -> 10 after augmentation -> 2 full batches + remainder 2
    g = chain_graph(5)
    _, log = train(g, params, small_config(batch_size=4))
    assert len(log) == 3
    # 6 rows -> 12 after augmentation: exactly 3 full batches
    g = chain_graph(6)
    params = fresh_params()
    _, log = train(g, params, small_config(batch_size=4))
    assert len(log) == 3
    # a remainder of 1 cannot form a contrastive batch and is dropped
    g = chain_graph(8)  # 16 rows, batch 5 -> 3 batches, remainder 1 skipped
    params = fresh_params()
    _, log = train(g, params, small_config(batch_size=5))
    assert len(log) == 3


def test_train_loss_decreases_on_repeated_steps():
    g = chain_graph(8)
    cfg = small_config(epochs=25, peak_lr=0.05, warmup_steps=4)
    params = fresh_params()
    _, log = train(g, params, cfg)
    first = float(log[0].split("loss=")[1].split()[0])
    last = float(log[-1].split("loss=")[1].split()[0])
    assert last < first


def test_train_moves_temperature():
    g = chain_graph(8)
    params = fresh_params()
    before = params.log_inv_tau
    trained, _ = train(g, params, small_config(epochs=5, warmup_steps=1))
    assert trained.log_inv_tau != before


def test_train_uses_queue_and_self_negatives():
    g = chain_graph(10)
    cfg = small_config(
        negatives=frozenset({"ib", "pb", "sn"}), pre_batches=2, epochs=2
    )
    params = fresh_params()
    _, log = train(g, params, cfg)
    # 20 augmented rows, batch 4 -> 5 steps/epoch, 3 passes per row
    assert "fwd=12" in log[0]
    assert len(log) == 10


def test_train_rejects_unaugmented_graph():
    g = chain_graph(8, augment=False)
    params = fresh_params()
    with pytest.raises(KgcError, match="inverse"):
        train(g, params, small_config())


def test_train_rejects_tiny_dataset():
    g = make_graph(train=[("a", "r", "b")])  # 2 rows after augmentation is fine
    g = add_inverse_triples(g)
    params = fresh_params()
    train(g, params, small_config())  # 2 rows, batch 4 -> one short batch
    lone = make_graph(train=[])
    with pytest.raises(KgcError):
        train(add_inverse_triples(lone), params, small_config())


def test_train_aborts_on_non_finite_loss():
    g = chain_graph(8)
    params = fresh_params()
    params.hr_table[:] = np.nan
    with pytest.raises(NumericError, match="step 0"):
        train(g, params, small_config())


def test_train_is_byte_identical_to_dense_update(tmp_path, monkeypatch):
    g = synth.pattern_graph()
    cfg = TrainConfig(
        batch_size=64,
        epochs=2,
        peak_lr=0.05,
        warmup_steps=8,
        grad_clip=0.05,
        weight_decay=1e-4,
        dropout=0.1,
        negatives=frozenset({"ib", "pb", "sn"}),
        pre_batches=2,
        seed=19,
    )
    clipped = []
    real_clip = tr.clip_gradients

    def watched_clip(grads, max_norm):
        clipped.append(grads.global_norm() > max_norm)
        return real_clip(grads, max_norm)

    monkeypatch.setattr(tr, "clip_gradients", watched_clip)
    runs = []
    for update in (tr.apply_update, dense_apply_update):
        monkeypatch.setattr(tr, "apply_update", update)
        path = tmp_path / f"{update.__name__}.tsv"
        _, log = train(g, fresh_params(buckets=512, dim=16), cfg, checkpoint_path=str(path))
        runs.append((path.read_bytes(), log))
    assert any(clipped)
    assert runs[0][1] == runs[1][1]
    assert runs[0][0] == runs[1][0]


def test_train_writes_checkpoint_per_epoch(tmp_path):
    g = chain_graph(8)
    params = fresh_params()
    path = tmp_path / "model.tsv"
    trained, _ = train(g, params, small_config(epochs=2), checkpoint_path=str(path))
    assert path.exists()
    loaded = load_checkpoint(str(path))
    assert np.array_equal(loaded.hr_table, trained.hr_table)
    assert np.array_equal(loaded.tail_table, trained.tail_table)
    assert loaded.log_inv_tau == trained.log_inv_tau
