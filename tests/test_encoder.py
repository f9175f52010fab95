"""Tokenizer, embedding-bag encoders, manual backward, checkpoint round trips."""

import math

import numpy as np
import pytest

from textkgc.encoder import (
    CHECKPOINT_MAGIC,
    DEFAULT_MAX_TOKENS,
    EncoderParams,
    GradientBuffer,
    TokenIds,
    combine_query_tokens,
    encode_backward,
    forward_hr,
    forward_tail,
    load_checkpoint,
    save_checkpoint,
    separator_index,
    temperature,
    tokenize,
)
from textkgc.errors import CheckpointError, KgcError, NumericError, UnknownIdError
from textkgc.evaluation import read_embeddings
from textkgc.randomness import fnv1a_64, named_stream

from conftest import make_graph, reference_encode_backward, tiny_params


def encode_tail(params, tokens, dropout=0.0, rng=None):
    """One text's candidate vector, encoded as a batch of one."""
    return forward_tail(params, TokenIds.pad([tokens]), dropout, rng).output[0]


def encode_hr(params, h_tokens, r_tokens):
    """One (head, relation) query vector, encoded as a batch of one."""
    query = combine_query_tokens(h_tokens, r_tokens, params.buckets, params.max_tokens)
    return forward_hr(params, TokenIds.pad([query])).output[0]


def backward_one(params, tokens, upstream):
    """Gradient rows, keyed by bucket, of one text encoded alone on the candidate table."""
    encoding = forward_tail(params, TokenIds.pad([tokens]))
    ids, grads = encode_backward(encoding, np.asarray(upstream, dtype=float)[None, :])
    return encoding, dict(zip(ids.tolist(), grads))


# -- hashing and tokenization ------------------------------------------------


def _fnv_oracle(data: bytes) -> int:
    # independent re-statement of the 64-bit FNV-1a recurrence
    acc = 14695981039346656037
    for byte in data:
        acc ^= byte
        acc = (acc * 1099511628211) % (1 << 64)
    return acc


def test_fnv1a_64_reference_values():
    assert fnv1a_64(b"") == 0xCBF29CE484222325
    for probe in (b"a", b"hello", "naïve".encode("utf-8"), b"x" * 100):
        assert fnv1a_64(probe) == _fnv_oracle(probe)


def test_tokenize_case_folds_and_splits():
    assert tokenize("New York", 100, 50) == tokenize("new york", 100, 50)
    assert len(tokenize("New York", 100, 50)) == 2
    assert tokenize("", 100, 50) == []
    assert tokenize("  \t \n ", 100, 50) == []


def test_tokenize_truncates_to_max_tokens():
    text = " ".join(f"tok{i}" for i in range(60))
    assert len(tokenize(text, 100, 50)) == 50
    assert tokenize(text, 100, 50) == tokenize(" ".join(text.split()[:50]), 100, 60)
    assert len(tokenize(text, 100, max_tokens=7)) == 7
    assert tokenize(text, 100, 60) == tokenize(text, 100, 61)  # a budget above the length cuts nothing


def test_tokenize_buckets_exclude_separator(rng):
    V = 37
    sep = separator_index(V)
    assert sep == V - 1
    for _ in range(200):
        word = "".join(chr(rng.integers(97, 123)) for _ in range(int(rng.integers(1, 9))))
        (bucket,) = tokenize(word, V, 50)
        assert 0 <= bucket < V - 1
    # hash agrees with the recurrence, modulo the reserved bucket
    assert tokenize("france", V, 50) == [fnv1a_64(b"france") % (V - 1)]


def test_tokenize_validates_arguments():
    with pytest.raises(KgcError):
        tokenize("x", 1, 50)
    with pytest.raises(KgcError):
        tokenize("x", 100, max_tokens=0)


def test_named_streams_are_independent():
    a = named_stream(7, "init").random(4)
    b = named_stream(7, "shuffle").random(4)
    a2 = named_stream(7, "init").random(4)
    assert np.array_equal(a, a2)
    assert not np.array_equal(a, b)


# -- forward passes ----------------------------------------------------------


def test_initialize_shapes_and_ranges():
    p = tiny_params(buckets=16, dim=8, seed=3)
    assert p.hr_table.shape == (16, 8) and p.tail_table.shape == (16, 8)
    assert np.abs(p.hr_table).max() <= 0.05 and np.abs(p.tail_table).max() <= 0.05
    assert not np.array_equal(p.hr_table, p.tail_table)
    assert math.isclose(temperature(p.log_inv_tau), 0.05, rel_tol=1e-12)


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, 5e-324])
def test_initialize_rejects_temperatures_without_a_finite_log(value):
    # 1 / 5e-324 overflows to inf, so its log would be infinite too
    with pytest.raises(KgcError, match="temperature must be a finite number > 0"):
        tiny_params(initial_temperature=value)
    assert math.isfinite(tiny_params(initial_temperature=1e-300).log_inv_tau)


@pytest.mark.parametrize("budget", [0, -3])
def test_every_construction_rejects_a_token_budget_below_one(budget):
    with pytest.raises(KgcError, match=f"token budget must be >= 1, got {budget}"):
        EncoderParams.initialize(4, 2, named_stream(0, "init"), max_tokens=budget)
    p = tiny_params(buckets=4, dim=2)
    with pytest.raises(KgcError, match=f"token budget must be >= 1, got {budget}"):
        EncoderParams(p.hr_table, p.tail_table, p.log_inv_tau, budget)
    assert p.max_tokens == DEFAULT_MAX_TOKENS and p.copy().max_tokens == DEFAULT_MAX_TOKENS
    assert EncoderParams(p.hr_table, p.tail_table, p.log_inv_tau, 1).copy().max_tokens == 1


def test_encode_tail_of_identical_rows_is_direction():
    p = tiny_params(buckets=8, dim=4)
    v = np.array([3.0, 0.0, 4.0, 0.0])
    p.tail_table[:] = v
    out = encode_tail(p, [1, 5, 2])
    assert np.allclose(out, v / 5.0, atol=1e-12)


def test_encoder_outputs_unit_norm(rng):
    for _ in range(100):
        p = tiny_params(buckets=12, dim=int(rng.integers(2, 17)), seed=int(rng.integers(1 << 30)))
        toks = [int(rng.integers(0, 11)) for _ in range(int(rng.integers(1, 8)))]
        out = encode_tail(p, toks)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-6


def test_empty_sequence_yields_basis_fallback():
    p = tiny_params(buckets=8, dim=5)
    out = encode_tail(p, [])
    assert np.array_equal(out, np.array([1.0, 0, 0, 0, 0]))
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-6


def test_eval_mode_is_pure():
    p = tiny_params(buckets=10, dim=6)
    a = encode_hr(p, [1, 2, 3], [4, 5])
    b = encode_hr(p, [1, 2, 3], [4, 5])
    assert np.array_equal(a, b)


def test_combined_query_length_and_separator():
    V = 64
    combined = combine_query_tokens([1, 2, 3], [4, 5], V, 50)
    assert len(combined) == 6
    assert combined == [1, 2, 3, separator_index(V), 4, 5]
    truncated = combine_query_tokens(list(range(48)), [60, 61, 62], V, max_tokens=50)
    assert truncated == list(range(48)) + [separator_index(V), 60]


def test_relation_awareness():
    p = tiny_params(buckets=32, dim=16, seed=11)
    h = tokenize("paris", 32, p.max_tokens)
    r1 = tokenize("capital of", 32, p.max_tokens)
    r2 = tokenize("largest city of", 32, p.max_tokens)
    assert not np.allclose(encode_hr(p, h, r1), encode_hr(p, h, r2), atol=1e-6)


def test_token_bucket_range_checked():
    p = tiny_params(buckets=8, dim=4)
    with pytest.raises(KgcError):
        encode_tail(p, [8])
    with pytest.raises(KgcError):
        encode_tail(p, [-1])


# -- dropout -----------------------------------------------------------------


def test_dropout_requires_generator_and_valid_rate():
    p = tiny_params()
    with pytest.raises(KgcError):
        encode_tail(p, [1], dropout=0.5)
    with pytest.raises(KgcError):
        encode_tail(p, [1], dropout=1.0, rng=np.random.default_rng(0))


def test_dropout_mask_recorded_and_scaled(rng):
    p = tiny_params(buckets=10, dim=6, seed=2)
    toks = [1, 2, 3, 4, 5, 6]
    seen_drop = False
    for _ in range(50):
        rec = forward_tail(p, TokenIds.pad([toks]), dropout=0.4, rng=rng)
        assert rec.scale == pytest.approx(1.0 / 0.6)
        kept = rec.keep[0]
        if rec.degenerate[0]:
            assert not kept.any()
            continue
        seen_drop = seen_drop or not kept.all()
        manual = (p.tail_table[toks] * kept[:, None]).sum(axis=0) * (rec.scale / len(toks))
        assert np.allclose(rec.pre_norm[0], manual, atol=1e-15)
        assert np.allclose(rec.output[0], manual / np.linalg.norm(manual), atol=1e-12)
    assert seen_drop


def test_all_rows_dropped_is_degenerate():
    p = tiny_params(buckets=8, dim=4)

    class AlwaysDrop:
        def random(self, n):
            return np.zeros(n)

    rec = forward_tail(p, TokenIds.pad([[1, 2]]), dropout=0.9, rng=AlwaysDrop())
    assert rec.degenerate[0]
    assert np.array_equal(rec.output[0], np.array([1.0, 0, 0, 0]))


# -- manual backward ---------------------------------------------------------


def test_backward_zero_upstream_is_empty():
    p = tiny_params(buckets=8, dim=4)
    rec = forward_tail(p, TokenIds.pad([[1, 2, 3]]))
    ids, grads = encode_backward(rec, np.zeros((1, 4)))
    assert ids.tolist() == [1, 2, 3]
    assert np.allclose(grads, 0)
    assert GradientBuffer(ids, grads, ids, grads).global_norm() == 0.0


def test_backward_radial_component_is_killed():
    p = tiny_params(buckets=8, dim=4, seed=5)
    rec = forward_tail(p, TokenIds.pad([[1, 2, 3]]))
    _, grads = encode_backward(rec, 3.7 * rec.output)
    for g in grads:
        assert np.abs(g).max() <= 1e-10


def test_backward_gradient_orthogonal_to_preactivation(rng):
    for _ in range(30):
        p = tiny_params(buckets=10, dim=8, seed=int(rng.integers(1 << 30)))
        toks = sorted(set(int(rng.integers(0, 9)) for _ in range(5)))
        rec, grads = backward_one(p, toks, rng.normal(size=8))
        for g in grads.values():
            assert abs(float(g @ rec.pre_norm[0])) <= 1e-10


def test_backward_degenerate_contributes_nothing():
    p = tiny_params(buckets=8, dim=4)
    _, grads = backward_one(p, [], np.ones(4))
    assert not grads


def test_backward_shape_mismatch_rejected():
    p = tiny_params(buckets=8, dim=4)
    rec = forward_tail(p, TokenIds.pad([[1]]))
    with pytest.raises(KgcError):
        encode_backward(rec, np.ones((1, 5)))
    with pytest.raises(KgcError):
        encode_backward(rec, np.ones((2, 4)))


def test_backward_matches_finite_differences(rng):
    step = 1e-4
    for trial in range(100):
        seed = int(rng.integers(1 << 30))
        local = np.random.default_rng(seed)
        buckets = int(local.integers(4, 12))
        dim = int(local.integers(2, 17))
        p = tiny_params(buckets=buckets, dim=dim, seed=seed)
        toks = [int(local.integers(0, buckets - 1)) for _ in range(int(local.integers(1, 7)))]
        upstream = local.normal(size=dim)

        _, grads = backward_one(p, toks, upstream)
        for bucket in set(toks):
            analytic = grads[bucket]
            for j in range(dim):
                orig = p.tail_table[bucket, j]
                p.tail_table[bucket, j] = orig + step
                hi = float(upstream @ encode_tail(p, toks))
                p.tail_table[bucket, j] = orig - step
                lo = float(upstream @ encode_tail(p, toks))
                p.tail_table[bucket, j] = orig
                fd = (hi - lo) / (2 * step)
                denom = max(abs(analytic[j]), abs(fd), 1e-6)
                assert abs(analytic[j] - fd) / denom <= 1e-4, (trial, bucket, j)


def test_repeated_tokens_accumulate_gradient():
    p = tiny_params(buckets=8, dim=4, seed=9)
    _, single = backward_one(p, [3, 5], np.ones(4))
    _, doubled = backward_one(p, [3, 3, 5, 5], np.ones(4))
    # same pooled value, so the same upstream splits over twice the rows
    assert np.allclose(doubled[3], single[3], atol=1e-12)


# -- batches against a per-text reference ------------------------------------


def reference_forward(table, tokens, dropout, rng):
    """One text on its own: mean of its kept rows, scaled, L2-normalized.

    Returns the output and, unless the text is degenerate, what the
    backward pass needs: (keep, scale, norm).
    """
    fallback = np.zeros(table.shape[1])
    fallback[0] = 1.0
    toks = np.asarray(tokens, dtype=np.int64)
    if toks.size == 0:
        return fallback, None
    keep = rng.random(toks.size) >= dropout if dropout else np.ones(toks.size, dtype=bool)
    scale = 1.0 / (1.0 - dropout)
    pooled = (table[toks] * keep[:, None]).sum(axis=0) * (scale / toks.size)
    norm = float(np.linalg.norm(pooled))
    if norm == 0.0:
        return fallback, None
    return pooled / norm, (keep, scale, norm)


def reference_backward(tokens, state, output, upstream, grads):
    """Add one text's table-row gradients into ``grads`` (bucket -> row), token by token."""
    if state is None:
        return
    keep, scale, norm = state
    grad_pre = (upstream - float(upstream @ output) * output) / norm
    per_row = grad_pre * (scale / len(tokens))
    for token, kept in zip(tokens, keep):
        if kept:
            grads[token] = grads[token] + per_row if token in grads else per_row.copy()


def random_texts(local, count, buckets):
    texts = []
    for _ in range(count):
        n = int(local.integers(0, 9))
        # a small alphabet makes repeated tokens common, within and across texts
        texts.append([int(t) for t in local.integers(0, min(buckets - 1, 6), size=n)])
    return texts


def test_batched_forward_and_backward_match_per_text_reference(rng):
    seen = {"empty": 0, "all_dropped": 0, "repeated": 0, "dropped_some": 0}
    for trial in range(120):
        seed = int(rng.integers(1 << 30))
        local = np.random.default_rng(seed)
        buckets, dim = int(local.integers(8, 20)), int(local.choice([2, 4, 8, 16]))
        p = tiny_params(buckets=buckets, dim=dim, seed=seed)
        texts = random_texts(local, int(local.integers(1, 12)), buckets)
        dropout = float(local.choice([0.0, 0.3, 0.9]))
        upstream = local.normal(size=(len(texts), dim))
        for forward, table in ((forward_hr, p.hr_table), (forward_tail, p.tail_table)):
            drng = np.random.default_rng(seed) if dropout else None
            rec = forward(p, TokenIds.pad(texts), dropout, drng)
            ids, grads = encode_backward(rec, upstream)

            ref_rng = np.random.default_rng(seed)
            ref_grads = {}
            for i, text in enumerate(texts):
                out, state = reference_forward(table, text, dropout, ref_rng)
                assert np.abs(rec.output[i] - out).max() <= 1e-12, (trial, i)
                assert bool(rec.degenerate[i]) == (state is None)
                reference_backward(text, state, out, upstream[i], ref_grads)
                seen["empty"] += not text
                seen["all_dropped"] += bool(text) and state is None
                seen["repeated"] += len(set(text)) < len(text)
                seen["dropped_some"] += state is not None and not state[0].all()
            assert ids.tolist() == sorted(ref_grads)
            for bucket, row in zip(ids.tolist(), grads):
                assert np.abs(row - ref_grads[bucket]).max() <= 1e-12, (trial, bucket)
    assert all(count > 0 for count in seen.values()), seen


def test_rows_encode_bitwise_alike_alone_and_in_any_batch(rng):
    p = tiny_params(buckets=64, dim=16, seed=4)
    texts = [[int(t) for t in rng.integers(0, 63, size=int(rng.integers(0, 13)))] for _ in range(40)]
    texts[3] = []
    whole = TokenIds.pad(texts)
    for forward in (forward_hr, forward_tail):
        alone = np.stack([forward(p, TokenIds.pad([text])).output[0] for text in texts])
        assert forward(p, whole).output.tobytes() == alone.tobytes()
        for start in range(0, len(texts), 7):  # chunks trimmed to their longest row
            chunk = forward(p, whole[start : start + 7]).output
            assert chunk.tobytes() == alone[start : start + 7].tobytes()
        for _ in range(5):
            rows = rng.permutation(len(texts))[: int(rng.integers(1, len(texts)))]
            picked = forward(p, whole[rows]).output
            assert picked.tobytes() == alone[rows].tobytes()
        joined = forward(p, TokenIds.concat([whole[:10], whole[25:]])).output
        assert joined.tobytes() == np.vstack([alone[:10], alone[25:]]).tobytes()


# -- the scatter against np.add.at -------------------------------------------


def assert_backward_matches_add_at(encoding, upstream):
    ids, grads = encode_backward(encoding, upstream)
    ref_ids, ref_grads = reference_encode_backward(encoding, upstream)
    assert ids.tobytes() == ref_ids.tobytes()
    assert grads.dtype == ref_grads.dtype and grads.shape == ref_grads.shape
    assert grads.tobytes() == ref_grads.tobytes()
    return ids, grads


def test_backward_scatter_matches_add_at_bitwise(rng):
    p = tiny_params(buckets=12, dim=5, seed=8)
    sep = separator_index(p.buckets)
    cases = {
        "repeat in a row": [[3, 3, 7, 3], [1, 2]],
        "separator in every row": [
            combine_query_tokens(h, r, p.buckets, p.max_tokens)
            for h, r in ([[1, 2], [4]], [[2], [4]], [[], [5, 1]])
        ],
        "degenerate and empty rows": [[], [4, 4], [], [6]],
        "all empty": [[], []],
    }
    assert all(sep in row for row in cases["separator in every row"])
    for name, texts in cases.items():
        for dropout in (0.0, 0.5):
            for forward in (forward_hr, forward_tail):
                drng = np.random.default_rng(3) if dropout else None
                encoding = forward(p, TokenIds.pad(texts), dropout, drng)
                upstream = rng.normal(size=encoding.output.shape) * 10.0 ** rng.integers(-8, 9)
                upstream[:, 1] = -0.0  # signed zeros upstream
                assert_backward_matches_add_at(encoding, upstream)
    empty = forward_tail(p, TokenIds.pad([[], []]))
    ids, grads = assert_backward_matches_add_at(empty, np.ones((2, 5)))
    assert ids.size == 0 and grads.shape == (0, 5)


def test_backward_scatter_adds_shares_in_row_order():
    # three one-token rows on one bucket, each with pooled output e0, so the
    # shares reach the bucket unrounded: 1.0, 1e16 and -1e16 in column 1
    p = tiny_params(buckets=8, dim=2)
    p.tail_table[5] = [1.0, 0.0]
    encoding = forward_tail(p, TokenIds.pad([[5], [5], [5]]))
    upstream = np.array([[0.0, 1.0], [0.0, 1e16], [-0.0, -1e16]])
    ids, grads = assert_backward_matches_add_at(encoding, upstream)
    assert ids.tolist() == [5]
    assert grads[0, 1] == (1.0 + 1e16) + -1e16 == 0.0
    assert 1.0 + (1e16 + -1e16) == 1.0  # another order gives other bits


def test_gradient_buffer_norm_scale_and_finite_check():
    buf = GradientBuffer(np.array([1]), np.array([[3.0, 0.0]]), np.array([2]), np.array([[0.0, 4.0]]))
    assert buf.global_norm() == pytest.approx(5.0)
    buf.scale_(0.5)
    assert buf.global_norm() == pytest.approx(2.5)
    buf.tail[0] += np.array([np.inf, 0.0])
    with pytest.raises(NumericError, match=r"tail_table\[2\]"):
        buf.assert_finite()
    empty = (np.zeros(0, dtype=np.int64), np.zeros((0, 2)))
    bad_tau = GradientBuffer(*empty, *empty, log_inv_tau=float("nan"))
    with pytest.raises(NumericError, match="log_inv_tau"):
        bad_tau.assert_finite()


# -- checkpoints -------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    p = tiny_params(buckets=6, dim=3, seed=13)
    p.log_inv_tau = 2.9957
    path = str(tmp_path / "ck.tsv")
    save_checkpoint(p, path)
    loaded = load_checkpoint(path)
    assert np.array_equal(loaded.hr_table, p.hr_table)
    assert np.array_equal(loaded.tail_table, p.tail_table)
    assert loaded.log_inv_tau == p.log_inv_tau
    assert loaded.max_tokens == p.max_tokens == DEFAULT_MAX_TOKENS
    save_checkpoint(loaded, str(tmp_path / "ck2.tsv"))
    assert (tmp_path / "ck.tsv").read_bytes() == (tmp_path / "ck2.tsv").read_bytes()


@pytest.mark.parametrize("budget", [1, 7, 10**6])
def test_checkpoint_round_trip_keeps_the_token_budget(tmp_path, budget):
    p = EncoderParams.initialize(6, 3, named_stream(13, "init"), max_tokens=budget)
    path = str(tmp_path / "ck.tsv")
    save_checkpoint(p, path)
    loaded = load_checkpoint(path)
    assert loaded.max_tokens == p.max_tokens == budget
    assert np.array_equal(loaded.hr_table, p.hr_table) and np.array_equal(loaded.tail_table, p.tail_table)


def test_checkpoint_failed_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "ck.tsv"
    save_checkpoint(tiny_params(buckets=6, dim=3, seed=1), str(path))
    before = path.read_bytes()

    class DiskFull:
        def __float__(self):
            raise OSError("No space left on device")

    p = tiny_params(buckets=6, dim=3, seed=2)
    p.tail_table = p.tail_table.astype(object)
    p.tail_table[4, 1] = DiskFull()  # the write fails after the hr table
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(p, str(path))
    assert path.read_bytes() == before
    assert sorted(f.name for f in tmp_path.iterdir()) == ["ck.tsv"]


def test_checkpoint_header_layout(tmp_path):
    p = tiny_params(buckets=4, dim=2)
    path = tmp_path / "ck.tsv"
    save_checkpoint(p, str(path))
    lines = path.read_text().splitlines()
    assert CHECKPOINT_MAGIC == "kgc-enc v2"
    assert lines[0] == f"kgc-enc v2 4 2 {DEFAULT_MAX_TOKENS}"  # magic, buckets, dim, token budget
    assert len(lines) == 1 + 4 + 4 + 1
    assert lines[-1].startswith("log_inv_tau ")
    save_checkpoint(EncoderParams(p.hr_table, p.tail_table, p.log_inv_tau, 6), str(path))
    assert path.read_text().splitlines() == ["kgc-enc v2 4 2 6", *lines[1:]]  # only line 1 differs


def test_checkpoint_corrupt_header(tmp_path):
    path = tmp_path / "ck.tsv"
    path.write_text("kgc-enc v2 4 2\n")  # the budget field missing
    with pytest.raises(CheckpointError, match="header"):
        load_checkpoint(str(path))
    path.write_text("kgc-enc v2 4\n")
    with pytest.raises(CheckpointError, match="header"):
        load_checkpoint(str(path))
    path.write_text("kgc-enc v2 1 2 50\n")
    with pytest.raises(CheckpointError, match="header"):
        load_checkpoint(str(path))


@pytest.mark.parametrize(
    "header",
    [
        "kgc-enc v2 4 2 0",  # a budget of 0
        "kgc-enc v2 4 2 -5",
        "kgc-enc v2 4 2 6.5",  # a budget that is not an integer
        "kgc-enc v2 4 2 six",
        "kgc-enc v2 4 2",  # the budget field missing
        "kgc-enc v2 4 2 ",
        "kgc-enc v1 4 2",  # the v1 layout: its files are not read
        "kgc-enc v1 4 2 50",
        "kgc-enc v3 4 2 50",
        "kgc-enc v2 1 2 50",
        "kgc-enc v2 4 0 50",
    ],
)
def test_checkpoint_header_faults_are_named_at_line_one(tmp_path, header):
    path = tmp_path / "ck.tsv"
    save_checkpoint(tiny_params(buckets=4, dim=2), str(path))
    body = path.read_text().split("\n", 1)[1]
    path.write_text(f"{header}\n{body}")
    with pytest.raises(CheckpointError, match=f"ck.tsv:1: bad checkpoint header: '{header}'"):
        load_checkpoint(str(path))
    path.write_text(f"{header}\n")
    with pytest.raises(CheckpointError, match="ck.tsv:1: bad checkpoint header"):
        load_checkpoint(str(path))


def test_checkpoint_body_errors_carry_line_numbers(tmp_path):
    p = tiny_params(buckets=3, dim=2, seed=1)
    path = tmp_path / "ck.tsv"
    save_checkpoint(p, str(path))
    lines = path.read_text().splitlines()

    bad = list(lines)
    bad[2] = "0.5"  # wrong arity on hr row 2
    path.write_text("\n".join(bad) + "\n")
    with pytest.raises(CheckpointError, match=":3"):
        load_checkpoint(str(path))

    bad = list(lines)
    bad[4] = "0.5 oops"
    path.write_text("\n".join(bad) + "\n")
    with pytest.raises(CheckpointError, match="float"):
        load_checkpoint(str(path))

    path.write_text("\n".join(lines[:-1]) + "\n")  # temperature line missing
    with pytest.raises(CheckpointError, match="log_inv_tau"):
        load_checkpoint(str(path))

    path.write_text("\n".join(lines) + "\nextra\n")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(str(path))

    path.write_text(lines[0] + "\n")
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(str(path))


def test_checkpoint_errors_name_path_and_line(tmp_path):
    p = tiny_params(buckets=3, dim=2, seed=1)
    path = tmp_path / "ck.tsv"
    save_checkpoint(p, str(path))
    good = path.read_bytes()
    lines = good.split(b"\n")
    # a header claiming far more values than the file holds is rejected
    # before any table is allocated
    path.write_bytes(b"kgc-enc v2 99999999999999 8 50\n" + b"\n".join(lines[1:]))
    with pytest.raises(CheckpointError, match="ck.tsv:1: bad checkpoint header"):
        load_checkpoint(str(path))
    path.write_bytes(b"\n".join(lines[:5] + [lines[5] + b"\xff"] + lines[6:]))
    with pytest.raises(CheckpointError, match="ck.tsv:6: not valid UTF-8"):
        load_checkpoint(str(path))
    path.write_bytes(good + b"extra\n")
    with pytest.raises(CheckpointError, match="ck.tsv:9: trailing data"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_checkpoint_rejects_non_finite_values(tmp_path, value):
    p = tiny_params(buckets=3, dim=2, seed=1)
    path = tmp_path / "ck.tsv"
    save_checkpoint(p, str(path))
    lines = path.read_text().splitlines()
    # line 3 is hr row 1, line 6 is tail row 1, line 8 the temperature
    for lineno, replacement in ((3, f"0.5 {value}"), (6, f"{value} 0.5"), (8, f"log_inv_tau {value}")):
        bad = list(lines)
        bad[lineno - 1] = replacement
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(CheckpointError, match=f"ck.tsv:{lineno}: non-finite"):
            load_checkpoint(str(path))


# -- precomputed vectors -----------------------------------------------------


def test_precomputed_loads_unit_vectors(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text("a\t1.0 0.0\nb\t0.0 -1.0\n")
    idx = read_embeddings(make_graph(train=[("a", "r", "b")]), str(path))
    assert idx.matrix.shape == (2, 2)
    assert np.array_equal(idx.matrix[1], np.array([0.0, -1.0]))
    assert idx.entity_ids == ["a", "b"]
    assert idx.forward_passes == 0
    with pytest.raises(UnknownIdError, match="zzz"):
        read_embeddings(make_graph(train=[("a", "r", "zzz")]), str(path))


def test_precomputed_rejects_bad_rows(tmp_path):
    g = make_graph(train=[("a", "r", "b")])
    path = tmp_path / "emb.tsv"
    path.write_text("a\t0.5 0.5\n")  # not unit
    with pytest.raises(CheckpointError, match="unit"):
        read_embeddings(g, str(path))
    path.write_text("a\t1.0 0.0\nb\t1.0\n")
    with pytest.raises(CheckpointError, match="dimension"):
        read_embeddings(g, str(path))
    path.write_text("")
    with pytest.raises(CheckpointError, match="no vectors"):
        read_embeddings(g, str(path))
    path.write_text("a only spaces no tab\n")
    with pytest.raises(CheckpointError):
        read_embeddings(g, str(path))
    path.write_text("a\t1.0 0.0\nb\tnan nan\n")  # nan passes a tolerance test on the norm
    with pytest.raises(CheckpointError, match="emb.tsv:2: vector for 'b' is not a finite unit"):
        read_embeddings(g, str(path))
    path.write_text("a\t1.0 0.0\nb\t0.0 1.0\na\t0.0 -1.0\n")
    with pytest.raises(CheckpointError, match="emb.tsv:3: duplicate entity id 'a'"):
        read_embeddings(g, str(path))
    path.write_bytes(b"a\t1.0 0.0\n\nb\x80\t0.0 1.0\n")
    with pytest.raises(CheckpointError, match="emb.tsv:3: not valid UTF-8"):
        read_embeddings(g, str(path))
