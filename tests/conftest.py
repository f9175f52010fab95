"""Shared builders for graph, dataset-file, and candidate-matrix fixtures."""

import math
from collections import Counter
from itertools import chain

import numpy as np
import pytest

from textkgc import encoder as enc
from textkgc import training as tr
from textkgc.contrastive import IN_BATCH, CandidateMatrix
from textkgc.encoder import EncoderParams, TokenIds, separator_index
from textkgc.errors import NumericError
from textkgc.evaluation import query_vector, rerank_scores
from textkgc.graph import (
    CARDINALITY_THRESHOLD,
    INVERSE_ID_PREFIX,
    SPLITS,
    UNKNOWN_CATEGORY,
    Entity,
    KnowledgeGraph,
    Relation,
    Triple,
    add_inverse_triples,
    k_hop_neighbors,
)
from textkgc.randomness import named_stream


def make_graph(train, valid=(), test=(), descriptions=None, names=None, augment=False, entities=()):
    """Build a KnowledgeGraph from triple id-tuples, declaring ids on the fly;
    ``entities`` declares more, which no triple needs to hold."""
    descriptions = descriptions or {}
    names = names or {}
    ents, rels = set(entities), set()
    for split in (train, valid, test):
        for h, r, t in split:
            ents.update((h, t))
            rels.add(r)
    entities = [Entity(e, names.get(e, e), descriptions.get(e, "")) for e in sorted(ents)]
    relations = [Relation(r, descriptions.get(r, r)) for r in sorted(rels)]
    splits = {
        "train": [Triple(*x) for x in train],
        "valid": [Triple(*x) for x in valid],
        "test": [Triple(*x) for x in test],
    }
    g = KnowledgeGraph(entities, relations, splits)
    return add_inverse_triples(g) if augment else g


def entity_number(g, entity_id):
    """The graph's number of one entity id, as a Python int."""
    return int(g.entity_numbers([entity_id])[0])


def id_queries(g, params, pairs):
    """``query_vector`` of (head id, relation id) pairs, each id numbered first."""
    heads, relations = zip(*pairs)
    return query_vector(g, params, g.entity_numbers(heads), g.relation_numbers(relations))


def reference_splits(splits, augment):
    """Reference ``KnowledgeGraph`` split construction on id strings.

    Each split keeps the first of equal ``Triple``s, in input order; with
    ``augment``, each split is then followed by its mirror ``(t, r', h)``.
    Returns the splits and the counts of the load report.
    """
    out, removed = {}, 0
    for split in SPLITS:
        given = [Triple(*trip) for trip in splits.get(split, ())]
        out[split] = list(dict.fromkeys(given))
        removed += len(given) - len(out[split])
    if augment:
        for split, rows in out.items():
            rows += [Triple(t, INVERSE_ID_PREFIX + r, h) for h, r, t in rows]
    in_splits = Counter(trip for rows in out.values() for trip in rows)
    report = {
        "splits": {split: len(rows) for split, rows in out.items()},
        "duplicates_removed": removed,
        "cross_split_duplicates": sum(1 for count in in_splits.values() if count > 1),
        "unknown_ids": 0,
    }
    return out, report


def reference_category(g, relation_id):
    """Reference relation category: one loop over the train triples.

    Only the triples of the forward relation count; an inverse relation
    takes its forward relation's category, and a relation with no train
    triples is ``UNKNOWN_CATEGORY``.
    """
    rel = g.relation(relation_id)
    if rel.is_inverse:
        rel = g.relation(rel.forward_id)
    heads, tails, count = set(), set(), 0
    for h, r, t in g.triples("train"):
        if r == rel.id:
            heads.add(h)
            tails.add(t)
            count += 1
    if count == 0:
        return UNKNOWN_CATEGORY
    head_side = "n" if count / len(tails) >= CARDINALITY_THRESHOLD else "1"
    tail_side = "n" if count / len(heads) >= CARDINALITY_THRESHOLD else "1"
    return f"{head_side}-{tail_side}"


def write_dataset(dirpath, train, valid, test, entities, relations):
    """Write the five TSV files and return their paths in CLI flag order.

    ``entities``/``relations`` are (id, name, description) rows; a 2-tuple
    writes the short form without the description column.
    """
    paths = []
    for name, rows in (("train", train), ("valid", valid), ("test", test)):
        p = dirpath / f"{name}.tsv"
        p.write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")
        paths.append(str(p))
    for name, rows in (("entities", entities), ("relations", relations)):
        p = dirpath / f"{name}.tsv"
        p.write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")
        paths.append(str(p))
    return paths


def tiny_params(buckets=16, dim=8, seed=0, initial_temperature=0.05):
    return EncoderParams.initialize(buckets, dim, named_stream(seed, "init"), initial_temperature)


def pad(sequences):
    """Token sequences as one ``TokenIds``, each row zero-padded to the longest."""
    lengths = np.fromiter(map(len, sequences), dtype=np.int64, count=len(sequences))
    flat = np.fromiter(chain.from_iterable(sequences), dtype=np.int32, count=int(lengths.sum()))
    return TokenIds.from_flat(flat, lengths)


def query_layout(h_tokens, r_tokens, buckets, max_tokens):
    """Reference query row: head tokens, the separator bucket, then relation
    tokens, cut to ``max_tokens``; ``encoder.token_ids`` must build the same."""
    return (list(h_tokens) + [separator_index(buckets)] + list(r_tokens))[:max_tokens]


def reference_encode_backward(encoding, upstream):
    """Reference ``encoder.encode_backward``: the shares scattered by ``np.add.at``.

    ``np.add.at`` adds the shares one token at a time, in row order and
    then text order; the encoder's scatter must match it bit for bit.
    """
    upstream = np.asarray(upstream, dtype=float)
    output = encoding.output
    live = ~encoding.degenerate
    radial = np.matmul(upstream[:, None, :], output[:, :, None])[:, 0, 0]
    grad_pre = (upstream - radial[:, None] * output) / np.where(live, encoding.norm, 1.0)[:, None]
    per_token = grad_pre * (encoding.scale / np.maximum(encoding.tokens.lengths, 1))[:, None]
    keep = np.ones(encoding.tokens.ids.shape, dtype=bool) if encoding.keep is None else encoding.keep
    rows, cols = np.nonzero(keep & live[:, None])
    ids, slot = np.unique(encoding.tokens.ids[rows, cols], return_inverse=True)
    grads = np.zeros((ids.size, output.shape[1]))
    np.add.at(grads, slot, per_token[rows])
    return ids, grads


def _dense_moments(state, grads, table_name, shape):
    """Step one table's m and v over every row; returns its full Adam update."""
    t = state.step
    bc1 = 1.0 - tr.ADAM_BETA1**t
    bc2 = 1.0 - tr.ADAM_BETA2**t
    ids, rows, m, v = (
        (grads.hr_ids, grads.hr, state.m_hr, state.v_hr)
        if table_name == enc.HR_TABLE
        else (grads.tail_ids, grads.tail, state.m_tail, state.v_tail)
    )
    g = np.zeros(shape)
    g[ids] = rows
    m *= tr.ADAM_BETA1
    m += (1.0 - tr.ADAM_BETA1) * g
    v *= tr.ADAM_BETA2
    v += (1.0 - tr.ADAM_BETA2) * np.square(g)
    return (m / bc1) / (np.sqrt(v / bc2) + tr.ADAM_EPS)


def _dense_temperature_step(params, state, grads, lr):
    bc1 = 1.0 - tr.ADAM_BETA1**state.step
    bc2 = 1.0 - tr.ADAM_BETA2**state.step
    state.m_tau = tr.ADAM_BETA1 * state.m_tau + (1.0 - tr.ADAM_BETA1) * grads.log_inv_tau
    state.v_tau = tr.ADAM_BETA2 * state.v_tau + (1.0 - tr.ADAM_BETA2) * grads.log_inv_tau**2
    params.log_inv_tau -= lr * (state.m_tau / bc1) / (math.sqrt(state.v_tau / bc2) + tr.ADAM_EPS)


def dense_apply_update(params, state, grads, lr, cfg):
    """Reference AdamW step of the scale law over every row of both tables.

    Each table is W = ``state.scale`` · V with V in the params: scatters the
    gradient rows (dL/dW) into a full ``(buckets, d)`` array, steps m, v and
    V -= (lr / scale) · update everywhere, multiplies the scale by
    1 - lr · weight_decay and, when it drops below ``tr.FOLD_BELOW``,
    multiplies both tables by it and resets it to 1.  ``training.apply_update``
    must match it bit for bit.  Leaves ``state.touched_*`` alone.
    """
    state.step += 1
    step = lr / state.scale
    for table_name in (enc.HR_TABLE, enc.TAIL_TABLE):
        table = params.table(table_name)
        with np.errstate(over="ignore", invalid="ignore"):
            table -= step * _dense_moments(state, grads, table_name, table.shape)
    state.scale *= 1.0 - lr * cfg.weight_decay
    if state.scale < tr.FOLD_BELOW:
        with np.errstate(over="ignore", invalid="ignore"):
            params.hr_table *= state.scale
            params.tail_table *= state.scale
        state.scale = 1.0
    for table_name in (enc.HR_TABLE, enc.TAIL_TABLE):
        if not np.isfinite(params.table(table_name)).all():
            raise NumericError(f"non-finite parameter value in {table_name}_table after update")
    _dense_temperature_step(params, state, grads, lr)
    return params, state


def decoupled_dense_update(params, state, grads, lr, cfg):
    """Reference AdamW step of the plain decoupled law over every row: the tables hold W.

    W -= lr · update, then W -= lr · weight_decay · W on every row, every
    step.  ``dense_apply_update`` follows the same law on W = scale · V, so
    the two agree bitwise in m, v and the temperature, and in the tables up to
    rounding (bitwise when weight_decay is 0).  Ignores ``state.scale``.
    """
    state.step += 1
    for table_name in (enc.HR_TABLE, enc.TAIL_TABLE):
        table = params.table(table_name)
        with np.errstate(over="ignore", invalid="ignore"):
            table -= lr * _dense_moments(state, grads, table_name, table.shape)
            if cfg.weight_decay:
                table -= lr * cfg.weight_decay * table
        if not np.isfinite(table).all():
            raise NumericError(f"non-finite parameter value in {table_name}_table after update")
    _dense_temperature_step(params, state, grads, lr)
    return params, state


def optimizer_bytes(params, state):
    """The bytes of both tables, all four moment tables, the temperature and the decay scale."""
    arrays = (params.hr_table, params.tail_table, state.m_hr, state.v_hr, state.m_tail, state.v_tail)
    scalars = np.array([params.log_inv_tau, state.scale])
    return [a.tobytes() for a in arrays] + [scalars.tobytes()]


def reference_rank_chunk(g, idx, triples, queries, rerank):
    """Reference ``evaluation._rank_chunk``: every cell scored by one exact einsum.

    Each head's boost is added to its query's row, filtered candidates are
    dropped by a mask, and ties are bitwise-equal einsum scores; the banded
    ranks must match these bit for bit.
    """
    targets = g.entity_numbers([t for _, _, t in triples])
    heads = g.entity_numbers([h for h, _, _ in triples])
    scores = np.einsum("qj,ij->qi", queries, idx.matrix)
    if rerank is not None and rerank.alpha != 0.0:
        for row, head in enumerate(heads.tolist()):
            scores[row] = rerank_scores(scores[row], k_hop_neighbors(g, head, rerank.hops), rerank.alpha)
    rows = np.arange(len(triples))
    kept = np.ones(scores.shape, dtype=bool)
    kept[g.known_tails(heads, g.relation_numbers([r for _, r, _ in triples]))] = False
    kept[rows, targets] = True
    target_scores = scores[rows, targets][:, None]
    greater = np.count_nonzero(kept & (scores > target_scores), axis=1)
    equal = np.count_nonzero(kept & (scores == target_scores), axis=1)  # includes the target
    return 1.0 + greater + (equal - 1) / 2.0


def plain_matrix(scores, provenance=None, mask=None, sn_column=None):
    """CandidateMatrix from a raw score array; defaults: all-IB, all unmasked."""
    scores = np.asarray(scores, dtype=float)
    B, C = scores.shape
    if provenance is None:
        provenance = np.array([IN_BATCH] * C)
    else:
        provenance = np.asarray(provenance)
    if mask is None:
        mask = np.ones((B, C), dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
    return CandidateMatrix(scores.copy(), mask.copy(), provenance, B, sn_column)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def encoded_rows(monkeypatch):
    """Count the texts encoded through ``forward_hr`` and ``forward_tail``.

    Both are wrapped on the encoder module, which the package calls them
    through; ``encoded_rows["rows"]`` adds up the rows of every call.
    """
    counts = {"rows": 0}
    for name in ("forward_hr", "forward_tail"):
        original = getattr(enc, name)

        def counted(*args, _original=original, **kwargs):
            encoding = _original(*args, **kwargs)
            counts["rows"] += encoding.output.shape[0]
            return encoding

        monkeypatch.setattr(enc, name, counted)
    return counts
