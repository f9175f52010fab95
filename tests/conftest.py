"""Shared builders for graph, dataset-file, and candidate-matrix fixtures."""

import math
from itertools import chain

import numpy as np
import pytest

from textkgc import encoder as enc
from textkgc import training as tr
from textkgc.contrastive import IN_BATCH, CandidateMatrix
from textkgc.encoder import EncoderParams, TokenIds, separator_index
from textkgc.errors import NumericError
from textkgc.graph import Entity, KnowledgeGraph, Relation, Triple, add_inverse_triples
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


def dense_apply_update(params, state, grads, lr, cfg):
    """Reference AdamW step over every row of both tables.

    Scatters the gradient rows into a full ``(buckets, d)`` array and steps
    m, v and the table everywhere; ``training.apply_update`` must match it
    bit for bit.  Leaves ``state.touched_*`` alone.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - tr.ADAM_BETA1**t
    bc2 = 1.0 - tr.ADAM_BETA2**t
    for table_name, ids, rows, m, v in (
        (enc.HR_TABLE, grads.hr_ids, grads.hr, state.m_hr, state.v_hr),
        (enc.TAIL_TABLE, grads.tail_ids, grads.tail, state.m_tail, state.v_tail),
    ):
        table = params.table(table_name)
        g = np.zeros(table.shape)
        g[ids] = rows
        with np.errstate(over="ignore", invalid="ignore"):
            m *= tr.ADAM_BETA1
            m += (1.0 - tr.ADAM_BETA1) * g
            v *= tr.ADAM_BETA2
            v += (1.0 - tr.ADAM_BETA2) * np.square(g)
            update = (m / bc1) / (np.sqrt(v / bc2) + tr.ADAM_EPS)
            table -= lr * update
            if cfg.weight_decay:
                table -= lr * cfg.weight_decay * table
        if not np.isfinite(table).all():
            raise NumericError(f"non-finite parameter value in {table_name}_table after update")
    state.m_tau = tr.ADAM_BETA1 * state.m_tau + (1.0 - tr.ADAM_BETA1) * grads.log_inv_tau
    state.v_tau = tr.ADAM_BETA2 * state.v_tau + (1.0 - tr.ADAM_BETA2) * grads.log_inv_tau**2
    params.log_inv_tau -= lr * (state.m_tau / bc1) / (math.sqrt(state.v_tau / bc2) + tr.ADAM_EPS)
    return params, state


def optimizer_bytes(params, state):
    """The bytes of both tables, all four moment tables and the temperature."""
    arrays = (params.hr_table, params.tail_table, state.m_hr, state.v_hr, state.m_tail, state.v_tail)
    return [a.tobytes() for a in arrays] + [np.float64(params.log_inv_tau).tobytes()]


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
