"""End-to-end acceptance checks, one numbered PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see every line; each
test also asserts its condition so the suite fails loudly under plain
pytest.  The slowest pieces (the two synthetic-KG training grids)
are shared through module-scoped fixtures.
"""

import json
import time

import numpy as np
import pytest

import synth
from conftest import entity_number, id_queries, make_graph, write_dataset
from textkgc import encoder as enc
from textkgc.cli import EXIT_OK, main
from textkgc.contrastive import PreBatchQueue, TrainingBatch, assemble_candidates
from textkgc.encoder import EncoderParams
from textkgc.evaluation import (
    RerankConfig,
    build_index,
    evaluate,
    predict_topk,
    rank_one,
    rerank_scores,
)
from textkgc.graph import (
    Entity,
    KnowledgeGraph,
    Relation,
    Triple,
    add_inverse_triples,
    k_hop_neighbors,
)
from textkgc.randomness import named_stream
from textkgc.training import TrainConfig, build_token_cache, run_batch, train


def _check(num, label, ok, detail=""):
    line = f"[{num:2d}] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _train_and_eval(g, *, loss="infonce", cap=None, epochs=40, dim=32,
                    negatives=frozenset({"ib"}), lr=0.05, seed=42):
    cfg = TrainConfig(
        batch_size=64,
        epochs=epochs,
        peak_lr=lr,
        warmup_steps=100,
        dropout=0.0,
        loss_kind=loss,
        negatives=negatives,
        pre_batches=0,
        max_negatives=cap,
        seed=seed,
    )
    params = EncoderParams.initialize(8192, dim, named_stream(seed, "init"))
    params, _ = train(g, params, cfg)
    idx = build_index(g, params)
    return params, idx, evaluate(g, idx, params)


@pytest.fixture(scope="module")
def pattern_g():
    return synth.pattern_graph()


@pytest.fixture(scope="module")
def loss_grid(pattern_g):
    """Six short runs over loss kind x usable-negative cap, shared by 5 and 6."""
    grid = {}
    for loss, cap in (
        ("infonce", 63),
        ("infonce", 15),
        ("infonce", 5),
        ("margin", 5),
        ("margin", 63),
        ("margin_tau", 63),
    ):
        _, _, res = _train_and_eval(pattern_g, loss=loss, cap=cap, epochs=6, dim=8)
        grid[(loss, cap)] = res.overall["mrr"]
    return grid


# -- 1: pipeline gradients ----------------------------------------------------

FD_STEP = 1e-4
GRAD_FLOOR = 1e-2  # only coordinates with a gradient this large are rated
KINK_GUARD = 5e-3  # skip hinge instances whose margin terms sit on the kink


def _instance(k):
    """One random micro-batch: graph, rows, tokens, queue, and config."""
    rng = np.random.default_rng(5000 + k)
    dim = int(rng.choice([4, 8, 16]))
    B = int(rng.choice([2, 4, 8]))
    loss = ("infonce", "margin", "margin_tau")[k % 3]
    sources = ({"ib"}, {"ib", "sn"}, {"ib", "pb"}, {"ib", "pb", "sn"})[(k // 3) % 4]
    P = int(rng.integers(1, 3)) if "pb" in sources else 0

    vocab = [f"w{i}" for i in range(12)]
    ents = [f"a{i}" for i in range(10)]
    rels = ["q0", "q1", "q2"]
    descs = {e: " ".join(rng.choice(vocab, size=rng.integers(3, 6))) for e in ents}
    descs.update({r: " ".join(rng.choice(vocab, size=rng.integers(1, 3))) for r in rels})
    triples = set()
    while len(triples) < B:
        triples.add((str(rng.choice(ents)), str(rng.choice(rels)), str(rng.choice(ents))))
    queued = ents + ["z0", "z1", "z2"]  # pre-batch ids, some of them in no triple
    g = make_graph(sorted(triples), descriptions=descs, entities=queued)

    cfg = TrainConfig(
        batch_size=B,
        epochs=1,
        peak_lr=0.01,
        warmup_steps=0,
        dropout=0.2 if k % 2 else 0.0,
        loss_kind=loss,
        negatives=frozenset(sources),
        pre_batches=P,
        seed=int(k),
    )
    # wider-than-default tables keep the normalization step well-conditioned,
    # so the finite-difference truncation error stays far below the tolerance
    params = EncoderParams(
        rng.uniform(-0.5, 0.5, size=(48, dim)),
        rng.uniform(-0.5, 0.5, size=(48, dim)),
        float(rng.uniform(2.0, 3.5)),
    )
    rows = g.split_array("train")
    tokens = build_token_cache(g, params)

    queue = PreBatchQueue(P * B)
    if P:
        extra = rng.standard_normal((P * B, dim))
        extra /= np.linalg.norm(extra, axis=1, keepdims=True)
        qids = [str(rng.choice(queued)) for _ in range(P * B)]
        queue.push(extra, g.entity_numbers(qids))
    return g, cfg, params, rows, tokens, queue


def _hinge_parts_of(matrix, lam):
    B = matrix.num_in_batch
    idxr = np.arange(B)
    neg_include = matrix.mask.copy()
    neg_include[idxr, idxr] = False
    violation = lam - matrix.scores[idxr, idxr][:, None] + matrix.scores
    return neg_include, violation


def _frozen_weights(matrix, lam, tau):
    neg_include, violation = _hinge_parts_of(matrix, lam)
    active = neg_include & (violation > 0)
    hinged = np.where(active, violation, 0.0)
    w_logits = hinged / tau
    row_max = np.max(w_logits, axis=1, where=neg_include, initial=0.0)
    expv = np.exp(w_logits - row_max[:, None], where=neg_include, out=np.zeros_like(w_logits))
    denom = expv.sum(axis=1)
    return expv / np.where(denom > 0, denom, 1.0)[:, None], neg_include


def _perturbed(params, table, bucket, col, delta):
    hr, tail, lit = params.hr_table.copy(), params.tail_table.copy(), params.log_inv_tau
    if table == "tau":
        lit += delta
    elif table == "hr":
        hr[bucket, col] += delta
    else:
        tail[bucket, col] += delta
    return EncoderParams(hr, tail, lit)


def test_criterion_01_pipeline_gradients():
    started = time.monotonic()
    accepted = 0
    tau_checked = 0
    per_loss = {"infonce": 0, "margin": 0, "margin_tau": 0}
    worst = 0.0

    for k in range(600):
        if accepted >= 110:
            break
        g, cfg, params, rows, tokens, queue = _instance(k)
        use_sn = "sn" in cfg.negatives
        dropout_seed = 7000 + k

        def engine_loss(p):
            loss, _, _, _ = run_batch(
                g, p, rows, tokens, queue, cfg, named_stream(dropout_seed, "dropout")
            )
            return loss

        loss0, buf, matrix, _ = run_batch(
            g, params, rows, tokens, queue, cfg, named_stream(dropout_seed, "dropout")
        )

        if cfg.loss_kind != "infonce":
            neg_include, violation = _hinge_parts_of(matrix, cfg.loss.hinge_margin)
            if neg_include.any() and np.min(np.abs(violation[neg_include])) < KINK_GUARD:
                continue

        if cfg.loss_kind == "margin_tau":
            # the loss treats its softmax weights as constants, so the
            # comparison function must hold them at their base values too
            weights, neg_include = _frozen_weights(
                matrix, cfg.loss.hinge_margin, cfg.margin_tau_temperature
            )
            B = matrix.num_in_batch
            idxr = np.arange(B)

            def scalar_loss(p):
                # one text at a time, drawing dropout in the engine's order:
                # queries, then tails, then heads as candidates
                drng = named_stream(dropout_seed, "dropout")

                def one_by_one(forward, role):
                    singles = [forward(p, role[i : i + 1], cfg.dropout, drng) for i in range(len(role))]
                    return np.vstack([single.output for single in singles])

                hr_embs = one_by_one(enc.forward_hr, tokens.query)
                tail_embs = one_by_one(enc.forward_tail, tokens.tail)
                batch = TrainingBatch(
                    rows=rows,
                    hr_embs=hr_embs,
                    tail_embs=tail_embs,
                    self_embs=one_by_one(enc.forward_tail, tokens.head) if use_sn else None,
                )
                s = assemble_candidates(g, batch, queue, use_sn).scores
                viol = cfg.loss.hinge_margin - s[idxr, idxr][:, None] + s
                hinged = np.where(neg_include & (viol > 0), viol, 0.0)
                return float((weights * hinged).sum(axis=1).mean())

        else:
            scalar_loss = engine_loss

        analytic_rows = {
            (table, bucket): grad
            for table, ids, grads in (("hr", buf.hr_ids, buf.hr), ("tail", buf.tail_ids, buf.tail))
            for bucket, grad in zip(ids.tolist(), grads)
        }
        coords = [
            (table, bucket, col)
            for (table, bucket), grad in analytic_rows.items()
            for col in range(params.dim)
            if abs(grad[col]) >= GRAD_FLOOR
        ]
        rng = np.random.default_rng(9000 + k)
        rng.shuffle(coords)
        coords = coords[:10]
        if cfg.loss_kind == "infonce" and abs(buf.log_inv_tau) >= GRAD_FLOOR:
            coords.append(("tau", 0, 0))
        if len(coords) < 4:
            continue

        for table, bucket, col in coords:
            if table == "tau":
                analytic = buf.log_inv_tau
            else:
                analytic = analytic_rows[(table, bucket)][col]
            plus = scalar_loss(_perturbed(params, table, bucket, col, FD_STEP))
            minus = scalar_loss(_perturbed(params, table, bucket, col, -FD_STEP))
            fd = (plus - minus) / (2 * FD_STEP)
            rel = abs(analytic - fd) / max(abs(analytic), abs(fd))
            worst = max(worst, rel)
            assert rel <= 1e-4, (
                f"instance {k} {cfg.loss_kind} {table}[{bucket},{col}]: "
                f"analytic {analytic!r} vs fd {fd!r} (rel {rel:.2e})"
            )
            if table == "tau":
                tau_checked += 1
        accepted += 1
        per_loss[cfg.loss_kind] += 1

    elapsed = time.monotonic() - started
    ok = (
        accepted >= 100
        and all(per_loss[name] > 0 for name in per_loss)
        and tau_checked > 0
        and elapsed < 60
    )
    _check(
        1,
        "pipeline gradients match central differences",
        ok,
        f"{accepted} instances {per_loss}, {tau_checked} temperature coords, "
        f"worst rel {worst:.2e}, {elapsed:.1f}s",
    )


# -- 2: negative counting ------------------------------------------------------


def test_criterion_02_negative_count_law():
    rng = np.random.default_rng(77)
    dim = 4
    results = {}
    for B in (4, 64, 1024):
        rows = [(f"h{i}", "r", f"t{i}") for i in range(B)]
        g = make_graph(rows, entities=[f"q{j}" for j in range(2 * B)])  # the queue's ids
        hr = rng.standard_normal((B, dim))
        hr /= np.linalg.norm(hr, axis=1, keepdims=True)
        tails = rng.standard_normal((B, dim))
        tails /= np.linalg.norm(tails, axis=1, keepdims=True)
        selfs = rng.standard_normal((B, dim))
        selfs /= np.linalg.norm(selfs, axis=1, keepdims=True)
        for P in (0, 1, 2):
            queue = PreBatchQueue(P * B)
            if P:
                extra = rng.standard_normal((P * B, dim))
                extra /= np.linalg.norm(extra, axis=1, keepdims=True)
                queue.push(extra, g.entity_numbers([f"q{j}" for j in range(P * B)]))
            batch = TrainingBatch(
                rows=g.triple_numbers(rows),
                hr_embs=hr,
                tail_embs=tails,
                self_embs=selfs,
            )
            m = assemble_candidates(g, batch, queue, True)
            counts = m.negatives_per_row()
            assert (counts == (P + 1) * B).all(), (B, P, set(counts.tolist()))
            results[(B, P)] = int(counts[0])
    ok = all(results[(B, P)] == (P + 1) * B for B in (4, 64, 1024) for P in (0, 1, 2))
    ok = ok and results[(1024, 2)] == 3072
    _check(
        2,
        "candidate pool holds (P+1)*B usable negatives",
        ok,
        f"B=1024, P=2 -> {results[(1024, 2)]}",
    )


# -- 3: ranking oracle ---------------------------------------------------------


def _oracle_rank(scores, drop, target_row):
    """Sort-based filtered rank with mean positions over exact ties."""
    target = scores[target_row]
    kept = np.sort(scores[~drop])[::-1]
    above = int(np.searchsorted(-kept, -target, side="left"))
    through = int(np.searchsorted(-kept, -target, side="right"))
    # tied block spans 1-based positions [above+1, through]; the target
    # takes the mean of those positions
    return (above + 1 + through) / 2.0


def test_criterion_03_rank_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(31415)
    vocab = [f"v{i}" for i in range(9)]
    checked = 0
    for _ in range(1000):
        n_e = int(rng.integers(5, 51))
        n_r = int(rng.integers(1, 4))
        ents = [f"e{i}" for i in range(n_e)]
        rels = [f"r{j}" for j in range(n_r)]
        descs = {}
        for i, e in enumerate(ents):
            if i and rng.random() < 0.3:
                descs[e] = descs[ents[rng.integers(0, i)]]  # duplicate text -> exact ties
            else:
                descs[e] = " ".join(rng.choice(vocab, size=rng.integers(1, 4)))
        for r in rels:
            descs[r] = str(rng.choice(vocab))
        def draw(k):
            return [
                (str(rng.choice(ents)), str(rng.choice(rels)), str(rng.choice(ents)))
                for _ in range(k)
            ]
        g = make_graph(draw(int(rng.integers(3, 12))), draw(2), draw(3), descriptions=descs)
        params = EncoderParams.initialize(32, 6, named_stream(int(rng.integers(1 << 30)), "init"))
        idx = build_index(g, params)
        for triple in g.triples("test"):
            got = rank_one(g, idx, params, triple)
            # rank_one's row-wise dot: texts holding the same colliding buckets in
            # another order score an ulp apart, and the oracle must see that too
            q = id_queries(g, params, [(triple.head, triple.relation)])[0]
            scores = np.einsum("ij,j->i", idx.matrix, q)
            drop = np.zeros(len(idx.entity_ids), dtype=bool)
            numbered = sorted(g.entities)  # known_tails counts in sorted-id order
            _, known = g.known_tails(g.entity_numbers([triple.head]), g.relation_numbers([triple.relation]))
            for e in (numbered[n] for n in known.tolist()):
                if e != triple.tail:
                    drop[idx.entity_ids.index(e)] = True
            want = _oracle_rank(scores, drop, idx.entity_ids.index(triple.tail))
            assert got == want, (triple, got, want)
            checked += 1
    elapsed = time.monotonic() - started
    ok = checked >= 1000 and elapsed < 60
    _check(
        3,
        "rank_one equals the exhaustive sort oracle",
        ok,
        f"{checked} ranked triples over 1000 graphs, {elapsed:.1f}s",
    )


# -- 4: synthetic-KG learning --------------------------------------------------


def test_criterion_04_pattern_kg_learning(pattern_g):
    started = time.monotonic()
    _, _, res = _train_and_eval(pattern_g, epochs=40, dim=32)
    elapsed = time.monotonic() - started
    mrr = res.overall["mrr"]
    ok = mrr >= 0.90 and elapsed < 300
    _check(4, "sector KG reaches test MRR >= 0.90", ok, f"mrr {mrr:.4f}, {elapsed:.0f}s")


# -- 5 and 6: loss / negative-count trends --------------------------------------


def test_criterion_05_loss_ordering(loss_grid):
    i63 = loss_grid[("infonce", 63)]
    i5 = loss_grid[("infonce", 5)]
    m5 = loss_grid[("margin", 5)]
    m63 = loss_grid[("margin", 63)]
    mt63 = loss_grid[("margin_tau", 63)]
    ok = i63 > i5 > m5 and mt63 > m63
    _check(
        5,
        "loss ordering over negative budgets",
        ok,
        f"infonce 63/5 {i63:.4f}/{i5:.4f}, margin 5/63 {m5:.4f}/{m63:.4f}, "
        f"margin_tau 63 {mt63:.4f}",
    )


def test_criterion_06_negatives_trend(loss_grid):
    seq = [loss_grid[("infonce", c)] for c in (5, 15, 63)]
    ok = all(b - a >= -0.02 for a, b in zip(seq, seq[1:]))
    _check(
        6,
        "MRR non-decreasing in usable negatives",
        ok,
        "mrr@5/15/63 = " + "/".join(f"{v:.4f}" for v in seq),
    )


# -- 7: re-ranking exactness -----------------------------------------------------


def test_criterion_07_rerank_exactness():
    rng = np.random.default_rng(123)
    ents = [f"e{i:02d}" for i in range(30)]
    descs = {e: f"thing {e} number {i}" for i, e in enumerate(ents)}
    descs["r"] = "linked to"
    train = [(ents[i], "r", ents[(i + 1) % 30]) for i in range(0, 30, 2)]
    train += [(ents[1], "r", ents[8]), (ents[3], "r", ents[8])]
    test = [(ents[0], "r", ents[5]), (ents[1], "r", ents[9]), (ents[17], "r", ents[2])]
    g = make_graph(train, test=test, descriptions=descs, augment=True)
    params = EncoderParams.initialize(64, 8, named_stream(5, "init"))
    idx = build_index(g, params)

    bump_ok = True
    hood_sizes = []
    for head in (ents[0], ents[1], ents[17], ents[4]):
        base = idx.matrix @ id_queries(g, params, [(head, "r")])[0]
        hood = k_hop_neighbors(g, entity_number(g, head), 2)
        boosted = rerank_scores(base, hood, 0.05)
        changed = np.nonzero(boosted != base)[0]
        hood_rows = sorted(idx.entity_ids.index(g.entity_ids[n]) for n in hood.tolist())
        bump_ok &= changed.tolist() == hood_rows
        bump_ok &= bool(np.all(np.abs((boosted - base)[changed] - 0.05) <= 1e-12))
        hood_sizes.append(len(hood))

    plain = json.dumps(evaluate(g, idx, params).report(), sort_keys=True)
    zeroed = json.dumps(
        evaluate(g, idx, params, rerank=RerankConfig(alpha=0.0)).report(), sort_keys=True
    )
    ok = bump_ok and plain.encode() == zeroed.encode() and min(hood_sizes) >= 1
    _check(
        7,
        "re-rank bumps exactly the neighborhood, alpha=0 is inert",
        ok,
        f"neighborhood sizes {hood_sizes}",
    )


# -- 8: inference cost -----------------------------------------------------------


def test_criterion_08_forward_pass_accounting(encoded_rows):
    ents = [f"e{i:02d}" for i in range(100)]
    train = [(ents[i], "r", ents[(i + 7) % 100]) for i in range(40)]
    test = [(ents[i], "r", ents[(i + 13) % 100]) for i in range(20)]
    g = add_inverse_triples(
        KnowledgeGraph(
            [Entity(e, e, f"entity {e} alpha beta") for e in ents],
            [Relation("r", "relates")],
            {
                "train": [Triple(*row) for row in train],
                "valid": [],
                "test": [Triple(*row) for row in test],
            },
        )
    )
    params = EncoderParams.initialize(128, 8, named_stream(6, "init"))

    idx = build_index(g, params)
    res = evaluate(g, idx, params)
    encoded = encoded_rows["rows"]
    ok = encoded == 140 and res.forward_passes == 140 and len(g.triples("test")) == 40
    _check(
        8,
        "evaluation costs |E| + one pass per directed query",
        ok,
        f"encoded rows {encoded}, report {res.forward_passes}",
    )


# -- 9: self-negatives -------------------------------------------------------------


def _own_head_predictions(g, negatives):
    params, idx, _ = _train_and_eval(g, epochs=4, dim=32, negatives=negatives)
    hits = 0
    for t in g.triples("test"):
        top = predict_topk(g, idx, params, t.head, t.relation, k=1)
        if top and top[0][0] == t.head:
            hits += 1
    return hits


def test_criterion_09_self_negative_effect():
    g = synth.overlap_graph()
    base = _own_head_predictions(g, frozenset({"ib"}))
    with_sn = _own_head_predictions(g, frozenset({"ib", "sn"}))
    ok = base > 0 and with_sn < base
    _check(
        9,
        "self-negatives curb own-head predictions",
        ok,
        f"{base} -> {with_sn} of {len(g.triples('test'))} test queries",
    )


# -- 10: determinism ------------------------------------------------------------------


def test_criterion_10_cli_determinism(tmp_path):
    people = [f"p{i}" for i in range(8)]
    train = [(people[i], "knows", people[(i + 3) % 8]) for i in range(8)]
    train += [(people[i], "near", people[(i + 1) % 8]) for i in range(5)]
    valid = [("p0", "near", "p6")]
    test = [("p1", "near", "p5"), ("p2", "knows", "p0")]
    entities = [(p, p.upper(), f"person {p[1:]} of the cohort") for p in people]
    relations = [("knows", "knows", "a long acquaintance"), ("near", "near", "lives nearby")]
    paths = write_dataset(tmp_path, train, valid, test, entities, relations)
    flags = [
        "--train", paths[0], "--valid", paths[1], "--test", paths[2],
        "--entities", paths[3], "--relations", paths[4],
    ]
    fast = [
        "--buckets", "128", "--dim", "8", "--epochs", "2", "--batch-size", "4",
        "--seed", "33",
    ]

    ckpts, reports = [], []
    for run in ("a", "b"):
        ckpt = tmp_path / f"model_{run}.tsv"
        report = tmp_path / f"report_{run}.json"
        assert main(["train", *flags, *fast, "--out", str(ckpt)]) == EXIT_OK
        assert (
            main(
                [
                    "evaluate", *flags, "--checkpoint", str(ckpt),
                    "--split", "test", "--output", str(report),
                ]
            )
            == EXIT_OK
        )
        ckpts.append(ckpt.read_bytes())
        reports.append(report.read_bytes())

    ok = ckpts[0] == ckpts[1] and reports[0] == reports[1]
    _check(
        10,
        "seeded train + evaluate reproduce byte-identically",
        ok,
        f"checkpoint {len(ckpts[0])} bytes, report {len(reports[0])} bytes",
    )
