"""End-to-end benchmark of textkgc: train, checkpoint, index, evaluate, predict.

    python3 benchmarks/run.py --workload rank-large --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
run generates its five TSV files from ``--seed``, then, in one process and
one closed loop:

1. loads and inverse-augments the graph several times (``setup_s``);
2. trains once, as ``textkgc train`` does (``train_triples_per_s``);
3. repeats whole rounds of checkpoint save and load, index build,
   evaluation of the eval split and ``predict_topk`` queries until
   ``--seconds`` have passed since step 1 began (at least ``MIN_ROUNDS``);
4. checks every output against ``oracle.py`` and the method's properties.

A fixed pure-Python reference loop is timed between operations and, on a
``TICK_S`` interval timer (a signal handler, so no thread), during them.
The speed of a shared 2-core VM shifts by up to 2x within seconds, so each
operation is corrected by the reference samples taken while it ran (or
the nearest ones, for operations shorter than a tick): its time is
multiplied by the mean of ``REF_MS / r`` over those samples, and a rate
divided by it.  A metric is the median (or percentile) of the corrected
operations; the raw figures are printed beside them.  ``--trace 1`` wraps the
package's public functions (``spans.py``), runs exactly ``MIN_ROUNDS``
rounds so every count repeats for a seed, and reports per-layer metrics.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import gc
import json
import math
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".bench_runs")

MIN_ROUNDS = 3
PREDICT_K = 10
MRR_FLOOR = 0.5  # sector graph; chance is about 1/200
RANK_SAMPLE = 400  # oracle-checked ranks on the large graph
PREDICT_GROUPS = 4  # groups of predict queries per round, with reference samples between
REF_ITERATIONS = 2_000
REF_SAMPLES = 5  # reference timings taken between two operations
REF_MS = 0.6  # fixed reference time the corrected figures are scaled to
TICK_S = 0.2  # interval of the reference samples taken during operations
ROW_TOLERANCE = 1e-12
SCORE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Workload:
    """Model shape and schedule of one workload (see README.md for the why)."""

    name: str
    large_graph: bool
    buckets: int
    dim: int
    batch_size: int
    epochs: int
    max_negatives: Optional[int]
    rerank: bool
    setup_reps: int
    predicts_per_round: int


WORKLOADS = {
    w.name: w
    for w in (
        # CLI default shape: dense AdamW and the 81 MB text checkpoint dominate
        Workload("train-wide", False, 30_000, 64, 256, 6, None, False, 15, 400),
        # per-row encoder passes, masking and the negative cap dominate
        Workload("train-narrow", False, 4_096, 32, 64, 8, 15, False, 15, 200),
        # 20000 entities ranked with re-ranking: the read path dominates
        Workload("rank-large", True, 4_096, 32, 128, 1, None, True, 9, 40),
    )
}

END_TO_END = (
    ("setup_s", "s"),
    ("train_triples_per_s", "1/s"),
    ("ckpt_save_s", "s"),
    ("ckpt_load_s", "s"),
    ("index_build_s", "s"),
    ("eval_triples_per_s", "1/s"),
    ("predict_p50_ms", "ms"),
    ("predict_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PHASES = ("setup", "train_steps", "ckpt_round_trips", "index_builds", "ranked_triples", "predict_queries")


def _ref_loop() -> float:
    """Milliseconds for a fixed mix of integer, dict and call work."""
    start = time.perf_counter()
    acc = 0
    table: dict[int, int] = {}
    for i in range(REF_ITERATIONS):
        key = i & 1023
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
        table[key] = table.get(key, 0) + (acc >> 7)
    return (time.perf_counter() - start) * 1e3


def _thread_count() -> int:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        import threading

        return threading.active_count()


class Reference:
    """Reference-loop timings, with the thread count checked between operations."""

    def __init__(self) -> None:
        self.threads_at_start = _thread_count()
        self.points: list[tuple[float, float]] = []  # (perf_counter, ms)
        self.extra_threads = 0

    def sample(self) -> None:
        """Median of ``REF_SAMPLES`` timings, taken between operations."""
        value = statistics.median(_ref_loop() for _ in range(REF_SAMPLES))
        self.points.append((time.perf_counter(), value))
        if _thread_count() > self.threads_at_start:
            self.extra_threads += 1

    def _tick(self, signum, frame) -> None:
        self.points.append((time.perf_counter(), _ref_loop()))

    def start_ticks(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop_ticks(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float, end: float) -> float:
        """Mean of ``REF_MS / r`` over the samples in [start, end], else the two around it."""
        self.points.sort()
        times = [t for t, _ in self.points]
        lo, hi = bisect.bisect_left(times, start), bisect.bisect_right(times, end)
        inside = self.points[lo:hi] if hi - lo >= 2 else self.points[max(0, lo - 1) : hi + 1]
        return statistics.fmean(REF_MS / ms for _, ms in inside)

    @property
    def samples(self) -> list[float]:
        return [ms for _, ms in self.points]

    @property
    def median_ms(self) -> float:
        return statistics.median(self.samples)


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


class Bench:
    """One workload run: inputs, timings, phase counts and check failures.

    A round is checkpoint save and load, index build, evaluation and the
    round's predict queries, each using the previous one's output.  An
    operation that raises the package's ``KgcError`` fails, and with it the
    rest of its round.
    """

    def __init__(self, workload: Workload, seed: int, seconds: int, traced: bool, workdir: str):
        import kgdata

        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.workdir = workdir
        self.data = kgdata.large_rows(seed) if workload.large_graph else kgdata.sector_rows(seed)
        self.paths = self.data.write(os.path.join(workdir, "data"))
        self.ref = Reference()
        self.phases = {p: [0, 0] for p in PHASES}
        self.problems: list[str] = []
        # metric -> (raw value, start, end) per operation
        self.obs: dict[str, list[tuple[float, ...]]] = {name: [] for name, _ in END_TO_END}
        self.rounds = 0
        self.ranks_checked = 0

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def timed(self, metric: str, fn, *args, work: Optional[float] = None):
        """Run one operation; record its seconds, or ``work`` per second."""
        gc.collect()
        self.ref.sample()
        start = time.perf_counter()
        out = fn(*args)
        end = time.perf_counter()
        self.ref.sample()
        self.obs[metric].append((end - start if work is None else work / (end - start), start, end))
        return out

    # -- the measured run -------------------------------------------------

    def run(self) -> None:
        import numpy as np
        from textkgc import contrastive as ct
        from textkgc import encoder as enc
        from textkgc import evaluation as ev
        from textkgc import graph as kg
        from textkgc import training as tr
        from textkgc.errors import KgcError
        from textkgc.randomness import named_stream

        w = self.w
        t0 = time.perf_counter()
        for _ in range(w.setup_reps):
            self.phases["setup"][0] += 1
            g = self.timed("setup_s", lambda: kg.add_inverse_triples(kg.load_graph(*self.paths)))

        # the CLI's train defaults, at the workload's shape
        cfg = tr.TrainConfig(
            batch_size=w.batch_size,
            epochs=w.epochs,
            peak_lr=0.02,
            warmup_steps=400,
            grad_clip=10.0,
            weight_decay=1e-4,
            dropout=0.1,
            loss_kind="infonce",
            negatives=frozenset(("ib", "pb", "sn")),
            pre_batches=2,
            seed=self.seed,
            max_negatives=w.max_negatives,
            loss=ct.LossConfig(),
        )
        params = enc.EncoderParams.initialize(w.buckets, w.dim, named_stream(self.seed, "init"))
        n = len(g.triples("train"))
        trained = w.epochs * (n - (1 if n % w.batch_size == 1 else 0))
        params, self.log_lines = self.timed("train_triples_per_s", tr.train, g, params, cfg, work=trained)
        self.params = params
        self.phases["train_steps"][0] += len(self.log_lines)

        self.rerank = ev.RerankConfig(0.05, 2) if w.rerank else None
        eval_triples = g.triples("test")
        order = np.random.default_rng([self.seed, 3]).permutation(len(eval_triples)).tolist()
        ckpt = os.path.join(self.workdir, "model.tsv")
        round_ops = (
            ("ckpt_round_trips", 1),
            ("index_builds", 1),
            ("ranked_triples", len(eval_triples)),
            ("predict_queries", w.predicts_per_round),
        )
        self.indexes, self.results, self.predictions = [], [], {}
        next_query = 0
        round_s = 0.0
        while self.rounds < MIN_ROUNDS or (
            not self.traced and time.perf_counter() - t0 + round_s < self.seconds
        ):
            round_start = time.perf_counter()
            self.rounds += 1
            for phase, count in round_ops:
                self.phases[phase][0] += count
            stage = 0
            try:
                self.timed("ckpt_save_s", enc.save_checkpoint, params, ckpt)
                loaded = self.timed("ckpt_load_s", enc.load_checkpoint, ckpt)
                self.check(
                    _same_bits(loaded.hr_table, params.hr_table)
                    and _same_bits(loaded.tail_table, params.tail_table)
                    and float(loaded.log_inv_tau).hex() == float(params.log_inv_tau).hex(),
                    "load_checkpoint(save_checkpoint(p)) differs from p",
                )
                stage = 1
                idx = self.timed("index_build_s", ev.build_index, g, loaded)
                self.indexes.append(idx)
                stage = 2
                result = self.timed(
                    "eval_triples_per_s", ev.evaluate, g, idx, loaded, "test", self.rerank,
                    work=len(eval_triples),
                )
                self.results.append(result)
                stage = 3
                for _ in range(PREDICT_GROUPS):
                    gc.collect()
                    self.ref.sample()
                    for _ in range(w.predicts_per_round // PREDICT_GROUPS):
                        h, r, _ = eval_triples[order[next_query % len(order)]]
                        next_query += 1
                        start = time.perf_counter()
                        top = ev.predict_topk(g, idx, loaded, h, r, PREDICT_K, self.rerank)
                        end = time.perf_counter()
                        self.obs["predict_p50_ms"].append(((end - start) * 1e3, start, end))
                        seen = self.predictions.setdefault((h, r), top)
                        self.check(seen == top, f"predict_topk({h}, {r}) changed between calls")
                    self.ref.sample()
            except KgcError as e:
                print(f"failed in round {self.rounds}: {e}", file=sys.stderr)
                for phase, count in round_ops[stage:]:
                    self.phases[phase][1] += count
            round_s = time.perf_counter() - round_start
        self.obs["predict_p90_ms"] = self.obs["predict_p50_ms"]
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.obs["peak_rss_mb"].append((rss, 0.0, 0.0))

    # -- checks -----------------------------------------------------------

    def verify(self) -> None:
        import numpy as np
        from oracle import Oracle

        losses = [float(line.split()[1].split("=")[1]) for line in self.log_lines]
        self.check(all(math.isfinite(x) for x in losses), "non-finite training loss")
        k = max(1, len(losses) // 4)
        self.check(
            sum(losses[-k:]) / k < sum(losses[:k]) / k,
            f"mean loss of the last {k} steps is not below that of the first {k}",
        )

        d = self.data
        oracle = Oracle(d.train, d.valid, d.test, d.entities, d.relations)
        oracle.use_tables(self.params.hr_table, self.params.tail_table)
        if self.indexes:
            first = self.indexes[0]
            self.check(first.entity_ids == oracle.ids, "index rows are not in sorted-id order")
            norms = np.linalg.norm(first.matrix, axis=1)
            self.check(bool(np.all(np.abs(norms - 1.0) <= ROW_TOLERANCE)), "index row not unit length")
            self.check(
                first.matrix.shape == oracle.matrix.shape
                and bool(np.all(np.abs(first.matrix - oracle.matrix) <= ROW_TOLERANCE)),
                "index rows differ from the oracle's re-encoding",
            )
            for idx in self.indexes[1:]:
                self.check(_same_bits(idx.matrix, first.matrix), "index build is not repeatable")

        alpha, hops = (self.rerank.alpha, self.rerank.hops) if self.rerank else (0.0, 2)
        if self.results:
            rankings = self.results[0].rankings
            expected = oracle.eval_triples(d.test)
            self.check(
                [tuple(row.triple) for row in rankings] == expected,
                "evaluate ranked other triples than the eval split",
            )
            for result in self.results[1:]:
                self.check(
                    [row.rank for row in result.rankings] == [row.rank for row in rankings],
                    "evaluate is not repeatable",
                )
            picks = range(len(rankings))
            if self.w.large_graph:
                rng = np.random.default_rng([self.seed, 4])
                picks = sorted(rng.choice(len(rankings), size=RANK_SAMPLE, replace=False).tolist())
            else:
                mrr = self.results[0].overall["mrr"]
                self.check(mrr >= MRR_FLOOR, f"test MRR {mrr:.4f} below the floor {MRR_FLOOR}")
            mismatched = [
                rankings[i]
                for i in picks
                if rankings[i].rank != oracle.rank(tuple(rankings[i].triple), alpha, hops)
            ]
            self.check(not mismatched, f"{len(mismatched)} ranks differ from the oracle, e.g. {mismatched[:1]}")
            self.ranks_checked = len(picks)

        bad_topk = []
        for (h, r), top in self.predictions.items():
            want = oracle.topk(h, r, PREDICT_K, alpha, hops)
            same = [(e, known) for e, _, known in top] == [(e, known) for e, _, known in want] and all(
                abs(a[1] - b[1]) <= SCORE_TOLERANCE for a, b in zip(top, want)
            )
            if not same:
                bad_topk.append((h, r))
        self.check(not bad_topk, f"{len(bad_topk)} top-{PREDICT_K} lists differ from the oracle, e.g. {bad_topk[:1]}")
        self.check(
            self.ref.extra_threads == 0,
            f"the process had more threads than at start at {self.ref.extra_threads} reference samples",
        )

    # -- report -----------------------------------------------------------

    def summary(self, name: str) -> tuple[float, float]:
        """(corrected, raw) value of an end-to-end metric."""
        obs = self.obs[name]
        raw = [v for v, _, _ in obs]
        if name == "peak_rss_mb":
            corrected = raw
        elif name.endswith("_per_s"):
            corrected = [v / self.ref.factor(start, end) for v, start, end in obs]
        else:
            corrected = [v * self.ref.factor(start, end) for v, start, end in obs]
        if name == "predict_p90_ms":
            return _percentile(corrected, 90), _percentile(raw, 90)
        if name == "predict_p50_ms":
            return _percentile(corrected, 50), _percentile(raw, 50)
        return statistics.median(corrected), statistics.median(raw)


def per_layer(tracer, counters, bench: Bench) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run; times are scaled by ``REF_MS`` / the run's median reference."""
    factor = REF_MS / bench.ref.median_ms

    def s(*names: str) -> float:
        return tracer.self_s(*names) * factor

    steps = max(1, counters["steps"])
    classified = len(counters["relations_classified"])
    negative_cells = counters["candidate_cells"] - counters["positives"]
    return {
        "graph.load_s": (s("graph.load_graph"), "s"),
        "graph.inverse_s": (s("graph.add_inverse_triples"), "s"),
        "graph.describe_calls": (tracer.count("graph.augment_description"), "count"),
        "graph.describe_s": (s("graph.augment_description"), "s"),
        "graph.classify_calls": (tracer.count("graph.classify_relation"), "count"),
        "graph.classify_s": (s("graph.classify_relation"), "s"),
        "graph.classify_calls_per_relation": (
            tracer.count("graph.classify_relation") / classified if classified else 0.0,
            "ratio",
        ),
        "graph.khop_calls": (tracer.count("graph.k_hop_neighbors"), "count"),
        "graph.khop_s": (s("graph.k_hop_neighbors"), "s"),
        "encoder.tokenize_calls": (tracer.count("encoder.tokenize"), "count"),
        "encoder.tokenize_s": (s("encoder.tokenize"), "s"),
        "encoder.forward_calls": (tracer.count("encoder.forward_hr", "encoder.forward_tail"), "count"),
        "encoder.forward_s": (s("encoder.forward_hr", "encoder.forward_tail"), "s"),
        "encoder.backward_calls": (tracer.count("encoder.encode_backward"), "count"),
        "encoder.backward_s": (s("encoder.encode_backward"), "s"),
        "encoder.grad_rows": (counters["grad_rows"] / steps, "rows/step"),
        "encoder.ckpt_save_s": (s("encoder.save_checkpoint"), "s"),
        "encoder.ckpt_load_s": (s("encoder.load_checkpoint"), "s"),
        "encoder.ckpt_bytes": (counters["ckpt_bytes"], "bytes"),
        "contrastive.assemble_s": (s("contrastive.assemble_candidates"), "s"),
        "contrastive.limit_s": (s("contrastive.limit_negatives"), "s"),
        "contrastive.loss_s": (
            s("contrastive.infonce_loss", "contrastive.margin_loss", "contrastive.margin_tau_loss"),
            "s",
        ),
        "contrastive.candidate_cells": (counters["candidate_cells"], "count"),
        "contrastive.masked_cells": (counters["masked_cells"], "count"),
        "contrastive.negatives_ib": (counters["negatives_ib"] / steps, "count/step"),
        "contrastive.negatives_pb": (counters["negatives_pb"] / steps, "count/step"),
        "contrastive.negatives_sn": (counters["negatives_sn"] / steps, "count/step"),
        "contrastive.usable_share": (
            (counters["negatives_ib"] + counters["negatives_pb"] + counters["negatives_sn"]) / negative_cells
            if negative_cells
            else 0.0,
            "ratio",
        ),
        "training.token_cache_s": (s("training.build_token_cache"), "s"),
        "training.step_self_s": (s("training.run_batch"), "s"),
        "training.clip_s": (s("training.clip_gradients"), "s"),
        "training.update_s": (s("training.apply_update"), "s"),
        "training.update_rows": (counters["update_rows"], "count"),
        "training.grad_row_share": (
            counters["grad_rows"] / counters["update_rows"] if counters["update_rows"] else 0.0,
            "ratio",
        ),
        "evaluation.index_build_s": (s("evaluation.build_index"), "s"),
        "evaluation.query_calls": (tracer.count("evaluation.query_vector"), "count"),
        "evaluation.query_s": (s("evaluation.query_vector"), "s"),
        "evaluation.rank_calls": (tracer.count("evaluation.rank_one"), "count"),
        "evaluation.rank_self_s": (s("evaluation.rank_one"), "s"),
        "evaluation.rerank_s": (s("evaluation.rerank_scores"), "s"),
        "evaluation.evaluate_self_s": (s("evaluation.evaluate"), "s"),
        "evaluation.predict_self_s": (s("evaluation.predict_topk"), "s"),
        "bench.ref_loop_ms": (bench.ref.median_ms, "ms"),
    }


def install_tracer():
    """A tracer on every traced function, with the hooks that feed its counters."""
    import numpy as np
    import textkgc
    from spans import Tracer
    from textkgc import contrastive as ct
    from textkgc import encoder as enc
    from textkgc import evaluation as ev
    from textkgc import graph as kg
    from textkgc import training as tr

    modules = {"graph": kg, "encoder": enc, "contrastive": ct, "training": tr, "evaluation": ev, "package": textkgc}

    counters = {
        "steps": 0,
        "grad_rows": 0,
        "update_rows": 0,
        "candidate_cells": 0,
        "masked_cells": 0,
        "positives": 0,
        "negatives_ib": 0,
        "negatives_pb": 0,
        "negatives_sn": 0,
        "ckpt_bytes": 0,
        "relations_classified": set(),
    }

    def after_assemble(args, m, _):
        counters["candidate_cells"] += m.mask.size
        counters["masked_cells"] += m.mask.size - int(np.count_nonzero(m.mask))

    def after_loss(args, _result, _state):
        m = args[0]
        B = m.num_in_batch
        positives = int(np.count_nonzero(m.mask[np.arange(B), np.arange(B)]))
        counters["steps"] += 1
        counters["positives"] += B
        counters["negatives_ib"] += int(np.count_nonzero(m.mask[:, :B])) - positives
        counters["negatives_pb"] += int(np.count_nonzero(m.mask[:, m.provenance == ct.PRE_BATCH]))
        counters["negatives_sn"] += int(np.count_nonzero(m.mask[:, m.provenance == ct.SELF_NEGATIVE]))

    def after_clip(args, _result, _state):
        buffer = args[0]
        counters["grad_rows"] += len(buffer.hr) + len(buffer.tail)

    def before_update(args):
        params = args[0]
        return params.hr_table.copy(), params.tail_table.copy()

    def after_update(args, _result, before):
        params = args[0]
        for old, new in zip(before, (params.hr_table, params.tail_table)):
            counters["update_rows"] += int(np.count_nonzero(np.any(old != new, axis=1)))

    def after_classify(args, _result, _state):
        counters["relations_classified"].add(args[1])

    def after_save(args, _result, _state):
        counters["ckpt_bytes"] = os.path.getsize(args[1])

    hooks = {
        "contrastive.assemble_candidates": (None, after_assemble),
        "contrastive.infonce_loss": (None, after_loss),
        "contrastive.margin_loss": (None, after_loss),
        "contrastive.margin_tau_loss": (None, after_loss),
        "training.clip_gradients": (None, after_clip),
        "training.apply_update": (before_update, after_update),
        "graph.classify_relation": (None, after_classify),
        "encoder.save_checkpoint": (None, after_save),
    }
    tracer = Tracer()
    tracer.install(modules, hooks)
    return tracer, counters


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "textkgc", "__init__.py")):
        print(f"error: package source not found under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workload = WORKLOADS[args.workload]
    os.makedirs(RUNS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=RUNS)
    tracer = counters = None
    try:
        bench = Bench(workload, args.seed, args.seconds, bool(args.trace), workdir)
        if args.trace:
            tracer, counters = install_tracer()
        bench.ref.start_ticks()
        try:
            bench.run()
        finally:
            bench.ref.stop_ticks()
            if tracer is not None:
                tracer.uninstall()
        bench.verify()
        if tracer is not None:
            tracer.write(os.path.join(RUNS, f"spans-{workload.name}-s{args.seed}.tsv"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ref = bench.ref
    q = statistics.quantiles(ref.samples, n=4)
    print(
        f"workload {workload.name} seed {args.seed} trace {args.trace} rounds {bench.rounds} "
        f"predict samples {len(bench.obs['predict_p50_ms'])} ranks checked {bench.ranks_checked}"
    )
    print(f"bench.ref_loop_ms median {ref.median_ms:.4f} q1 {q[0]:.4f} q3 {q[2]:.4f} samples {len(ref.samples)}")
    print(f"{'phase':<18} {'attempted':>10} {'failed':>8}")
    for phase, (attempted, failed) in bench.phases.items():
        print(f"{phase:<18} {attempted:>10} {failed:>8}")
    print(f"{'metric':<22} {'corrected':>14} {'raw':>14}  unit")
    metrics = {}
    for name, unit in END_TO_END:
        value, raw = bench.summary(name)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<22} {value:>14.6f} {raw:>14.6f}  {unit}")
    if tracer is not None:
        metrics = {}
        for name, (value, unit) in per_layer(tracer, counters, bench).items():
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:<36} {value:>16.6f}  {unit}")
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    with open(os.path.join(RUNS, f"result-{workload.name}-s{args.seed}-t{args.trace}.json"), "w") as fh:
        json.dump({"obs": bench.obs, "ref": bench.ref.points}, fh)
    attempted = sum(a for a, _ in bench.phases.values())
    failed = sum(f for _, f in bench.phases.values())
    result = {"correct": not bench.problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
