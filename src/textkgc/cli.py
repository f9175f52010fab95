"""Command-line surface: train, evaluate, predict, export-embeddings, sweep.

Option values resolve with precedence flags > config file > defaults; the
config file holds ``key = value`` lines keyed by flag name.  Exit codes are
0 for success, 1 for usage or data errors, 2 for numeric failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from . import contrastive as ct
from . import encoder as enc
from . import evaluation as ev
from . import training as tr
from .errors import KgcError, NumericError, ParseError
from .files import check_replaceable, read_lines, replace_file
from .graph import KnowledgeGraph, add_inverse_triples, load_graph
from .randomness import named_stream

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2

# each sweep axis: the train option its points set, and its default points
SWEEP_AXES = {
    "negatives-count": ("--max-negatives", "5,15,63"),
    "loss-kind": ("--loss", "infonce,margin,margin_tau"),
    "batch-size": ("--batch-size", "64,128,256"),
    "margin": ("--margin", "0,0.02,0.05"),
}


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@dataclass(frozen=True)
class _Opt:
    flag: str
    kind: type  # int, float or str
    default: object
    help: str
    choices: Optional[tuple] = None
    required: bool = False

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


def _opt_help(o: _Opt) -> str:
    if o.required:
        return f"{o.help} (required)"
    if o.default is None:
        return f"{o.help} (optional)"
    return f"{o.help} (default: {o.default})"


_DATA = [
    _Opt("--train", str, None, "training triples TSV", required=True),
    _Opt("--valid", str, None, "validation triples TSV", required=True),
    _Opt("--test", str, None, "test triples TSV", required=True),
    _Opt("--entities", str, None, "entity descriptions TSV", required=True),
    _Opt("--relations", str, None, "relation descriptions TSV", required=True),
]
_COMMON = [
    _Opt("--config", str, None, "config file with key = value lines"),
]
_MODEL = [
    _Opt("--buckets", int, enc.DEFAULT_BUCKETS, "hashed vocabulary size"),
    _Opt("--dim", int, enc.DEFAULT_DIM, "embedding dimension"),
    _Opt("--max-tokens", int, enc.DEFAULT_MAX_TOKENS, "token budget per text, kept in the checkpoint"),
    _Opt("--temperature", float, enc.DEFAULT_TEMPERATURE, "initial softmax temperature"),
]
# the defaults of the options that set a config field are that field's default
_TRAIN_DEFAULT, _RERANK_DEFAULT = tr.TrainConfig(), ev.RerankConfig()
_TRAIN = _MODEL + [
    _Opt("--seed", int, _TRAIN_DEFAULT.seed, "seed for every random stream"),
    # the two deliberate differences: the CLI trains longer, in smaller batches
    _Opt("--batch-size", int, 256, "triples per training step"),
    _Opt("--epochs", int, 10, "passes over the training split"),
    _Opt("--lr", float, _TRAIN_DEFAULT.peak_lr, "peak learning rate"),
    _Opt("--warmup", int, _TRAIN_DEFAULT.warmup_steps, "linear warmup steps"),
    _Opt("--grad-clip", float, _TRAIN_DEFAULT.grad_clip, "global gradient-norm ceiling"),
    _Opt("--weight-decay", float, _TRAIN_DEFAULT.weight_decay, "decoupled weight decay"),
    _Opt("--dropout", float, _TRAIN_DEFAULT.dropout, "token-row dropout probability"),
    _Opt("--loss", str, _TRAIN_DEFAULT.loss_kind, "training loss", choices=tr.LOSS_KINDS),
    _Opt("--negatives", str, ",".join(tr.NEGATIVE_SOURCES), "negative sources, comma-separated from ib,pb,sn"),
    _Opt("--pre-batches", int, _TRAIN_DEFAULT.pre_batches, "batches kept in the pre-batch queue"),
    _Opt("--pre-batch-weight", float, _TRAIN_DEFAULT.loss.pre_batch_weight, "logit weight on queue negatives"),
    _Opt("--max-negatives", int, _TRAIN_DEFAULT.max_negatives, "cap on usable negatives per row"),
    _Opt("--margin", float, _TRAIN_DEFAULT.loss.additive_margin, "additive margin on the positive logit"),
    _Opt("--hinge-margin", float, _TRAIN_DEFAULT.loss.hinge_margin, "margin for the hinge losses"),
    _Opt(
        "--margin-tau-temperature", float, _TRAIN_DEFAULT.margin_tau_temperature,
        "weighting temperature for margin_tau",
    ),
]
_RERANK = [
    _Opt("--alpha", float, _RERANK_DEFAULT.alpha, "re-ranking boost on the head's k-hop train neighborhood; 0 is off"),
    _Opt("--hops", int, _RERANK_DEFAULT.hops, "re-ranking hop radius"),
]

_OPTS = {
    "train": _DATA
    + _COMMON
    + _TRAIN
    + [
        _Opt("--out", str, "checkpoint.tsv", "checkpoint path (log goes to <out>.log)"),
        _Opt("--load-report", str, None, "write the dataset load report JSON here"),
    ],
    "evaluate": _DATA
    + _COMMON
    + _RERANK
    + [
        _Opt("--checkpoint", str, "checkpoint.tsv", "trained checkpoint to score with"),
        _Opt("--split", str, "test", "split to rank", choices=("train", "valid", "test")),
        _Opt("--output", str, None, "report path (default: standard output)"),
        _Opt("--precomputed-embeddings", str, None, "entity vectors TSV replacing the index build"),
        _Opt("--load-report", str, None, "write the dataset load report JSON here"),
    ],
    "predict": _DATA
    + _COMMON
    + _RERANK
    + [
        _Opt("--checkpoint", str, "checkpoint.tsv", "trained checkpoint to score with"),
        _Opt("--head", str, None, "known entity id of the query", required=True),
        _Opt("--relation", str, None, "relation id of the query", required=True),
        _Opt("--topk", int, 10, "number of candidates to print"),
        _Opt("--direction", str, "tail", "predict the tail or the head", choices=("tail", "head")),
    ],
    "export-embeddings": _DATA
    + _COMMON
    + [
        _Opt("--checkpoint", str, "checkpoint.tsv", "trained checkpoint to encode with"),
        _Opt("--out", str, "embeddings.tsv", "output path for entity vectors"),
    ],
    "sweep": _DATA
    + _COMMON
    + _TRAIN
    + [
        _Opt("--axis", str, None, "swept dimension", choices=tuple(SWEEP_AXES), required=True),
        _Opt("--points", str, None, "comma-separated sweep points (default: per-axis set)"),
        _Opt("--out-dir", str, "sweep", "directory for per-point reports"),
        _Opt("--split", str, "test", "split to rank", choices=("train", "valid", "test")),
    ],
}

_SUMMARIES = {
    "train": "train an encoder and write a checkpoint",
    "evaluate": "rank a split and emit the JSON metrics report",
    "predict": "print top-k candidates for one query",
    "export-embeddings": "write all entity vectors as TSV",
    "sweep": "train and evaluate across one hyperparameter axis",
}


def build_parser() -> _Parser:
    parser = _Parser(prog="textkgc", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, opts in _OPTS.items():
        sub = subs.add_parser(command, help=_SUMMARIES[command])
        for o in opts:
            sub.add_argument(o.flag, type=o.kind, default=None, help=_opt_help(o))
    return parser


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in read_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep or not key.strip():
            raise ParseError(path, lineno, "expected 'key = value'")
        values[key.strip().lower().replace("-", "_")] = val.strip()
    return values


def _coerce(o: _Opt, text: str):
    try:
        return o.kind(text)
    except ValueError:
        raise KgcError(f"bad config value for {o.flag}: {text!r}") from None


def _resolve(ns: argparse.Namespace, opts: list[_Opt], file_values: dict[str, str]) -> dict:
    cfg = {}
    for o in opts:
        val = getattr(ns, o.dest)
        if val is None and o.dest in file_values:
            val = _coerce(o, file_values[o.dest])
        if val is None:
            val = o.default
        if o.choices is not None and val is not None and val not in o.choices:
            raise KgcError(f"{o.flag} must be one of {', '.join(map(str, o.choices))}, got {val!r}")
        cfg[o.dest] = val
    missing = [o.flag for o in opts if o.required and cfg[o.dest] is None]
    if missing:
        raise KgcError(f"missing required options: {', '.join(missing)}")
    return cfg


def _load_inputs(cfg: dict, outputs: Sequence[str] = ()) -> tuple[Optional[enc.EncoderParams], KnowledgeGraph]:
    """The ``--checkpoint`` params (None for a command without one) and the
    inverse-augmented graph, its load report written when one is asked for.

    Every command calls this once its options are checked, and it keeps one
    order: the command's ``outputs`` and the load report are checked with
    ``check_replaceable``, then the checkpoint is read, then the graph is
    loaded.  So a refused output, or an absent or corrupt checkpoint, fails
    before the graph is read and leaves no load report.
    """
    for path in filter(None, (*outputs, cfg.get("load_report"))):
        check_replaceable(path)
    params = enc.load_checkpoint(cfg["checkpoint"]) if "checkpoint" in cfg else None
    g = load_graph(cfg["train"], cfg["valid"], cfg["test"], cfg["entities"], cfg["relations"])
    g = add_inverse_triples(g)
    if cfg.get("load_report"):
        with replace_file(cfg["load_report"]) as fh:
            fh.write(json.dumps(g.load_report, indent=2, sort_keys=True) + "\n")
    return params, g


def _train_config(cfg: dict) -> tr.TrainConfig:
    return tr.TrainConfig(
        batch_size=cfg["batch_size"],
        epochs=cfg["epochs"],
        peak_lr=cfg["lr"],
        warmup_steps=cfg["warmup"],
        grad_clip=cfg["grad_clip"],
        weight_decay=cfg["weight_decay"],
        dropout=cfg["dropout"],
        loss_kind=cfg["loss"],
        negatives=frozenset(p.strip() for p in cfg["negatives"].split(",") if p.strip()),
        pre_batches=cfg["pre_batches"],
        seed=cfg["seed"],
        max_negatives=cfg["max_negatives"],
        margin_tau_temperature=cfg["margin_tau_temperature"],
        loss=ct.LossConfig(
            additive_margin=cfg["margin"],
            hinge_margin=cfg["hinge_margin"],
            pre_batch_weight=cfg["pre_batch_weight"],
        ),
    )


def _fresh_params(cfg: dict) -> enc.EncoderParams:
    rng = named_stream(cfg["seed"], "init")
    return enc.EncoderParams.initialize(
        cfg["buckets"], cfg["dim"], rng, cfg["temperature"], cfg["max_tokens"]
    )


def cmd_train(cfg: dict) -> int:
    train_cfg, params = _train_config(cfg), _fresh_params(cfg)  # every option checked before any output
    _, g = _load_inputs(cfg, (cfg["out"], cfg["out"] + ".log"))
    params, log_lines = tr.train(g, params, train_cfg, checkpoint_path=cfg["out"])
    with replace_file(cfg["out"] + ".log") as fh:
        fh.write("\n".join(log_lines) + "\n")
    print(f"checkpoint: {cfg['out']} steps: {len(log_lines)}")
    return EXIT_OK


def cmd_evaluate(cfg: dict) -> int:
    rerank = ev.RerankConfig(cfg["alpha"], cfg["hops"])
    params, g = _load_inputs(cfg, (cfg["output"],))
    if cfg["precomputed_embeddings"]:
        idx = ev.read_embeddings(g, cfg["precomputed_embeddings"])
        dim = idx.matrix.shape[1]
        if dim != params.dim:
            raise KgcError(f"precomputed dimension {dim} does not match checkpoint dimension {params.dim}")
    else:
        idx = ev.build_index(g, params)
    result = ev.evaluate(g, idx, params, cfg["split"], rerank)
    text = json.dumps(result.report(), indent=2, sort_keys=True) + "\n"
    if cfg["output"]:
        with replace_file(cfg["output"]) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_predict(cfg: dict) -> int:
    rerank = ev.RerankConfig(cfg["alpha"], cfg["hops"])
    if cfg["topk"] < 1:
        raise KgcError(f"k must be >= 1, got {cfg['topk']}")
    params, g = _load_inputs(cfg)
    relation = cfg["relation"]
    # unknown ids fail here, before the index build encodes every entity
    g.relation_numbers([relation])
    g.entity_numbers([cfg["head"]])
    if cfg["direction"] == "head":
        relation = g.inverse_of(relation)
    idx = ev.build_index(g, params)
    rows = ev.predict_topk(g, idx, params, cfg["head"], relation, cfg["topk"], rerank)
    for pos, (entity_id, score, known) in enumerate(rows, start=1):
        print(f"{pos}\t{entity_id}\t{score!r}\t{'true' if known else 'false'}")
    return EXIT_OK


def cmd_export_embeddings(cfg: dict) -> int:
    params, g = _load_inputs(cfg, (cfg["out"],))
    idx = ev.build_index(g, params)
    ev.write_embeddings(idx, cfg["out"])
    print(f"embeddings: {cfg['out']} rows: {len(idx.entity_ids)}")
    return EXIT_OK


def _sweep_points(cfg: dict) -> list[tuple[object, tr.TrainConfig]]:
    """Each point of the sweep with the train config it runs; every point is checked here."""
    axis = cfg["axis"]
    flag, default_points = SWEEP_AXES[axis]
    opt = next(o for o in _TRAIN if o.flag == flag)
    _train_config(cfg)  # the base options are checked too, the one the axis sets included
    points = []
    for raw in filter(None, map(str.strip, (cfg["points"] or default_points).split(","))):
        try:
            point = opt.kind(raw)
        except ValueError:
            raise KgcError(f"bad sweep point for axis {axis}: {raw!r}") from None
        points.append((point, _train_config({**cfg, opt.dest: point})))
    if not points:
        raise KgcError("sweep needs at least one point")
    return points


def cmd_sweep(cfg: dict) -> int:
    axis = cfg["axis"]
    points, init = _sweep_points(cfg), _fresh_params(cfg)  # every option checked before any output
    os.makedirs(cfg["out_dir"], exist_ok=True)
    paths = [os.path.join(cfg["out_dir"], f"{axis}-{point}.json") for point, _ in points]
    summary_path = os.path.join(cfg["out_dir"], "summary.json")
    _, g = _load_inputs(cfg, (*paths, summary_path))

    summary = []
    for (point, run_cfg), path in zip(points, paths):
        params, _ = tr.train(g, init.copy(), run_cfg)
        idx = ev.build_index(g, params)
        report = ev.evaluate(g, idx, params, cfg["split"]).report()
        with replace_file(path) as fh:
            fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        summary.append(
            {
                "point": point,
                "mrr": report["mrr"],
                "hits1": report["hits1"],
                "hits3": report["hits3"],
                "hits10": report["hits10"],
                "report": path,
            }
        )

    with replace_file(summary_path) as fh:
        fh.write(json.dumps({"axis": axis, "rows": summary}, indent=2, sort_keys=True) + "\n")
    print(f"{'point':>14} {'mrr':>8} {'hits1':>8} {'hits3':>8} {'hits10':>8}")
    for row in summary:
        print(
            f"{row['point']!s:>14} {row['mrr']:>8.4f} {row['hits1']:>8.4f}"
            f" {row['hits3']:>8.4f} {row['hits10']:>8.4f}"
        )
    return EXIT_OK


_COMMANDS = {
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "predict": cmd_predict,
    "export-embeddings": cmd_export_embeddings,
    "sweep": cmd_sweep,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        file_values = _read_config_file(ns.config) if ns.config else {}
        cfg = _resolve(ns, _OPTS[ns.command], file_values)
        return _COMMANDS[ns.command](cfg)
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (KgcError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
