"""The five subcommands, flag/config handling, and the exit-code contract."""

import dataclasses
import errno
import json
import os
import re
import stat

import numpy as np
import pytest

from textkgc import cli
from textkgc import encoder as enc
from textkgc import evaluation as ev
from textkgc import files
from textkgc.cli import _OPTS, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, _train_config, main
from textkgc.errors import KgcError
from textkgc.graph import add_inverse_triples, load_graph
from textkgc.training import TrainConfig

from conftest import write_dataset


def toy_dataset(dirpath):
    people = [f"p{i}" for i in range(8)]
    cities = [f"c{i}" for i in range(4)]
    train = [(people[i], "lives_in", cities[i % 4]) for i in range(8)]
    train += [(people[i], "knows", people[(i + 1) % 8]) for i in range(6)]
    valid = [("p6", "knows", "p7")]
    test = [("p7", "knows", "p0"), ("p0", "lives_in", "c0")]
    entities = [
        (e, e.upper(), f"person number {e[1:]} living somewhere") for e in people
    ] + [(c, c.upper(), f"city number {c[1:]} with houses") for c in cities]
    relations = [
        ("lives_in", "resides in", "the place this person calls home"),
        ("knows", "is acquainted with", "a personal acquaintance"),
    ]
    return write_dataset(dirpath, train, valid, test, entities, relations)


def data_flags(dirpath):
    train, valid, test, entities, relations = toy_dataset(dirpath)
    return [
        "--train", train, "--valid", valid, "--test", test,
        "--entities", entities, "--relations", relations,
    ]


FAST_TRAIN = [
    "--buckets", "256", "--dim", "8", "--epochs", "2", "--batch-size", "4",
    "--seed", "11",
]


@pytest.fixture()
def trained(tmp_path):
    flags = data_flags(tmp_path)
    out = tmp_path / "model.tsv"
    code = main(["train", *flags, *FAST_TRAIN, "--out", str(out)])
    assert code == EXIT_OK
    return flags, out


# -- train -------------------------------------------------------------------


def test_train_writes_checkpoint_and_log(tmp_path, capsys):
    flags = data_flags(tmp_path)
    out = tmp_path / "model.tsv"
    code = main(["train", *flags, *FAST_TRAIN, "--out", str(out)])
    assert code == EXIT_OK
    assert out.exists()
    log = (tmp_path / "model.tsv.log").read_text().splitlines()
    # 28 augmented rows, batch 4 -> 7 steps per epoch, 2 epochs
    assert len(log) == 14
    assert log[0].startswith("step=0 loss=")
    assert "lr=0.0 " in log[0]
    out_text = capsys.readouterr().out
    assert "steps: 14" in out_text


def test_train_is_deterministic(tmp_path):
    flags = data_flags(tmp_path)
    a = tmp_path / "a.tsv"
    b = tmp_path / "b.tsv"
    assert main(["train", *flags, *FAST_TRAIN, "--out", str(a)]) == EXIT_OK
    assert main(["train", *flags, *FAST_TRAIN, "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.tsv.log").read_bytes() == (tmp_path / "b.tsv.log").read_bytes()


def test_train_load_report(tmp_path):
    flags = data_flags(tmp_path)
    report_path = tmp_path / "load.json"
    code = main([
        "train", *flags, *FAST_TRAIN,
        "--out", str(tmp_path / "m.tsv"), "--load-report", str(report_path),
    ])
    assert code == EXIT_OK
    report = json.loads(report_path.read_text())
    assert report["duplicates_removed"] == 0
    assert report["unknown_ids"] == 0
    # counts reflect the augmented graph: every row gains an inverse twin
    assert report["splits"] == {"train": 28, "valid": 2, "test": 4}


def test_train_rejects_pb_without_ib(tmp_path, capsys):
    flags = data_flags(tmp_path)
    code = main(["train", *flags, *FAST_TRAIN, "--negatives", "pb,sn"])
    assert code == EXIT_USAGE
    assert "pre-batch" in capsys.readouterr().err


def test_train_rejects_unknown_negative_source(tmp_path, capsys):
    flags = data_flags(tmp_path)
    code = main(["train", *flags, *FAST_TRAIN, "--negatives", "ib,hard,zz"])
    assert code == EXIT_USAGE
    assert "unknown negative sources: hard, zz" in capsys.readouterr().err


def test_train_divergence_exits_numeric(tmp_path, capsys):
    flags = data_flags(tmp_path)
    code = main([
        "train", *flags, *FAST_TRAIN, "--lr", "1e100",
        "--out", str(tmp_path / "m.tsv"),
    ])
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "non-finite" in err


def _assert_one_usage_error(code, capsys, message):
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "1e-320"])
def test_train_rejects_bad_temperature(tmp_path, capsys, value):
    flags = data_flags(tmp_path)
    code = main(["train", *flags, *FAST_TRAIN, "--temperature", value, "--out", str(tmp_path / "m.tsv")])
    _assert_one_usage_error(code, capsys, "temperature must be a finite number > 0")
    assert not (tmp_path / "m.tsv").exists()


NON_FINITE_CHECKS = {
    "--lr": "peak learning rate must be a finite number > 0",
    "--grad-clip": "gradient clip must be a finite number > 0",
    "--weight-decay": "weight decay must be a finite number >= 0",
    "--margin-tau-temperature": "margin_tau temperature must be a finite number > 0",
    "--margin": "additive margin must be a finite number >= 0",
    "--hinge-margin": "hinge margin must be a finite number > 0",
}


@pytest.mark.parametrize("flag", list(NON_FINITE_CHECKS))
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_train_rejects_non_finite_float_options(tmp_path, capsys, flag, value):
    # nan passes every `x <= 0` check, and grad_clip=nan would turn clipping off
    flags = data_flags(tmp_path)
    code = main(["train", *flags, *FAST_TRAIN, flag, value, "--out", str(tmp_path / "m.tsv")])
    _assert_one_usage_error(code, capsys, NON_FINITE_CHECKS[flag])
    assert not (tmp_path / "m.tsv").exists()


def test_train_rejects_a_batch_of_one(tmp_path, capsys):
    # train skips batches of fewer than 2 rows, so batch size 1 would run no step
    flags = data_flags(tmp_path)
    code = main([
        "train", *flags, *FAST_TRAIN, "--negatives", "sn", "--batch-size", "1",
        "--out", str(tmp_path / "m.tsv"),
    ])
    _assert_one_usage_error(code, capsys, "batch size must be >= 2, got 1")
    assert not (tmp_path / "m.tsv").exists()


def test_missing_required_flag(tmp_path, capsys):
    code = main(["train", "--train", "x.tsv"])
    assert code == EXIT_USAGE
    assert "required" in capsys.readouterr().err


def test_missing_data_file(tmp_path, capsys):
    flags = data_flags(tmp_path)
    flags[1] = str(tmp_path / "absent.tsv")
    code = main(["train", *flags, *FAST_TRAIN])
    assert code == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


# -- evaluate ----------------------------------------------------------------


def test_evaluate_report_content(trained, tmp_path, capsys):
    flags, out = trained
    code = main(["evaluate", *flags, "--checkpoint", str(out)])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert {"mrr", "hits1", "hits3", "hits10", "tail", "head",
            "by_category", "forward_passes", "reranked"} <= set(report)
    assert report["forward_passes"] == 12 + 4  # index build + 4 augmented test rows
    assert report["reranked"] is False


def test_evaluate_output_flag_and_rerank_zero_alpha(trained, tmp_path):
    flags, out = trained
    plain = tmp_path / "plain.json"
    zeroed = tmp_path / "zeroed.json"
    assert main(["evaluate", *flags, "--checkpoint", str(out), "--output", str(plain)]) == EXIT_OK
    assert main([
        "evaluate", *flags, "--checkpoint", str(out), "--output", str(zeroed), "--alpha", "0",
    ]) == EXIT_OK
    assert plain.read_bytes() == zeroed.read_bytes()


def test_evaluate_rerank_flips_flag(trained, tmp_path):
    flags, out = trained
    path = tmp_path / "boosted.json"
    assert main([
        "evaluate", *flags, "--checkpoint", str(out), "--output", str(path),
        "--alpha", "0.05", "--hops", "2",
    ]) == EXIT_OK
    assert json.loads(path.read_text())["reranked"] is True


def test_the_cli_re_rank_defaults_are_the_configs():
    for command in ("evaluate", "predict"):
        opts = {o.flag: o.default for o in _OPTS[command]}
        default = ev.RerankConfig()
        assert (opts["--alpha"], opts["--hops"]) == (default.alpha, default.hops) == (0.0, 2)


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_the_cli_train_defaults_are_the_configs(command):
    # every option default sets its TrainConfig or LossConfig field to that
    # field's default, but two: the CLI trains longer, in smaller batches
    opts = {o.dest: o.default for o in _OPTS[command]}
    assert (opts["batch_size"], opts["epochs"]) == (256, 10)
    assert (TrainConfig().batch_size, TrainConfig().epochs) == (1024, 1)
    assert _train_config(opts) == dataclasses.replace(TrainConfig(), batch_size=256, epochs=10)


@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_alpha_alone_switches_re_ranking(trained, tmp_path, capsys, command):
    flags, out = trained
    run = [command, *flags, "--checkpoint", str(out)]
    if command == "predict":
        run += ["--head", "p0", "--relation", "lives_in"]
    capsys.readouterr()
    code = main([*run, "--rerank"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert [line for line in captured.err.splitlines() if "error:" in line] == [
        "textkgc: error: unrecognized arguments: --rerank"
    ]
    # a config file's rerank line is ignored, like any key the command does not take
    config = tmp_path / "run.conf"
    config.write_text("rerank = true\n")
    assert main([*run, "--config", str(config)]) == EXIT_OK
    configured = capsys.readouterr().out
    assert main(run) == EXIT_OK
    assert configured == capsys.readouterr().out


@pytest.mark.parametrize("command", ["evaluate", "predict"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_rerank_rejects_a_non_finite_alpha(trained, capsys, command, value):
    flags, out = trained
    query = ["--head", "p0", "--relation", "lives_in"] if command == "predict" else []
    code = main([command, *flags, "--checkpoint", str(out), *query, "--alpha", value])
    _assert_one_usage_error(code, capsys, "re-rank boost must be a finite number >= 0")


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        ("evaluate", "--alpha", "nan", "re-rank boost must be a finite number >= 0"),
        ("evaluate", "--hops", "0", "hop radius must be >= 1"),
        ("predict", "--alpha", "-1", "re-rank boost must be a finite number >= 0"),
    ],
)
def test_rerank_options_are_checked_without_rerank(trained, tmp_path, capsys, command, flag, value, message):
    flags, out = trained
    capsys.readouterr()
    report = tmp_path / "report.json"
    extra = ["--head", "p0", "--relation", "lives_in"] if command == "predict" else ["--output", str(report)]
    code = main([command, *flags, "--checkpoint", str(out), *extra, flag, value])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.err.startswith(f"error: {message}") and len(captured.err.splitlines()) == 1
    assert captured.out == "" and not report.exists()


def test_evaluate_valid_split(trained, tmp_path, capsys):
    flags, out = trained
    code = main(["evaluate", *flags, "--checkpoint", str(out), "--split", "valid"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["forward_passes"] == 12 + 2


def test_evaluate_corrupt_checkpoint(trained, tmp_path, capsys):
    flags, _ = trained
    bad = tmp_path / "bad.tsv"
    bad.write_text("not a checkpoint\n")
    code = main(["evaluate", *flags, "--checkpoint", str(bad)])
    assert code == EXIT_USAGE
    assert "header" in capsys.readouterr().err


def test_evaluate_missing_checkpoint(trained, tmp_path, capsys):
    flags, _ = trained
    code = main(["evaluate", *flags, "--checkpoint", str(tmp_path / "nope.tsv")])
    assert code == EXIT_USAGE


CHECKPOINT_FAULTS = [
    *((command, fault) for command in ("evaluate", "predict", "export-embeddings") for fault in ("missing", "corrupt")),
    ("predict", "topk-0"),
]


@pytest.mark.parametrize("command, fault", CHECKPOINT_FAULTS)
def test_a_checkpoint_command_reads_its_checkpoint_before_the_graph(
    trained_once, tmp_path, capsys, monkeypatch, command, fault
):
    # options, then outputs, then the checkpoint, then the graph: each fault
    # fails before the graph loads, so no output and no load report is written
    flags, checkpoint = trained_once
    extra = ["--topk", "0"] if fault == "topk-0" else []
    if fault != "topk-0":
        checkpoint = tmp_path / "bad.tsv"
        if fault == "corrupt":
            checkpoint.write_text("kgc-enc v1 256 8\n")
    loads = []

    def counting_load(*paths):
        loads.append(paths)
        raise KgcError("the graph was loaded")

    monkeypatch.setattr(cli, "load_graph", counting_load)
    capsys.readouterr()
    code = main([*_command_line(command, flags, checkpoint, tmp_path), *extra])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE and loads == []
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    if fault == "topk-0":
        assert err == "error: k must be >= 1, got 0\n"
    assert [path for path in tmp_path.rglob("*") if path.is_file()] == ([checkpoint] if fault == "corrupt" else [])


def test_evaluate_precomputed_embeddings(trained, tmp_path, capsys):
    flags, out = trained
    vectors = tmp_path / "vectors.tsv"
    assert main(["export-embeddings", *flags, "--checkpoint", str(out),
                 "--out", str(vectors)]) == EXIT_OK
    direct = tmp_path / "direct.json"
    via_file = tmp_path / "via_file.json"
    assert main(["evaluate", *flags, "--checkpoint", str(out),
                 "--output", str(direct)]) == EXIT_OK
    assert main(["evaluate", *flags, "--checkpoint", str(out),
                 "--precomputed-embeddings", str(vectors),
                 "--output", str(via_file)]) == EXIT_OK
    a = json.loads(direct.read_text())
    b = json.loads(via_file.read_text())
    assert b.pop("forward_passes") == 4  # no index cost, only query encodings
    a.pop("forward_passes")
    assert a == b


def test_evaluate_precomputed_dim_mismatch(trained, tmp_path, capsys):
    flags, out = trained
    vectors = tmp_path / "vectors.tsv"
    ids = [f"p{i}" for i in range(8)] + [f"c{i}" for i in range(4)]
    with open(vectors, "w") as fh:
        for e in ids:
            fh.write(e + "\t1.0 0.0 0.0 0.0\n")  # dim 4, checkpoint dim 8
    code = main(["evaluate", *flags, "--checkpoint", str(out),
                 "--precomputed-embeddings", str(vectors)])
    assert code == EXIT_USAGE
    assert "dimension" in capsys.readouterr().err


# -- predict -----------------------------------------------------------------


def test_predict_prints_ranked_candidates(trained, capsys):
    flags, out = trained
    code = main(["predict", *flags, "--checkpoint", str(out),
                 "--head", "p0", "--relation", "lives_in", "--topk", "5"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    scores = []
    for pos, line in enumerate(lines, start=1):
        rank, entity_id, score, known = line.split("\t")
        assert int(rank) == pos
        assert known in ("true", "false")
        scores.append(float(score))
    assert scores == sorted(scores, reverse=True)
    known_flags = dict(
        line.split("\t")[1::2] for line in lines
    )
    assert known_flags.get("c0") == "true"  # (p0, lives_in, c0) is a known triple


def test_predict_head_direction(trained, capsys):
    flags, out = trained
    code = main(["predict", *flags, "--checkpoint", str(out),
                 "--head", "c0", "--relation", "lives_in",
                 "--direction", "head", "--topk", "3"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3


def test_predict_argument_errors(trained, capsys, monkeypatch):
    flags, out = trained
    assert main(["predict", *flags, "--checkpoint", str(out),
                 "--head", "p0", "--relation", "lives_in", "--topk", "0"]) == EXIT_USAGE
    assert "k must be >= 1" in capsys.readouterr().err

    def no_index(*args, **kwargs):
        raise AssertionError("an unknown id must fail before the index build")

    # an unknown head or relation is refused before every entity is encoded
    monkeypatch.setattr(ev, "build_index", no_index)
    assert main(["predict", *flags, "--checkpoint", str(out),
                 "--head", "ghost", "--relation", "lives_in"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: unknown entity id: 'ghost'\n"
    assert main(["predict", *flags, "--checkpoint", str(out),
                 "--head", "p0", "--relation", "made_up"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: unknown relation id: 'made_up'\n"


# -- export-embeddings -------------------------------------------------------


def test_export_embeddings_rows(trained, tmp_path):
    flags, out = trained
    path = tmp_path / "emb.tsv"
    assert main(["export-embeddings", *flags, "--checkpoint", str(out),
                 "--out", str(path)]) == EXIT_OK
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 12
    ids = [line.split("\t")[0] for line in lines]
    assert ids == sorted(ids)
    for line in lines:
        vec = np.array([float(v) for v in line.split("\t")[1].split()])
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-9
    again = tmp_path / "emb2.tsv"
    assert main(["export-embeddings", *flags, "--checkpoint", str(out),
                 "--out", str(again)]) == EXIT_OK
    assert path.read_bytes() == again.read_bytes()


# -- sweep -------------------------------------------------------------------


def test_sweep_negatives_axis(tmp_path, capsys):
    flags = data_flags(tmp_path)
    out_dir = tmp_path / "sweep"
    code = main([
        "sweep", *flags, *FAST_TRAIN, "--axis", "negatives-count",
        "--points", "2,5", "--out-dir", str(out_dir),
    ])
    assert code == EXIT_OK
    reports = sorted(p.name for p in out_dir.glob("*.json") if p.name != "summary.json")
    assert reports == ["negatives-count-2.json", "negatives-count-5.json"]
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["axis"] == "negatives-count"
    assert len(summary["rows"]) == 2
    table = capsys.readouterr().out
    assert "point" in table and "mrr" in table
    assert summary["rows"][0]["point"] in (2, "2")


def test_sweep_loss_axis_uses_default_points(tmp_path):
    flags = data_flags(tmp_path)
    out_dir = tmp_path / "losses"
    code = main(["sweep", *flags, *FAST_TRAIN, "--axis", "loss-kind",
                 "--out-dir", str(out_dir)])
    assert code == EXIT_OK
    names = sorted(p.name for p in out_dir.glob("*.json"))
    assert names == [
        "loss-kind-infonce.json", "loss-kind-margin.json",
        "loss-kind-margin_tau.json", "summary.json",
    ]


def test_sweep_rejects_bad_point(tmp_path, capsys):
    flags = data_flags(tmp_path)
    code = main(["sweep", *flags, *FAST_TRAIN, "--axis", "batch-size",
                 "--points", "64,noodle", "--out-dir", str(tmp_path / "s")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: bad sweep point for axis batch-size: 'noodle'\n"
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize(
    "axis, points, message",
    [
        ("batch-size", "64,1", "batch size must be >= 2, got 1"),
        ("negatives-count", "5,0", "negative cap must be >= 1, got 0"),
        ("loss-kind", "infonce,bogus", "loss kind must be one of"),
        ("margin", "0.02,nan", "additive margin must be a finite number >= 0"),
    ],
)
def test_sweep_checks_every_point_before_it_trains_one(tmp_path, capsys, axis, points, message):
    # the good first point would train and write its report if points were checked as they ran
    flags = data_flags(tmp_path)
    out_dir = tmp_path / "sweep"
    code = main(["sweep", *flags, *FAST_TRAIN, "--axis", axis, "--points", points, "--out-dir", str(out_dir)])
    _assert_one_usage_error(code, capsys, message)
    assert not out_dir.exists()


# -- flags, config files, usage ----------------------------------------------


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "train" in capsys.readouterr().out
    assert main(["train", "--help"]) == EXIT_OK
    assert "--negatives" in capsys.readouterr().out


def test_unknown_flag_and_command(capsys):
    assert main(["train", "--bogus", "1"]) == EXIT_USAGE
    assert main(["frobnicate"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE


def test_config_file_supplies_and_flags_override(tmp_path, capsys):
    flags = data_flags(tmp_path)
    config = tmp_path / "run.conf"
    config.write_text(
        "# toy run\n"
        "epochs = 1\n"
        "batch-size = 4\n"
        "buckets = 256\n"
        "dim = 8\n"
        "seed = 11\n"
    )
    out = tmp_path / "m.tsv"
    code = main(["train", *flags, "--config", str(config), "--out", str(out)])
    assert code == EXIT_OK
    assert len((tmp_path / "m.tsv.log").read_text().splitlines()) == 7

    out2 = tmp_path / "m2.tsv"
    code = main(["train", *flags, "--config", str(config), "--epochs", "2",
                 "--out", str(out2)])
    assert code == EXIT_OK
    assert len((tmp_path / "m2.tsv.log").read_text().splitlines()) == 14


def test_config_file_parse_error(tmp_path, capsys):
    flags = data_flags(tmp_path)
    config = tmp_path / "broken.conf"
    config.write_text("epochs 3\n")
    code = main(["train", *flags, "--config", str(config)])
    assert code == EXIT_USAGE
    assert "broken.conf" in capsys.readouterr().err


@pytest.mark.parametrize("reader", ["triples", "descriptions", "config", "checkpoint", "embeddings"])
def test_non_utf8_input_names_its_line(trained, tmp_path, capsys, reader):
    flags, out = trained
    capsys.readouterr()
    bad = tmp_path / "bad.tsv"
    extra = []
    if reader in ("triples", "descriptions"):
        at = flags.index("--train" if reader == "triples" else "--entities") + 1
        text = open(flags[at], "rb").read().split(b"\n")
        text[2] = text[2] + b"\xff"
        bad.write_bytes(b"\n".join(text))
        flags = [*flags[:at], str(bad), *flags[at + 1:]]
        line = 3
    elif reader == "config":
        bad.write_bytes(b"# run\nepochs = 1\n# caf\xe9\n")
        extra, line = ["--config", str(bad)], 3
    elif reader == "checkpoint":
        text = out.read_bytes().split(b"\n")
        text[4] = b"\x80" + text[4]
        bad.write_bytes(b"\n".join(text))
        out, line = bad, 5
    else:
        assert main(["export-embeddings", *flags, "--checkpoint", str(out), "--out", str(bad)]) == EXIT_OK
        bad.write_bytes(bad.read_bytes().replace(b"\n", b"\n\xc3(", 1))
        extra, line = ["--precomputed-embeddings", str(bad)], 2
    code = main(["evaluate", *flags, "--checkpoint", str(out), *extra])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: {bad}:{line}: not valid UTF-8\n"


def test_config_file_bad_value(tmp_path, capsys):
    flags = data_flags(tmp_path)
    config = tmp_path / "bad.conf"
    config.write_text("epochs = many\n")
    code = main(["train", *flags, "--config", str(config)])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("command", ["evaluate", "predict", "export-embeddings"])
def test_seed_is_an_option_of_train_and_sweep_only(tmp_path, capsys, command):
    # only train and sweep draw random numbers
    assert main([command, *data_flags(tmp_path), "--seed", "3"]) == EXIT_USAGE
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_a_config_seed_is_ignored_by_evaluate(trained, tmp_path):
    flags, out = trained
    config = tmp_path / "run.conf"
    config.write_text("seed = 3\n")
    report = tmp_path / "report.json"
    assert main(["evaluate", *flags, "--checkpoint", str(out), "--config", str(config),
                 "--output", str(report)]) == EXIT_OK


# -- the token budget travels with the model -----------------------------------


@pytest.fixture(scope="module")
def trained_at_six(tmp_path_factory):
    """A model trained with a token budget of 6, below the length of most texts."""
    tmp = tmp_path_factory.mktemp("budget")
    flags = data_flags(tmp)
    out = tmp / "model.tsv"
    assert main(["train", *flags, *FAST_TRAIN, "--max-tokens", "6", "--out", str(out)]) == EXIT_OK
    return flags, out


def _cli_outputs(flags, checkpoint, out_dir, capsys, extra=()):
    """The bytes of evaluate (plain and re-ranked), predict and export-embeddings."""
    outputs = {}
    for name, argv in {
        "evaluate": ["evaluate", "--output", str(out_dir / "plain.json")],
        "rerank": ["evaluate", "--alpha", "0.05", "--output", str(out_dir / "rerank.json")],
        "predict": ["predict", "--head", "p0", "--relation", "lives_in", "--topk", "12"],
        "export": ["export-embeddings", "--out", str(out_dir / "vectors.tsv")],
    }.items():
        capsys.readouterr()
        assert main([*argv, *flags, "--checkpoint", str(checkpoint), *extra]) == EXIT_OK
        printed = capsys.readouterr().out.encode()
        path = argv[-1] if name != "predict" else None
        outputs[name] = printed if path is None else open(path, "rb").read()
    return outputs


def _api_outputs(flags, params, out_dir):
    """The same four outputs computed through the library at ``params.max_tokens``."""
    g = add_inverse_triples(load_graph(*flags[1::2]))
    idx = ev.build_index(g, params)
    reports = {
        name: json.dumps(ev.evaluate(g, idx, params, "test", rerank).report(), indent=2, sort_keys=True) + "\n"
        for name, rerank in (("evaluate", None), ("rerank", ev.RerankConfig(0.05)))
    }
    rows = ev.predict_topk(g, idx, params, "p0", "lives_in", 12)
    predicted = "".join(
        f"{pos}\t{e}\t{score!r}\t{'true' if known else 'false'}\n" for pos, (e, score, known) in enumerate(rows, 1)
    )
    ev.write_embeddings(idx, str(out_dir / "api.tsv"))
    return {
        "evaluate": reports["evaluate"].encode(),
        "rerank": reports["rerank"].encode(),
        "predict": predicted.encode(),
        "export": (out_dir / "api.tsv").read_bytes(),
    }


def test_the_other_commands_read_the_budget_from_the_checkpoint(trained_at_six, tmp_path, capsys):
    flags, checkpoint = trained_at_six
    params = enc.load_checkpoint(str(checkpoint))
    assert params.max_tokens == 6
    assert checkpoint.read_text().split("\n", 1)[0] == "kgc-enc v2 256 8 6"
    at_six = _cli_outputs(flags, checkpoint, tmp_path, capsys)
    assert at_six == _api_outputs(flags, params, tmp_path)
    # the same tables with the default budget in the header rank as that budget does
    lines = checkpoint.read_text().split("\n", 1)
    default = tmp_path / "default.tsv"
    default.write_text(f"kgc-enc v2 256 8 {enc.DEFAULT_MAX_TOKENS}\n{lines[1]}")
    at_default = _cli_outputs(flags, default, tmp_path, capsys)
    assert at_default == _api_outputs(flags, dataclasses.replace(params, max_tokens=enc.DEFAULT_MAX_TOKENS), tmp_path)
    assert all(at_six[name] != at_default[name] for name in at_six)


@pytest.mark.parametrize("command", ["evaluate", "predict", "export-embeddings"])
def test_max_tokens_is_an_option_of_train_and_sweep_only(trained_at_six, tmp_path, capsys, command):
    flags, checkpoint = trained_at_six
    capsys.readouterr()
    extra = ["--head", "p0", "--relation", "lives_in"] if command == "predict" else []
    code = main([command, *flags, "--checkpoint", str(checkpoint), *extra, "--max-tokens", "6"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert [line for line in captured.err.splitlines() if "error:" in line] == [
        "textkgc: error: unrecognized arguments: --max-tokens 6"
    ]


def test_a_config_max_tokens_is_ignored_by_the_commands_that_load_a_checkpoint(trained_at_six, tmp_path, capsys):
    flags, checkpoint = trained_at_six
    config = tmp_path / "run.conf"
    config.write_text("max-tokens = 0\n")  # not even checked: only train and sweep read it
    assert _cli_outputs(flags, checkpoint, tmp_path, capsys, ["--config", str(config)]) == _cli_outputs(
        flags, checkpoint, tmp_path, capsys
    )
    config.write_text("max-tokens = 4\n")
    out = tmp_path / "m.tsv"
    assert main(["train", *flags, *FAST_TRAIN, "--config", str(config), "--out", str(out)]) == EXIT_OK
    assert out.read_text().split("\n", 1)[0] == "kgc-enc v2 256 8 4"


# -- every numeric option, every command ---------------------------------------

# options for which 0 is a valid value; every other numeric option needs a
# value above 0, and only --seed takes a negative one
ZERO_ALLOWED = {"--seed", "--warmup", "--weight-decay", "--dropout", "--pre-batches", "--margin", "--alpha"}


def _bad_values(flag):
    values = ["nan", "inf", "ten"]
    if flag != "--seed":
        values.append("-1")
    if flag not in ZERO_ALLOWED:
        values.append("0")
    return values


BAD_OPTION_DRAWS = [
    (command, o.flag, value)
    for command, opts in _OPTS.items()
    for o in opts
    if o.kind in (int, float)
    for value in _bad_values(o.flag)
]


@pytest.fixture(scope="module")
def trained_once(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trained")
    flags = data_flags(tmp)
    out = tmp / "model.tsv"
    assert main(["train", *flags, *FAST_TRAIN, "--out", str(out)]) == EXIT_OK
    return flags, out


def _command_line(command, flags, checkpoint, out_dir):
    """A run of ``command`` that succeeds and writes its outputs under ``out_dir``."""
    report = ["--load-report", str(out_dir / "load.json")]
    if command == "train":
        return ["train", *flags, *FAST_TRAIN, "--out", str(out_dir / "m.tsv"), *report]
    if command == "sweep":
        return ["sweep", *flags, *FAST_TRAIN, "--axis", "loss-kind", "--points", "infonce",
                "--out-dir", str(out_dir / "sweep")]
    extra = {
        "evaluate": ["--output", str(out_dir / "report.json"), *report],
        "predict": ["--head", "p0", "--relation", "lives_in"],
        "export-embeddings": ["--out", str(out_dir / "vectors.tsv")],
    }[command]
    return [command, *flags, "--checkpoint", str(checkpoint), *extra]


@pytest.mark.parametrize("command", list(_OPTS))
def test_the_error_path_command_lines_succeed(trained_once, tmp_path, capsys, command):
    flags, checkpoint = trained_once
    capsys.readouterr()
    assert main(_command_line(command, flags, checkpoint, tmp_path)) == EXIT_OK
    if command == "predict":
        assert len(capsys.readouterr().out.splitlines()) == 10  # its candidates
    else:
        assert list(tmp_path.iterdir())
    # so the bad draws below also show that a usage error writes no load report
    assert (tmp_path / "load.json").exists() == (command in ("train", "evaluate"))


@pytest.mark.parametrize("command, flag, value", BAD_OPTION_DRAWS)
def test_every_bad_option_value_is_one_error_line(trained_once, tmp_path, capsys, command, flag, value):
    # the same command line as above, with one numeric option drawn bad
    flags, checkpoint = trained_once
    capsys.readouterr()
    code = main([*_command_line(command, flags, checkpoint, tmp_path), flag, value])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "Traceback" not in captured.err
    assert len([line for line in captured.err.splitlines() if "error:" in line]) == 1
    assert captured.out == ""
    assert not [path for path in tmp_path.rglob("*") if path.is_file()]


# -- interrupted writes --------------------------------------------------------


class _DiskFullHandle:
    """Writes the first half of its first write, then fails as a full disk does."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, text):
        self.handle.write(text[: len(text) // 2])
        self.handle.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


# output kind -> (command line, the file it writes), under one directory
OUTPUT_KINDS = {
    "checkpoint": ("train", "m.tsv"),
    "log": ("train", "m.tsv.log"),
    "load-report": ("train", "load.json"),
    "embeddings": ("export-embeddings", "vectors.tsv"),
    "evaluate-output": ("evaluate", "report.json"),
    "sweep-report": ("sweep", "sweep/loss-kind-infonce.json"),
    "sweep-summary": ("sweep", "sweep/summary.json"),
}


@pytest.mark.parametrize("kind", list(OUTPUT_KINDS))
def test_a_failed_write_keeps_the_old_file(trained_once, tmp_path, capsys, monkeypatch, kind):
    flags, checkpoint = trained_once
    command, name = OUTPUT_KINDS[kind]
    argv = _command_line(command, flags, checkpoint, tmp_path)
    target = tmp_path / name
    assert main(argv) == EXIT_OK
    before = target.read_bytes()
    capsys.readouterr()

    real_open = open

    def failing_open(path, mode="r", **kwargs):
        handle = real_open(path, mode, **kwargs)
        return _DiskFullHandle(handle) if path == f"{target}.tmp" else handle

    monkeypatch.setattr(files, "open", failing_open, raising=False)
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert target.read_bytes() == before
    assert not list(tmp_path.rglob("*.tmp"))


# -- targets that are not regular files ----------------------------------------


def _not_replacing(path):
    return f"error: {path}: exists and is not a regular file; not replacing it\n"


@pytest.mark.parametrize("where", ["path", "symlink", "tmp"])
def test_the_writer_refuses_a_target_that_is_not_a_regular_file(tmp_path, where):
    # a FIFO at the path, behind a symlink at the path, or at <path>.tmp
    target = tmp_path / "out.json"
    fifo = {"path": target, "symlink": tmp_path / "pipe", "tmp": tmp_path / "out.json.tmp"}[where]
    os.mkfifo(fifo)
    if where == "symlink":
        target.symlink_to(fifo)
    before = sorted(tmp_path.iterdir())
    named = fifo if where == "tmp" else target
    with pytest.raises(KgcError, match=f"^{re.escape(str(named))}: exists and is not a regular file"):
        with files.replace_file(str(target)) as fh:
            fh.write("{}\n")
    assert sorted(tmp_path.iterdir()) == before
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert target.is_symlink() == (where == "symlink")


@pytest.mark.parametrize(
    "kind, fault",
    [*((kind, "fifo") for kind in OUTPUT_KINDS), *((kind, "no-directory") for kind in OUTPUT_KINDS)],
    ids=[*OUTPUT_KINDS, *(f"{kind}-no-directory" for kind in OUTPUT_KINDS)],
)
def test_every_output_refuses_a_fifo_with_one_error_line(trained_once, tmp_path, capsys, monkeypatch, kind, fault):
    # a FIFO at the output, or every output of the command under a directory
    # that does not exist
    flags, checkpoint = trained_once
    command, name = OUTPUT_KINDS[kind]
    if fault == "fifo":
        out_dir = tmp_path
        target = tmp_path / name
        target.parent.mkdir(exist_ok=True)
        os.mkfifo(target)
        expected, left = _not_replacing(target), [target]
    else:
        out_dir = tmp_path / "absent"
        if command == "sweep":
            # the sweep makes its --out-dir, so here that sits under a regular file
            out_dir.write_text("")
            expected, left = f"error: [Errno {errno.ENOTDIR}] Not a directory: '{out_dir / 'sweep'}'\n", [out_dir]
        else:
            argv = _command_line(command, flags, checkpoint, out_dir)
            first = next(arg for arg in argv if arg.startswith(str(out_dir)))  # the first output checked
            expected, left = f"error: {first}: no such directory: {out_dir}\n", []
    capsys.readouterr()

    def no_graph(*args, **kwargs):
        raise AssertionError("every output must be checked before the graph loads")

    # so the refusal shows that each command checks all its outputs first
    monkeypatch.setattr(cli, "load_graph", no_graph)
    assert main(_command_line(command, flags, checkpoint, out_dir)) == EXIT_USAGE
    assert capsys.readouterr().err == expected
    assert fault != "fifo" or stat.S_ISFIFO(os.lstat(target).st_mode)
    assert [path for path in tmp_path.rglob("*") if path.is_file() or path.is_fifo()] == left


def test_train_refuses_a_symlink_to_a_fifo_as_out_before_it_loads(tmp_path, capsys):
    fifo, out = tmp_path / "pipe", tmp_path / "m.tsv"
    os.mkfifo(fifo)
    out.symlink_to(fifo)
    missing = ["--train", str(tmp_path / "absent.tsv")] + data_flags(tmp_path)[2:]
    assert main(["train", *missing, *FAST_TRAIN, "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == _not_replacing(out)  # not the missing train file
    assert out.is_symlink() and stat.S_ISFIFO(os.stat(out).st_mode)
