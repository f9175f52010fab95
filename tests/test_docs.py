"""The two READMEs, checked against the code.

``README.md`` is the user manual: every ``--flag`` it names exists on the
command it names, each command line of its walkthrough parses, and its
exit codes and checkpoint lines are the code's.  ``benchmarks/README.md``
describes the benchmark: its workload table is ``WORKLOADS``, and its
metric tables are ``END_TO_END``, the keys ``per_layer`` returns and
``BENCHMARK.json``.

Each check takes the texts it reads, keyed by their path from the
repository root, and fails with ``AssertionError`` when a doc and the code
disagree.  ``test_each_check_fails_with_its_fault_put_back`` runs every
check on copies with one fault written back in, so a parser that sees
nothing cannot pass them all.  ``benchmarks/run.py`` is read with ``ast``,
not imported: importing it sets the BLAS thread variables for the whole
test process.
"""

import argparse
import ast
import functools
import importlib.util
import json
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from textkgc import cli
from textkgc import encoder as enc
from textkgc.errors import KgcError
from textkgc.graph import add_inverse_triples, load_graph

ROOT = Path(__file__).resolve().parents[1]
TEXTS = {
    name: (ROOT / name).read_text(encoding="utf-8")
    for name in ("README.md", "benchmarks/README.md", "benchmarks/run.py", "BENCHMARK.json")
}
FLAG = re.compile(r"--[a-z][a-z-]*")
SPAN = re.compile(r"`([^`]+)`")
ABSENT_FLAGS = ("--rerank",)  # named by the README as a flag no command has


# -- reading markdown ------------------------------------------------------------


class Section(NamedTuple):
    heading: str  # without its leading #s
    prose: str  # the lines outside fenced code blocks
    blocks: list[str]  # the fenced code blocks, in order


def _sections(markdown: str) -> list[Section]:
    """The document cut at every heading; the text before the first one has heading ""."""
    parts: list[tuple[str, list[str], list[str]]] = [("", [], [])]
    fence = None
    for line in markdown.splitlines():
        if line.startswith("```"):
            if fence is None:
                fence = []
            else:
                parts[-1][2].append("\n".join(fence))
                fence = None
        elif fence is not None:
            fence.append(line)
        elif line.startswith("#"):
            parts.append((line.lstrip("#").strip(), [], []))
        else:
            parts[-1][1].append(line)
    return [Section(heading, "\n".join(prose), blocks) for heading, prose, blocks in parts]


def _section(markdown: str, heading: str) -> Section:
    found = [section for section in _sections(markdown) if section.heading == heading]
    assert len(found) == 1, f"one section headed {heading!r}, found {len(found)}"
    return found[0]


def _tables(prose: str) -> list[list[list[str]]]:
    """Each table's rows of stripped cells, header first, without the rule row."""
    tables: list[list[list[str]]] = []
    previous = ""
    for line in prose.splitlines():
        if line.startswith("|"):
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if not previous.startswith("|"):
                tables.append([])
            if not all(set(cell) <= set("-: ") for cell in cells):
                tables[-1].append(cells)
        previous = line
    return tables


def _table(prose: str) -> list[list[str]]:
    tables = _tables(prose)
    assert len(tables) == 1, f"one table, found {len(tables)}"
    return tables[0]


# -- reading the code --------------------------------------------------------------


def _commands() -> dict[str, set[str]]:
    """Each command's option strings, from the parser the CLI runs."""
    subs = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: set(sub._option_string_actions) for name, sub in subs.choices.items()}


def _literal(source: str, name: str):
    """The value of the module-level assignment to ``name``."""
    tree = ast.parse(source)
    values = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
    ]
    assert len(values) == 1, f"one assignment to {name}"
    return ast.literal_eval(values[0])


def _calls(source: str, name: str) -> list[ast.Call]:
    """Every call of a function or method named ``name``."""
    return [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def _workloads(source: str) -> dict[str, dict]:
    """``WORKLOADS`` of ``run.py``: each ``Workload(...)`` call's fields by name."""
    tree = ast.parse(source)
    workload = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Workload")
    fields = [node.target.id for node in workload.body if isinstance(node, ast.AnnAssign)]
    rows = [dict(zip(fields, map(ast.literal_eval, call.args))) for call in _calls(source, "Workload")]
    return {row["name"]: row for row in rows}


def _per_layer(source: str) -> dict[str, str]:
    """Each metric ``per_layer`` returns, with its unit."""
    function = next(
        node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef) and node.name == "per_layer"
    )
    returned = next(node.value for node in ast.walk(function) if isinstance(node, ast.Return))
    assert isinstance(returned, ast.Dict)
    units = [ast.literal_eval(value.elts[1]) for value in returned.values]
    return {ast.literal_eval(key): unit for key, unit in zip(returned.keys, units)}


@functools.cache
def _train_rows(large_graph: bool) -> int:
    """Train triples, inverses included, of a benchmark graph (the counts do not depend on the seed)."""
    spec = importlib.util.spec_from_file_location("benchmark_kgdata", ROOT / "benchmarks" / "kgdata.py")
    kgdata = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclass looks itself up there
    spec.loader.exec_module(kgdata)
    rows = kgdata.large_rows(1) if large_graph else kgdata.sector_rows(1)
    with tempfile.TemporaryDirectory() as tmp:
        return len(add_inverse_triples(load_graph(*rows.write(tmp))).split_array("train"))


# -- README.md -------------------------------------------------------------------


def check_readme_flags(texts: dict[str, str]) -> None:
    """Every ``--flag`` in an inline code span exists on the command it names.

    That command is the span's own (`` `predict --topk` ``; ``textkgc
    <command>`` names every command), else the one whose section holds the
    span (a ``### `train` `` heading).  A flag outside both names no command
    and fails.  ``--rerank`` is named, and no command has it.
    """
    commands = _commands()
    named = []
    for section in _sections(texts["README.md"]):
        own = section.heading.strip("`") if section.heading.strip("`") in commands else None
        for span in filter(FLAG.search, SPAN.findall(section.prose)):
            words = span.split()
            if words[0] == "textkgc":
                words = words[1:]
            targets = list(commands) if words[0] == "<command>" else [words[0] if words[0] in commands else own]
            named += [(command, flag) for flag in FLAG.findall(span) for command in targets]
    assert {flag for _, flag in named} >= set(ABSENT_FLAGS)
    assert [(command, flag) for command, opts in commands.items() for flag in ABSENT_FLAGS if flag in opts] == []
    wrong = [(c, f) for c, f in named if f not in ABSENT_FLAGS and (c is None or f not in commands[c])]
    assert wrong == []
    assert {command for command, _ in named} == set(commands)


def check_readme_command_lines(texts: dict[str, str]) -> None:
    """Each ``textkgc`` line of a fenced block parses and resolves as the
    CLI does, with one line per command; the benchmark line names only
    options and workloads of ``benchmarks/run.py``."""
    parser = cli.build_parser()
    commands, benchmark_lines = [], []
    for section in _sections(texts["README.md"]):
        for block in section.blocks:
            for line in block.replace("\\\n", " ").splitlines():
                words = shlex.split(line, comments=True)
                if words[:1] == ["textkgc"]:
                    try:
                        ns = parser.parse_args(words[1:])
                        cli._resolve(ns, cli._OPTS[ns.command], {})
                    except (SystemExit, KgcError) as e:
                        raise AssertionError(f"{line!r} does not parse: {e}") from None
                    commands.append(ns.command)
                elif words[:2] == ["python3", "benchmarks/run.py"]:
                    benchmark_lines.append(words[2:])
    assert sorted(commands) == sorted(_commands())

    source = texts["benchmarks/run.py"]
    options = {call.args[0].value for call in _calls(source, "add_argument")}
    assert benchmark_lines
    for words in benchmark_lines:
        assert {word for word in words if word.startswith("--")} <= options
        assert words[words.index("--workload") + 1] in _workloads(source)


def check_readme_exit_codes(texts: dict[str, str]) -> None:
    """The exit-code table gives each code the meaning ``cli`` gives it."""
    header, *rows = _table(_section(texts["README.md"], "Exit codes and errors").prose)
    assert header == ["exit code", "when"]
    meanings = {"success": cli.EXIT_OK, "usage": cli.EXIT_USAGE, "numeric": cli.EXIT_NUMERIC}
    assert len(rows) == len(meanings)
    assert {word: int(code) for code, when in rows for word in meanings if word in when} == meanings


def check_readme_checkpoint_header(texts: dict[str, str]) -> None:
    """The first and last checkpoint lines the README gives are the ones
    ``save_checkpoint`` writes."""
    spans = SPAN.findall(_section(texts["README.md"], "Checkpoint").prose)
    header = [span for span in spans if "<buckets>" in span]
    last = [span for span in spans if "<value>" in span]
    assert len(header) == len(last) == 1
    params = enc.EncoderParams(np.zeros((3, 2)), np.zeros((3, 2)), 0.5, max_tokens=5)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.tsv")
        enc.save_checkpoint(params, path)
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    filled = header[0].replace("<buckets>", "3").replace("<dim>", "2").replace("<max_tokens>", "5")
    assert filled == lines[0]
    assert last[0].replace("<value>", repr(0.5)) == lines[-1]


# -- benchmarks/README.md ------------------------------------------------------------


def check_workload_table(texts: dict[str, str]) -> None:
    """Each row of the workload table is its ``WORKLOADS`` entry: graph,
    shape, batch, epochs, the steps ``train`` runs (a last batch of one row
    is skipped), negative cap, re-ranking and setups; the predict queries
    per round match too, and the workloads are ``BENCHMARK.json``'s."""
    readme, source = texts["benchmarks/README.md"], texts["benchmarks/run.py"]
    workloads = _workloads(source)
    (rerank,) = [tuple(map(ast.literal_eval, call.args)) for call in _calls(source, "RerankConfig")]
    header, *rows = _table(_section(readme, "Workloads").prose)
    assert header[:3] == ["workload", "inputs (per seed)", "model and schedule"]
    table = {name.strip("`"): (graph, model) for name, graph, model, *_ in rows}
    assert list(table) == list(workloads) == [w["name"] for w in json.loads(texts["BENCHMARK.json"])["workloads"]]
    for name, w in workloads.items():
        graph, model = table[name]
        assert graph == ("large graph" if w["large_graph"] else "sector graph"), name
        shape = re.match(r"(\d+)(?: buckets)? x (\d+)(?: dims)?, batch (\d+), (\d+) epochs? \((\d+) steps\)", model)
        assert shape, name
        n = _train_rows(w["large_graph"])
        full, rest = divmod(n, w["batch_size"])
        steps = w["epochs"] * (full + (rest >= 2))
        assert tuple(map(int, shape.groups())) == (w["buckets"], w["dim"], w["batch_size"], w["epochs"], steps), name
        cap = re.search(r"max (\d+) negatives", model)
        assert (int(cap[1]) if cap else None) == w["max_negatives"], name
        boost = re.search(r"re-ranking alpha ([\d.]+), (\d+) hops", model)
        assert ((float(boost[1]), int(boost[2])) if boost else None) == (rerank if w["rerank"] else None), name
        setups = re.search(r"(\d+) setups", model)
        assert setups and int(setups[1]) == w["setup_reps"], name
    predicts = re.findall(r"(\d+)\s+(?:per\s+round\s+)?on\s+`([a-z-]+)`", _section(readme, "What a run does").prose)
    assert {name: int(count) for count, name in predicts} == {n: w["predicts_per_round"] for n, w in workloads.items()}


def check_metric_tables(texts: dict[str, str]) -> None:
    """The end-to-end table is ``END_TO_END``, names and units; the per-layer
    table names each metric ``per_layer`` returns once, the end-to-end
    metrics it should move and the workloads it shows on; the reference
    and tracing-overhead tables list every end-to-end metric and workload;
    and ``BENCHMARK.json`` declares the same metrics and units."""
    readme, source = texts["benchmarks/README.md"], texts["benchmarks/run.py"]
    end_to_end = [tuple(pair) for pair in _literal(source, "END_TO_END")]
    names = [name for name, _ in end_to_end]
    per_layer = _per_layer(source)
    workloads = list(_workloads(source))
    declared = json.loads(texts["BENCHMARK.json"])
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == end_to_end
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(per_layer.items())

    header, *rows = _table(_section(readme, "End-to-end metrics").prose)
    assert header == ["name", "unit", "what"]
    assert [(name.strip("`"), unit) for name, unit, _ in rows] == end_to_end

    header, *rows = _table(_section(readme, "Per-layer metrics").prose)
    assert header == ["metric", "should move", "on"]
    listed = []
    for metrics, moves, on in rows:
        listed += [name for name in SPAN.findall(metrics) if "." in name]
        assert set(SPAN.findall(moves)) <= set(names), moves
        assert set(SPAN.findall(on)) <= set(workloads) and (SPAN.findall(on) or on == "all"), on
    assert sorted(listed) == sorted(per_layer)

    reference = _section(readme, "Reference figures").prose
    assert re.findall(r"^\*\*([a-z-]+)\*\*", reference, re.M) == workloads
    tables = _tables(reference)
    assert len(tables) == len(workloads)
    for header, *rows in tables:
        assert [SPAN.findall(row[0])[0] for row in rows] == [*names, "bench.ref_loop_ms"]

    header, *rows = _table(_section(readme, "Tracing overhead").prose)
    assert [cell.strip("`") for cell in header] == ["workload", *names]
    assert [row[0] for row in rows] == workloads


CHECKS = [
    check_readme_flags,
    check_readme_command_lines,
    check_readme_exit_codes,
    check_readme_checkpoint_header,
    check_workload_table,
    check_metric_tables,
]


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.__name__[len("check_"):])
def test_the_docs_agree_with_the_code(check):
    check(TEXTS)


def _fault(check, path, old, new, case):
    """``old`` None stands for the whole text."""
    return pytest.param(check, path, old, new, id=f"{check.__name__[len('check_'):]}-{case}")


# each check with faults in the docs, in the code it reads, and a text with nothing to read
FAULTS = [
    _fault(check_readme_flags, "README.md", "`--pre-batches`", "`--pre-batch`", "renamed-flag"),
    _fault(check_readme_flags, "README.md", "vector to `--out`", "vector to `--output`", "flag-of-another-command"),
    _fault(check_readme_flags, "README.md", "no `--rerank` flag", "no such flag", "absent-flag-unnamed"),
    _fault(check_readme_flags, "README.md", None, "", "nothing-read"),
    _fault(check_readme_command_lines, "README.md", "--out model.tsv", "--out model.tsv --bogus 1", "unknown-option"),
    _fault(check_readme_command_lines, "README.md", "--relation r3 ", "", "missing-required-option"),
    _fault(check_readme_command_lines, "README.md", "--trace 0", "--traced 0", "unknown-benchmark-option"),
    _fault(check_readme_command_lines, "README.md", None, "", "nothing-read"),
    _fault(check_readme_exit_codes, "README.md", "| 2 |", "| 3 |", "wrong-code"),
    _fault(check_readme_exit_codes, "README.md", None, "", "nothing-read"),
    _fault(check_readme_checkpoint_header, "README.md", "kgc-enc v2", "kgc-enc v1", "old-magic"),
    _fault(check_readme_checkpoint_header, "README.md", "<dim> <max_tokens>", "<max_tokens> <dim>", "field-order"),
    _fault(check_readme_checkpoint_header, "README.md", None, "", "nothing-read"),
    _fault(check_workload_table, "benchmarks/README.md", "(42 steps)", "(41 steps)", "steps"),
    _fault(check_workload_table, "benchmarks/README.md", "max 15 negatives", "max 16 negatives", "cap"),
    _fault(check_workload_table, "benchmarks/run.py", "None, False, 15, 400)", "None, False, 14, 400)", "setup-reps"),
    _fault(check_workload_table, "benchmarks/README.md", None, "", "nothing-read"),
    _fault(check_metric_tables, "benchmarks/README.md",
           "| `encoder.backward_calls`, `encoder.backward_s` | `train_triples_per_s` | `train-narrow` |\n", "",
           "dropped-per-layer-row"),
    _fault(check_metric_tables, "benchmarks/run.py",
           '        "encoder.backward_calls": (tracer.count("encoder.encode_backward"), "count"),\n', "",
           "dropped-per-layer-metric"),
    _fault(check_metric_tables, "benchmarks/README.md", "| `peak_rss_mb` | MB |", "| `peak_rss_mb` | GB |", "unit"),
    _fault(check_metric_tables, "BENCHMARK.json", '"unit": "MB"', '"unit": "GB"', "declared-unit"),
    _fault(check_metric_tables, "benchmarks/README.md", None, "", "nothing-read"),
]


@pytest.mark.parametrize("check, path, old, new", FAULTS)
def test_each_check_fails_with_its_fault_put_back(check, path, old, new):
    assert old is None or old in TEXTS[path]  # the fault still applies
    faulted = new if old is None else TEXTS[path].replace(old, new)
    with pytest.raises(AssertionError):
        check({**TEXTS, path: faulted})
