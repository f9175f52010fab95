"""Structural rules of the package, read from its source with ``ast``.

Each rule test reads the parsed package and names in its docstring the fault
it catches; ``test_each_rule_fails_with_its_fault_put_back`` runs every rule
on a copy of the package with such a fault written back in, so a walk that
sees nothing cannot pass them all.  The rule that the optimizer step touches
live rows only is a behaviour, held by
``tests/test_training.py::test_update_touches_only_the_rows_with_a_gradient_at_full_scale``.
"""

import ast
import textwrap
from pathlib import Path
from typing import NamedTuple

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "textkgc"
SOURCES = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def _parse(sources: dict[str, str]) -> dict[str, ast.Module]:
    return {module: ast.parse(text, filename=module) for module, text in sources.items()}


@pytest.fixture(scope="module")
def package() -> dict[str, ast.Module]:
    """Each module file of the package, parsed."""
    return _parse(SOURCES)


class Use(NamedTuple):
    module: str  # file name
    owner: str  # enclosing function, or "<module>"
    name: str
    how: str  # "import", "call" (the function called), "len" (the argument of len()) or "use"


def _references(package: dict[str, ast.Module], *names: str) -> list[Use]:
    """Every use of one of ``names`` in ``package``: an attribute
    (``np.einsum``), a bare name, or an import of it.  A name written with a
    leading dot (``".entity"``) matches attributes only."""
    attributes = {name.lstrip(".") for name in names}
    bare = {name for name in names if not name.startswith(".")}
    found = []
    for module, tree in package.items():
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                hit = node.attr if node.attr in attributes else None
            elif isinstance(node, ast.Name):
                hit = node.id if node.id in bare else None
            elif isinstance(node, ast.alias):
                hit = next((n for n in (node.name.split(".")[-1], node.asname) if n in bare), None)
            else:
                hit = None
            if hit is None:
                continue
            up = parent.get(node)
            if isinstance(node, ast.alias):
                how = "import"
            elif isinstance(up, ast.Call) and up.func is node:
                how = "call"
            elif isinstance(up, ast.Call) and isinstance(up.func, ast.Name) and up.func.id == "len":
                how = "len"
            else:
                how = "use"
            scope = up
            while scope is not None and not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                scope = parent.get(scope)
            owner = "<module>" if scope is None else getattr(scope, "name", "<lambda>")
            found.append(Use(module, owner, hit, how))
    return sorted(found)


def test_every_tie_is_decided_by_one_exact_scorer(package):
    """``evaluation._exact_scores`` holds the package's only ``einsum``.

    A second einsum could sum some cells in another order than this one
    and split a tie that the ranks and the top-k lists treat as exact.  No
    commit has broken the rule yet; a second ``np.einsum`` call fails here,
    and so does an ``einsum`` imported or bound under another name.
    """
    assert _references(package, "einsum") == [Use("evaluation.py", "_exact_scores", "einsum", "call")]


def test_texts_become_token_ids_in_the_encoder_only(package):
    """Only ``encoder.py`` names ``tokenize``, ``separator_index`` and
    ``TokenIds.from_flat``; every other module asks ``encoder.token_ids``,
    which tokenizes each distinct text once and cuts every row to the
    checkpoint's token budget.  The package's ``__init__`` re-exports
    ``tokenize``.

    A call such as ``enc.tokenize(text, ...)`` outside the encoder fails
    here, and so does an import of one of the three under another name
    (``from .encoder import tokenize as _tok``).
    """
    uses = _references(package, "tokenize", "separator_index", "from_flat")
    outside = [use for use in uses if use.module != "encoder.py"]
    assert outside == [Use("__init__.py", "<module>", "tokenize", "import")]


def test_no_per_triple_objects_on_the_train_step_or_the_ranking_path(package):
    """Training and masking read the graph's (n, 3) number arrays, so
    ``training.py`` and ``contrastive.py`` name neither ``Triple``,
    ``TripleRanking`` nor ``KnowledgeGraph.triples``; evaluation builds a
    ``TripleRanking`` only in ``RankingResult.rankings``, when the rows are
    read (its return annotation is the one other use).

    A ``g.triples("train")`` in ``training.py`` fails here, and so do a
    ``Triple`` imported under another name and a ``TripleRanking`` bound to
    another name anywhere in the package.
    """
    hot = [
        use
        for use in _references(package, "Triple", "TripleRanking", ".triples")
        if use.module in ("training.py", "contrastive.py")
    ]
    assert hot == []
    assert _references(package, "TripleRanking") == [
        Use("evaluation.py", "rankings", "TripleRanking", "call"),
        Use("evaluation.py", "rankings", "TripleRanking", "use"),
    ]


def test_ids_only_at_the_edges(package):
    """Ids are numbered where they enter (file loading, ``rank_one``'s
    triple, ``predict_topk``'s query, the CLI): training and masking
    neither look up nor list an id, and evaluation looks none up.

    ``training.py`` and ``contrastive.py`` name none of ``entity_ids``,
    ``relation_ids`` and the graph's ``.entity``, ``.relation``,
    ``.entities`` and ``.relations``; ``evaluation.py`` names the last four
    only to count them with ``len``.  A ``g.entity_ids[...]`` in
    ``training.py`` fails here, and so do a ``g.entities.get(head)`` and a
    bound ``look = g.entity`` in ``evaluation.py``.
    """
    lookups = (".entity", ".relation", ".entities", ".relations")
    hot = [
        use
        for use in _references(package, "entity_ids", "relation_ids", *lookups)
        if use.module in ("training.py", "contrastive.py")
    ]
    assert hot == []
    ranking = [use for use in _references(package, *lookups) if use.module == "evaluation.py" and use.how != "len"]
    assert ranking == []


def test_whole_batch_negatives(package):
    """Candidate assembly, masking and the negative cap work on whole
    (row, column) arrays: ``contrastive.py`` holds no ``for`` or ``while``
    loop, statement or comprehension, no per-row draw (``choice``) and no
    per-cell known-triple search (``.known``; ``known_tails`` answers a
    whole batch).

    Any loop node fails here, a comprehension over a parenthesised target
    (``[x for (a, b) in pairs]``) included, and so do a ``choice`` imported
    or bound to a name and a ``.known`` on any object.
    """
    loops = (ast.For, ast.AsyncFor, ast.While, ast.comprehension)
    tree = package["contrastive.py"]
    assert [type(node).__name__ for node in ast.walk(tree) if isinstance(node, loops)] == []
    assert [use for use in _references(package, "choice", ".known") if use.module == "contrastive.py"] == []


def _fault(rule, module, source, case):
    return pytest.param(rule, module, textwrap.dedent(source), id=f"{rule.__name__[len('test_'):]}-{case}")


# each rule with a fault its old CI grep step caught, then forms that grep missed
FAULTS = [
    _fault(test_every_tie_is_decided_by_one_exact_scorer, "evaluation.py", """
        def _fault(q, m):
            return np.einsum("qj,ij->qi", q, m)
    """, "second-call"),
    _fault(test_every_tie_is_decided_by_one_exact_scorer, "evaluation.py", """
        _product = np.einsum
    """, "bound-name"),
    _fault(test_texts_become_token_ids_in_the_encoder_only, "training.py", """
        def _fault(text, budget):
            return enc.tokenize(text, 1024, budget)
    """, "call"),
    _fault(test_texts_become_token_ids_in_the_encoder_only, "evaluation.py", """
        from .encoder import tokenize as _tok
    """, "aliased-import"),
    _fault(test_no_per_triple_objects_on_the_train_step_or_the_ranking_path, "training.py", """
        def _fault(g):
            return g.triples("train")
    """, "triples-call"),
    _fault(test_no_per_triple_objects_on_the_train_step_or_the_ranking_path, "contrastive.py", """
        from .graph import Triple as _Row
    """, "aliased-import"),
    _fault(test_no_per_triple_objects_on_the_train_step_or_the_ranking_path, "evaluation.py", """
        _Ranking = TripleRanking

        def _fault(triple, rank):
            return _Ranking(triple, rank)
    """, "bound-name"),
    _fault(test_ids_only_at_the_edges, "training.py", """
        def _fault(g, rows):
            return g.entity_ids[rows[0, 0]]
    """, "id-list"),
    _fault(test_ids_only_at_the_edges, "evaluation.py", """
        def _fault(g, head):
            return g.entities.get(head)
    """, "dict-get"),
    _fault(test_ids_only_at_the_edges, "evaluation.py", """
        def _fault(g, head):
            look = g.entity
            return look(head)
    """, "bound-method"),
    _fault(test_whole_batch_negatives, "contrastive.py", """
        def _fault(rows):
            for row in rows:
                pass
    """, "for-statement"),
    _fault(test_whole_batch_negatives, "contrastive.py", """
        def _fault(rng, n):
            return rng.choice(n)
    """, "choice-call"),
    _fault(test_whole_batch_negatives, "contrastive.py", """
        def _fault(pairs):
            return [a for (a, b) in pairs]
    """, "parenthesised-comprehension"),
    _fault(test_whole_batch_negatives, "contrastive.py", """
        def _fault(batch, h, r, t):
            return batch.graph.known(h, r, t)
    """, "known-on-another-object"),
]


@pytest.mark.parametrize("rule, module, fault", FAULTS)
def test_each_rule_fails_with_its_fault_put_back(rule, module, fault):
    broken = _parse({**SOURCES, module: SOURCES[module] + "\n\n" + fault})
    with pytest.raises(AssertionError):
        rule(broken)
