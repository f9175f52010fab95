"""Structural rules of the package, read from its source with ``ast``.

Each test holds one rule that a behaviour test would catch only by chance;
the workflow in ``.github/workflows/tests.yml`` keeps its grep step for the
same rule.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "textkgc"


def _references(name: str) -> list[tuple[str, str, bool]]:
    """(module file, enclosing function or "<module>", is a call) of every
    use of ``name`` in the package: an attribute (``np.einsum``), a bare
    name, or an import of it."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                hit = node.attr == name
            elif isinstance(node, ast.Name):
                hit = node.id == name
            elif isinstance(node, ast.alias):
                hit = name in (node.name.split(".")[-1], node.asname)
            else:
                hit = False
            if not hit:
                continue
            called = isinstance(parent.get(node), ast.Call) and parent[node].func is node
            scope = parent.get(node)
            while scope is not None and not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                scope = parent.get(scope)
            owner = "<module>" if scope is None else getattr(scope, "name", "<lambda>")
            found.append((path.name, owner, called))
    return found


def test_every_tie_is_decided_by_one_exact_scorer():
    """``evaluation._exact_scores`` holds the package's only ``einsum``.

    A second einsum could sum some cells in another order than this one
    and split a tie that the ranks and the top-k lists treat as exact.  No
    commit has broken the rule yet; a copy of the package with a second
    ``np.einsum`` call in ``predict_topk`` fails here, and so does an
    ``einsum`` imported or bound under another name.
    """
    assert _references("einsum") == [("evaluation.py", "_exact_scores", True)]
