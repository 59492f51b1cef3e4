"""Every public function and method of the package has a caller in the
code that ships: the package itself, `scripts/` or `perfbench/`. A name
only the tests reach is deleted, or kept here as a named reference oracle.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = ("src", "scripts", "perfbench")

# Public names with no caller outside the tests, kept on purpose.
ORACLES = {
    # Raw log p, a candidate detector; the quality bench decides whether it
    # becomes a method or moves into the tests.
    "zeroshot.per_token_log_prob",
    # The objective the SVM's SGD descends, pinned against its updates.
    "classifiers.svm_objective",
    # The loss and gradients the skip-gram loop applies inline, checked by
    # finite differences.
    "embeddings.sgns_loss_and_grads",
    # The similarity the embedding quality tests read.
    "embeddings.cosine_similarity",
    # The vocabulary of raw texts, which the LM and embedding vocabularies
    # are checked against.
    "text_core.build_vocab",
    # The two-author corpus of the acceptance criteria.
    "synthetic.two_source_corpus",
}


def _definitions(module: str, tree: ast.Module):
    """(qualified name, def node) of each public module-level function and
    each public method, at any class depth."""
    def walk(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith("_"):
                    yield f"{prefix}{node.name}", node
            elif isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}{node.name}.")

    yield from walk(tree.body, f"{module}.")


def test_every_public_function_has_a_caller():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for top in SHIPPED for path in sorted((ROOT / top).rglob("*.py"))}
    # Every name and attribute read or written in code; strings do not count.
    uses = [(path, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
            for path, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    package = ROOT / "src" / "mgtdetect"
    uncalled = set()
    for path, tree in trees.items():
        if path.parent != package:
            continue
        for qualname, node in _definitions(path.stem, tree):
            outside = [use for use in uses if use[2] == node.name
                       and not (use[0] == path and node.lineno <= use[1] <= node.end_lineno)]
            if not outside:
                uncalled.add(qualname)
    assert uncalled == ORACLES
