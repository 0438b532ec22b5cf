"""Guard against orphan API: every public top-level function or class of the
package must be used by the package itself, not only by tests and exports."""

import ast
from pathlib import Path

import cayleycount

PACKAGE = Path(cayleycount.__file__).parent


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def orphans(trees: dict[str, ast.Module]) -> list[str]:
    """`module.name` for each public top-level def or class that no module
    but `__init__` names, as an identifier or as an attribute."""
    used = set()
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [f"{module}.{node.name}"
            for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in used]


def test_every_public_name_is_used_by_the_package():
    assert orphans(_trees()) == []


def test_orphan_scan_finds_an_unused_function():
    trees = _trees()
    trees["extra"] = ast.parse("def unused():\n    pass\n\n\ndef _private():\n    pass\n")
    assert orphans(trees) == ["extra.unused"]
