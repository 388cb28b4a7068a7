"""The package runs on the standard library alone.

``pyproject.toml`` declares ``dependencies = []``; this walks every
``import`` / ``from ... import`` under ``src/repro`` (function-local
imports included) and fails on any top-level module that is neither
``repro`` nor part of the standard library.
"""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def _top_level_imports(path: pathlib.Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_stdlib_and_repro():
    paths = sorted(SRC.rglob("*.py"))
    assert len(paths) > 50, "source tree not found"
    allowed = sys.stdlib_module_names | {"repro"}
    foreign = [f"{path.relative_to(SRC.parent)}:{lineno}: {name}"
               for path in paths
               for lineno, name in _top_level_imports(path)
               if name not in allowed]
    assert not foreign, f"third-party imports: {foreign}"
