"""What the package's source keeps as a whole."""

import ast
from pathlib import Path

import sdepthlab


def test_no_assert_statement():
    # python -O strips assert statements, so every internal check is an
    # explicit raise; an assert would vanish from optimized runs unseen.
    paths = sorted(Path(sdepthlab.__file__).parent.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
