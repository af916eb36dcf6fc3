"""No module in src/ or tests/ imports a name it never uses."""

import ast
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
# a package __init__ imports names to re-export them
_FILES = sorted(
    f for d in ("src", "tests") for f in (_ROOT / d).rglob("*.py") if f.name != "__init__.py"
)


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", _FILES, ids=lambda f: str(f.relative_to(_ROOT)))
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []
