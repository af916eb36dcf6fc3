"""No module in src/ uses a private name of ``fractions.Fraction``.

The package runs on Python 3.10 to 3.13, and the private construction
paths differ between them: 3.12 dropped ``Fraction(..., _normalize=False)``
for ``Fraction._from_coprime_ints``.  Only the public API is the same on
all four."""

import ast
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_FILES = sorted((_ROOT / "src").rglob("*.py"))
PRIVATE = {"_normalize", "_from_coprime_ints", "_numerator", "_denominator"}


def _private_uses(tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.keyword):
            name = node.arg
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in PRIVATE:
            found.append(f"line {getattr(node, 'lineno', '?')}: {name}")
    return found


@pytest.mark.parametrize("path", _FILES, ids=lambda f: str(f.relative_to(_ROOT)))
def test_no_private_fraction_names(path):
    assert _private_uses(ast.parse(path.read_text())) == []


@pytest.mark.parametrize(
    "source",
    [
        "Fraction(1, 2, _normalize=False)",
        "Fraction._from_coprime_ints(1, 2)",
        "q._numerator",
        "q._denominator + 1",
        "from fractions import _from_coprime_ints",
    ],
)
def test_every_private_use_is_found(source):
    assert len(_private_uses(ast.parse(source))) == 1
