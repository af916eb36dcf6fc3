"""No module-global memo: the only ``functools.cache``/``lru_cache`` made at
module level in ``src/seqchain`` is ``generic._row_element``'s, bounded by
its size.  Every other store lives on what a command makes and drops, a
node (``Sequence.kept``, a family's closure), a head or a space, so no
answer outlives the objects it is about."""

import ast
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src" / "seqchain"
_CACHES = {"cache", "lru_cache"}


def _is_cache(node) -> bool:
    """Whether an expression is ``cache``, ``lru_cache``, a call of one, or
    either read from ``functools``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr in _CACHES
    return isinstance(node, ast.Name) and node.id in _CACHES


def _module_level_caches(tree: ast.Module):
    """The name of each cached function made when the module or one of its
    classes is executed: decorated, or assigned a cache's call."""
    found, bodies = [], [tree.body]
    while bodies:
        for node in bodies.pop():
            if isinstance(node, ast.ClassDef):
                bodies.append(node.body)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_is_cache(d) for d in node.decorator_list):
                    found.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                if any(_is_cache(n) for n in ast.walk(node.value) if isinstance(n, ast.Call)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    found.extend(ast.unparse(t) for t in targets)
    return found


def test_the_row_element_cache_is_the_only_module_level_cache():
    found = {
        f"{path.stem}.{name}"
        for path in sorted(_SRC.glob("*.py"))
        for name in _module_level_caches(ast.parse(path.read_text()))
    }
    assert found == {"generic._row_element"}


def test_the_guard_sees_each_form_of_a_module_level_cache():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@cache\ndef a(): pass\n"
        "@functools.lru_cache(maxsize=4)\ndef b(): pass\n"
        "class C:\n    @lru_cache\n    def c(self): pass\n"
        "d = functools.cache(lambda: 0)\n"
        "def f():\n    return cache(lambda: 0)\n"  # made per call: not module level
    )
    assert sorted(_module_level_caches(ast.parse(source))) == ["a", "b", "c", "d"]
