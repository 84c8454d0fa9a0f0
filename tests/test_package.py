"""The package's export list matches its namespace, and its definitions
are used.

A name left in ``__all__`` after its definition is deleted makes
``from se23nav import *`` raise; a public name missing from it is silently
left out of the star import.
"""

from __future__ import annotations

import ast
import re
import types
from pathlib import Path

import se23nav


def test_all_lists_exactly_the_public_names():
    public = {name for name, value in vars(se23nav).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(se23nav.__all__) == len(set(se23nav.__all__))
    assert set(se23nav.__all__) == public
    namespace = {}
    exec("from se23nav import *", namespace)
    assert all(namespace[name] is getattr(se23nav, name) for name in se23nav.__all__)


def test_every_module_level_function_and_class_is_named_elsewhere():
    # a definition that nothing in the package, the benchmark or the README
    # names is dead code; the export list does not count as a use
    root = Path(__file__).resolve().parents[1]
    modules = sorted((root / "src" / "se23nav").glob("*.py"))
    readers = [p for p in modules if p.name != "__init__.py"]
    readers += [*(root / "bench").glob("*.py"), root / "bench" / "README.md", root / "README.md"]
    texts = [p.read_text() for p in readers]
    dead = []
    for path in modules:
        source = path.read_text()
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            word = re.compile(rf"\b{node.name}\b")
            uses = sum(len(word.findall(text)) for text in texts)
            own_line = source.splitlines()[node.lineno - 1]
            if uses == len(word.findall(own_line)):
                dead.append(f"{path.name}:{node.lineno} {node.name}")
    assert not dead
