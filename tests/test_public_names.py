"""Every public name has a caller in the package or the benchmark."""
from __future__ import annotations

import ast
from pathlib import Path

import lyapedit

ROOT = Path(__file__).resolve().parent.parent


def used_names() -> set[str]:
    """Names read as a ``Name`` or an ``Attribute`` in ``src/lyapedit``
    (``__init__.py`` aside) and ``perfbench/*.py``; imports and strings do
    not count."""
    files = [path for path in (ROOT / "src" / "lyapedit").glob("*.py")
             if path.name != "__init__.py"]
    files += (ROOT / "perfbench").glob("*.py")
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_has_a_caller():
    assert sorted(set(lyapedit.__all__) - used_names()) == []
