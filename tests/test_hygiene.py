"""Source hygiene: every name a module imports is read in that module, and
every name the package exports is read somewhere."""

import ast
from pathlib import Path

import genrank

SRC = Path(genrank.__file__).parent


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in read]


def test_no_unused_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: _unused_imports(ast.parse(p.read_text(), str(p)))
              for p in modules}
    assert {k: v for k, v in unused.items() if v} == {}


def test_exports_resolve_and_are_read():
    # every name in genrank.__all__ resolves and is read somewhere in src/
    # or tests/ outside __init__
    texts = [p.read_text() for p in SRC.glob("*.py") if p.name != "__init__.py"]
    texts += [p.read_text() for p in (SRC.parents[1] / "tests").glob("*.py")]
    read = set()
    for text in texts:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    missing = [name for name in genrank.__all__ if not hasattr(genrank, name)]
    unread = [name for name in genrank.__all__ if name not in read]
    assert missing == [] and unread == []
