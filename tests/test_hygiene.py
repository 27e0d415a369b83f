"""Source hygiene: every name a module imports is read in that module,
every name the package exports is read somewhere, and no module keeps a
cache outside the allowed owners."""

import ast
import os
import subprocess
import sys
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


# State kept across calls at module level: only fp's primality memo and
# per-prime tables, keyed by a prime below fp.MAX_MODULUS.  An
# IndexedGroup owns what is derived from its group and lives as long as
# the call that built it.
_ALLOWED_CACHES = {"fp._known_primes", "fp.sqrt_table", "fp.nonresidue",
                   "fp.nth_roots_of_unity"}
_CONTAINER_CALLS = {"dict", "set", "list", "defaultdict", "OrderedDict", "Counter",
                    "deque"}


def _name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _caches(tree: ast.Module) -> list[str]:
    """Module-level names bound to an empty dict or list display or to a
    built container, and functions decorated with lru_cache or cache."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            value = node.value
            if (isinstance(value, ast.Dict) and not value.keys) or \
                    (isinstance(value, ast.List) and not value.elts) or \
                    (isinstance(value, ast.Call) and _name(value) in _CONTAINER_CALLS):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                out += [t.id for t in targets if isinstance(t, ast.Name)]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                any(_name(d) in ("lru_cache", "cache") for d in node.decorator_list):
            out.append(node.name)
    return out


def test_no_module_level_caches():
    found = {f"{p.stem}.{name}" for p in SRC.glob("*.py")
             for name in _caches(ast.parse(p.read_text(), str(p)))}
    assert "fp._known_primes" in found      # the check sees the primality memo
    assert sorted(found - _ALLOWED_CACHES) == []


def _dataclass_fields(tree: ast.Module):
    """(name, field names in order) of each dataclass that declares a
    field of its own."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and \
                any(_name(d) == "dataclass" for d in node.decorator_list):
            fields = tuple(stmt.target.id for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name))
            if fields:
                yield node.name, fields


def test_no_two_dataclasses_share_their_fields():
    # two dataclasses with the same field names in the same order are one
    # record spelt twice
    owners: dict = {}
    for p in sorted(SRC.glob("*.py")):
        for name, fields in _dataclass_fields(ast.parse(p.read_text(), str(p))):
            owners.setdefault(fields, []).append(f"{p.stem}.{name}")
    assert ("prime", "generates", "diagnosis") in owners      # the check sees the records
    assert [names for names in owners.values() if len(names) > 1] == []


def test_commands_do_not_import_numpy_ma(tmp_path):
    # plain np.unique imports numpy.ma (about 11 ms) on its first call,
    # scipy would be imported inside every command that used it, and
    # argparse brings gettext, whose lookups import locale (together
    # about 4 ms of every command)
    pair = tmp_path / "sl3_standard.txt"
    pair.write_text("sl 3\n0 0 1 1 0 0 0 1 0\n1 1 0 0 1 0 0 0 1\n")
    # the psl3:3 projection takes the stabilizer chain's action on lines
    product = tmp_path / "product.txt"
    product.write_text("prod psl3:3 psl2:7\n1 1 0 0 1 0 0 0 1 | 0 6 1 0\n"
                       "0 0 1 1 0 0 0 1 0 | 1 1 0 1\n")
    code = ("import contextlib, io, sys\n"
            "from genrank.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    main(['rank', 'psl2:5'])\n"
            "    main(['mu', 'psl2:5'])\n"
            "    main(['orbit', 'psl2:5', '--size', '3'])\n"
            f"    main(['certify', {str(pair)!r}])\n"
            f"    main(['product-check', {str(product)!r}])\n"
            "print('numpy.ma' in sys.modules, any(name == 'scipy' or name.startswith('scipy.')\n"
            "                                        for name in sys.modules),\n"
            "      sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False False []"


def test_module_level_definitions_are_used_or_exported():
    # a function or class defined at module level in src/ is read
    # somewhere in src/ (by name or as an attribute) or exported
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in SRC.glob("*.py")}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    defined = [(stem, node.name) for stem, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    assert ("nielsen", "mu_rank") in defined        # the check sees the definitions
    unused = [f"{stem}.{name}" for stem, name in defined
              if name not in read and name not in genrank.__all__]
    assert unused == []


def test_uint16_only_where_the_tables_are_built():
    # mult holds element indices as uint16; every other index
    # array stays int32, since a uint16 times a Python int wraps
    built = {("indexed", "_cayley_walk"), ("indexed", "_fill_rows")}
    uses, inside = set(), set()
    for p in SRC.glob("*.py"):
        tree = ast.parse(p.read_text(), str(p))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "uint16") or \
                    (isinstance(node, ast.Constant) and node.value == "uint16"):
                uses.add((p.stem, node.lineno))
            if isinstance(node, ast.FunctionDef) and (p.stem, node.name) in built:
                inside |= {(p.stem, n.lineno) for n in ast.walk(node)
                           if isinstance(n, ast.Attribute) and n.attr == "uint16"}
    assert inside                           # the check sees the tables
    assert sorted(uses - inside) == []
