"""No dead code under src/rdbp: every imported name is used, every
private module-level function has a caller in its module or another, and
every private module-level constant is read in its module or imported by
another.

The checks read the source with ``ast``, so they cover what a linter's
unused-import rule covers without needing the linter installed.
"""

import ast
from pathlib import Path

import rdbp

SOURCES = {path.stem: path.read_text() for path in sorted(Path(rdbp.__file__).parent.glob("*.py"))}
TREES = {stem: ast.parse(text) for stem, text in SOURCES.items()}
#: (module, name) for every name one module imports from another
IMPORTED = {
    (node.module, alias.name)
    for tree in TREES.values()
    for node in ast.walk(tree)
    if isinstance(node, ast.ImportFrom)
    for alias in node.names
}


def _names_read(tree) -> set:
    """Every bare name in the module, plus the strings of ``__all__``."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            names |= set(ast.literal_eval(node.value))
    return names


def test_every_imported_name_is_used():
    unused = []
    for stem, tree in TREES.items():
        lines = SOURCES[stem].splitlines()
        read = _names_read(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            # a re-export kept on purpose says so on its line
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    unused.append(f"{stem}.{bound}")
    assert unused == []


def test_every_private_function_has_a_caller():
    uncalled = [
        f"{stem}.{node.name}"
        for stem, tree in TREES.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in _names_read(tree) and (stem, node.name) not in IMPORTED
    ]
    assert uncalled == []


def _assigned_names(node) -> list:
    """The names a module-level assignment binds, tuple targets unpacked."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]


def test_every_private_constant_is_read():
    # a kind map or defaults table whose readers are gone would stay behind
    # unseen: its own assignment does not count as a read
    unread = []
    for stem, tree in TREES.items():
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            for name in _assigned_names(node):
                if (name.startswith("_") and not name.startswith("__") and name not in loaded
                        and (stem, name) not in IMPORTED):
                    unread.append(f"{stem}.{name}")
    assert unread == []
