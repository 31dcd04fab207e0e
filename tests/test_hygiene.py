"""Every imported name in the package and the tests is used, and so is
every private module-level helper and every function parameter of the
package.

A stdlib-only AST scan.  ``__future__`` imports, the re-exports in
``__init__.py`` files and import lines marked ``# noqa`` are skipped;
a name listed in a module's ``__all__`` counts as used.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def unused_imports(path):
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__" or "# noqa" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_no_unused_imports():
    paths = sorted((ROOT / "src" / "tumat").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    found = [hit for p in paths if p.name != "__init__.py" for hit in unused_imports(p)]
    assert not found


def loaded_names(node):
    """Names read inside ``node``, as bare names or as attributes."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)) or isinstance(n, ast.Attribute)
    }


def test_no_dead_private_helpers():
    # A module-level _name (function, class or constant) must be read
    # somewhere in the package outside its own definition.
    nodes = [(p.relative_to(ROOT), node) for p in sorted((ROOT / "src" / "tumat").rglob("*.py"))
             for node in ast.parse(p.read_text(encoding="utf-8")).body]
    reads = [loaded_names(node) for _, node in nodes]
    dead = []
    for k, (path, node) in enumerate(nodes):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__") and not any(
                name in r for i, r in enumerate(reads) if i != k
            ):
                dead.append(f"{path}:{node.lineno}: {name}")
    assert not dead


def unread_parameters(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"{path.relative_to(ROOT)}:{node.lineno}: {p.arg}"
                  for p in params if p.arg not in ("self", "cls") and p.arg not in read]
    return found


def test_no_unused_parameters():
    # Every parameter of a package function is read in its body, so a
    # leftover knob (a limit or force flag nothing honours) cannot linger.
    paths = sorted((ROOT / "src" / "tumat").rglob("*.py"))
    assert [hit for p in paths for hit in unread_parameters(p)] == []
