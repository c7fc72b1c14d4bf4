"""Every module of the package uses each name it imports, none imports
`dataclasses`, and every private module-level name is referenced somewhere
in the package."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "finreg"
# names a module imports only so that callers can import them from it
RE_EXPORTS = {"products": {"check_residue_cover"}}


def unused_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "annotations":
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    allowed = RE_EXPORTS.get(path.stem, set())
    return sorted(f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in used and name not in allowed)


def test_no_module_imports_a_name_it_never_uses():
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    assert modules
    assert [entry for p in modules for entry in unused_imports(p)] == []


def test_no_module_imports_dataclasses():
    # importing dataclasses pulls in inspect, ast, dis and tokenize at start-up;
    # records subclass finreg.record.Record instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for m in modules
                      if m.split(".")[0] == "dataclasses"]
    assert found == []


def private_definitions(tree):
    """(name, node) for each private function, class and assignment target
    at module level; dunder names are public by convention."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def references(node) -> Counter:
    """Names read, attributes accessed and names imported under node."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
    return out


def test_every_private_module_level_name_is_referenced():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    used = sum((references(tree) for tree in trees.values()), Counter())
    # a reference from inside its own definition (recursion) does not count
    orphans = sorted(f"{module}:{node.lineno} {name}" for module, tree in trees.items()
                     for name, node in private_definitions(tree)
                     if used[name] == references(node)[name])
    assert orphans == []
