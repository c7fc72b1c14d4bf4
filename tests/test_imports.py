"""Every module of the package uses each name it imports."""

import ast
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
