"""Every module of the package uses each name it imports and names only what exists.

No linter ships with the project, so this walks the syntax trees with the
standard library.  ``__init__.py`` re-exports names it does not use and is
exempt from the import check.
"""

import ast
import functools
import importlib
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "polycarleson"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# every module but __main__, which runs the command line when imported
IMPORTED = {p.stem: importlib.import_module(f"polycarleson.{p.stem}")
            for p in MODULES if p.stem != "__main__"}


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line, for every import statement in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, including inside quoted annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


def test_package_has_modules():
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def doc_references(text: str) -> set[str]:
    """The double-backticked private, CamelCase and dotted names in a module's text."""
    refs = re.findall(r"``([A-Za-z_][\w.]*)``", text)
    return {ref for ref in refs
            if ref.startswith("_") or "." in ref or re.match(r"[A-Z]\w*[a-z]", ref)}


def resolves(ref: str) -> bool:
    """Whether ``ref`` is a package module's attribute path, or a module name and one."""
    head, *rest = ref.split(".")
    for space in [IMPORTED, *map(vars, IMPORTED.values())]:
        if head in space:
            try:
                functools.reduce(getattr, rest, space[head])
                return True
            except AttributeError:
                continue
    return False


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_docstring_references_exist(path):
    missing = sorted(ref for ref in doc_references(path.read_text()) if not resolves(ref))
    assert not missing, f"{path.name} names what the package does not define: {missing}"


def config_imports(tree: ast.Module) -> list[int]:
    """Lines of import statements that read ``polycarleson.config``, relatively or not."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            modules = [base] + [f"{base}.{alias.name}".lstrip(".") for alias in node.names]
        else:
            continue
        if any(m in ("config", "polycarleson.config") for m in modules):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("name", ["sublevel", "carleson", "measure", "montecarlo"])
def test_measure_route_reads_no_tolerances(name):
    path = PACKAGE / f"{name}.py"
    lines = config_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"{name}.py imports polycarleson.config on lines {lines}"
