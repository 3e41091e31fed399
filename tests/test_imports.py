"""The library imports only the standard library, numpy, scipy and itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bisyncgames"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "bisyncgames"}


def imported_roots(path):
    """The top-level names of every absolute import in one module."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_package_imports_only_stdlib_numpy_and_scipy():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    strays = {path.name: sorted(imported_roots(path) - ALLOWED) for path in modules}
    assert {name: roots for name, roots in strays.items() if roots} == {}


def test_the_check_sees_imports_inside_functions(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\n\ndef f():\n    import networkx\n    from sympy import Matrix\n")
    assert imported_roots(module) - ALLOWED == {"networkx", "sympy"}
