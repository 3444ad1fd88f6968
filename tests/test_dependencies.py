"""The package runs on numpy alone and holds no unused import and no unread private name."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np

from helpers import run_python


def test_import_loads_no_scipy():
    proc = run_python(
        "-c",
        "import sys, qmaxent; "
        "print(sorted(k for k in sys.modules if k.startswith('scipy')))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_flow_to_constraint_without_scipy():
    # a None entry makes every import of scipy fail
    proc = run_python(
        "-c",
        "import sys; sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "from qmaxent import flow_to_constraint, make_density, make_hermitian\n"
        "prior = make_density((np.eye(2) + 0.5 * np.array([[0, 1], [1, 0]])) / 2)\n"
        "lam, _ = flow_to_constraint(prior, make_hermitian(np.diag([1.0, -1.0])), 0.6)\n"
        "print(repr(lam))",
    )
    assert proc.returncode == 0, proc.stderr
    assert abs(float(proc.stdout) + np.log(2.0)) <= 1e-10


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_detection():
    source = "import os\nfrom sys import path, argv\n__all__ = ['argv']\nprint(path)\n"
    assert _unused_imports(source) == ["os (line 1)"]


def test_no_unused_imports_in_the_package():
    package = Path(__file__).resolve().parent.parent / "src" / "qmaxent"
    unused = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if (names := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


def _unread_privates(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and constants that no module reads.

    A name is read when some module loads it by name, reads it as an attribute or
    imports it.  ``sources`` maps module file names to their text.
    """
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [
                f"{module}: {name} (line {node.lineno})"
                for name in names
                if name.startswith("_") and not name.startswith("__") and name not in read
            ]
    return unread


def test_unread_private_detection():
    sources = {
        "a.py": "_USED = 1\n_UNUSED: int = 2\n_ATTR = 3\n"
        "def _helper():\n    return _USED\nclass _Dead:\n    pass\n__all__ = []\n",
        "b.py": "import a\nfrom a import _helper\nprint(a._ATTR)\n",
    }
    assert _unread_privates(sources) == ["a.py: _UNUSED (line 2)", "a.py: _Dead (line 6)"]


def test_no_unread_privates_in_the_package():
    package = Path(__file__).resolve().parent.parent / "src" / "qmaxent"
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    assert _unread_privates(sources) == []
