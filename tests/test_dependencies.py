"""The package runs on numpy alone, holds no unused import and no unread private name,
keeps its oracles independent of the routes they check, builds each frozen object by one
constructor, converts caller numbers and judges computed values in one module, judges operand
kinds in one function and leaves the garbage collector to the console entry."""

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


def _reached(source: str, root: str) -> set[str]:
    """Names that ``root`` loads and, in turn, that the module-level functions and classes it
    names load."""
    tree = ast.parse(source)
    defs = {
        node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    reached, pending = set(), [root]
    while pending:
        name = pending.pop()
        if name in reached:
            continue
        reached.add(name)
        if name in defs:
            pending += [
                n.id
                for n in ast.walk(defs[name])
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            ]
    return reached


def test_reached_detection():
    source = (
        "def _core():\n    return 0\nclass _Set:\n    def m(self):\n        return _core()\n"
        "def _other():\n    return 1\ndef solve(s: _Set):\n    return s.m()\n"
    )
    assert {"_Set", "_core"} <= _reached(source, "solve")
    assert "_other" not in _reached(source, "solve")


def test_oracles_stay_independent():
    # criterion 03 checks solve_maxent against classical_gibbs_oracle, and criterion 10
    # checks solve_prior_tilt, which runs on the oracle's iteration, against flow_to_constraint
    source = (Path(__file__).resolve().parent.parent / "src" / "qmaxent" / "maxent.py").read_text(
        encoding="utf-8"
    )
    assert not {"_classical_gibbs", "classical_gibbs_oracle"} & _reached(source, "solve_maxent")
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module or "", *(alias.name for alias in node.names)}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert not [name for name in imported if name.split(".")[-1] == "flow"]


def _construction_bypasses(sources: dict[str, str]) -> list[str]:
    """Calls of ``object.__setattr__`` or ``object.__new__`` outside a ``__post_init__`` and
    ``operators._computed``, the only places that build frozen objects, and imports of ``copy``,
    whose copies skip ``__post_init__``.  ``sources`` maps module file names to their text."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        builders = {"__post_init__"} | ({"_computed"} if module == "operators.py" else set())
        allowed = {
            id(inner)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name in builders
            for inner in ast.walk(node)
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("__setattr__", "__new__")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "object"
                and id(node) not in allowed
            ):
                found.append(f"{module}: object.{node.func.attr} (line {node.lineno})")
            elif (isinstance(node, ast.Import) and "copy" in (a.name for a in node.names)) or (
                isinstance(node, ast.ImportFrom) and node.module == "copy"
            ):
                found.append(f"{module}: import copy (line {node.lineno})")
    return found


def test_construction_bypass_detection():
    sources = {
        "a.py": "import copy\nclass S:\n    def __post_init__(self):\n"
        "        object.__setattr__(self, 'x', 1)\n"
        "    def moved(self):\n        object.__setattr__(copy.copy(self), 'x', 2)\n",
        "operators.py": "def _computed(cls):\n    return object.__new__(cls)\n"
        "def _other(cls):\n    return object.__new__(cls)\n",
        "b.py": "from copy import copy\n",
    }
    assert _construction_bypasses(sources) == [
        "a.py: import copy (line 1)",
        "a.py: object.__setattr__ (line 6)",
        "operators.py: object.__new__ (line 4)",
        "b.py: import copy (line 1)",
    ]


def test_frozen_objects_built_only_by_their_constructors():
    # a frozen ConstraintSet is built by __post_init__ alone, and a computed operator by
    # operators._computed, so no second path can skip a check or forget a field
    package = Path(__file__).resolve().parent.parent / "src" / "qmaxent"
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    assert _construction_bypasses(sources) == []


def _asarray_calls(sources: dict[str, str]) -> list[str]:
    """Calls of ``asarray`` (``np.asarray`` or an imported name) outside ``operators.py``, whose
    ``_reals`` alone judges caller numbers and whose constructors alone judge matrices.
    ``sources`` maps module file names to their text."""
    found = []
    for module, source in sources.items():
        if module == "operators.py":
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and (
                (isinstance(node.func, ast.Attribute) and node.func.attr == "asarray")
                or (isinstance(node.func, ast.Name) and node.func.id == "asarray")
            ):
                found.append(f"{module}: asarray (line {node.lineno})")
    return found


def test_asarray_call_detection():
    sources = {
        "operators.py": "import numpy as np\ndef _reals(raw):\n    return np.asarray(raw)\n",
        "maxent.py": "import numpy as np\nx = np.asarray([1.0])\ny = np.array([1.0])\n",
        "flow.py": "from numpy import asarray\nz = asarray(0.5)\n",
    }
    assert _asarray_calls(sources) == ["maxent.py: asarray (line 2)", "flow.py: asarray (line 2)"]


def test_caller_numbers_judged_only_in_operators():
    # every caller number reaches the package through operators._reals, one rule in one home
    package = Path(__file__).resolve().parent.parent / "src" / "qmaxent"
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    assert _asarray_calls(sources) == []


def _overflow_constructions(sources: dict[str, str]) -> list[str]:
    """Each ``Overflow`` a module makes, by a call or a bare ``raise Overflow``, named by the
    module and the module-level definition that makes it.  ``sources`` maps module file names
    to their text."""
    found = []
    for module, source in sources.items():
        for top in ast.parse(source).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    made = node.func
                elif isinstance(node, ast.Raise):
                    made = node.exc
                else:
                    continue
                if (isinstance(made, ast.Name) and made.id == "Overflow") or (
                    isinstance(made, ast.Attribute) and made.attr == "Overflow"
                ):
                    found.append(f"{module}: {getattr(top, 'name', 'module level')}")
    return found


def test_overflow_construction_detection():
    sources = {
        "operators.py": "def _finite(x):\n    raise Overflow(f'{x} is not finite')\n",
        "maxent.py": "from . import errors\ndef z(x):\n    if x:\n        raise Overflow\n"
        "    return errors.Overflow('Z')\nclass S:\n    def m(self):\n        raise Overflow()\n",
        "flow.py": "try:\n    pass\nexcept Overflow as exc:\n    raise PositivityLoss() from exc\n",
        "cli.py": "E = Overflow('at import')\n",
    }
    assert _overflow_constructions(sources) == [
        "operators.py: _finite",
        "maxent.py: z",
        "maxent.py: z",
        "maxent.py: S",
        "cli.py: module level",
    ]


def test_overflow_raised_only_by_the_one_judge():
    # a result that is not finite is refused by operators._finite (through _operator for a
    # matrix); _tilt's normalization refusal, which also refuses a trace <= 0, is the other
    package = Path(__file__).resolve().parent.parent / "src" / "qmaxent"
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    assert _overflow_constructions(sources) == ["operators.py: _finite", "operators.py: _tilt"]


def _density_kind_checks(sources: dict[str, str]) -> list[str]:
    """Each ``isinstance`` call whose class argument names ``DensityOperator``, alone, in a
    tuple or in any expression, named by the module and the module-level definition that
    makes it.  ``sources`` maps module file names to their text."""
    found = []
    for module, source in sources.items():
        for top in ast.parse(source).body:
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"
                    and len(node.args) == 2
                    and any(
                        (isinstance(n, ast.Name) and n.id == "DensityOperator")
                        or (isinstance(n, ast.Attribute) and n.attr == "DensityOperator")
                        for n in ast.walk(node.args[1])
                    )
                ):
                    found.append(f"{module}: {getattr(top, 'name', 'module level')}")
    return found


def test_density_kind_check_detection():
    sources = {
        "operators.py": "def _common_dim(*ops, states=0):\n"
        "    for k, op in enumerate(ops):\n"
        "        isinstance(op, kind := DensityOperator if k < states else HermitianOperator)\n"
        "def expectation(state):\n    return isinstance(state, HermitianOperator)\n",
        "flow.py": "from . import operators\nclass F:\n    def m(self, s):\n"
        "        return isinstance(s, operators.DensityOperator)\n"
        "ok = isinstance(x, (int, DensityOperator))\n",
    }
    assert _density_kind_checks(sources) == [
        "operators.py: _common_dim",
        "flow.py: F",
        "flow.py: module level",
    ]


def test_operand_kinds_judged_only_by_common_dim():
    # a state slot is refused a HermitianOperator that is not a DensityOperator by
    # operators._common_dim alone, so no call site keeps a kind rule of its own
    package = Path(__file__).resolve().parent.parent / "src" / "qmaxent"
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    assert _density_kind_checks(sources) == ["operators.py: _common_dim"]


def _gc_references(sources: dict[str, str]) -> list[str]:
    """Imports and names of ``gc`` outside ``main`` in ``cli.py``, the console entry, which alone
    may freeze the heap: a library caller's collector is its own.  ``sources`` maps module file
    names to their text."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        allowed = {
            id(inner)
            for node in tree.body
            if module == "cli.py" and isinstance(node, ast.FunctionDef) and node.name == "main"
            for inner in ast.walk(node)
        }
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if isinstance(node, ast.Import) and "gc" in (a.name for a in node.names):
                found.append(f"{module}: import gc (line {node.lineno})")
            elif isinstance(node, ast.ImportFrom) and node.module == "gc":
                found.append(f"{module}: from gc (line {node.lineno})")
            elif isinstance(node, ast.Name) and node.id == "gc":
                found.append(f"{module}: gc (line {node.lineno})")
    return found


def test_gc_reference_detection():
    sources = {
        "cli.py": "import gc\ndef main():\n    import gc\n    gc.freeze()\n"
        "def run():\n    gc.collect()\n",
        "maxent.py": "from gc import freeze\ndef main():\n    import gc\n",
    }
    assert _gc_references(sources) == [
        "cli.py: import gc (line 1)",
        "cli.py: gc (line 6)",
        "maxent.py: from gc (line 1)",
        "maxent.py: import gc (line 3)",
    ]


def test_only_the_console_entry_touches_gc():
    package = Path(__file__).resolve().parent.parent / "src" / "qmaxent"
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    assert _gc_references(sources) == []
