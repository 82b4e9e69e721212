"""Every imported name is used, and every exported name has a caller.

An import that nothing reads is dead code that still costs a load and
misleads the reader about a module's dependencies.  ``__init__.py`` imports
are the package's re-exports, and ``from __future__`` imports are
directives, so both are exempt.

A name the package exports must be reached by the library, a benchmark
workload or a script; a name only tests reach belongs in ``tests/``.  So
must each public method and property of a class the package exports, read
there as an attribute; dataclass fields are exempt.  A
module-level private name of the library must be read by the library
outside its own definition; a helper that only tests read belongs in
``tests/`` too.

Only ``calibration.py`` spells a two-ion mode label as a string, since
``calibration._mode`` alone resolves mode names.  Neither the import nor
any CLI command loads scipy, gradient inference
loads no ``scipy.optimize``, and the Davidson Fock oracle loads no
``scipy.sparse.linalg``.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import COMMAND_CONFIGS, CONFIGS

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for pattern in ("src/ionmodes/*.py", "tests/*.py",
                                   "scripts/*.py")
                 for p in ROOT.glob(pattern) if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never referenced."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported.setdefault(alias.asname or alias.name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_unused_and_ignores_used():
    src = ("from __future__ import annotations\n"
           "import os, os.path as osp\n"
           "import numpy.linalg\n"
           "from math import pi, tau as turn\n"
           "x = os.sep + str(pi)\n")
    assert unused_imports(src) == ["osp (line 2)", "numpy (line 3)",
                                   "turn (line 4)"]


def exported_names(init_source: str) -> list[str]:
    """Names an ``__init__.py`` re-exports through ``from . import``."""
    return [alias.asname or alias.name for node in ast.parse(init_source).body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def names_without_caller(names, sources) -> list[str]:
    """Names that appear as a whole word in none of the sources, not
    counting the ``def``/``class`` line that defines them."""
    missing = []
    for name in names:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not own.match(line)
                   for src in sources for line in src.splitlines()):
            missing.append(name)
    return missing


def members_without_reader(classes, sources) -> list[str]:
    """``Class.member`` for each public method and property defined in the
    body of a class named in ``classes`` that no source reads as an
    attribute ``.member``."""
    trees = [ast.parse(src) for src in sources]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    return [f"{node.name}.{item.name}" for tree in trees for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name in classes
            for item in node.body if isinstance(item, ast.FunctionDef)
            and not item.name.startswith("_") and item.name not in read]


def _callers() -> list[str]:
    return [p.read_text() for pattern in ("src/ionmodes/*.py", "bench/*.py",
                                          "scripts/*.py")
            for p in ROOT.glob(pattern) if p.name != "__init__.py"]


def test_every_export_has_a_caller():
    names = exported_names((ROOT / "src/ionmodes/__init__.py").read_text())
    assert names_without_caller(names, _callers()) == []


def test_every_exported_member_has_a_reader():
    names = exported_names((ROOT / "src/ionmodes/__init__.py").read_text())
    assert members_without_reader(set(names), _callers()) == []


def test_member_checker_reads_attributes_only():
    sources = ["class C:\n    n: int = 0\n"
               "    def f(self):\n        return self.g()\n"
               "    def g(self):\n        return 1\n"
               "    @property\n    def p(self):\n        return 2\n"
               "    def _h(self):\n        return 3\n",
               "class D:\n    def f(self):\n        pass\n",
               "# C.p is documented here, and f called as f()\nf()\n"]
    assert members_without_reader({"C"}, sources) == ["C.f", "C.p"]


def test_caller_checker_ignores_definitions_and_substrings():
    init = "from .a import f, g as h, C\nfrom .b import k\n"
    sources = ["def f(x):\n    return ff(x)\n",
               "class C:\n    pass\n\ny = C()\n", "z = h + 1\n"]
    assert exported_names(init) == ["f", "h", "C", "k"]
    assert names_without_caller(exported_names(init), sources) == ["f", "k"]


def private_names_without_reader(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and constants (a leading
    underscore, dunders exempt) of the ``{module: source}`` map that no
    source reads, as a name or an attribute, outside their own definition."""
    trees = {module: ast.parse(src) for module, src in sources.items()}
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names = [t.id for t in ast.walk(node) if isinstance(t, ast.Name)
                         and isinstance(t.ctx, ast.Store)]
            else:
                continue
            defined += [(module, name, node) for name in names
                        if name.startswith("_")
                        and not (name.startswith("__") and name.endswith("__"))]
    reads = [(module, node.lineno, node.id if isinstance(node, ast.Name)
              else node.attr)
             for module, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
             or isinstance(node, ast.Attribute)]
    return [f"{module}.{name}" for module, name, node in defined
            if not any(read == name and not (
                where == module and node.lineno <= line <= node.end_lineno)
                for where, line, read in reads)]


def test_every_private_name_has_a_reader():
    sources = {p.stem: p.read_text()
               for p in sorted((ROOT / "src/ionmodes").glob("*.py"))}
    assert private_names_without_reader(sources) == []


def test_private_checker_ignores_own_body_and_dunders():
    sources = {
        "a": ("__all__ = []\n_K = 1\n_L: int = 2\n"
              "def _f(n):\n    return _f(n - 1)\n"
              "class _C:\n    def m(self):\n        return _C()\n"
              "def g():\n    return _L\n"),
        "b": "import a\ny = a._K\n",
    }
    assert private_names_without_reader(sources) == ["a._f", "a._C"]


MODE_LABELS = {"in_phase", "out_of_phase"}


def mode_label_spellings(source: str) -> list[int]:
    """Lines of the string constants that spell a two-ion mode label."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value in MODE_LABELS]


def test_mode_labels_spelled_only_in_calibration():
    """``calibration._mode`` owns the two-ion mode vocabulary: any other
    module names a label as ``calibration.IN_PHASE`` or ``OUT_OF_PHASE``."""
    spelled = {p.name: mode_label_spellings(p.read_text())
               for p in sorted((ROOT / "src/ionmodes").glob("*.py"))
               if p.name != "calibration.py"}
    assert {name: lines for name, lines in spelled.items() if lines} == {}


def test_label_checker_reads_string_constants_only():
    source = ('"""Docs on in_phase."""\nx = "in_phase"\ny = IN_PHASE\n'
              'z = {"out_of_phase": 0}\nw = "in_phase_x"\n')
    assert mode_label_spellings(source) == [2, 4]


def test_import_and_every_command_load_no_scipy():
    """``import ionmodes`` and every CLI command on its shipped config load
    no scipy module: the one scipy import left in the library, fockspace's
    sparse Hamiltonian, is made only when a Fock-space problem is built."""
    code = (
        "import contextlib, io, sys\n"
        "import ionmodes, ionmodes.cli\n"
        "for command, config in zip(sys.argv[1::2], sys.argv[2::2]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert ionmodes.cli.main([command, '--config', config]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    args = [arg for command, name in COMMAND_CONFIGS.items()
            for arg in (command, str(CONFIGS / name))]
    assert len(args) == 14
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_and_modes_command_leave_lazy_scipy_unloaded():
    """The library imports scipy only where it is needed: fockspace's sparse
    matrix.  Neither the import nor the modes command loads any of it."""
    code = (
        "import sys\n"
        "def scipy_modules():\n"
        "    return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "import ionmodes, ionmodes.cli\n"
        "loaded = scipy_modules()\n"
        "ionmodes.cli.main(['modes', '--config', sys.argv[1]])\n"
        "loaded += scipy_modules()\n"
        "print(loaded, file=sys.stderr)\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "configs/modes_bmmb.json")],
        capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "[]"


def test_gradient_inference_leaves_scipy_optimize_unloaded():
    """The joint (p, g) root find is numpy only."""
    code = (
        "import sys\n"
        "from ionmodes import BE9, MG24, PotentialFamily, \\\n"
        "    axial_from_lambdas, infer_pseudo_gradient\n"
        "pot = axial_from_lambdas(1.3e7, {3: -230e-6}, "
        "pseudo_reference=BE9)\n"
        "fam = PotentialFamily(base=pot, kappa_actions={3: -pot.kappa[3]})\n"
        "infer_pseudo_gradient(fam, BE9, MG24, 150.0, (-1.0, 1.0), "
        "(0.0, 2.0))\n"
        "print('scipy.optimize' in sys.modules, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "False"


def test_certified_fock_level_leaves_sparse_linalg_unloaded():
    """Davidson iteration needs only the sparse matrix product: no SuperLU,
    no ARPACK, and so no ``scipy.sparse.linalg``."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from ionmodes import fockspace\n"
        "from ionmodes.constants import HBAR\n"
        "def no_dense(*args):\n"
        "    raise AssertionError('dense fallback taken')\n"
        "fockspace.eigh = no_dense\n"
        "omega = 2 * np.pi * np.array([4.9e6, 1.7e6])\n"
        "g4 = np.full((2, 2, 2, 2), 1e-4 * HBAR * omega.min())\n"
        "fockspace.exact_transition_frequency(omega, None, g4, [1, 0], 1, 10)\n"
        "print('scipy.sparse.linalg' in sys.modules, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "False"
