"""Every imported name is used, and every exported name has a caller.

An import that nothing reads is dead code that still costs a load and
misleads the reader about a module's dependencies.  ``__init__.py`` imports
are the package's re-exports, and ``from __future__`` imports are
directives, so both are exempt.

A name the package exports must be reached by the library, a benchmark
workload or a script; a name only tests reach belongs in ``tests/``.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


# the only public way into the statics kernel at off-equilibrium positions,
# which the README documents and ``hessian``/``derivative_tensors`` refuse
NO_CALLER_NEEDED = {"total_energy", "energy_gradient", "energy_hessian"}


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


def test_every_export_has_a_caller():
    callers = [p.read_text() for pattern in ("src/ionmodes/*.py", "bench/*.py",
                                              "scripts/*.py")
               for p in ROOT.glob(pattern) if p.name != "__init__.py"]
    names = exported_names((ROOT / "src/ionmodes/__init__.py").read_text())
    assert names_without_caller(
        [n for n in names if n not in NO_CALLER_NEEDED], callers) == []


def test_caller_checker_ignores_definitions_and_substrings():
    init = "from .a import f, g as h, C\nfrom .b import k\n"
    sources = ["def f(x):\n    return ff(x)\n",
               "class C:\n    pass\n\ny = C()\n", "z = h + 1\n"]
    assert exported_names(init) == ["f", "h", "C", "k"]
    assert names_without_caller(exported_names(init), sources) == ["f", "k"]


# scipy modules only fockspace, null_parameter's brentq and
# carrier_matrix_element need
LAZY_SCIPY = ("scipy.optimize", "scipy.sparse", "scipy.special")


def test_import_and_modes_command_leave_lazy_scipy_unloaded():
    code = (
        "import sys\n"
        "import ionmodes, ionmodes.cli\n"
        f"lazy = {LAZY_SCIPY!r}\n"
        "loaded = [m for m in lazy if m in sys.modules]\n"
        "ionmodes.cli.main(['modes', '--config', sys.argv[1]])\n"
        "loaded += [m for m in lazy if m in sys.modules]\n"
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
