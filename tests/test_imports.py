"""Every name a library module imports is used in that module, no library
module imports scipy.integrate, ``import qbmor`` loads neither
scipy.integrate nor scipy.optimize, and every type in qbmor.errors is used
by some other library module.

Walks the syntax tree of each module under src/qbmor (the package's
__init__.py re-exports by design and is skipped), and imports the package
once in a fresh interpreter; needs only the standard library.
"""

import ast
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "qbmor")
MODULES = sorted(name for name in os.listdir(SRC)
                 if name.endswith(".py") and name != "__init__.py")


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name


def _used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _parse(module):
    with open(os.path.join(SRC, module)) as fh:
        return ast.parse(fh.read(), filename=module)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    tree = _parse(module)
    unused = sorted(set(_imported_names(tree)) - _used_names(tree))
    assert not unused, "%s imports unused names: %s" % (module, unused)


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            for alias in node.names:
                yield node.module + "." + alias.name


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_no_scipy_integrate(module):
    # simulate steps with qbmor's own Radau port; scipy's solvers are only
    # an oracle for the tests
    found = sorted(name for name in _imported_modules(_parse(module))
                   if name == "scipy.integrate"
                   or name.startswith("scipy.integrate."))
    assert not found, "%s imports %s" % (module, found)


def test_import_loads_no_scipy_solver_packages():
    # a fresh interpreter, so that no other test's imports count
    path = os.pathsep.join(filter(None, [os.path.dirname(os.path.abspath(SRC)),
                                         os.environ.get("PYTHONPATH")]))
    code = ("import sys, qbmor; print(' '.join(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'integrate'], "
            "['scipy', 'optimize']))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def _referenced_names(tree):
    return _used_names(tree) | {node.attr for node in ast.walk(tree)
                                if isinstance(node, ast.Attribute)}


ERROR_TYPES = [node.name for node in _parse("errors.py").body
               if isinstance(node, ast.ClassDef)]


@pytest.mark.parametrize("name", ERROR_TYPES)
def test_error_type_is_used_outside_errors(name):
    # a type that only tests raise or catch is dead code; subclassing it
    # inside errors.py does not count as a use
    users = [module for module in MODULES if module != "errors.py"
             and name in _referenced_names(_parse(module))]
    assert users, "%s is referenced by no module but errors.py" % name
