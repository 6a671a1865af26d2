"""Every name a library module imports is used in that module, every
function, class and method is referenced somewhere in the package, no library
module imports scipy.integrate, ``import qbmor`` loads neither
scipy.integrate nor scipy.optimize, every type in qbmor.errors is used
by some other library module, no module but kron_tensor reads the
private members of its Hessian, no module but matrix_equations names
LAPACK's band LU or the reverse Cuthill-McKee order, and every name a
script under scripts/ imports from qbmor exists.

Walks the syntax tree of each module under src/qbmor (the package's
__init__.py re-exports by design: the import check skips it, and its
re-exports count as references) and of each script, imports the package
once in a fresh interpreter, and looks the scripts' names up in the
modules they name; needs only the standard library and qbmor's own
dependencies.
"""

import ast
import importlib
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "qbmor")
MODULES = sorted(name for name in os.listdir(SRC)
                 if name.endswith(".py") and name != "__init__.py")
SCRIPTS_DIR = os.path.join(SRC, os.pardir, os.pardir, "scripts")
SCRIPTS = sorted(name for name in os.listdir(SCRIPTS_DIR)
                 if name.endswith(".py"))


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


# defined for the tests alone: gate 1's permutation identities and the
# dense form of a permutation
UNREFERENCED = {"commutation_matrix", "perm_M", "PermutationMatrix.to_dense"}


def _definitions(tree, prefix=""):
    # qualified names of the functions and classes, methods as Class.name
    for node in ast.iter_child_nodes(tree):
        inner = prefix
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield prefix + node.name, node
            if isinstance(node, ast.ClassDef):
                inner = prefix + node.name + "."
        yield from _definitions(node, inner)


def _is_command(node):
    # click registers a decorated command with its group
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group")
               for d in node.decorator_list)


def _package_references():
    # attribute and plain names, and the names of ``from ... import``, so
    # that a re-export in __init__.py counts
    names = set()
    for module in MODULES + ["__init__.py"]:
        tree = _parse(module)
        names |= _referenced_names(tree) | {
            alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}
    return names


@pytest.mark.parametrize("module", MODULES)
def test_every_definition_is_referenced(module):
    referenced = _package_references()
    dead = sorted(name for name, node in _definitions(_parse(module))
                  if node.name not in referenced
                  and not (node.name.startswith("__")
                           and node.name.endswith("__"))
                  and name not in UNREFERENCED and not _is_command(node))
    assert not dead, "%s defines names no library module references: %s" % (
        module, dead)


def _hessian_private_members():
    # the underscore methods the Hessian class defines and the underscore
    # attributes its body assigns
    cls = next(node for node in _parse("kron_tensor.py").body
               if isinstance(node, ast.ClassDef) and node.name == "Hessian")
    names = {node.name for node in cls.body
             if isinstance(node, ast.FunctionDef)}
    names |= {node.attr for node in ast.walk(cls)
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Store)}
    return {name for name in names
            if name.startswith("_") and not name.endswith("__")}


@pytest.mark.parametrize("module", [module for module in MODULES
                                    if module != "kron_tensor.py"])
def test_hessian_storage_stays_in_kron_tensor(module):
    # how a Hessian stores its pairs is kron_tensor's business: other
    # modules go through its public methods
    private = _hessian_private_members()
    assert {"_half", "_scaled_from", "_active"} <= private
    found = sorted({node.attr for node in ast.walk(_parse(module))
                    if isinstance(node, ast.Attribute)} & private)
    assert not found, "%s reads Hessian members %s" % (module, found)


_BAND_LU = {"gbtrf", "gbtrs", "reverse_cuthill_mckee"}


def _band_lu_names(module):
    # identifiers, attributes, imported names and string constants such as
    # get_lapack_funcs' routine names; a docstring that mentions one is a
    # longer string and does not count
    names = set()
    for node in ast.walk(_parse(module)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names & _BAND_LU


@pytest.mark.parametrize("module", [module for module in MODULES
                                    if module != "matrix_equations.py"])
def test_band_lu_stays_in_matrix_equations(module):
    # laying a sparse matrix out for LAPACK's band LU, and factoring it, is
    # matrix_equations' business: other modules go through its _BandLayout
    assert _band_lu_names("matrix_equations.py") == _BAND_LU
    found = sorted(_band_lu_names(module))
    assert not found, "%s names the band LU routines %s" % (module, found)


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_imports_exist_in_qbmor(script):
    # the scripts are parsed, not run, so their own dependencies (mpmath)
    # need not be installed; a name the package lost breaks the script
    with open(os.path.join(SCRIPTS_DIR, script)) as fh:
        tree = ast.parse(fh.read(), filename=script)
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
            names = []
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
            names = [alias.name for alias in node.names]
        else:
            continue
        for module in modules:
            if module.split(".")[0] != "qbmor":
                continue
            owner = importlib.import_module(module)
            missing += ["%s.%s" % (module, name) for name in names
                        if not hasattr(owner, name)]
    assert not missing, "%s imports names qbmor lacks: %s" % (script,
                                                              missing)
