"""Source-level rules the package keeps: numpy.linalg is called only from
``eigensolve.py``, the one generalized eigensolver, so every factorization
and eigensolve goes through its checked, typed-error boundary; the
radial oracle (``radial.py`` with its determinant ``determinant.py`` and
Bessel library ``specfun.py``) imports nothing of the Galerkin machinery,
so it stays an independent check of it; the experiment drivers import no
private name of ``radial.py``, and the radial scan has one caller, the
listing ``te_lists_up_to``, so every radial result comes from that one
listing; every error type ``errors.py`` declares but the base class is
raised somewhere in the package, and the base class nowhere; and every
top-level definition is referenced by the package, with no exception."""

import ast
from pathlib import Path

import teig
from teig import errors

SRC = Path(teig.__file__).resolve().parent


def linalg_uses(path):
    """(function, attribute, line) for every numpy.linalg reference in a
    module, with the name of the enclosing top-level function."""
    tree = ast.parse(path.read_text(), filename=str(path))
    uses = []
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom) and node.module:
                if node.module.startswith("numpy.linalg") or (
                    node.module == "numpy" and any(a.name == "linalg" for a in node.names)
                ):
                    uses.append((owner, "import", node.lineno))
            elif isinstance(node, ast.Import):
                if any(a.name.startswith("numpy.linalg") for a in node.names):
                    uses.append((owner, "import", node.lineno))
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "linalg"
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id in ("np", "numpy")
            ):
                uses.append((owner, node.attr, node.lineno))
    return uses


def test_linalg_only_in_the_eigensolver():
    found = [
        f"{path.name}:{line} {owner} uses numpy.linalg.{attr}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "eigensolve.py"
        for owner, attr, line in linalg_uses(path)
    ]
    assert found == []


def test_the_guard_sees_every_form_of_use():
    # the guard finds the calls eigensolve.py makes, so it looks at real code
    seen = {attr for _, attr, _ in linalg_uses(SRC / "eigensolve.py")}
    assert seen >= {"cholesky", "inv", "eigvalsh", "solve", "eigvals", "LinAlgError"}


def test_the_guard_flags_imports_and_attributes(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\n"
        "from numpy.linalg import eigh\n"
        "from numpy import linalg\n"
        "def f(a):\n"
        "    return np.linalg.svd(a)\n"
    )
    assert linalg_uses(probe) == [
        ("<module>", "import", 2), ("<module>", "import", 3), ("f", "svd", 5)
    ]


ORACLE = ("radial.py", "determinant.py", "specfun.py")
GALERKIN = {"assembly", "curves", "eigensolve"}


def teig_imports(path):
    """Names of the teig modules a module imports, in any spelling:
    ``from .m import f``, ``from . import m``, ``from teig.m import f``,
    ``from teig import m`` and ``import teig.m``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("teig"):
                continue
            module = (node.module or "").removeprefix("teig").lstrip(".")
            if module:
                names.add(module.split(".")[0])
            else:
                names.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("teig."):
                    names.add(a.name.split(".")[1])
    return names


def test_the_oracle_imports_no_galerkin_module():
    for name in ORACLE:
        assert teig_imports(SRC / name) & GALERKIN == set(), name


def test_the_import_guard_sees_every_spelling(tmp_path):
    assert "curves" in teig_imports(SRC / "experiments.py")
    assert "specfun" in teig_imports(SRC / "radial.py")
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\n"
        "import teig.assembly\n"
        "from teig import curves\n"
        "from teig.eigensolve import reduce\n"
        "from . import model\n"
        "from .errors import TeigError\n"
        "from .specfun import _ladders\n"
    )
    assert teig_imports(probe) == GALERKIN | {"model", "errors", "specfun"}


def private_imports(path, module):
    """Underscore-prefixed names a module imports from the teig module
    ``module`` (``from .module import _name`` or ``from teig.module import
    _name``)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {
        a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").removeprefix("teig").lstrip(".") == module
        and (node.level > 0 or (node.module or "").startswith("teig"))
        for a in node.names
        if a.name.startswith("_")
    }


def test_the_drivers_import_no_private_radial_name():
    assert private_imports(SRC / "experiments.py", "radial") == set()


def test_the_private_import_guard_sees_every_spelling(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .radial import _scan, first_te\n"
        "from teig.radial import _polish\n"
        "from .determinant import _det_grid\n"
        "from radial import _elsewhere\n"
    )
    assert private_imports(probe, "radial") == {"_scan", "_polish"}


def callers(path, name):
    """(top-level definition, line) for every call of ``name`` in a module,
    as a bare name or as an attribute, with ``<module>`` for module-level
    code."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                    found.append((owner, node.lineno))
    return found


def test_the_listing_alone_calls_the_scan():
    found = [
        (path.name, owner)
        for path in sorted(SRC.glob("*.py"))
        for owner, _ in callers(path, "_scan_determinant")
    ]
    assert found == [("radial.py", "te_lists_up_to")]


def test_the_call_guard_sees_names_and_attributes(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from teig import radial\n"
        "from teig.radial import _scan_determinant\n"
        "def first_te(ball):\n"
        "    return _scan_determinant(ball, (0,), hi, 400, tol)\n"
        "class Scanner:\n"
        "    def run(self, ball):\n"
        "        return radial._scan_determinant(ball, (0,), hi, 400, tol)\n"
        "scan = _scan_determinant\n"
        "_scan_determinant(None, (), hi, 2, tol)\n"
    )
    assert callers(probe, "_scan_determinant") == [
        ("first_te", 4), ("Scanner", 7), ("<module>", 9)
    ]


def raised_names(path):
    """Names of the exception classes a module raises: ``raise E(...)`` and
    ``raise E``, with E a name or a module attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_every_error_type_is_raised_by_the_package():
    declared = {
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.TeigError)
    }
    raised = set().union(*(raised_names(path) for path in SRC.glob("*.py")))
    assert "ValidationError" in raised  # the scan sees real raise statements
    # the base class is only caught: its code would name no failure
    assert declared - raised == {"TeigError"}


def definitions(tree):
    """(name, statement) for every top-level function, class and constant of
    a module; dunder names are left out."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            yield top.name, top
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            for target in top.targets if isinstance(top, ast.Assign) else [top.target]:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name) and not node.id.startswith("__"):
                        yield node.id, top


def referenced_names(node):
    """Names a statement reads: loaded names, attributes and imported names."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name.rsplit(".", 1)[-1])
    return names


def test_every_definition_is_referenced_by_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    reads = {top: referenced_names(top) for tree in trees.values() for top in tree.body}
    defined = [
        (module, name, top) for module, tree in trees.items() for name, top in definitions(tree)
    ]
    assert len(defined) > 100  # the scan sees the real definitions
    unreferenced = {
        (module, name)
        for module, name, top in defined
        if not any(name in names for other, names in reads.items() if other is not top)
    }
    assert unreferenced == set()
