"""Source-level rules the package keeps: numpy.linalg is called only from
``eigensolve.py``, the one generalized eigensolver, so every factorization
and eigensolve goes through its checked, typed-error boundary; the
radial oracle (``radial.py`` with its determinant ``determinant.py`` and
Bessel library ``specfun.py``) imports nothing of the Galerkin machinery,
so it stays an independent check of it; the experiment drivers import no
private name of ``radial.py``, and the radial scan has one caller, the
listing ``te_list_up_to``, so every listed radial root comes from that
one listing, while the count route (``counting_experiment``) reaches
neither the listing nor the scan, and both pick their orders by one rule,
``_orders_below``; the radius reaches the oracle only
through the one map to the unit ball, ``RadialProblem.unit_ball``, so
the determinant, the scan and the first-TE search work in lambda R^2
alone; every error type
``errors.py`` declares but the base class is raised somewhere in the
package, and the base class nowhere; and every
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
    assert found == [("radial.py", "te_list_up_to")]


def test_one_rule_picks_the_orders_of_both_radial_routes():
    # the listing and the count sample the orders _orders_below picks;
    # counting_experiment reads the cutoffs only for its ell_max_used column
    for name in ("top_order", "adaptive_ell_max"):
        found = {
            (path.name, owner)
            for path in sorted(SRC.glob("*.py"))
            for owner, _ in callers(path, name)
        }
        assert found == {("radial.py", "_orders_below"), ("experiments.py", "counting_experiment")}
    for route in ("te_list_up_to", "counting_experiment"):
        assert "_orders_below" in reachable(route)


def called_names(top):
    """Names a top-level definition calls, as a bare name or an attribute,
    nested functions included."""
    return {
        getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
    }


def reachable(start):
    """The package's top-level definitions that a call of ``start`` can
    reach: a called name reaches every top-level definition of that name in
    any module (an over-estimate, so a name it misses is never called)."""
    calls = {}
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                calls.setdefault(top.name, set()).update(called_names(top))
    seen, todo = set(), [start]
    while todo:
        name = todo.pop()
        if name in calls and name not in seen:
            seen.add(name)
            todo.extend(calls[name])
    return seen


def test_the_count_route_reaches_no_listing():
    route = reachable("counting_experiment")
    assert {"te_counts_up_to", "_root_counts", "_det_grid", "_polish_roots"} <= route
    # the tie rule: the count's window-end ties are polished on the stencil
    assert {"_multiplicity", "_fit_roots"} <= route
    assert route.isdisjoint(
        {"te_list_up_to", "_scan_determinant", "_scan_pass", "_bisect_brackets"}
    )
    # and the listing reaches the scan, so the guard follows real calls
    assert "_scan_determinant" in reachable("first_tes")


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


def radius_reads(path):
    """(enclosing definition, line) for every read of an attribute
    ``radius`` in a module, the definition dotted through classes and
    nested functions, with ``<module>`` for module-level code."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == "radius":
                if isinstance(child.ctx, ast.Load):
                    found.append((owner or "<module>", child.lineno))
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{owner}.{child.name}" if owner else child.name
            visit(child, inner)

    visit(tree, "")
    return found


def test_the_radius_stays_in_the_unit_ball_map():
    for name in ("determinant.py", "specfun.py"):
        assert "radius" not in (SRC / name).read_text().lower(), name
    # the constructor checks the radius, and the map alone computes with it
    owners = {owner for owner, _ in radius_reads(SRC / "radial.py")}
    assert owners == {"RadialProblem.__post_init__", "RadialProblem.unit_ball"}


def test_the_radius_guard_sees_methods_and_nested_functions(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "class Ball:\n"
        "    def unit(self):\n"
        "        return self.radius ** 2\n"
        "def scan(ball):\n"
        "    def det(lam):\n"
        "        return lam * ball.radius\n"
        "    return det\n"
        "R = Ball().radius\n"
        "ball.radius = 1.0\n"
    )
    assert radius_reads(probe) == [("Ball.unit", 3), ("scan.det", 6), ("<module>", 8)]


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
