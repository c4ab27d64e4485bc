"""Every name a module of the package imports is used in that module, every
private module-level function or class is referenced somewhere in the
package, ``object.__setattr__`` sets attributes of ``self`` only, so no
code patches an immutable object after it is built, no module-level
function only forwards its parameters to another callable, the engines
probe their carrier for only the listed capabilities, and one function builds
every ``PremonoidFlags``.

``__init__.py`` is exempt from the import scan: its imports are the package's
public surface.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "premonoids"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_scan_sees_an_unused_name():
    assert unused_imports("import os\nfrom a import b, c as d\nb()\n") == ["line 1: os", "line 2: d"]
    assert unused_imports("from __future__ import annotations\nimport x.y\nx.y.z()\n") == []


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_no_module_imports_a_name_it_never_uses(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def private_definitions(source: str) -> dict:
    """Module-level functions and classes named with one leading underscore."""
    return {
        node.name: node.lineno
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }


def referenced_names(source: str) -> set:
    """Names read as plain names, as attributes or through an import."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_the_scan_sees_an_unreferenced_private_helper():
    source = "def _used(): pass\ndef _dead(): pass\nclass _Dead: pass\ndef __dunder__(): pass\nx = _used\n"
    found = private_definitions(source)
    assert found == {"_used": 1, "_dead": 2, "_Dead": 3}
    assert sorted(set(found) - referenced_names(source)) == ["_Dead", "_dead"]
    assert "_h" in referenced_names("from .m import _h\nimport m\nm._g()\n")


def test_every_private_helper_is_referenced_in_the_package():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    referenced = set().union(*map(referenced_names, sources.values()))
    dead = [
        f"{module} line {line}: {name}"
        for module, source in sorted(sources.items())
        for name, line in private_definitions(source).items()
        if name not in referenced
    ]
    assert dead == []


def setattr_on_others(source: str) -> list[str]:
    """``object.__setattr__`` calls whose first argument is not ``self``: each
    patches an object that is already built, past its immutability guard."""
    return [
        f"line {node.lineno}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__setattr__"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "object"
        and not (node.args and isinstance(node.args[0], ast.Name) and node.args[0].id == "self")
    ]


def test_the_scan_sees_a_patched_immutable():
    source = "object.__setattr__(self, 'a', 1)\nobject.__setattr__(rel, 'b', 2)\nsetattr(rel, 'c', 3)\n"
    assert setattr_on_others(source) == ["line 2"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_patches_an_object_after_it_is_built(module):
    assert setattr_on_others((PACKAGE / module).read_text()) == []


def forwarders(source: str) -> list[str]:
    """Module-level functions whose body, docstring aside, is one ``return
    f(...)`` passing the function's own parameters unchanged and in order:
    each is a second name for ``f``."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]
        if len(body) != 1 or not isinstance(body[0], ast.Return) or not isinstance(body[0].value, ast.Call):
            continue
        call = body[0].value
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        passed = [v.id for v in call.args if isinstance(v, ast.Name)]
        passed += [k.arg for k in call.keywords if isinstance(k.value, ast.Name) and k.value.id == k.arg]
        plain = len(passed) == len(call.args) + len(call.keywords)
        if plain and a.vararg is None and a.kwarg is None and passed == params:
            found.append(node.name)
    return found


def test_the_scan_sees_a_forwarder():
    source = (
        "def a(x, y=1):\n    return f(x, y)\n"
        "def b(x):\n    '''doc'''\n    return m.F(x=x)\n"
        "def c(x, y):\n    return f(y, x)\n"
        "def d(x):\n    return f(g(x))\n"
        "def e(x):\n    return f(x, 2)\n"
        "def h():\n    return f()\n"
        "def k(x):\n    y = x\n    return f(x)\n"
    )
    assert forwarders(source) == ["a", "b", "h"]


def test_no_module_function_only_forwards():
    found = [
        f"{p.name}: {name}" for p in sorted(PACKAGE.glob("*.py")) for name in forwarders(p.read_text())
    ]
    assert found == []


def carrier_probes(source: str) -> list[str]:
    """``getattr``/``hasattr`` calls on the carrier argument, which the
    engines always name ``P``: each as the module-level function or method
    that makes it, and the attribute it asks for."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for top in ast.parse(source).body:
        if isinstance(top, ast.ClassDef):
            scopes = [node for node in top.body if isinstance(node, functions)]
        else:
            scopes = [top] if isinstance(top, functions) else []
        for scope in scopes:
            name = scope.name if scope is top else f"{top.name}.{scope.name}"
            for node in ast.walk(scope):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("getattr", "hasattr")
                    and len(node.args) >= 2
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id == "P"
                    and isinstance(node.args[1], ast.Constant)
                ):
                    found.append(f"{name}: {node.args[1].value}")
    return found


def test_the_scan_sees_a_carrier_probe():
    source = (
        "def f(P, p):\n    return getattr(P, 'a', None), hasattr(p, 'b'), getattr(p, 'c')\n"
        "class K:\n    def m(self, P):\n        def g():\n            return hasattr(P, 'd')\n        return g\n"
    )
    assert carrier_probes(source) == ["f: a", "K.m: d"]


def test_the_engines_probe_their_carrier_for_the_listed_capabilities_only():
    """No module picks a path by probing its carrier: the finite paths are
    taken by type, and every carrier holds the irreducibility memo."""
    found = [
        f"{p.name}: {probe}" for p in sorted(PACKAGE.glob("*.py")) for probe in carrier_probes(p.read_text())
    ]
    assert found == []


def flags_constructors(source: str) -> list[str]:
    """For each ``PremonoidFlags(...)`` call, the name of the innermost
    function around it (``None`` at module level); for each definition named
    ``compatibility``, ``"def compatibility"``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
            if node.name == "compatibility":
                found.append("def compatibility")
        elif isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "PremonoidFlags":
                found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), None)
    return found


def test_the_scan_sees_each_flags_construction():
    source = (
        "def a():\n    return PremonoidFlags(x=1)\n"
        "class K:\n    def m(self):\n        f = lambda: PremonoidFlags()\n        return m.PremonoidFlags()\n"
        "def compatibility(): pass\n"
        "PremonoidFlags()\n"
    )
    assert flags_constructors(source) == ["a", "m", "m", "def compatibility", None]


def test_one_function_builds_every_flags_record():
    """Finite carriers and lazily presented samples hand their images to one
    scan, which alone builds the flags; no module defines a separate
    ``compatibility`` scan."""
    found = [
        f"{p.name}: {name}" for p in sorted(PACKAGE.glob("*.py")) for name in flags_constructors(p.read_text())
    ]
    assert found == ["premonoid.py: scan_flags"]
