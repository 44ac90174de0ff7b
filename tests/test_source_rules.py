"""Rules about the library source itself."""

import ast
import doctest
import importlib
import importlib.util
import inspect
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import posetlab

PACKAGE = Path(posetlab.__file__).parent
REPO = Path(__file__).resolve().parent.parent


def test_docstring_examples_hold():
    names = ["posetlab", *(f"posetlab.{m.name}" for m in pkgutil.iter_modules(posetlab.__path__))]
    failed = attempted = 0
    for name in names:
        result = doctest.testmod(importlib.import_module(name))
        failed += result.failed
        attempted += result.attempted
    assert failed == 0
    assert attempted >= 6


def test_no_assert_statements():
    # `python -O` strips assert statements, so an invariant written as one
    # silently stops being checked; the library raises real exceptions
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert found == []


def absolute_imports(tree):
    """(line, top-level module) of each absolute import in `tree`,
    inside functions too; relative imports are the package's own."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name.partition(".")[0]) for name in names]
    return sorted(found)


# The package runs on the standard library alone: the order of a poset
# is kept in Python ints, and nothing else needed a third-party module.
def test_imports_are_standard_library_or_relative():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{line}:{name}"
            for line, name in absolute_imports(tree)
            if name not in sys.stdlib_module_names
        ]
    assert found == []


# The package starts no process or thread and reads no environment, so a
# report depends on its arguments alone; parallel runs are separate
# processes started from outside.
PROCESS_MODULES = {"os", "multiprocessing", "concurrent", "threading", "subprocess"}


def process_imports(tree):
    """(line, module) of each import of a module in PROCESS_MODULES."""
    return [(line, name) for line, name in absolute_imports(tree) if name in PROCESS_MODULES]


def test_process_rule_on_a_snippet():
    tree = ast.parse(
        "import os.path, json\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "def f():\n"
        "    import multiprocessing as mp\n"
        "    from threading import Thread\n"
        "    return subprocess.run\n"
        "import osmosis, threadpoolctl\n"
        "from . import os\n"
    )
    # imports inside functions count; a name that is only read, a module
    # that merely starts alike and a relative import do not
    assert process_imports(tree) == [
        (1, "os"),
        (2, "concurrent"),
        (4, "multiprocessing"),
        (5, "threading"),
    ]


def test_package_starts_no_process_and_reads_no_environment():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}:{name}" for line, name in process_imports(tree)]
    assert found == []


def test_cli_import_leaves_numpy_and_multiprocessing_out():
    # a fresh interpreter, so modules the tests import do not count: no
    # standard-library module the package imports pulls either one in
    probe = "import sys, json, posetlab.cli; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    modules = set(json.loads(proc.stdout))
    assert "posetlab.cli" in modules
    assert {"numpy", "multiprocessing"} & modules == set()


# Homology and pi1 verdicts of a poset are computed on its checked
# beat-point core, one way everywhere: through `homology.poset_homology`
# and `homology.homotopy_verdict`.  No module but `homology.py` names
# `core_complex`.  Only code that needs the full order complex may hand
# one over: the poset module itself and the final cross-check of a
# validated level certificate.
HOMOTOPY_ROUTINES = {"reduced_homology", "pi1_field", "_coreduction_matching"}
CORE_COMPLEX_FILES = {"homology.py"}
FULL_COMPLEX_FILES = {"poset.py"}
FULL_COMPLEX_FUNCTIONS = {"verify_certificate"}
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _called_name(node):
    if isinstance(node, ast.Call):
        f = node.func
        return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
    return None


def _own_nodes(scope):
    """The nodes of a module or function body, not entering nested functions."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unreduced_complex_uses(tree):
    """Lines passing `order_complex(...)`, directly or through a local
    name, to a homology or pi1 routine."""
    found = []
    scopes = [tree, *(n for n in ast.walk(tree) if isinstance(n, _SCOPES))]
    for scope in scopes:
        if getattr(scope, "name", None) in FULL_COMPLEX_FUNCTIONS:
            continue
        nodes = list(_own_nodes(scope))
        complexes = {
            target.id
            for node in nodes
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            and _called_name(node.value) == "order_complex"
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name)
        }
        for node in nodes:
            if _called_name(node) not in HOMOTOPY_ROUTINES:
                continue
            for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                if _called_name(arg) == "order_complex" or (
                    isinstance(arg, ast.Name) and arg.id in complexes
                ):
                    found.append(node.lineno)
    return sorted(found)


def core_complex_names(tree):
    """Lines that name `core_complex`: a read, an attribute or an import."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "core_complex")
        or (isinstance(node, ast.Attribute) and node.attr == "core_complex")
        or (isinstance(node, ast.alias) and node.name.rpartition(".")[2] == "core_complex")
    )


def test_rule_sees_direct_and_named_complexes():
    source = (
        "def f(p):\n"
        "    k = order_complex(p)\n"
        "    return pi1_field(k), homology.reduced_homology(order_complex(p))\n"
        "def verify_certificate(p):\n"
        "    return reduced_homology(order_complex(p))\n"
        "def g(p):\n"
        "    return reduced_homology(core_complex(p))\n"
    )
    assert unreduced_complex_uses(ast.parse(source)) == [3, 3]
    named = source + "from .homology import core_complex\nk = homology.core_complex(p)\n"
    assert core_complex_names(ast.parse(named)) == [7, 8, 9]


def test_homotopy_claims_use_the_reduced_complex():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.name not in FULL_COMPLEX_FILES:
            found += [f"{path.name}:{line}" for line in unreduced_complex_uses(tree)]
        if path.name not in CORE_COMPLEX_FILES:
            found += [f"{path.name}:{line}:core_complex" for line in core_complex_names(tree)]
    assert found == []


# The acyclic matching that certifies a core complex is checked by a
# replay that shares no code with its producer, as `check_beat_witnesses`
# calls neither `beat_point_core` nor `induced`: the replay names no
# function of `homology.py`.  And only the core-complex route makes a
# matching, so nothing else reads a homotopy type off one.
MATCHING_PRODUCER = "_coreduction_matching"
MATCHING_REPLAY = "_replay_matching"
MATCHING_ROUTE = {("homology.py", "_core_homotopy")}


def _named(nodes):
    """The names that `nodes` read, call or import, attributes included."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name
        for n in nodes
        if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
    }


def naming_scopes(tree, name):
    """The functions (or ``<module>``) whose own bodies name `name`."""
    scopes = [tree, *(n for n in ast.walk(tree) if isinstance(n, _SCOPES))]
    return {
        getattr(scope, "name", "<module>" if scope is tree else "<lambda>")
        for scope in scopes
        if name in _named(_own_nodes(scope))
    }


def test_matching_rules_on_a_snippet():
    tree = ast.parse(
        "from .homology import _coreduction_matching as m\n"
        "def route(k):\n"
        "    return homology._coreduction_matching(k)\n"
        "def other(k):\n"
        "    f = lambda: _coreduction_matching(k)\n"
        "    return f\n"
    )
    assert naming_scopes(tree, MATCHING_PRODUCER) == {"<module>", "route", "<lambda>"}


def test_matching_replay_names_no_function_of_its_module():
    tree = ast.parse((PACKAGE / "homology.py").read_text())
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert MATCHING_PRODUCER in functions
    named = _named(ast.walk(functions[MATCHING_REPLAY]))
    assert named & set(functions) == set()


def test_only_the_core_complex_route_makes_a_matching():
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found |= {(path.name, scope) for scope in naming_scopes(tree, MATCHING_PRODUCER)}
    # the definition itself names it only as a FunctionDef, not a read
    assert found == MATCHING_ROUTE


# The homology memo has one reader and writer, the core-complex route
# (`MATCHING_ROUTE`), so `reduced_homology` and every other caller of SNF
# keep no state.  Besides the route, only the memo's module-level
# definition names it.
HOMOLOGY_MEMO = "_homology_cache"


def memo_names(tree):
    """The scopes that name the homology memo, with ``<definition>`` for
    a module-level assignment to the bare name and ``<module>`` for any
    other module-level naming."""
    scopes = naming_scopes(tree, HOMOLOGY_MEMO) - {"<module>"}
    own = list(_own_nodes(tree))
    stores = {id(n) for n in own if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    if HOMOLOGY_MEMO in _named(n for n in own if id(n) in stores):
        scopes.add("<definition>")
    if HOMOLOGY_MEMO in _named(n for n in own if id(n) not in stores):
        scopes.add("<module>")
    return scopes


def test_memo_rule_on_a_snippet():
    tree = ast.parse(
        "_homology_cache = OrderedDict()\n"
        "def route(k):\n"
        "    _homology_cache[k] = 1\n"
        "def other(k):\n"
        "    return homology._homology_cache.get(k)\n"
    )
    assert memo_names(tree) == {"<definition>", "route", "other"}
    for line in ("_homology_cache.clear()", "from .homology import _homology_cache"):
        assert memo_names(ast.parse(line)) == {"<module>"}


def test_only_the_route_names_the_homology_memo():
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found |= {(path.name, scope) for scope in memo_names(tree)}
    assert found == {("homology.py", "<definition>"), *MATCHING_ROUTE}


# Every parameter of a function or lambda in the package, other than
# `self` and `cls`, is read in its body (a nested function's read
# counts): an input that nothing reads only looks as if it mattered.
def unread_parameters(tree):
    """(line, function, parameter) of each parameter that its function
    or lambda never reads."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, _SCOPES):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        found += [(p.lineno, name, p.arg) for p in params if p.arg not in {"self", "cls", *read}]
    return sorted(found)


def test_unread_parameter_rule_on_a_snippet():
    tree = ast.parse(
        "class A:\n"
        "    def m(self, used, unused=used): return used\n"
        "    @classmethod\n"
        "    def c(cls, *args, **kwargs): return kwargs\n"
        "def outer(a, b, *, c):\n"
        "    def inner(): return a\n"
        "    b = c\n"
        "    return inner\n"
        "key = lambda x, y: x\n"
    )
    # a default, a store and a nested function's own names are not reads
    assert unread_parameters(tree) == [
        (2, "m", "unused"),
        (4, "c", "args"),
        (5, "outer", "b"),
        (9, "<lambda>", "y"),
    ]


def test_every_parameter_is_read():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}:{fn}:{arg}" for line, fn, arg in unread_parameters(tree)]
    assert found == []


# Every function, method and class in the package is used by the
# package, the demos or the benchmark.  The re-exports in the package's
# `__init__.py` are not uses, or every name listed there would pass.  A
# method is used only through an attribute (`x.name`); a function or
# class also by a bare name that is read, or in an import.  So a local
# variable, or a name that is only assigned, never keeps a definition
# alive.  A definition alone is not a use, and neither is a test.  The
# rule matches names, not classes: a dead method still passes when
# another class defines a live method of the same name, as
# `Subgraph.core` once passed on the uses of `_EdgeMasks.core`.  The
# names below are the exceptions, each with the reason the tests need it.
USER_DIRS = ("src", "demos", "perfbench")
TEST_REFERENCES = {
    "from_relation": "tests build small posets from an order predicate",
    "from_covers": "tests build posets from their Hasse diagrams",
    "from_facets": "tests and a doctest build complexes from their facets",
    "smith_normal_form": "the dense-matrix SNF that tests and doctests check",
    "collapse_edge": "the census contraction check and the collapse tests",
    "full_subcomplex": "the morse tests check descending posets against it",
    "dumbbell": "the tests' graph with a separating edge",
}
REEXPORTS = REPO / "src" / "posetlab" / "__init__.py"


def _trees(dirs):
    return [
        ast.parse(path.read_text(), filename=str(path))
        for d in dirs
        for path in sorted((REPO / d).rglob("*.py"))
        if path != REEXPORTS
    ]


def used_names(trees):
    """(names, attributes): the bare names read or imported, and the
    names read as attributes."""
    names, attributes = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names, attributes


def unused_definitions(tree, used):
    """(line, name) of each non-dunder function, method or class in
    `tree` that `used`, a pair from :func:`used_names`, does not use."""
    names, attributes = used
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    methods = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
    }
    return sorted(
        (node.lineno, node.name)
        for node in ast.walk(tree)
        if isinstance(node, kinds)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in (attributes if id(node) in methods else names | attributes)
    )


def test_unused_rule_on_a_snippet():
    tree = ast.parse(
        "class A:\n"
        "    def __init__(self): pass\n"
        "    def used(self): pass\n"
        "    def dead(self): pass\n"
        "    def degrees(self): pass\n"
        "def helper(): pass\n"
        "def orphan(): pass\n"
        "def stored(): pass\n"
    )
    # a local variable read by the name of a method, and a name only
    # assigned, use neither definition
    caller = ast.parse(
        "from m import helper\nA().used()\ndegrees = [1]\nprint(degrees)\nstored = 0\n"
    )
    assert unused_definitions(tree, used_names([tree, caller])) == [
        (4, "dead"),
        (5, "degrees"),
        (7, "orphan"),
        (8, "stored"),
    ]


def test_no_unused_definitions_in_the_package():
    used = used_names(_trees(USER_DIRS))
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, name in unused_definitions(tree, used):
            found[f"{path.name}:{line}:{name}"] = name
    assert [loc for loc, name in found.items() if name not in TEST_REFERENCES] == []
    # each exception is still needed, and a test still uses it
    assert set(found.values()) == set(TEST_REFERENCES)
    assert set(TEST_REFERENCES) <= set.union(*used_names(_trees(["tests"])))


# Span names the benchmark's tracer asks for but the package no longer
# has, each with its reason; a vanished span silently reads 0.
GONE_SPANS = {
    "homology.pi1_triviality": "pi1 is proved by pi1_field alone; the benchmark files "
    "keep the old name until the benchmark itself is next changed",
}


def test_traced_span_names_resolve(tmp_path):
    # every span that a per-layer metric of perfbench/tracer.py reads must
    # be an object that Tracer.install wraps: a public function, or a
    # class with its own __init__, defined in its posetlab module
    spec = importlib.util.spec_from_file_location("tracer", REPO / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = {
        *(n for group in tracer.INCLUSIVE.values() for n in group),
        *(n for group in tracer.CALLS.values() for n in group),
        *tracer.Tracer(tmp_path)._hooks(),
    }

    def wrapped(name):
        layer, _, attr = name.partition(".")
        if layer not in tracer.LAYERS or attr.startswith("_"):
            return False
        module = importlib.import_module(f"posetlab.{layer}")
        obj = getattr(module, attr, None)
        if getattr(obj, "__module__", None) != module.__name__:
            return False
        if isinstance(obj, type):
            return "__init__" in vars(obj) and not issubclass(obj, BaseException)
        return callable(obj) and not inspect.isgeneratorfunction(obj)

    assert len(names) > 20
    assert {n for n in names if not wrapped(n)} == set(GONE_SPANS)
