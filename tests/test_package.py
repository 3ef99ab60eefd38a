"""Package-level checks: the public names resolve, no module carries an
import it never reads (pyflakes' F401, done with `ast`), no private
name in `src/interpanel` is left that no module of the package reads,
the private names the docs cite are bound, and the README's inline calls
of package functions bind to their signatures."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import interpanel
from interpanel import cli

from conftest import NAMED_ERRORS

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "interpanel").glob("*.py"))
CHECKED = [path for path in SRC + sorted((ROOT / "tests").glob("*.py"))
           if path.name != "__init__.py"]


def test_one_version(capsys):
    # pyproject's [project] version, read by a regex (tomllib is new in
    # Python 3.11), is the package's, which `interpanel --version` prints
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    version = re.search(r'^version\s*=\s*"([^"]+)"$', project.group(1), re.M)
    assert version.group(1) == interpanel.__version__
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == interpanel.__version__ + "\n"


def test_every_error_class_is_a_named_error():
    # the fuzz test lets only NAMED_ERRORS through, each the package's own
    # (a builtin such as ValueError there would let any error through), so
    # an error class added under src/ must be one of them or a subclass
    assert [cls for cls in NAMED_ERRORS
            if not cls.__module__.startswith("interpanel.")] == []
    modules = [importlib.import_module(f"interpanel.{info.name}")
               for info in pkgutil.iter_modules(interpanel.__path__)]
    errors = [value for module in modules for value in vars(module).values()
              if inspect.isclass(value) and issubclass(value, BaseException)
              and value.__module__ == module.__name__]
    assert len(errors) >= len(NAMED_ERRORS)
    assert [f"{cls.__module__}.{cls.__qualname__}" for cls in errors
            if not issubclass(cls, NAMED_ERRORS)] == []


def test_every_public_name_is_unique_and_resolves():
    names = interpanel.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(interpanel, name)]
    assert missing == []


def unused_imports(source):
    """(line, name) of each imported name that the module never reads.
    A name counts as read where it appears as a name or as the root of an
    attribute, anywhere in the module, or in a module-level `__all__`.
    An import statement with `noqa: F401` on any of its lines is skipped,
    as are `from __future__` and star imports."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            name = alias.asname or alias.name.split(".")[0]
            imported.append((node.lineno, name))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in read]


@pytest.mark.parametrize("source, want", [
    ("import os\n", [(1, "os")]),
    ("import os.path\nos.sep\n", []),
    ("from a import (b,  # noqa: F401\n    c)\n", []),
    ("from a import b as c\nb\n", [(1, "c")]),
    ("from a import b\n__all__ = ['b']\n", []),
    ("def f():\n    import json\n    return json.dumps\n", []),
    ("from __future__ import annotations\nfrom a import *\n", []),
])
def test_unused_imports_finds_what_is_never_read(source, want):
    assert unused_imports(source) == want


@pytest.mark.parametrize("path", CHECKED,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def defined_names(node):
    """The names a module-level statement defines: a function's or a
    class's, or each name an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for target in targets for n in ast.walk(target)
            if isinstance(n, ast.Name)]


def read_names(node):
    """Every name a statement reads: loaded names, attributes, imported
    names, and strings that could be a name (as getattr takes one)."""
    read = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read.add(n.id)
        elif isinstance(n, ast.Attribute):
            read.add(n.attr)
        elif isinstance(n, ast.alias):
            read.add(n.name)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            read.add(n.value)
    return read


def dead_private_names(sources):
    """(module, name) of each private module-level function, class or
    constant (one leading underscore) in `sources`, a mapping of module
    name to source text, that no statement of any of them reads outside
    the name's own definition. Tests are not among the readers: a name
    only tests read is dead code."""
    statements = [(module, node) for module, source in sources.items()
                  for node in ast.parse(source).body]
    reads = [read_names(node) for _, node in statements]
    return [(module, name) for s, (module, node) in enumerate(statements)
            for name in defined_names(node)
            if name.startswith("_") and not name.startswith("__")
            and not any(name in read for r, read in enumerate(reads)
                        if r != s)]


@pytest.mark.parametrize("sources, want", [
    ({"a": "def _f():\n    return _f()\n"}, [("a", "_f")]),
    ({"a": "_X = 1\n", "b": "from .a import _X as y\n"}, []),
    ({"a": "_X = 1\n", "b": "from . import a\na._X\n"}, []),
    ({"a": "_X, _Y = 1, 2\nprint(_X)\n"}, [("a", "_Y")]),
    ({"a": "class _C:\n    pass\n__version__ = '1'\n_n: int = 0\n"},
     [("a", "_C"), ("a", "_n")]),
    ({"a": "def f(_x):\n    _y = getattr(f, '_z')\n_z = 0\n"}, []),
])
def test_dead_private_names_finds_what_no_module_reads(sources, want):
    assert dead_private_names(sources) == want


def test_no_dead_private_name():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SRC}
    assert dead_private_names(sources) == []


def bound_names(source):
    """The names a module binds at its top level: each def, class and
    assignment target, and each import's alias."""
    names = set()
    for node in ast.parse(source).body:
        names.update(defined_names(node))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
    return names


def unbound_private_names(texts, sources):
    """(where, name) of each backticked private name, `_name` or
    `module._name` (one leading underscore, maybe called: `_name(x)`), in
    `texts`, a mapping of a place to its text, that no module of `sources`
    (module name to source text) binds at its top level. `module._name`
    must be bound in that module; a prefix that is no module of the
    package is not checked."""
    bound = {module: bound_names(source) for module, source in sources.items()}
    anywhere = set().union(*bound.values())
    unbound = []
    for where, text in texts.items():
        for span in re.findall(r"`((?:\w+\.)?_(?!_)\w+)(?:\([^`]*\))?`",
                               text):
            module, _, name = span.rpartition(".")
            if module and module not in bound:
                continue
            if name not in (bound[module] if module else anywhere):
                unbound.append((where, span))
    return unbound


@pytest.mark.parametrize("text, want", [
    ("`_f` and `a._X`", []),
    ("`b.f_x` and `__all__` and `_f(x, y)` and `np._NoValue`", []),
    ("`_y` and `_gone` and `a._g` and `_gone()`", ["_gone", "a._g", "_gone"]),
    ("`a._h`, bound in b only", ["a._h"]),
    ("`_C` and `b._h` and `b._j`", ["b._j"]),
])
def test_unbound_private_names_finds_helpers_that_are_gone(text, want):
    sources = {"a": "def _f():\n    pass\n_X, _Y = 1, 2\nclass _C:\n    pass\n",
               "b": "from .a import _f\nfrom .a import _Y as _h\n"
                    "import numpy as _y\n"}
    assert [span for _, span in unbound_private_names({"t": text}, sources)] \
        == want


def test_docs_name_only_private_names_that_are_bound():
    # docstrings and comments are the only place a source file holds a
    # backtick, so each file's whole text is read
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC}
    texts = {path.name: path.read_text(encoding="utf-8")
             for path in SRC + [ROOT / "README.md"]}
    assert unbound_private_names(texts, sources) == []


MODULES = {info.name: importlib.import_module(f"interpanel.{info.name}")
           for info in pkgutil.iter_modules(interpanel.__path__)}
# each module-level function of the package, by name, from the module
# that defines it
FUNCTIONS = {name: value for module in MODULES.values()
             for name, value in vars(module).items()
             if inspect.isfunction(value)
             and value.__module__ == module.__name__}


def readme_call_errors(text):
    """(span, error) of each inline code span `name(args)` of a markdown
    `text`, outside fenced blocks, whose `name` (bare, or `module.name`
    for a module of the package) is a package function whose signature
    does not bind its arguments: each positional argument a placeholder,
    each `key=value` a keyword. Spans that hold `...` are skipped; one
    that is no Python call is an error. Returns (errors, checked), the
    number of spans checked."""
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    errors, checked = [], 0
    for span in re.findall(r"`([^`]+)`", text):
        match = re.fullmatch(r"(?:(\w+)\.)?(\w+)\(.*\)", span, re.S)
        if match is None or "..." in span:
            continue
        module, name = match.groups()
        if module is None:
            func = FUNCTIONS.get(name)
        else:
            func = getattr(MODULES.get(module), name, None)
            func = func if inspect.isfunction(func) else None
        if func is None:
            continue
        checked += 1
        try:
            call = ast.parse(span, mode="eval").body
            inspect.signature(func).bind(
                *[None] * len(call.args),
                **{kw.arg: None for kw in call.keywords})
        except (SyntaxError, AttributeError, TypeError) as exc:
            errors.append((span, f"{type(exc).__name__}: {exc}"))
    return errors, checked


@pytest.mark.parametrize("text, want", [
    ("`ite(dr.ite)` and `fit_cite(dr.cite, weight_mode)`", 0),
    ("`cluster_robust_se(X, e, ids, small_sample=False)`", 0),
    ("`ite(ds, dr.ite)`", 1),
    ("`fit_cite(ds, dr.cite, weight_mode)`", 1),
    ("`cluster_robust_se(X, e, ids, small=False)`", 1),
    ("`inference.ite_se(dr.ite, res)`", 1),
    ("`plim_targets(cfg, ...)` and `np.arange(n)` and `float()`", 0),
    ("```\nite(ds, dr.ite)\n```", 0),
])
def test_readme_call_errors_finds_calls_that_do_not_bind(text, want):
    assert len(readme_call_errors(text)[0]) == want


def test_readme_calls_bind():
    errors, checked = readme_call_errors(
        (ROOT / "README.md").read_text(encoding="utf-8"))
    assert errors == []
    assert checked >= 20
