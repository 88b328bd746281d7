"""Source checks on the package itself: no imported name goes unused, no
private top-level name goes unreferenced, no public name outside the
documented API is read by the tests alone, only the reader imports the
``csv`` module, the MILP package keeps no state between calls, each
refusal has one home and no draw is summed as a matrix product."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "loadsizer"
BENCHMARK = ROOT / "perfbench"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def imported_modules(tree: ast.Module) -> set[str]:
    """Every module an ``import`` or ``from ... import`` names."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module)
    return modules


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, or exported by ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: str(p.relative_to(PACKAGE))
)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import contextlib\nimport numpy as np\n\nx = np.zeros(1)\n")
    assert set(imported_names(tree)) - used_names(tree) == {"contextlib"}


def private_top_level_names(tree: ast.Module) -> dict[str, int]:
    """Each ``_``-prefixed (not dunder) name a module binds at top level,
    with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names[target.id] = node.lineno
    return {
        name: line
        for name, line in names.items()
        if name.startswith("_") and not name.startswith("__")
    }


def referenced_names(tree: ast.Module) -> set[str]:
    """Names read, attributes taken and names imported from a module."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def test_every_private_top_level_name_is_referenced():
    """A private helper, constant or class that nothing in the package reads
    is left over from a refactor."""
    trees = {
        path.relative_to(PACKAGE): ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    refs = set().union(*map(referenced_names, trees.values()))
    orphans = [
        f"{path}:{line} {name}"
        for path, tree in trees.items()
        for name, line in private_top_level_names(tree).items()
        if name not in refs
    ]
    assert not orphans, f"private names never referenced: {orphans}"


def test_the_check_sees_an_orphaned_private_name():
    tree = ast.parse(
        "_LIMIT = 3\n\ndef _helper():\n    return _LIMIT\n\n"
        "def _orphan():\n    pass\n\ndef public():\n    return _helper()\n"
    )
    assert set(private_top_level_names(tree)) - referenced_names(tree) == {"_orphan"}


# Decorators under which a function is still called by its name; any other
# one (a ``click`` command, a cache) reads the function it wraps.
PLAIN_DECORATORS = {"property", "classmethod", "staticmethod"}

# Public names outside every ``__all__`` and the README's library example
# that stay, though nothing in the package or the benchmark reads them.
UNREAD_API = {
    "solve_two_load": "the README presents it as the analytic route's two-load solve",
    "solve_icls_fixed_m": "ICLS at one fixed m; the README states the lattice result by it",
}


def public_definitions(tree: ast.Module) -> dict[str, int]:
    """Each public top-level function and class, and each public method of
    such a class as ``Class.method``, with its line. A function under a
    decorator outside ``PLAIN_DECORATORS`` is left out: the decorator reads
    it."""

    def called_by_name(node: ast.AST) -> bool:
        return all(getattr(d, "id", None) in PLAIN_DECORATORS for d in node.decorator_list)

    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    names = {}
    for node in tree.body:
        if not isinstance(node, (*functions, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if isinstance(node, functions) and called_by_name(node):
            names[node.name] = node.lineno
        elif isinstance(node, ast.ClassDef):
            names[node.name] = node.lineno
            for item in node.body:
                if (
                    isinstance(item, functions)
                    and not item.name.startswith("_")
                    and called_by_name(item)
                ):
                    names[f"{node.name}.{item.name}"] = item.lineno
    return names


def read_names(tree: ast.Module, init: bool = False) -> set[str]:
    """``referenced_names`` of a module; an ``__init__``'s imports are
    re-exports, not reads."""
    if init:
        body = [node for node in tree.body if not isinstance(node, ast.ImportFrom)]
        tree = ast.Module(body=body, type_ignores=[])
    return referenced_names(tree)


def unread_public_names(
    modules: dict[str, ast.Module], reads: set[str], allowed: set[str]
) -> list[str]:
    """``module.name`` of each public definition outside ``allowed`` whose
    own name is not in ``reads``."""
    return [
        f"{module}.{name}"
        for module, tree in modules.items()
        for name in public_definitions(tree)
        if name not in allowed and name.rsplit(".", 1)[-1] not in reads
    ]


def documented_api() -> set[str]:
    """Every name in a package ``__all__``, every name the README's
    ``## Library`` section imports, and ``UNREAD_API``."""
    names = set(UNREAD_API)
    for path in PACKAGE.rglob("__init__.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__":
                names.update(ast.literal_eval(node.value))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    for block in re.findall(r"```python\n(.*?)```", library, re.S):
        names.update(imported_names(ast.parse(block)))
    return names


def test_every_public_name_is_read():
    """A public function, class or method that nothing in the package or
    the benchmark reads is either documented API or a test oracle, and an
    oracle lives in ``tests/``."""
    package = {path: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.rglob("*.py")}
    benchmark = [ast.parse(path.read_text(encoding="utf-8")) for path in BENCHMARK.rglob("*.py")]
    reads = set().union(
        *(read_names(tree, path.name == "__init__.py") for path, tree in package.items()),
        *map(read_names, benchmark),
    )
    modules = {
        ".".join(path.relative_to(PACKAGE).with_suffix("").parts): package[path]
        for path in sorted(package)
    }
    unread = unread_public_names(modules, reads, documented_api())
    assert not unread, f"public names only the tests read: {unread}"


def test_the_check_sees_an_unread_public_name():
    module = ast.parse(
        "import click\n\n@click.command()\ndef cli():\n    pass\n\n"
        "@functools.cache\ndef table():\n    pass\n\n"
        "def used():\n    pass\n\ndef unread():\n    pass\n\n"
        "def documented():\n    pass\n\ndef _private():\n    pass\n\n"
        "class Model:\n    @property\n    def size(self):\n        return 1\n\n"
        "    @classmethod\n    def load(cls):\n        return cls()\n\n"
        "    def _helper(self):\n        pass\n"
    )
    init = ast.parse("from .mod import Model, unread\n")
    reader = ast.parse("from .mod import used\n\nused()\nModel().size\n")
    reads = read_names(init, init=True) | read_names(reader)
    assert unread_public_names({"mod": module}, reads, {"documented"}) == [
        "mod.unread",
        "mod.Model.load",
    ]


def test_only_the_reader_imports_csv():
    """CSV files are read in ``timeseries`` and written through ``results``'s
    column writers; no other module opens one with the ``csv`` module."""
    importers = {
        str(path.relative_to(PACKAGE))
        for path in PACKAGE.rglob("*.py")
        if "csv" in imported_modules(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert importers == {"timeseries.py"}


MUTABLE_VALUES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
MUTABLE_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter"}
CACHE_DECORATORS = {"lru_cache", "cache"}


def short_name(node: ast.AST | None) -> str | None:
    """``f`` for the expressions ``f`` and ``mod.f``, else None."""
    return getattr(node, "id", getattr(node, "attr", None))


def module_state(tree: ast.Module) -> list[str]:
    """Module-level dicts, lists and sets (``__all__`` aside) and
    ``functools`` cache decorators anywhere, each with its line."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            value = node.value
            called = value.func if isinstance(value, ast.Call) else None
            mutable = isinstance(value, MUTABLE_VALUES) or short_name(called) in MUTABLE_CALLS
            if mutable and names != ["__all__"]:
                found.append(f"{node.lineno} {'/'.join(names) or 'assignment'}")
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                if short_name(target) in CACHE_DECORATORS:
                    found.append(f"{deco.lineno} @{ast.unparse(target)} on {node.name}")
    return found


def test_milp_keeps_no_state_between_calls():
    """Branch and bound's memo lives for one call: a module-level container
    or a cache decorator would let a later solve do less work than the
    first, so timings and work counts would depend on what ran before."""
    held = {
        str(path.relative_to(PACKAGE)): found
        for path in sorted((PACKAGE / "milp").rglob("*.py"))
        if (found := module_state(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert not held, f"module-level state in milp: {held}"


def test_the_check_sees_module_state():
    tree = ast.parse(
        "import functools\nfrom functools import cache\n\n__all__ = ['f']\n_LIMIT = 3\n"
        "_SEEN = {}\n_ORDER: list = []\n_KEYS = set()\n\n"
        "@functools.lru_cache(maxsize=8)\ndef f(n):\n    return n\n\n"
        "class C:\n    @cache\n    def g(self):\n        return 1\n"
    )
    assert module_state(tree) == [
        "6 _SEEN", "7 _ORDER", "8 _KEYS", "10 @functools.lru_cache on f", "15 @cache on g",
    ]


def module_constants(tree: ast.Module) -> dict[str, object]:
    """Each top-level name bound once to a literal, with its value."""
    constants = {}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if len(targets) == 1 and isinstance(targets[0], ast.Name):
            try:
                constants[targets[0].id] = ast.literal_eval(node.value)
            except ValueError:
                pass
    return constants


def refusal_messages(tree: ast.Module) -> set[str]:
    """The text of every ``raise X("...")`` and ``raise X(f"...")``. An
    f-string field that names a module-level constant reads as its value,
    any other field as ``…``."""
    constants = module_constants(tree)

    def field(node: ast.FormattedValue) -> str:
        name = getattr(node.value, "id", None)
        if name in constants and node.conversion == -1 and node.format_spec is None:
            return str(constants[name])
        return "…"

    messages = set()
    for node in ast.walk(tree):
        call = node.exc if isinstance(node, ast.Raise) else None
        if not isinstance(call, ast.Call) or not call.args:
            continue
        text = call.args[0]
        if isinstance(text, ast.Constant) and isinstance(text.value, str):
            messages.add(text.value)
        elif isinstance(text, ast.JoinedStr):
            messages.add(
                "".join(
                    part.value if isinstance(part, ast.Constant) else field(part)
                    for part in text.values
                )
            )
    return messages


def test_each_refusal_is_raised_from_one_module():
    """A refusal raised from two modules is a rule stated twice; the module
    that owns the rule raises it and the other calls that module."""
    homes: dict[str, list[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for message in refusal_messages(ast.parse(path.read_text(encoding="utf-8"))):
            homes.setdefault(message, []).append(str(path.relative_to(PACKAGE)))
    shared = {message: paths for message, paths in homes.items() if len(paths) > 1}
    assert not shared, f"refusals raised from more than one module: {shared}"


def test_the_check_reads_refusal_messages():
    tree = ast.parse(
        "LIMIT = 4\n_NAME = 'x'\n\ndef f(n, level):\n"
        "    if n > LIMIT:\n        raise ValueError(f'n must be in 1..{LIMIT}, got {n}')\n"
        "    if level < 0:\n        raise ValueError(f'level outside [0, {level!r})')\n"
        "    if not n:\n        raise ValueError('n is zero')\n"
        "    if level > n:\n        raise ValueError(f'{_NAME}: {LIMIT:.2f}')\n"
        "    raise ValueError\n"
    )
    assert refusal_messages(tree) == {
        "n must be in 1..4, got …", "level outside [0, …)", "n is zero", "x: …",
    }


def matrix_draws(tree: ast.Module) -> list[str]:
    """Each ``a @ b`` that sums sizes over an on/off matrix, with its line:
    ``b`` is a ``.u`` attribute, or ``a`` is a ``.u`` attribute, the name
    ``states`` or a ``nonzero_combo_rows(...)`` call."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)):
            continue
        left, right = node.left, node.right
        if (
            getattr(right, "attr", None) == "u"
            or getattr(left, "attr", None) == "u"
            or getattr(left, "id", None) == "states"
            or isinstance(left, ast.Call) and short_name(left.func) == "nonzero_combo_rows"
        ):
            found.append(f"{node.lineno} {ast.unparse(node)}")
    return found


def test_no_draw_is_a_matrix_product():
    """A draw is summed in one place, ``dispatch.combo_draws``, in the order
    dispatch decides with; a matrix product hands the sum to BLAS, which
    groups the loads its own way and can differ in the last bit."""
    products = {
        str(path.relative_to(PACKAGE)): found
        for path in sorted(PACKAGE.rglob("*.py"))
        if (found := matrix_draws(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert not products, f"draws summed as matrix products: {products}"


def test_the_check_sees_a_matrix_draw():
    tree = ast.parse(
        "draw = x @ schedule.u\nback = sol.u @ x\nstates = nonzero_combo_rows(n)\n"
        "sums = states @ sizes\nlevels = nonzero_combo_rows(n) @ sizes\n"
        "fit = rows.T @ rows\nresid = basis @ coef\ncounts = combo_states(p, n) @ steps\n"
    )
    assert matrix_draws(tree) == [
        "1 x @ schedule.u",
        "2 sol.u @ x",
        "4 states @ sizes",
        "5 nonzero_combo_rows(n) @ sizes",
    ]
