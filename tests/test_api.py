"""Guards against dead API, found by name in the syntax trees:
- every public top-level function or class of the package, and every
  public method or property of a package class, is used by the package
  itself, not only by tests and exports;
- every dataclass field of the package is read as an attribute somewhere in
  `src/`, `tests/` or `perfbench/`;
- every defaulted parameter of a package function is passed, by keyword or
  by position, by some call there or by the CLI's `verify` dispatch;
- so is every dataclass field with a plain default (a parameter of the
  generated `__init__`), unless some code assigns it as an attribute;
- no `functools` cache wraps a function whose first parameter is a
  `GroupSpec`: per-group data lives on the spec, so no call hashes one;
- every exception class of `errors.py` is told apart by some `except` in
  the package, so no two classes stand for one outcome."""

import ast
from pathlib import Path

import cayleycount
from cayleycount.cli import RENAMES, SUITE_FLAGS
from cayleycount.verify import ALL_SUITES

PACKAGE = Path(cayleycount.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _code() -> list[ast.Module]:
    """Every module of the package, the tests and the benchmark."""
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "tests").rglob("*.py"),
             *(ROOT / "perfbench").rglob("*.py")]
    return [ast.parse(path.read_text(), str(path)) for path in sorted(paths)]


def orphans(trees: dict[str, ast.Module]) -> list[str]:
    """`module.name` for each public top-level def or class, and
    `module.Class.name` for each public method or property of a package
    class, that no module but `__init__` names, as an identifier or as an
    attribute."""
    used = set()
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    defs = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{module}.{node.name}.{fn.name}", fn.name)
                         for fn in node.body if isinstance(fn, ast.FunctionDef)]
    return [qualname for qualname, name in defs
            if not name.startswith("_") and name not in used]


def _name(node: ast.expr) -> str | None:
    """The name a call or decorator refers to: `f` for `f` and for `m.f`."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def unread_fields(trees: dict[str, ast.Module], code: list[ast.Module]) -> list[str]:
    """`module.Class.field` for each field of a package dataclass whose name
    no code reads as an attribute."""
    read = {node.attr for tree in code for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{module}.{cls.name}.{stmt.target.id}"
            for module, tree in trees.items()
            for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            and any(_name(dec) == "dataclass" for dec in cls.decorator_list)
            for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            and stmt.target.id not in read]


def _functions(trees: dict[str, ast.Module]):
    """(qualified name, callee name, def, leading parameters a call does not
    pass) for every def of the package: top-level functions, and methods
    with `self` or `cls` skipped; a class's `__init__` is called by the
    class name."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield f"{module}.{node.name}", node.name, node, 0
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef):
                        static = any(_name(dec) == "staticmethod" for dec in fn.decorator_list)
                        callee = node.name if fn.name == "__init__" else fn.name
                        yield f"{module}.{node.name}.{fn.name}", callee, fn, 0 if static else 1


def _defaulted_fields(trees: dict[str, ast.Module]):
    """(qualified name, class name, position, field) for every field of a
    package dataclass with a plain default, not a `default_factory`; the
    position is the field's place in the generated `__init__`."""
    for module, tree in trees.items():
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef)
                    and any(_name(dec) == "dataclass" for dec in cls.decorator_list)):
                continue
            fields = [stmt for stmt in cls.body
                      if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
            for index, stmt in enumerate(fields):
                value = stmt.value
                if value is None or (isinstance(value, ast.Call) and _name(value) == "field"
                                     and all(kw.arg != "default" for kw in value.keywords)):
                    continue
                name = stmt.target.id
                yield f"{module}.{cls.name}.{name}", cls.name, index, name


def unpassed_parameters(trees: dict[str, ast.Module], code: list[ast.Module],
                        dispatch: dict[str, set[str]]) -> list[str]:
    """`qualified.function.param` for each defaulted parameter that no call
    of the function's name passes, by keyword or by position, and that the
    `dispatch` keywords (callee name -> keywords) do not name either; then
    `module.Class.field` for each defaulted dataclass field that no call of
    the class passes and no code assigns as an attribute."""
    keywords: dict[str, set[str]] = {name: set(kws) for name, kws in dispatch.items()}
    positions: dict[str, float] = {}
    assigned: set[str] = set()
    for tree in code:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                assigned.add(node.attr)
            if not isinstance(node, ast.Call) or _name(node) is None:
                continue
            callee = _name(node)
            keywords.setdefault(callee, set()).update(kw.arg for kw in node.keywords)
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            given = float("inf") if starred else len(node.args)
            positions[callee] = max(positions.get(callee, 0), given)
    out = []
    for qualname, callee, fn, skip in _functions(trees):
        args = fn.args
        positional = [*args.posonlyargs, *args.args]
        defaulted = list(enumerate(positional))[len(positional) - len(args.defaults):]
        defaulted += [(None, a) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        for index, arg in defaulted:
            by_position = index is not None and positions.get(callee, 0) > index - skip
            if not by_position and arg.arg not in keywords.get(callee, ()):
                out.append(f"{qualname}.{arg.arg}")
    for qualname, cls, index, name in _defaulted_fields(trees):
        passed = positions.get(cls, 0) > index or name in keywords.get(cls, ())
        if not passed and name not in assigned:
            out.append(qualname)
    return out


def spec_keyed_caches(trees: dict[str, ast.Module]) -> list[str]:
    """`module.function` for each def decorated with `lru_cache` or `cache`
    whose first parameter is annotated `GroupSpec`, or is unannotated and
    named `spec` or `group`; for a method, the first one after `self`."""
    out = []
    for qualname, _, fn, skip in _functions(trees):
        if not any(_name(dec) in ("lru_cache", "cache") for dec in fn.decorator_list):
            continue
        params = [*fn.args.posonlyargs, *fn.args.args][skip:]
        if not params:
            continue
        first = params[0]
        if (_name(first.annotation) == "GroupSpec" if first.annotation is not None
                else first.arg in ("spec", "group")):
            out.append(qualname)
    return out


def indistinct_errors(trees: dict[str, ast.Module], exempt: set[str]) -> list[str]:
    """`errors.Class` for each class of the `errors` module, not in
    `exempt`, that no `except` clause of the package tells apart: named by
    none, or only in tuples with a class defined before it in `errors`, so
    that the two always lead to the same handler."""
    order = [node.name for node in trees["errors"].body if isinstance(node, ast.ClassDef)]
    apart = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ExceptHandler) and node.type is not None):
                continue
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            named = [order.index(n) for n in map(_name, types) if n in order]
            if named:
                apart.add(order[min(named)])
    return [f"errors.{name}" for name in order if name not in apart | exempt]


# reaches its exit code through the `CayleyCountError` handler of `cli.main`
UNNAMED_ERRORS = {"InvalidInputError"}


def cli_dispatch() -> dict[str, set[str]]:
    """The keywords `cayleycount verify` passes to each sweep: its flags
    under their RENAMES, and `instances` for the --n/--d pair of psi and phi."""
    out = {}
    for suite, takes in SUITE_FLAGS.items():
        kws = {RENAMES.get((suite, flag), flag) for flag in takes}
        out[ALL_SUITES[suite].__name__] = {"instances"} if suite in ("psi", "phi") else kws
    return out


def test_every_public_name_is_used_by_the_package():
    assert orphans(_trees()) == []


def test_orphan_scan_finds_an_unused_function():
    trees = _trees()
    trees["extra"] = ast.parse("def unused():\n    pass\n\n\ndef _private():\n    pass\n")
    assert orphans(trees) == ["extra.unused"]


def test_orphan_scan_finds_an_unused_method():
    trees = _trees()
    trees["extra"] = ast.parse(
        "class Holder:\n    def unused_zz(self):\n        pass\n\n"
        "    @property\n    def unread_zz(self):\n        return self.used_zz()\n\n"
        "    def used_zz(self):\n        pass\n\n    def _private_zz(self):\n        pass\n\n\n"
        "Holder()\n")
    assert orphans(trees) == ["extra.Holder.unused_zz", "extra.Holder.unread_zz"]


def test_every_dataclass_field_is_read():
    assert unread_fields(_trees(), _code()) == []


def test_field_scan_finds_an_unread_field():
    trees = _trees()
    trees["extra"] = ast.parse(
        "@dataclass\nclass Extra:\n    unread_zz: int\n    read_zz: int = 0\n\n\n"
        "class Plain:\n    unread_yy: int\n")
    code = _code() + [ast.parse("def f(x):\n    x.unread_zz = 1\n    return x.read_zz\n")]
    assert unread_fields(trees, code) == ["extra.Extra.unread_zz"]


def test_every_defaulted_parameter_is_passed():
    assert unpassed_parameters(_trees(), _code(), cli_dispatch()) == []


def test_parameter_scan_finds_an_unpassed_parameter():
    trees = _trees()
    trees["extra"] = ast.parse(
        "def extra_zz(a, b=1, c=2, *, d=3, e=4):\n    pass\n\n\n"
        "class ExtraZz:\n    def __init__(self, f=5, g=6):\n        pass\n\n"
        "    def method_zz(self, h=7):\n        pass\n\n\n"
        "@dataclass\nclass ExtraCfgZz:\n    needed_zz: int\n    by_position_zz: int = 1\n"
        "    by_keyword_zz: int = 2\n    unset_zz: float = 3.0\n    assigned_zz: float = 4.0\n"
        "    made_zz: list = field(default_factory=list)\n")
    code = _code() + [ast.parse(
        "extra_zz(0, 1, e=4)\nExtraZz(5)\nobj.method_zz()\nm.extra_zz(0, d=3)\n"
        "ExtraCfgZz(0, 1)\nExtraCfgZz(0, by_keyword_zz=2).assigned_zz = 5.0\n")]
    assert unpassed_parameters(trees, code, cli_dispatch()) == [
        "extra.extra_zz.c", "extra.ExtraZz.__init__.g", "extra.ExtraZz.method_zz.h",
        "extra.ExtraCfgZz.unset_zz"]
    assert unpassed_parameters(trees, code, {**cli_dispatch(), "method_zz": {"h"}}) == [
        "extra.extra_zz.c", "extra.ExtraZz.__init__.g", "extra.ExtraCfgZz.unset_zz"]


def test_no_cache_is_keyed_by_a_group_spec():
    assert spec_keyed_caches(_trees()) == []


def test_cache_scan_finds_a_spec_keyed_cache():
    trees = _trees()
    trees["extra"] = ast.parse(
        "@lru_cache(maxsize=None)\ndef by_spec_zz(spec: GroupSpec, k: int):\n    pass\n\n\n"
        "@functools.cache\ndef by_group_zz(group, k):\n    pass\n\n\n"
        "@lru_cache(maxsize=None)\ndef by_order_zz(order: int):\n    pass\n\n\n"
        "def uncached_zz(spec: GroupSpec):\n    pass\n\n\n"
        "class HolderZz:\n    @lru_cache(maxsize=None)\n"
        "    def method_zz(self, spec: groups.GroupSpec):\n        pass\n")
    assert spec_keyed_caches(trees) == [
        "extra.by_spec_zz", "extra.by_group_zz", "extra.HolderZz.method_zz"]


def test_every_error_class_is_told_apart():
    assert indistinct_errors(_trees(), UNNAMED_ERRORS) == []


def test_error_scan_finds_classes_no_except_tells_apart():
    trees = _trees()
    trees["errors"] = ast.parse(
        ast.unparse(trees["errors"]) + "\n\n\nclass UnnamedZzError(CayleyCountError):\n    pass\n"
        "\n\nclass AloneZzError(CayleyCountError):\n    pass\n"
        "\n\nclass PairedZzError(CayleyCountError):\n    pass\n"
        "\n\nclass PairedLaterZzError(CayleyCountError):\n    pass\n")
    # PairedLaterZzError is caught only with PairedZzError, defined before it
    trees["extra"] = ast.parse(
        "try:\n    pass\nexcept AloneZzError:\n    pass\n"
        "except (ValueError, errors.PairedLaterZzError, PairedZzError) as exc:\n    pass\n"
        "except:\n    pass\n")
    assert indistinct_errors(trees, UNNAMED_ERRORS) == [
        "errors.UnnamedZzError", "errors.PairedLaterZzError"]
    assert indistinct_errors(trees, set()) == [
        "errors.InvalidInputError", "errors.UnnamedZzError", "errors.PairedLaterZzError"]
