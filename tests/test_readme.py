"""Every ``muonlab ...`` line of README's "Command line" block runs and
exits 0, so the documented commands cannot drift from the CLI; every
experiment kind is reached by a shipped config or one of those commands;
every public name, and every public method and property of an exported
class, has a caller; every parameter and every dataclass or NamedTuple field
with a default is set by one; every module uses each name it imports; and
one function opens output files."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from muonlab.cli import main
from muonlab.experiments import KINDS, parse_config

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "muonlab"
# where a use counts as a caller: the package, the demos and the acceptance
# tests; a call in ``bench/`` sets a default too
SOURCES = [*(ROOT / "src").rglob("*.py"), *(ROOT / "demos").rglob("*.py"), ROOT / "tests" / "test_acceptance.py"]


def _commands() -> list[str]:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.DOTALL).group(1)
    return [line for line in block.splitlines() if line.startswith("muonlab ")]


def test_block_found():
    assert len(_commands()) >= 4


@pytest.mark.slow
@pytest.mark.parametrize("command", _commands())
def test_readme_command_exits_0(command, tmp_path, monkeypatch):
    argv = shlex.split(command, comments=True)[1:]
    if "--config" in argv:
        i = argv.index("--config") + 1
        argv[i] = str(ROOT / argv[i])
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0


def _kind(argv: list[str]) -> str:
    """The kind a command line runs: its config's for ``run``, else the
    subcommand's."""
    if argv[0] == "run":
        return parse_config((ROOT / argv[argv.index("--config") + 1]).read_text()).kind
    return argv[0].replace("-", "_")


def test_every_kind_has_a_caller():
    reached = {parse_config(path.read_text()).kind for path in (ROOT / "demos" / "configs").glob("*.cfg")}
    reached |= {_kind(shlex.split(command, comments=True)[1:]) for command in _commands()}
    assert sorted(reached) == sorted(KINDS)


class _References(ast.NodeVisitor):
    """Names read and attributes taken, outside the definition of the same
    name (a recursive call or a classmethod's own class is no caller)."""

    def __init__(self):
        self.names: set[str] = set()
        self.attributes: set[str] = set()
        self._defining: list[str] = []

    def _definition(self, node):
        self._defining.append(node.name)
        self.generic_visit(node)
        self._defining.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and node.id not in self._defining:
            self.names.add(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load) and node.attr not in self._defining:
            self.attributes.add(node.attr)
        self.generic_visit(node)


def _referenced() -> _References:
    """Every name read and attribute taken in ``SOURCES``."""
    refs = _References()
    for path in SOURCES:
        refs.visit(ast.parse(path.read_text()))
    return refs


def _passed_names() -> set[tuple[str, int | str]]:
    """(callee name, position or keyword) of each argument of each call in
    ``SOURCES`` and ``bench/``; a ``**mapping`` argument is the keyword "**"."""
    passed = set()
    for path in [*SOURCES, *(ROOT / "bench").rglob("*.py")]:
        for call in ast.walk(ast.parse(path.read_text())):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                passed |= {(name, i) for i in range(len(call.args))}
                passed |= {(name, kw.arg or "**") for kw in call.keywords}
    return passed


def test_every_public_name_has_a_caller():
    # public API that nothing uses is deleted; a docstring mention is no use
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    public = [alias.asname or alias.name for node in init.body if isinstance(node, ast.ImportFrom)
              for alias in node.names]
    refs = _referenced()
    found = refs.names | refs.attributes
    assert len(public) > 40
    assert [name for name in public if name not in found] == []


def test_every_public_member_has_a_caller():
    # the same rule one level down: each public method and property of a
    # class __init__.py exports is read as an attribute outside its own
    # definition; a bare name, such as an alias line in the class body, is no caller
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    members = []
    for node in init.body:
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            module = ast.parse((PACKAGE / f"{node.module}.py").read_text())
            members += [(cls.name, fn.name) for cls in module.body
                        if isinstance(cls, ast.ClassDef) and cls.name in names
                        for fn in cls.body if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")]
    found = _referenced().attributes
    assert len(members) > 20
    assert [f"{cls}.{fn}" for cls, fn in members if fn not in found] == []


def test_no_module_imports_a_name_it_never_uses():
    # no linter runs in CI, so an import a deletion leaves behind fails here;
    # ``__init__.py`` imports to re-export
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = [(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
                    for alias in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{path.name}: {name}" for name in imported if name not in used]
    assert unused == []


def _opens_for_text_writing(call: ast.Call) -> bool:
    """Whether ``call`` may open a path for text writing: an ``open`` whose
    mode is not a constant or writes (``w``, ``a``, ``x`` or ``+``) without
    ``b``, or a ``write_text`` method such as pathlib's (the package calls
    its own ``write_text`` by name)."""
    name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
    if isinstance(call.func, ast.Attribute) and name == "write_text":
        return True
    modes = [*call.args[1:2], *(kw.value for kw in call.keywords if kw.arg == "mode")]
    if name != "open" or not modes:
        return False
    mode = getattr(modes[0], "value", None)
    return not isinstance(mode, str) or (bool(set(mode) & set("wax+")) and "b" not in mode)


def _text_writers(node, function=None) -> list[str]:
    """The function around each call under ``node`` that may open a path
    for text writing."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and _opens_for_text_writing(child):
            found.append(function)
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        found += _text_writers(child, inner)
    return found


def test_one_function_opens_an_output_file():
    # output files get one encoding and one line ending from experiments.write_text;
    # the SVG emitters return their text and write nothing
    writers = [w for path in sorted(PACKAGE.glob("*.py")) for w in _text_writers(ast.parse(path.read_text()))]
    assert writers == ["write_text"]


def _defaulted(node, cls=None) -> list[tuple[str, str, int | None]]:
    """(callee name, parameter, position) of each parameter with a default
    in the functions under ``node``: a method's positions skip self and an
    ``__init__`` is called by its class name; keyword-only has no position."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            found += _defaulted(child, child.name)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = child.args
            positional = [*args.posonlyargs, *args.args]
            bound = 1 if cls and positional and positional[0].arg in ("self", "cls") else 0
            name = cls if child.name == "__init__" else child.name
            first = len(positional) - len(args.defaults)
            found += [(name, arg.arg, i - bound) for i, arg in enumerate(positional) if i >= first]
            found += [(name, arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                      if default is not None]
            found += _defaulted(child)
        else:
            found += _defaulted(child, cls)
    return found


def test_every_default_is_set_by_some_caller():
    # a default no call overrides is a constant with a knob on it: each
    # defaulted parameter is passed, by keyword or by position, in some call
    # to a function of its name
    defaulted = [p for path in sorted(PACKAGE.glob("*.py")) for p in _defaulted(ast.parse(path.read_text()))]
    passed = _passed_names()
    assert len(defaulted) > 30
    assert [f"{name}({param})" for name, param, i in defaulted
            if (name, param) not in passed and (name, i) not in passed] == []


def _defaulted_fields(tree) -> list[tuple[str, str, int]]:
    """(class name, field, position) of each field with a default of the
    dataclasses and NamedTuples in ``tree``."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        decorators = [getattr(d, "func", d) for d in cls.decorator_list]
        if not any(getattr(node, "id", None) in ("dataclass", "NamedTuple") for node in [*decorators, *cls.bases]):
            continue
        fields = [node for node in cls.body if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
        found += [(cls.name, node.target.id, i) for i, node in enumerate(fields) if node.value is not None]
    return found


def test_every_defaulted_field_is_set_by_some_caller():
    # the parameter rule one level over: each defaulted field is passed, by
    # keyword or by position, in some call to its class; a call that unpacks
    # a mapping, as ``parse_config`` builds ``ExperimentConfig``, sets them all
    defaulted = [f for path in sorted(PACKAGE.glob("*.py")) for f in _defaulted_fields(ast.parse(path.read_text()))]
    passed = _passed_names()
    assert len(defaulted) > 20
    assert [f"{cls}.{name}" for cls, name, i in defaulted
            if {(cls, name), (cls, i), (cls, "**")}.isdisjoint(passed)] == []
