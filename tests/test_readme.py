"""Every ``muonlab ...`` line of README's "Command line" block runs and
exits 0, so the documented commands cannot drift from the CLI; every
experiment kind is reached by a shipped config or one of those commands; and
every public name, and every public method and property of an exported
class, has a caller."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from muonlab.cli import main
from muonlab.experiments import KINDS, parse_config

ROOT = Path(__file__).resolve().parent.parent


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
        self.found: set[str] = set()
        self._defining: list[str] = []

    def _definition(self, node):
        self._defining.append(node.name)
        self.generic_visit(node)
        self._defining.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and node.id not in self._defining:
            self.found.add(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load) and node.attr not in self._defining:
            self.found.add(node.attr)
        self.generic_visit(node)


def test_every_public_name_has_a_caller():
    # public API that nothing uses is deleted; a docstring mention is no use
    init = ast.parse((ROOT / "src" / "muonlab" / "__init__.py").read_text())
    public = [alias.asname or alias.name for node in init.body if isinstance(node, ast.ImportFrom)
              for alias in node.names]
    sources = [*(ROOT / "src").rglob("*.py"), *(ROOT / "demos").rglob("*.py"),
               ROOT / "tests" / "test_acceptance.py"]
    refs = _References()
    for path in sources:
        refs.visit(ast.parse(path.read_text()))
    assert len(public) > 40
    assert [name for name in public if name not in refs.found] == []


def test_every_public_member_has_a_caller():
    # the same rule one level down: each public method and property of a
    # class __init__.py exports is used outside its own definition
    init = ast.parse((ROOT / "src" / "muonlab" / "__init__.py").read_text())
    members = []
    for node in init.body:
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            module = ast.parse((ROOT / "src" / "muonlab" / f"{node.module}.py").read_text())
            members += [(cls.name, fn.name) for cls in module.body
                        if isinstance(cls, ast.ClassDef) and cls.name in names
                        for fn in cls.body if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")]
    sources = [*(ROOT / "src").rglob("*.py"), *(ROOT / "demos").rglob("*.py"),
               ROOT / "tests" / "test_acceptance.py"]
    refs = _References()
    for path in sources:
        refs.visit(ast.parse(path.read_text()))
    assert len(members) > 20
    assert [f"{cls}.{fn}" for cls, fn in members if fn not in refs.found] == []
