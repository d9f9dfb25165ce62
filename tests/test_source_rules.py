"""Rules the package source keeps, read from its syntax trees and its
export list.

Runtime invariants raise InvariantViolationError: an ``assert`` statement
vanishes under ``python -O``, and a bare AssertionError bypasses the CLI's
exit-code mapping. Every module-level import is used in its module (the
package's __init__, which re-exports, aside). The quota law and the row
budget live in ``partition``: ``qverify`` imports nothing from ``lottery``,
and no module imports a private name from it. The network-size limit
lives in ``netgen``: no other module names MAX_NODES. ``dheac.__all__`` is a
ratchet: it may shrink, but not grow past MAX_EXPORTS. So is each
subcommand's count of settable values, its flags other than --help: it may
shrink, but not grow past MAX_FLAGS, and --help lists every one of them.
No module reads the process environment: a command's inputs come from its
parser alone. Each ``module.name`` or ``dheac.module.name`` the README
names, for a module of the package, exists, and each ``dheac ...`` command
in its code parses. The README's line count is a ratchet, MAX_README_LINES:
it describes the system as it stands, and measurement history lives in
CHANGES.md and the BENCH_*.json files.
"""

import argparse
import ast
import importlib
import pathlib
import re
import shlex

import dheac
from dheac.cli import build_parser

SOURCES = sorted(pathlib.Path(dheac.__file__).parent.glob("*.py"))
README = pathlib.Path(__file__).parents[1] / "README.md"
MAX_EXPORTS = 31
MAX_README_LINES = 274
MAX_FLAGS = {"sweep": 18, "fairness": 9, "breakeven": 13,
             "verify-quantum": 11, "mc": 18}


def _assertion_sites(tree: ast.AST) -> list[int]:
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            sites.append(node.lineno)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                sites.append(node.lineno)
    return sites


def test_the_rule_sees_both_forms():
    code = ("assert x\n"
            "raise AssertionError('no')\n"
            "raise AssertionError\n"
            "raise ValueError('fine')\n")
    assert _assertion_sites(ast.parse(code)) == [1, 2, 3]


def test_package_source_has_no_assert_and_raises_no_assertion_error():
    assert len(SOURCES) > 1
    found = {path.name: sites for path in SOURCES
             if (sites := _assertion_sites(ast.parse(path.read_text())))}
    assert found == {}


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0]
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_the_import_rule_sees_unused_names():
    code = ("from __future__ import annotations\n"
            "import os.path\n"
            "import numpy as np\n"
            "from math import inf, pi\n"
            "def f():\n"
            "    import sys\n"
            "    return np.zeros(1) * pi\n")
    assert _unused_imports(ast.parse(code)) == ["os", "inf"]


def test_package_modules_use_every_import():
    found = {path.name: names for path in SOURCES
             if path.name != "__init__.py"
             and (names := _unused_imports(ast.parse(path.read_text())))}
    assert found == {}


def _lottery_imports(name: str, tree: ast.Module) -> list[str]:
    """Names a package module imports from .lottery that it may not: any,
    in qverify; private ones, anywhere."""
    return [alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level, node.module) in {(1, "lottery"),
                                              (0, "dheac.lottery")}
            for alias in node.names
            if name == "qverify.py" or alias.name.startswith("_")]


def test_the_boundary_rule_sees_lottery_imports():
    code = ("from .lottery import MAX_SUBSETS, _piece_rows\n"
            "from .partition import _class_round\n"
            "from dheac.lottery import _BLOCK\n"
            "def f():\n"
            "    from .lottery import _class_round, exact_node_probs\n")
    tree = ast.parse(code)
    assert _lottery_imports("cli.py", tree) == [
        "_piece_rows", "_BLOCK", "_class_round"]
    assert _lottery_imports("qverify.py", tree) == [
        "MAX_SUBSETS", "_piece_rows", "_BLOCK", "_class_round",
        "exact_node_probs"]


def test_package_modules_keep_the_lottery_boundary():
    found = {path.name: names for path in SOURCES
             if (names := _lottery_imports(path.name,
                                           ast.parse(path.read_text())))}
    assert found == {}


def _node_limit_names(tree: ast.AST) -> list[int]:
    """Lines that name MAX_NODES in code: bound, read, as an attribute or
    imported; prose in docstrings and comments is not code."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "MAX_NODES")
        or (isinstance(node, ast.Attribute) and node.attr == "MAX_NODES")
        or (isinstance(node, ast.ImportFrom)
            and any(alias.name == "MAX_NODES" for alias in node.names)))


def test_the_node_limit_rule_sees_each_form():
    code = ('"""netgen.MAX_NODES in a docstring"""\n'
            "from .netgen import MAX_NODES\n"
            "from . import netgen\n"
            "MAX_NODES = 2 ** 20  # MAX_NODES in a comment\n"
            "cap = netgen.MAX_NODES\n"
            "ok = MAX_NODES_SEEN = 1\n")
    assert _node_limit_names(ast.parse(code)) == [2, 4, 5]


def test_only_netgen_names_the_node_limit():
    assert [path.name for path in SOURCES
            if _node_limit_names(ast.parse(path.read_text()))] == ["netgen.py"]


def _environment_reads(tree: ast.AST) -> list[int]:
    """Lines that read the process environment: os.environ, os.environb or
    os.getenv, as an attribute of any name or imported from os."""
    names = {"environ", "environb", "getenv"}
    return sorted(
        node.lineno for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in names)
        or (isinstance(node, ast.ImportFrom) and node.module == "os"
            and any(alias.name in names for alias in node.names)))


def test_the_environment_rule_sees_each_form():
    code = ("import os\n"
            "import os as system\n"
            "a = os.environ['A']\n"
            "b = os.environb.get(b'B')\n"
            "c = os.getenv('C', '1')\n"
            "from os import environ\n"
            "from os import path, getenv as read\n"
            "from os import environb\n"
            "d = system.environ\n"
            "e = os.path.join('a', 'b')\n")
    assert _environment_reads(ast.parse(code)) == [3, 4, 5, 6, 7, 8, 9]


def test_package_modules_read_no_environment():
    found = {path.name: lines for path in SOURCES
             if (lines := _environment_reads(ast.parse(path.read_text())))}
    assert found == {}


def test_exports_are_sorted_unique_bound_and_within_the_ratchet():
    names = dheac.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(dheac, name)] == []
    assert len(names) <= MAX_EXPORTS


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    return parser._subparsers._group_actions[0].choices


def test_settable_values_per_subcommand_stay_within_the_ratchet():
    commands = _subcommands(build_parser())
    counts = {name: sum(1 for action in sub._actions if action.option_strings
                        and not isinstance(action, argparse._HelpAction))
              for name, sub in commands.items()}
    assert counts.keys() == MAX_FLAGS.keys()
    assert {name: n for name, n in counts.items()
            if n > MAX_FLAGS[name]} == {}


def _hidden_flags(parser: argparse.ArgumentParser) -> list[str]:
    """'command dest' of each subcommand argument that --help hides."""
    return [f"{name} {action.dest}"
            for name, sub in _subcommands(parser).items()
            for action in sub._actions if action.help == argparse.SUPPRESS]


def test_the_hidden_flag_rule_sees_a_suppressed_help():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers()
    run = sub.add_parser("run")
    run.add_argument("--shown", help="listed")
    run.add_argument("--bare")
    run.add_argument("--hook", action="store_true", help=argparse.SUPPRESS)
    sub.add_parser("other").add_argument("level", help=argparse.SUPPRESS)
    assert _hidden_flags(parser) == ["run hook", "other level"]


def test_no_subcommand_hides_a_flag():
    # a flag only tests set is no reason for a flag: tests reach the code
    # through its seams (monkeypatch) instead
    assert _hidden_flags(build_parser()) == []


def _module_names(text: str) -> list[tuple[str, str]]:
    """(module, name) of each module.name or dheac.module.name in text whose
    module is one of the package's; a file name (module.py) is not one."""
    modules = "|".join(path.stem for path in SOURCES
                       if path.name != "__init__.py")
    pattern = rf"\b(?:dheac\.)?({modules})\.(?!py\b)([A-Za-z_]\w*)"
    return re.findall(pattern, text)


def test_the_readme_rule_sees_module_names():
    text = ("`cli.main` and dheac.qverify.SparseState, not cli.py, "
            "mycli.x or dheac.cli; then lottery.gone.\n")
    assert _module_names(text) == [
        ("cli", "main"), ("qverify", "SparseState"), ("lottery", "gone")]


def test_readme_module_names_resolve():
    names = _module_names(README.read_text())
    assert len(names) > 1
    assert [f"{module}.{name}" for module, name in names
            if not hasattr(importlib.import_module(f"dheac.{module}"),
                           name)] == []


def _readme_commands(text: str) -> list[str]:
    """Each ``dheac ...`` line of a fenced code block, and each inline code
    span that starts with ``dheac ``, with a shell prompt dropped; a line
    that names an @ argument file is skipped, since the file is not there."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S)
    lines = [line.strip() for block in blocks for line in block.splitlines()]
    lines += re.findall(r"(?<!`)`(dheac [^`]+)`", text)
    commands = [line.removeprefix("$ ") for line in lines]
    return [c for c in commands if c.startswith("dheac ")
            and not any(token.startswith("@") for token in shlex.split(c))]


def _unparsed(commands: list[str]) -> list[str]:
    """The commands build_parser() refuses."""
    parser = build_parser()
    refused = []
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            refused.append(command)
    return refused


def test_the_command_rule_sees_code_and_skips_argument_files():
    text = ("Run `dheac mc --m 4 --demand 0.4` or `dheac --stats x`.\n"
            "```\n"
            "# a comment\n"
            "dheac sweep --ms 4,8 --out a.csv\n"
            "$ dheac breakeven --q 0.05\n"
            "$ dheac @run.args --out b.csv\n"
            "```\n"
            "Not code: dheac fairness --bogus.\n")
    commands = _readme_commands(text)
    assert commands == ["dheac sweep --ms 4,8 --out a.csv",
                        "dheac breakeven --q 0.05",
                        "dheac mc --m 4 --demand 0.4", "dheac --stats x"]
    assert _unparsed(commands) == ["dheac breakeven --q 0.05",
                                   "dheac --stats x"]


def test_readme_commands_parse():
    commands = _readme_commands(README.read_text())
    assert len(commands) > 5
    assert _unparsed(commands) == []


def _line_count(text: str) -> int:
    """Lines as ``wc -l`` counts them in a file that ends in a newline."""
    return len(text.splitlines())


def test_the_line_rule_counts_lines():
    assert _line_count("") == 0
    assert _line_count("one\n\nthree\n") == 3
    assert _line_count("one\ntwo") == 2


def test_readme_stays_within_the_line_ratchet():
    assert _line_count(README.read_text()) <= MAX_README_LINES
