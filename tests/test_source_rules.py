"""Rules the package source keeps, read from its syntax trees.

Runtime invariants raise InvariantViolationError: an ``assert`` statement
vanishes under ``python -O``, and a bare AssertionError bypasses the CLI's
exit-code mapping.
"""

import ast
import pathlib

import dheac

SOURCES = sorted(pathlib.Path(dheac.__file__).parent.glob("*.py"))


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
