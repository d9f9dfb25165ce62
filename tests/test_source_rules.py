"""Rules the package source keeps, read from its syntax trees and its
export list.

Runtime invariants raise InvariantViolationError: an ``assert`` statement
vanishes under ``python -O``, and a bare AssertionError bypasses the CLI's
exit-code mapping. ``dheac.__all__`` is a ratchet: it may shrink, but not
grow past MAX_EXPORTS.
"""

import ast
import pathlib

import dheac

SOURCES = sorted(pathlib.Path(dheac.__file__).parent.glob("*.py"))
MAX_EXPORTS = 35


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


def test_exports_are_sorted_unique_bound_and_within_the_ratchet():
    names = dheac.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(dheac, name)] == []
    assert len(names) <= MAX_EXPORTS
