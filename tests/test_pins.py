"""Checks on the test suite itself."""

import ast
import pathlib

TESTS = pathlib.Path(__file__).parent


def test_every_relative_approx_pin_sets_abs():
    # Without abs, pytest.approx(x, rel=r) also accepts anything within its
    # default abs of 1e-12, far looser than r for values below 1e-12 / r:
    # a relative pin sets abs.
    loose = []
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "approx"):
                names = {kw.arg for kw in node.keywords}
                if "rel" in names and "abs" not in names:
                    loose.append(f"{path.name}:{node.lineno}")
    assert loose == []
