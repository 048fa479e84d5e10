"""Source layout rules that no behaviour test can see."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "exitrate")


def _shared_lines(name):
    """Lines of the module src/exitrate/<name> that read or write an attribute named shared."""
    with open(os.path.join(SRC, name), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=name)
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "shared"]


def test_only_control_touches_the_grid_solver_cache():
    # Grid.shared holds the solver set-up that control keeps for a caller's
    # grid.  grid.py only declares the field, as a class-body name, so no
    # module but control reads or writes the attribute.
    others = [name for name in sorted(os.listdir(SRC)) if name.endswith(".py") and name != "control.py"]
    assert {name: lines for name in others if (lines := _shared_lines(name))} == {}
    assert _shared_lines("control.py"), "the check no longer sees control's own use"
