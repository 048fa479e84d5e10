"""Source layout rules that no behaviour test can see."""

import ast
import os
import re

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


def _definitions_and_references(path):
    """The function, method and class definitions of one file, and every name it reads.

    Each reference is (name, the definition nodes that enclose it); imports
    are not references.
    """
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    defs, refs = [], []

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.append(node)
            enclosing = enclosing | {node}
        elif isinstance(node, ast.Name):
            refs.append((node.id, enclosing))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, enclosing))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return defs, refs


def test_every_definition_is_named_outside_itself():
    # A helper, method or class that no pipeline, benchmark op or documented
    # entry point names is reached only by tests; re-exports in __init__ do
    # not count, and dunder methods are called implicitly.
    root = os.path.dirname(os.path.dirname(SRC))
    bench = os.path.join(root, "perfbench")
    files = [os.path.join(SRC, name) for name in sorted(os.listdir(SRC)) if name.endswith(".py")]
    files += [
        os.path.join(bench, name)
        for name in sorted(os.listdir(bench))
        if name.endswith(".py") and not name.startswith("test_")
    ]
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        documented = set(re.findall(r"[A-Za-z_]\w*", " ".join(re.findall(r"`([^`\n]+)`", fh.read()))))
    defs, refs = [], []
    for path in files:
        file_defs, file_refs = _definitions_and_references(path)
        refs += file_refs
        if path.startswith(SRC):
            defs += [(os.path.basename(path), node) for node in file_defs]
    unnamed = [
        f"{module}:{node.lineno} {node.name}"
        for module, node in defs
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in documented
        and not any(name == node.name and node not in enclosing for name, enclosing in refs)
    ]
    assert unnamed == []


def test_every_random_stream_is_made_by_util_stream():
    # _util.stream is the one home of the package's generators: no other
    # code calls into numpy.random (Philox, default_rng, RandomState,
    # Generator(...) and the rest) or imports from it under another name.
    # Annotations such as np.random.Generator are not calls and may stay.
    found = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)

        def visit(node, function):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            elif (isinstance(node, ast.Import) and any(a.name.startswith("numpy.random") for a in node.names)) or (
                isinstance(node, ast.ImportFrom)
                and (node.module == "numpy.random" or (node.module == "numpy" and any(a.name == "random" for a in node.names)))
            ):
                found.append(f"{name}:{node.lineno} imports numpy.random")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                owner = node.func.value
                if isinstance(owner, ast.Attribute) and owner.attr == "random" and (name, function) != ("_util.py", "stream"):
                    found.append(f"{name}:{node.lineno} calls random.{node.func.attr}")
            for child in ast.iter_child_nodes(node):
                visit(child, function)

        visit(tree, None)
    assert found == []
