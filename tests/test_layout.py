"""Source layout: the dynamics and spatial modules hold no test-only code.

A public function of `dynamics` or `spatial`, or a public method of
`ForwardPass`, that no code under `src/` uses belongs in the tests'
reference modules, not in the package.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "torquesense"


def public_definitions(tree, class_name=None):
    """Public function definitions at module level, or of one class."""
    body = tree.body
    if class_name is not None:
        body = next(node.body for node in body
                    if isinstance(node, ast.ClassDef) and node.name == class_name)
    return [node for node in body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def references(trees, skip):
    """(names read, attributes looked up) outside the `skip` node."""
    names, attributes = set(), set()
    stack = list(trees)
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names, attributes


def test_dynamics_and_spatial_have_no_test_only_names():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    functions = (public_definitions(trees["dynamics"])
                 + public_definitions(trees["spatial"]))
    methods = public_definitions(trees["dynamics"], "ForwardPass")
    assert len(functions) > 10 and len(methods) >= 3
    unused = []
    for d in functions + methods:
        names, attributes = references(trees.values(), skip=d)
        # a method is only reached as an attribute; a function by its
        # name or as a module attribute
        if d.name not in attributes and (d in methods or d.name not in names):
            unused.append(d.name)
    assert unused == []
