"""Every parameter of a library function is read in its body.

A parameter the body never reads is an option that does nothing: a caller
can set it and see no effect.  Dunder methods keep the signatures Python
calls them with, and self/cls are exempt.
"""

import ast
import pathlib

import heckedist

SRC = pathlib.Path(heckedist.__file__).parent


def _unread_parameters(tree: ast.Module):
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for name in params:
            if name not in ("self", "cls") and name not in read:
                yield node.lineno, node.name, name


def test_every_parameter_is_read():
    unread = [f"{path.name}:{line} {func}({name})"
              for path in sorted(SRC.glob("*.py"))
              for line, func, name in _unread_parameters(ast.parse(path.read_text()))]
    assert unread == []
