"""Every parameter of a library function is read in its body, and every
public name is used outside the tests.

A parameter the body never reads is an option that does nothing: a caller
can set it and see no effect.  Dunder methods keep the signatures Python
calls them with, and self/cls are exempt.
"""

import ast
import collections
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


# Public names that only tests call, each kept for a reason.  Any other
# public function, class or method must be used by the library or perfbench.
# Uses are matched by bare name, so an attribute of the same name on another
# object also counts.
TEST_ONLY_KEEP = {
    "bounds.empirical_kloosterman_tail": "paper object: the empirical tail of |S|/c",
    "measures.orthonormality_matrix": "paper object: Gram matrix of the phi_n",
    "measures.tilde_singleton": "paper object: the singleton atom of mu-tilde",
    "numberfield.canonical_associate": "view of library data: unit-normalised generator",
    "kloosterman.ResidueUnitGroup.elements": "view of library data: the residue units",
    "kloosterman.TwistCharacter.verify_multiplicative":
        "validates a character table a caller supplies",
}
PERFBENCH = SRC.parents[1] / "perfbench"


def _public_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            yield node.name, node
            for m in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not m.name.startswith("_"):
                    yield f"{node.name}.{m.name}", m


def _references(tree: ast.AST):
    """Names, attributes and imported names under `tree`."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name.rpartition(".")[2]


def test_every_public_name_is_used_outside_tests():
    paths = sorted(SRC.glob("*.py"))
    trees = {p: ast.parse(p.read_text())
             for p in paths + sorted(PERFBENCH.glob("*.py"))}
    uses = collections.Counter(name for t in trees.values() for name in _references(t))
    unused = [f"{path.stem}.{qualname}"
              for path in paths
              for qualname, node in _public_definitions(trees[path])
              # uses inside the definition itself (recursion) do not count
              if uses[node.name] == list(_references(node)).count(node.name)]
    assert sorted(set(unused) - TEST_ONLY_KEEP.keys()) == []
    # a kept name that the library has started to use leaves the list
    assert sorted(TEST_ONLY_KEEP.keys() - set(unused)) == []
