"""Every parameter of a library function is read in its body and has a
public name, every default is set by some caller outside the tests, and
every public name is used outside the tests.

A parameter the body never reads is an option that does nothing: a caller
can set it and see no effect.  Dunder methods keep the signatures Python
calls them with, and self/cls are exempt.  A default that no caller sets is
an option that nothing uses.
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


def test_no_parameter_is_private():
    # a private switch on a function, such as one that skips a constructor's
    # checks, is a second code path that callers outside cannot see
    private = [f"{path.name}:{node.lineno} {node.name}({p.arg})"
               for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               for p in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
               + [a for a in (node.args.vararg, node.args.kwarg) if a is not None]
               if p.arg.startswith("_")]
    assert private == []


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


# Defaulted parameters that no call in the library or perfbench passes, each
# kept for a reason.  Any other default must be set by some caller outside
# the tests, or it is an option that nothing uses.
UNSET_DEFAULT_KEEP = {
    "cli.main(argv)": "the console entry point reads sys.argv when no list is given",
    "datasource.DataClient.__init__(base_url)": "a deployment address",
    "bounds.euler_product_tail(level_norms)": "paper object: the norms of the level's primes",
    "datasource.to_dataset(weights)": "harmonic weights for the weighted equidistribution",
    "heckealg.verify_coefficient_relation(lam_other)":
        "coefficient systems with another eigenvalue at the other primes",
}


def _defaulted_parameters(tree: ast.Module, module: str):
    """(qualname, bare name used by callers, parameter, position or None) per
    defaulted parameter; the position counts from the first argument a caller
    passes, so self/cls are not counted and __init__ is called by its class."""
    def walk(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}.{child.name}", child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual, a = f"{prefix}.{child.name}", child.args
                positional = a.posonlyargs + a.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                skip = 1 if in_class and not static else 0
                callee = in_class if child.name == "__init__" else child.name
                first = len(positional) - len(a.defaults)
                for i, p in enumerate(positional[first:], first):
                    yield qual, callee, p.arg, i - skip
                for p, d in zip(a.kwonlyargs, a.kw_defaults):
                    if d is not None:
                        yield qual, callee, p.arg, None
                yield from walk(child, qual, None)
            else:
                yield from walk(child, prefix, in_class)
    yield from walk(tree, module, None)


def _calls(node: ast.AST, cls: str = None):
    """(bare callee name, positional count, keyword names) per call; a perfbench
    `led.call(op, fn, *args)` is a call of fn, and `cls(...)` one of the class
    it sits in.  A starred argument counts as every position, ** as every
    keyword."""
    for child in ast.iter_child_nodes(node):
        yield from _calls(child, child.name if isinstance(child, ast.ClassDef) else cls)
    if not isinstance(node, ast.Call):
        return
    func, args, keywords = node.func, node.args, node.keywords
    if isinstance(func, ast.Attribute) and func.attr == "call" and len(args) >= 2:
        func, args = args[1], args[2:]
        keywords = [k for k in keywords if k.arg != "expect"]
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name == "cls":
        name = cls
    count = float("inf") if any(isinstance(x, ast.Starred) for x in args) else len(args)
    yield name, count, {k.arg for k in keywords}


def test_every_default_is_set_by_a_caller_outside_tests():
    trees = {p: ast.parse(p.read_text())
             for p in sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))}
    calls = collections.defaultdict(list)
    for t in trees.values():
        for name, count, kw in _calls(t):
            calls[name].append((count, kw))
    unset = []
    for path in sorted(SRC.glob("*.py")):
        for qual, callee, param, pos in _defaulted_parameters(trees[path], path.stem):
            if qual in TEST_ONLY_KEEP:
                continue
            if not any((pos is not None and count > pos) or param in kw or None in kw
                       for count, kw in calls[callee]):
                unset.append(f"{qual}({param})")
    assert sorted(set(unset) - UNSET_DEFAULT_KEEP.keys()) == []
    # a kept default that a caller has started to set leaves the list
    assert sorted(UNSET_DEFAULT_KEEP.keys() - set(unset)) == []
