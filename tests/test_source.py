"""Rules over the package's source, read with ``ast``: no binary float on
any path from file to report, one unchecked way to build a record, and no
universe passed beside a value that holds it."""

import ast
from pathlib import Path

import setchoice

PACKAGE = Path(setchoice.__file__).resolve().parent
SOURCES = sorted(PACKAGE.rglob("*.py"))
#: the ``math`` functions that take and return integers only
INTEGER_MATH = {"gcd", "lcm", "isqrt", "comb", "perm", "factorial"}
#: the parameters whose values hold their universe
UNIVERSE_HOLDERS = {"environment", "society", "alternative", "individual"}


def parsed():
    """``(path relative to the package, module tree)`` of each source."""
    for path in SOURCES:
        yield (path.relative_to(PACKAGE).as_posix(),
               ast.parse(path.read_text(encoding="utf-8"), str(path)))


def float_uses(tree):
    """``(line, what)`` of each float literal, ``float(...)`` call and
    ``math`` function other than INTEGER_MATH, called or imported."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "float":
                yield node.lineno, "float(...) call"
            elif (isinstance(func, ast.Attribute)
                  and isinstance(func.value, ast.Name)
                  and func.value.id == "math" and func.attr not in INTEGER_MATH):
                yield node.lineno, f"math.{func.attr} call"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name not in INTEGER_MATH:
                    yield node.lineno, f"math.{alias.name} import"


def test_sources_are_found():
    assert {"_record.py", "literals.py", "measures.py", "_core/encode.py"} <= {
        name for name, _ in parsed()}


def test_no_float_on_any_path():
    found = [f"{name}:{line}: {what}" for name, tree in parsed()
             for line, what in float_uses(tree)]
    assert found == []


def test_the_lint_flags_each_float_form():
    tree = ast.parse("import math\nfrom math import gcd, log2\n"
                     "a = 0.5\nb = float(a)\nc = math.log(8, 2)\n"
                     "d = math.lcm(2, 3)\ne = isinstance(a, float)\n")
    assert list(float_uses(tree)) == [
        (2, "math.log2 import"), (3, "float literal 0.5"),
        (4, "float(...) call"), (5, "math.log call")]


def new_calls(tree):
    """The qualified name of the function around each ``__new__(`` call."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                yield from visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "__new__"):
                yield ".".join(scope)
            yield from visit(child, scope)
    return visit(tree, ())


def test_records_are_built_past_their_checks_in_three_places_only():
    found = sorted((name, where) for name, tree in parsed()
                   for where in new_calls(tree))
    assert found == [("_record.py", "Record._of"),
                     ("evaluation.py", "IndividualProfile.from_row"),
                     ("evaluation.py", "RankingTier._from_ratio")]


def test_no_class_defines_slots():
    found = [f"{name}:{node.lineno}" for name, tree in parsed()
             for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "__slots__"
             and isinstance(node.ctx, ast.Store)]
    assert found == []


def universe_beside_holders(tree):
    """``(line, name)`` of each function that takes a ``universe``
    parameter together with one of UNIVERSE_HOLDERS, which holds it."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            names = {arg.arg for arg in (*args.posonlyargs, *args.args,
                                         *args.kwonlyargs)}
            if "universe" in names and names & UNIVERSE_HOLDERS:
                yield node.lineno, node.name


def test_no_universe_beside_a_value_that_holds_it():
    found = [f"{name}:{line}: {function}" for name, tree in parsed()
             for line, function in universe_beside_holders(tree)]
    assert found == []


def test_the_lint_flags_a_universe_beside_each_holder():
    tree = ast.parse("def a(measure, environment, society, universe): pass\n"
                     "def b(alternative, *, universe=None): pass\n"
                     "async def c(universe, /, individual): pass\n"
                     "def d(id, universe, membership): pass\n"
                     "def e(environment, society): pass\n")
    assert list(universe_beside_holders(tree)) == [(1, "a"), (2, "b"), (3, "c")]
