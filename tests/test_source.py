"""Rules over the package's source, read with ``ast``: no binary float on
any path from file to report, one unchecked way to build a record, no
universe passed beside a value that holds it, and one function, ``plan``,
that reads the thresholds choosing a kernel or mean path, which no test
patches."""

import ast
from pathlib import Path

import setchoice

PACKAGE = Path(setchoice.__file__).resolve().parent
SOURCES = sorted(PACKAGE.rglob("*.py"))
TEST_DIR = Path(__file__).resolve().parent
TESTS = sorted(TEST_DIR.glob("*.py"))
#: the ``math`` functions that take and return integers only
INTEGER_MATH = {"gcd", "lcm", "isqrt", "comb", "perm", "factorial"}
#: the parameters whose values hold their universe
UNIVERSE_HOLDERS = {"environment", "society", "alternative", "individual"}
#: the thresholds that choose a kernel or mean path
PATH_CONSTANTS = {"_LIMB_PASSES", "_COLUMN_ROWS", "_COLUMN_SIZE", "_FOLD_BITS"}


def parsed(paths=SOURCES, root=PACKAGE):
    """``(path relative to root, module tree)`` of each of ``paths``."""
    for path in paths:
        yield (path.relative_to(root).as_posix(),
               ast.parse(path.read_text(encoding="utf-8"), str(path)))


def scoped_nodes(tree):
    """``(qualified name of the enclosing classes and functions, node)`` of
    every node below ``tree``; the name is empty at module level."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            yield ".".join(scope), child
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                yield from visit(child, scope + (child.name,))
            else:
                yield from visit(child, scope)
    return visit(tree, ())


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
    return (where for where, node in scoped_nodes(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__new__")


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


def path_constant_reads(tree):
    """``(line, scope)`` of each read of a PATH_CONSTANTS name, bare or as
    an attribute, outside a function named ``plan``."""
    for where, node in scoped_nodes(tree):
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else None)
        if (name in PATH_CONSTANTS and isinstance(node.ctx, ast.Load)
                and where.rpartition(".")[2] != "plan"):
            yield node.lineno, where or "<module>"


def path_constant_patches(tree):
    """``(line, how)`` of each patch of a PATH_CONSTANTS name: a keyword
    argument, or a string argument naming one alone or at the end of a
    dotted path, or an assignment or deletion of one as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            for keyword in node.keywords:
                if keyword.arg in PATH_CONSTANTS:
                    yield node.lineno, f"keyword {keyword.arg}"
            for arg in node.args:
                if (isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                        and arg.value.rpartition(".")[2] in PATH_CONSTANTS):
                    yield node.lineno, f"argument {arg.value!r}"
        elif (isinstance(node, ast.Attribute) and node.attr in PATH_CONSTANTS
              and not isinstance(node.ctx, ast.Load)):
            yield node.lineno, f"sets {node.attr}"


def test_path_constants_are_read_in_plan_alone():
    found = [f"{name}:{line}: {where}" for name, tree in parsed()
             for line, where in path_constant_reads(tree)]
    assert found == []
    defined = {target.id for _, tree in parsed() for node in ast.walk(tree)
               if isinstance(node, ast.Assign) for target in node.targets
               if isinstance(target, ast.Name)}
    assert PATH_CONSTANTS <= defined


def test_no_test_patches_a_path_constant():
    found = [f"{name}:{line}: {how}" for name, tree in parsed(TESTS, TEST_DIR)
             for line, how in path_constant_patches(tree)]
    assert found == []


def test_the_lint_flags_each_path_constant_read_outside_plan():
    tree = ast.parse("_FOLD_BITS = 1 << 16\n"
                     "def plan(enc):\n    return _FOLD_BITS // 8\n"
                     "def loop(enc):\n    return _FOLD_BITS\n"
                     "class Kernel:\n    def run(self):\n"
                     "        return kernel_py._LIMB_PASSES\n"
                     "WIDE = _COLUMN_SIZE\n")
    assert list(path_constant_reads(tree)) == [
        (5, "loop"), (8, "Kernel.run"), (9, "<module>")]


def test_the_lint_flags_each_way_to_patch_a_path_constant():
    tree = ast.parse("mock.patch.multiple(evaluation, _COLUMN_ROWS=0)\n"
                     "monkeypatch.setattr(kernel_py, '_LIMB_PASSES', 1)\n"
                     "mock.patch('setchoice._core.kernel_py._FOLD_BITS', 8)\n"
                     "kernel_py._COLUMN_SIZE = 0\n"
                     "del kernel_py._FOLD_BITS\n"
                     "monkeypatch.setattr(kernel_py, 'plan', None)\n"
                     "chosen = planned(natural, fold_supports=1)\n")
    assert sorted(path_constant_patches(tree)) == [
        (1, "keyword _COLUMN_ROWS"), (2, "argument '_LIMB_PASSES'"),
        (3, "argument 'setchoice._core.kernel_py._FOLD_BITS'"),
        (4, "sets _COLUMN_SIZE"), (5, "sets _FOLD_BITS")]
