"""Source hygiene: every name a module of the package or of its tests
imports is used, every import sits at module level, every private helper is
called and defined in one module only, every public name of the package is
read by it or listed with a reason, every defaulted parameter is set by
some call, every true division has a Fraction operand, every CLI option is
read, and W(d) has one pseudoaction kernel."""

import argparse
import ast
import inspect
import re
from pathlib import Path

import liepseudo
from liepseudo import Hopf, ModuleSpec, ModuleVector, PseudoValue, WAlgebra, cli, preset

SRC = Path(liepseudo.__file__).parent
# the package's modules and the test modules, scanned alike
SOURCES = sorted(SRC.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(tree: ast.Module, exempt=frozenset()) -> list[str]:
    """Names bound by an import anywhere in `tree` and never read."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.value.id for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used and name not in exempt]


def imports_in_functions(tree: ast.Module) -> list[str]:
    """Imports inside a function body, as "innermost function (line n)"."""
    owner = {}
    for func in ast.walk(tree):  # breadth first, so inner functions come later
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    owner[node.lineno] = func.name
    return [f"{name} (line {line})" for line, name in sorted(owner.items())]


def test_no_unused_imports_in_the_package():
    found = {}
    for path in SOURCES:
        exempt = frozenset(liepseudo.__all__) if path == SRC / "__init__.py" else frozenset()
        names = unused_imports(ast.parse(path.read_text()), exempt)
        if names:
            found[f"{path.parent.name}/{path.name}"] = names
    assert not found, f"unused imports: {found}"


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom fractions import Fraction as F\nimport sys\nsys.exit(F(1))\n")
    assert unused_imports(tree) == ["os (line 1)"]


def test_no_imports_inside_functions_in_the_package():
    found = {f"{path.parent.name}/{path.name}": names for path in SOURCES
             if (names := imports_in_functions(ast.parse(path.read_text())))}
    assert not found, f"imports inside functions: {found}"


def test_the_scan_sees_an_import_inside_a_function():
    tree = ast.parse("import os\n\ndef f():\n    def g():\n        import sys\n    return os\n")
    assert imports_in_functions(tree) == ["g (line 5)"]


def unreferenced_private_helpers(trees: dict[str, ast.Module]) -> list[str]:
    """`_`-prefixed module-level functions and classes, `_`-prefixed methods,
    and the public functions of a `_`-prefixed module (such as `_linalg.py`)
    whose name nothing in `trees` reads outside their own def, as
    "file: name (line n)".  A public function of such a module is read only
    by its name or as `module.name`: an attribute of the same name on
    anything else, such as the property `RowReducer.rank` beside a function
    `_linalg.rank`, is no call."""
    def is_private(node):
        return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.endswith("__"))

    def reads(tree, module=None):
        """Names read in `tree`; with `module`, attributes only of that module."""
        names = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.append(node.id)
            elif isinstance(node, ast.Attribute):
                if module is None or isinstance(node.value, ast.Name) and node.value.id == module:
                    names.append(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.extend(alias.name for alias in node.names)
        return names

    everywhere: dict = {}
    found = []
    for label, tree in trees.items():
        module = Path(label).stem
        helpers = [(node, node.name, None) for node in tree.body if is_private(node)]
        if module.startswith("_") and not module.startswith("__"):
            helpers += [(node, node.name, module) for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not is_private(node)]
        helpers += [(item, f"{node.name}.{item.name}", None) for node in tree.body
                    if isinstance(node, ast.ClassDef) for item in node.body
                    if is_private(item) and not isinstance(item, ast.ClassDef)]
        for node, qualname, scope in helpers:
            if scope not in everywhere:
                everywhere[scope] = [name for t in trees.values() for name in reads(t, scope)]
            if everywhere[scope].count(node.name) == reads(node, scope).count(node.name):
                found.append(f"{label}: {qualname} (line {node.lineno})")
    return found


def test_no_private_helper_without_a_caller_in_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_helpers(trees) == []


def test_the_scan_sees_a_private_helper_without_a_caller():
    tree = ast.parse("def _kept(): return 1\nclass _Box:\n"
                     "    def _peek(self): return _kept() + self._peek()\n")
    assert unreferenced_private_helpers({"toy": tree}) == ["toy: _Box (line 2)",
                                                           "toy: _Box._peek (line 3)"]


def test_the_scan_sees_a_public_function_of_a_private_module_without_a_caller():
    private = ast.parse("def used(): return 1\ndef orphan(): return orphan()\n")
    public = ast.parse("from _toy import used\ndef unread(box): return used() + box.orphan\n")
    assert unreferenced_private_helpers({"_toy.py": private, "toy.py": public}) == [
        "_toy.py: orphan (line 2)"]


def _reads(tree: ast.AST) -> list[str]:
    """Every name `tree` reads: loaded names, attributes and the names
    imported from a module."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.extend(alias.name for alias in node.names)
    return names


def _reads_outside_init(trees: dict[str, ast.Module]) -> list[str]:
    """The reads of every module of `trees` but `__init__.py`, which only
    re-exports, so its imports are no read."""
    return [name for label, tree in trees.items() if label != "__init__.py"
            for name in _reads(tree)]


def unread_public_names(trees: dict[str, ast.Module]) -> list[str]:
    """Public module-level functions, classes and assigned names of `trees`
    that no module reads outside their own definition, as "file: name"."""
    everywhere = _reads_outside_init(trees)
    found = []
    for label, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [(node.name, _reads(node).count(node.name))]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [(t.id, 0) for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [f"{label}: {name}" for name, own in defined
                      if not name.startswith("_") and everywhere.count(name) == own]
    return found


# The public names of the package that no module of it reads, each with the
# reason it stays: constructions and checks that only the tests and demos run
# (ROADMAP item 7 decides, per name, between a registry check and tests/).
UNREAD_BY_SRC = {
    "annih.py: act_on_x": "the W-action on X, checked in test_annih",
    "annih.py: ann_div": "Div^chi on the annihilation algebra, checked in test_annih",
    "annih.py: ExtAnnElement": "the extended annihilation algebra d |x W, checked in test_annih",
    "checks.py: twist_conjugation": "the twisting functor's conjugation, run by test_derham "
                                    "and test_modules",
    "modules.py: unshift_module": "the inverse shift, a paper construction checked in "
                                  "test_modules",
    "modules.py: s_tensor_module": "the S(d, chi) tensor module at the canonical lift, "
                                   "checked in test_modules",
    "modules.py: dual_module": "the dual module D(V), checked in test_modules",
    "modules.py: twist_module": "T_Pi(V), checked against tensor_module in test_modules",
    "modules.py: dual_map": "D(beta) of a module map, checked in test_modules",
    "modules.py: s_of": "s(b_l, u) of the S-module formulas, checked in test_modules",
    "modules.py: solve_intertwiner": "Hom_W between tensor modules, run by the acceptance "
                                     "tests and test_derham",
    "pseudoalg.py: cur_algebra_bracket": "Cur g, run by criterion 03 and demos/02",
    "pseudoalg.py: check_s_closure": "closure of S(d, chi) in W(d), run by criterion 04 "
                                     "outside the CLI for time",
}


def test_every_unread_public_name_of_the_package_is_listed():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert sorted(unread_public_names(trees)) == sorted(UNREAD_BY_SRC)


def test_the_scan_sees_an_unread_public_name():
    toy = ast.parse("LIMIT = 3\nSEEN = 4\ndef used(): return SEEN\n"
                    "def orphan(): return orphan()\nclass Box: pass\n")
    user = ast.parse("from toy import used\nvalue = used()\n")
    init = ast.parse("from .toy import Box, LIMIT, orphan\n")
    assert unread_public_names({"toy.py": toy, "user.py": user, "__init__.py": init}) == [
        "toy.py: LIMIT", "toy.py: orphan", "toy.py: Box", "user.py: value"]


def unread_public_methods(trees: dict[str, ast.Module]) -> list[str]:
    """Public methods of the module-level classes of `trees` whose name no
    module reads outside the method's own definition, as
    "file: Class.method".  A method is read by its name, whatever it is read
    on, so of two methods of one name either keeps both."""
    everywhere = _reads_outside_init(trees)
    return [f"{label}: {node.name}.{item.name}" for label, tree in trees.items()
            for node in tree.body if isinstance(node, ast.ClassDef)
            for item in node.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not item.name.startswith("_")
            and everywhere.count(item.name) == _reads(item).count(item.name)]


# The public methods of the package that no module of it reads, each with the
# reason it stays: readers kept for the tests, demos and users of the API.
METHODS_UNREAD_BY_SRC = {
    "_linalg.py: RowReducer.contains": "span membership beside add, read by test_linalg and "
                                       "test_derham",
    "cli.py: _Parser.error": "the hook by which argparse reports a usage error, called by "
                             "argparse",
    "modules.py: Closure.contains": "membership in a closure, read by test_acceptance and "
                                    "test_derham",
    "modules.py: Closure.coef_rank": "the rank of the closure's coefficient span, read by "
                                     "test_modules",
    "pseudoaction.py: ModuleVector.from_comps": "the inverse of comps, builds vectors in "
                                                "test_annih, test_pseudoalg and test_mutants",
    "pseudoaction.py: ModuleVector.coefficient": "the coordinates at one b^(I), read by "
                                                 "test_modules, test_acceptance and test_derham",
    "twosided.py: PseudoValue.neg": "negation beside add, scale and sub, read by four test "
                                    "modules",
    "twosided.py: PseudoValue.to_right": "the right normal form beside to_left, read by "
                                         "test_twosided",
    "twosided.py: PseudoValue.map_vectors": "applies a map to every carrier, read by "
                                            "test_derham",
    "annih.py: AnnElement.drop_below_order": "the filtration quotient of the annihilation "
                                             "algebra, read by test_annih and test_acceptance",
    "annih.py: ExtAnnElement.from_d": "d inside the extended annihilation algebra, whose class "
                                      "UNREAD_BY_SRC lists",
    "pseudoalg.py: CheckReport.as_dict": "a check as a JSON object, read by test_pseudoalg",
}


def test_every_unread_public_method_of_the_package_is_listed():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert sorted(unread_public_methods(trees)) == sorted(METHODS_UNREAD_BY_SRC)


def test_the_scan_sees_an_unread_public_method():
    toy = ast.parse("class Box:\n    def used(self): return self.orphan\n"
                    "    def again(self): return self.again()\n    def _hidden(self): pass\n"
                    "    @property\n    def size(self): return 1\n"
                    "class Bag:\n    def used(self): return 0\n    def orphan(self): return 1\n")
    user = ast.parse("from toy import Box\nBox().used()\n")
    init = ast.parse("from .toy import Box\nsize = Box.size\n")
    assert unread_public_methods({"toy.py": toy, "user.py": user, "__init__.py": init}) == [
        "toy.py: Box.again", "toy.py: Box.size"]


def private_functions_defined_twice(trees: dict[str, ast.Module]) -> list[str]:
    """Module-level `_`-prefixed function names that more than one module in
    `trees` defines, as "name: file, file": one helper per name, imported
    where it is needed rather than copied."""
    where: dict[str, list[str]] = {}
    for label, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_") and not node.name.endswith("__")):
                where.setdefault(node.name, []).append(label)
    return [f"{name}: {', '.join(labels)}" for name, labels in sorted(where.items())
            if len(labels) > 1]


def test_no_private_function_is_defined_in_two_package_modules():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert private_functions_defined_twice(trees) == []


def test_the_scan_sees_a_private_function_defined_twice():
    first = ast.parse("def _fold(x): return x\ndef _once(): return 1\n"
                      "class Box:\n    def _fold(self): return 0\n")
    second = ast.parse("from first import _once\ndef _fold(y):\n    def _inner(): return y\n"
                       "    return _inner()\n")
    third = ast.parse("def _inner(): return 2\n")
    assert private_functions_defined_twice({"first.py": first, "second.py": second,
                                            "third.py": third}) == ["_fold: first.py, second.py"]


def _owned_nodes(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Every node of `tree` in source order as (enclosing function, node), the
    function qualified by its class, "<module>" outside any."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if owner == "<module>" else f"{owner}.{child.name}")
                continue
            found.append((owner, child))
            visit(child, owner)

    visit(tree, "<module>")
    return found


def true_divisions(tree: ast.Module) -> list[tuple[str, str]]:
    """Every `/` and `/=` in `tree` as (enclosing function, its left operand)."""
    return [(owner, ast.unparse(node.left if isinstance(node, ast.BinOp) else node.target))
            for owner, node in _owned_nodes(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)]


# The true divisions of the package, each by the Fraction operand that keeps
# an int / int, which Python makes a float, out of every coefficient.
FRACTION_DIVISIONS = {
    ("_linalg.py", "RowReducer.add", "ONE"),  # ONE = Fraction(1)
    ("liecore.py", "RepData.with_id_scalar", "rat(c) - self.id_scalar()"),  # rat gives a Fraction
}


def test_every_true_division_in_the_package_has_a_fraction_operand():
    found = {(path.name, owner, left) for path in sorted(SRC.glob("*.py"))
             for owner, left in true_divisions(ast.parse(path.read_text()))}
    assert found == FRACTION_DIVISIONS


def test_the_scan_sees_every_true_division():
    tree = ast.parse("x = 1 / 2\nclass Box:\n    def f(self, a):\n        a /= 3\n"
                     "        return a // 2, Fraction(a) / 5\n")
    assert true_divisions(tree) == [("<module>", "1"), ("Box.f", "a"), ("Box.f", "Fraction(a)")]


def fraction_calls(tree: ast.Module) -> list[tuple[str, str]]:
    """Every call of `Fraction` in `tree` as (enclosing function, the call)."""
    return [(owner, ast.unparse(node)) for owner, node in _owned_nodes(tree)
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "Fraction"]


# The Fractions the package makes: every other coefficient is an int, or a
# Fraction that arithmetic on these made (the canonical rule of `_linalg`).
FRACTION_CALLS = {
    ("_linalg.py", "<module>", "Fraction(1)"),  # ONE, which inverts a pivot
    ("hopf.py", "Hopf._divided", "Fraction(v * mi_factorial(K), denom)"),
    ("liecore.py", "rat", "Fraction(x)"),
    ("modules.py", "_rep_h_matrix", "Fraction(c, mi_factorial(I))"),  # c / I!, exact
}


def test_every_fraction_call_in_the_package_is_listed():
    found = {(path.name, owner, call) for path in sorted(SRC.glob("*.py"))
             for owner, call in fraction_calls(ast.parse(path.read_text()))}
    assert found == FRACTION_CALLS


def test_the_scan_sees_every_fraction_call():
    tree = ast.parse("ONE = Fraction(1)\nclass Box:\n    def f(self, a):\n"
                     "        return fractions.Fraction(a), isinstance(a, Fraction), Fraction(a, 2)\n")
    assert fraction_calls(tree) == [("<module>", "Fraction(1)"), ("Box.f", "fractions.Fraction(a)"),
                                    ("Box.f", "Fraction(a, 2)")]


def _calls_by_name(tree: ast.Module) -> list[tuple[str, ast.Call]]:
    """Every call in `tree` as (the name it calls, the call): `f(...)` and
    `x.f(...)` call f, and `cls(...)` in a method of class C calls C."""
    owner = {id(node): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for node in ast.walk(cls)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            found.append((owner.get(id(node), name) if name == "cls" else name, node))
    return found


def unset_defaults(defs: dict[str, ast.Module], callers: list[ast.Module]) -> list[str]:
    """The defaulted parameters of the functions and methods of `defs` that
    no call in `callers` passes, as "file: function(parameter)".  A call
    passes a parameter by its keyword or a `**` argument, or by a positional
    argument at its place or a `*` argument before it; it is matched by the
    name it calls (`_calls_by_name`), `__init__` by its class's name, and the
    self or cls of a method takes no place."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in callers:
        for name, call in _calls_by_name(tree):
            calls.setdefault(name, []).append(call)

    def passed(name, param, place):
        for call in calls.get(name, ()):
            if any(k.arg in (param, None) for k in call.keywords):
                return True
            if place is not None and any(isinstance(a, ast.Starred) or m == place
                                         for m, a in enumerate(call.args)):
                return True
        return False

    found = []

    def visit(label, body, cls=None):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(label, node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                places = args.posonlyargs + args.args
                static = any(ast.unparse(d) == "staticmethod" for d in node.decorator_list)
                skip = 1 if cls and not static else 0
                defaulted = [(a.arg, m - skip) for m, a in enumerate(places)
                             if m >= len(places) - len(args.defaults)]
                defaulted += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                              if d is not None]
                name = cls if node.name == "__init__" else node.name
                found.extend(f"{label}: {cls + '.' if cls else ''}{node.name}({param})"
                             for param, place in defaulted if not passed(name, param, place))
                visit(label, node.body)

    for label, tree in defs.items():
        visit(label, tree.body)
    return found


# The defaulted parameters of the package that no call in src/, tests/ or
# demos/ sets, each with the reason it stays; a default nobody overrides is a
# constant, so there are none.
DEFAULTS_NO_CALL_SETS: dict[str, str] = {}


def test_every_defaulted_parameter_of_the_package_is_set_by_some_call():
    defs = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    demos = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))
    callers = [ast.parse(path.read_text()) for path in SOURCES + demos]
    assert demos and sorted(unset_defaults(defs, callers)) == sorted(DEFAULTS_NO_CALL_SETS)


def test_the_scan_sees_a_defaulted_parameter_no_call_sets():
    toy = ast.parse("def f(a, b=1, c=2, *, d=3, e=4): return a\n"
                    "class Box:\n    def __init__(self, x=0, y=0): pass\n"
                    "    def m(self, z=0): pass\n    @staticmethod\n    def s(z=0): pass\n"
                    "    @classmethod\n    def make(cls): return cls(y=1)\n")
    user = ast.parse("f(1, 2, e=5)\nBox().m(*[1])\nBox.s()\n")
    assert unset_defaults({"toy.py": toy}, [toy, user]) == [
        "toy.py: f(c)", "toy.py: f(d)", "toy.py: Box.__init__(x)", "toy.py: Box.s(z)"]


def ignored_options(parser: argparse.ArgumentParser, shared=()) -> dict[str, list[str]]:
    """Per subcommand, the options whose `args.<dest>` neither the command's
    `func` nor any of the `shared` functions reads."""
    found = {}
    for action in parser._actions:
        if not isinstance(action, argparse._SubParsersAction):
            continue
        for name, sub in action.choices.items():
            source = "".join(inspect.getsource(f) for f in (sub.get_default("func"), *shared))
            unread = [a.dest for a in sub._actions
                      if not isinstance(a, argparse._HelpAction)
                      and not re.search(rf"\bargs\.{a.dest}\b", source)]
            if unread:
                found[name] = unread
    return found


def test_every_cli_option_is_read():
    assert ignored_options(cli._parser(), shared=(cli._emit,)) == {}


def _toy_command(args):
    return args.used


def test_the_scan_sees_an_ignored_option():
    parser = argparse.ArgumentParser()
    toy = parser.add_subparsers().add_parser("toy")
    toy.add_argument("--used")
    toy.add_argument("--unused")
    toy.add_argument("--unused-too", dest="unused_too")
    toy.set_defaults(func=_toy_command)
    assert ignored_options(parser) == {"toy": ["unused", "unused_too"]}


def test_w_bracket_and_action_on_h_run_on_the_pseudoaction_kernel(monkeypatch):
    kernel_runs, tensors = [], []
    real_kernel, real_tensor = ModuleSpec._kernel, PseudoValue.from_tensor.__func__

    def kernel(self, *args, **kwargs):
        kernel_runs.append(self.name)
        return real_kernel(self, *args, **kwargs)

    def from_tensor(cls, *args, **kwargs):
        tensors.append(args)
        return real_tensor(cls, *args, **kwargs)

    monkeypatch.setattr(ModuleSpec, "_kernel", kernel)
    monkeypatch.setattr(PseudoValue, "from_tensor", classmethod(from_tensor))
    H = Hopf(preset("sl2"))
    walg = WAlgebra(H)
    u = walg.gen(0).hmul(H.gen(1)).add(walg.gen(2))
    assert not walg.bracket(u, walg.gen(1).hmul(H.gen(0))).is_zero()
    assert kernel_runs and set(kernel_runs) == {"W(d)"}
    kernel_runs.clear()
    assert not walg.action_on_h(u, ModuleVector.from_comps(H, [H.gen(2)])).is_zero()
    assert kernel_runs and set(kernel_runs) == {"H"}
    assert tensors == []
