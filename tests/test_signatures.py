"""The shape of the package: the calling convention of loginv and qgroup
(a RootContext fixes N and the precision, so every function that
evaluates at xi takes one required ctx and reads N from it), and no public
name or class field in src/ that only the tests reach."""

import ast
import inspect
import pathlib

import pytest

from logjones import loginv, qgroup

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "logjones"
TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}

# the definitional route to b_s^+-, which only tests call (ROADMAP
# direction 2 moves it to tests/conftest.py)
NOT_YET_REACHED = {"qgroup.x0_from_eta", "qgroup.x0_to_b"}


def own_functions(module):
    # unwrap, or a memoized function (functools.lru_cache) is no function
    unwrapped = ((name, inspect.unwrap(obj)) for name, obj in vars(module).items())
    return [(name, fn) for name, fn in unwrapped
            if inspect.isfunction(fn) and fn.__module__ == module.__name__]


@pytest.mark.parametrize("module", [loginv, qgroup], ids=lambda m: m.__name__)
def test_ctx_carries_N(module):
    both, defaulted = [], []
    for name, fn in own_functions(module):
        params = inspect.signature(fn).parameters
        if "ctx" not in params:
            continue
        if "N" in params:
            both.append(name)
        if params["ctx"].default is not inspect.Parameter.empty:
            defaulted.append(name)
    assert not both, f"take both ctx and N: {both}"
    assert not defaulted, f"give ctx a default: {defaulted}"


def test_memoized_functions_are_checked():
    assert "build_restricted" in dict(own_functions(qgroup))


def names_in_src():
    # every name src/ code uses, as a name or an attribute (not in a
    # docstring)
    named = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return named


def public_defs():
    # (qualified name, name) of every module-level function and class of
    # src/ and of every method of those classes
    defs = []
    for mod, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((f"{mod}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{mod}.{node.name}.{sub.name}", sub.name) for sub in node.body
                         if isinstance(sub, ast.FunctionDef)]
    return defs


def test_public_names_reached_from_src():
    # a public function, class or method of src/ must be named somewhere in
    # src/; test oracles live in tests/conftest.py
    named = names_in_src()
    unreached = sorted(qual for qual, name in public_defs()
                       if not name.startswith("_") and name not in named
                       and qual not in NOT_YET_REACHED)
    assert not unreached, f"public names that no src/ code reaches: {unreached}"


def test_not_yet_reached_is_current():
    # the allowlist names only functions that exist and that src/ still
    # does not reach, so it shrinks as routes are wired in
    defs = dict(public_defs())
    named = names_in_src()
    stale = sorted(qual for qual in NOT_YET_REACHED if qual not in defs or defs[qual] in named)
    assert not stale, f"allowlisted names that are gone or now reached: {stale}"


def test_class_fields_read_in_src():
    # every annotated field of a src/ class is read by src/ code as an
    # attribute (obj.field); a field that only tests read is computed for
    # nothing on every instance
    read = {node.attr for tree in TREES.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = sorted(f"{mod}.{node.name}.{field.target.id}"
                    for mod, tree in TREES.items() for node in tree.body
                    if isinstance(node, ast.ClassDef)
                    for field in node.body
                    if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
                    and field.target.id not in read)
    assert not unread, f"class fields that no src/ code reads: {unread}"


def test_one_place_constructs_restricted_modules():
    # every module kind is built at generic q and specialized at xi in
    # build_restricted alone: it is the one RestrictedModule(...) call in
    # src/, by name or as an attribute, at any depth
    def constructs(node):
        return isinstance(node, ast.Call) and "RestrictedModule" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))

    where = [(mod, getattr(top, "name", None)) for mod, tree in TREES.items()
             for top in tree.body for node in ast.walk(top) if constructs(node)]
    assert where == [("qgroup", "build_restricted")], where


def test_one_place_constructs_weight_reps():
    # W_m, Y_m^+- and the U, V and P modules are all weight ladders, built
    # by the one ladder rule: jones.ladder_rep is the one WeightRep(...)
    # call in src/, by name or as an attribute, at any depth
    def constructs(node):
        return isinstance(node, ast.Call) and "WeightRep" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))

    where = [(mod, getattr(top, "name", None)) for mod, tree in TREES.items()
             for top in tree.body for node in ast.walk(top) if constructs(node)]
    assert where == [("jones", "ladder_rep")], where


def test_q_symbol_helpers_are_table_reads():
    # brace_at, brace_plus, qint_at and qfact_at read the tables of
    # RootContext and enter no working precision of their own, and
    # habiro.ddm_Vm reads RootContext.qsymbols itself: its loop calls none
    # of them
    helpers = {"brace_at", "brace_plus", "qint_at", "qfact_at"}

    def calls(node, names):
        return [name for sub in ast.walk(node) if isinstance(sub, ast.Call)
                for name in [getattr(sub.func, "attr", getattr(sub.func, "id", None))]
                if name in names]

    defs = {node.name: node for tree in (TREES["qcalc"], TREES["habiro"])
            for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    entering = {name: calls(defs[name], {"workdps", "workprec"}) for name in helpers}
    assert not any(entering.values()), entering
    loops = [node for node in ast.walk(defs["ddm_Vm"]) if isinstance(node, (ast.For, ast.While))]
    assert loops and not [name for loop in loops for name in calls(loop, helpers)]


def comparisons_with_tol(tree, where=""):
    # the function (dotted through its classes) around each comparison
    # that reads a tolerance, tol or ctx.tol
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found += comparisons_with_tol(node, f"{where}.{node.name}")
            continue
        if isinstance(node, ast.Compare) and any(
                isinstance(sub, ast.Name) and sub.id == "tol"
                or isinstance(sub, ast.Attribute) and sub.attr == "tol"
                for sub in ast.walk(node)):
            found.append(where)
        found += comparisons_with_tol(node, where)
    return found


def test_loginv_judges_its_checks_in_one_place():
    # loginv's checks hand their residuals to CenterCoeffs, and
    # CenterCoeffs.failed is the one comparison with the tolerance; the
    # CLI reads its verdict and compares nothing itself
    found = [mod + where for mod in ("loginv", "cli") for where in comparisons_with_tol(TREES[mod])]
    assert found == ["loginv.CenterCoeffs.failed"], found


def test_qcalc_and_qgroup_judge_no_tolerance_but_the_report():
    # qcalc takes its limits at xi exactly, so it compares nothing with a
    # tolerance; qgroup's checks return residuals that its report judges
    found = [mod + where for mod in ("qcalc", "qgroup") for where in comparisons_with_tol(TREES[mod])]
    assert found == ["qgroup.verification_report.add"], found


def test_src_imports_are_used():
    # every name a src/ module imports, at any depth, is used in that
    # module, but for the re-exports that __init__ lists in __all__ and
    # the __future__ features
    exported = {name for node in TREES["__init__"].body if isinstance(node, ast.Assign)
                for target in node.targets if getattr(target, "id", None) == "__all__"
                for name in ast.literal_eval(node.value)}
    unused = []
    for mod, tree in TREES.items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{mod}:{node.lineno} {name}" for name in bound
                       if name not in used and not (mod == "__init__" and name in exported)]
    assert not unused, f"imported names that their module never uses: {unused}"
