"""Repository hygiene: no unused imports in the package, imports inside functions
only where they break a cycle, rings, modules and value objects built only by
their interning constructors, no error class that nothing raises and no private
function that nothing calls, a claim verdict is one value, the README examples
run, the code names the README cites exist, and importing the package loads no
dataclass machinery."""

import ast
import contextlib
import importlib
import io
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from deltan.cli import main

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "deltan").glob("*.py") if p.name != "__init__.py")
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _readme_block(heading, language):
    """The first fenced block of ``language`` after the README heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(name for name in imported if name not in used)
    assert not unused, f"{path.name}: unused imports {unused}"


def test_no_module_imports_dataclasses():
    found = [(path.name, node.lineno) for path in (ROOT / "src" / "deltan").glob("*.py")
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
             or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"]
    assert not found


def test_every_error_class_is_raised_and_every_private_function_is_used():
    """Each ``DeltanError`` subclass appears in some ``raise``, and each
    module-level private function is named outside its own body, unless it is
    decorated (a decorator, such as ``@_claim``, registers it)."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in (ROOT / "src" / "deltan").glob("*.py")}
    raised = {node.id for tree in trees.values() for r in ast.walk(tree)
              if isinstance(r, ast.Raise) and r.exc is not None
              for node in ast.walk(r.exc) if isinstance(node, ast.Name)}
    errors = [c.name for c in trees["errors.py"].body if isinstance(c, ast.ClassDef)
              and any(isinstance(b, ast.Name) and b.id == "DeltanError" for b in c.bases)]
    assert errors and not [name for name in errors if name not in raised]

    def names(node):
        """How often each name is read under ``node``, as a variable or an attribute."""
        return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                       if isinstance(n, (ast.Name, ast.Attribute)))

    everywhere = sum((names(tree) for tree in trees.values()), Counter())
    private = [(module, fn) for module, tree in trees.items() for fn in tree.body
               if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")
               and not fn.decorator_list]
    unused = [f"{module}:{fn.name}" for module, fn in private
              if everywhere[fn.name] == names(fn)[fn.name]]
    assert private and not unused, f"private functions nothing refers to: {unused}"


# what the dataclass machinery loads: dataclasses itself and the modules it imports
STARTUP_DENIED = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_importing_deltan_and_its_layers_loads_no_dataclass_machinery():
    """Every command pays for the import in a fresh interpreter.  A deny-list,
    as the modules that site loads before it differ from one machine to the next."""
    layers = "rings ideals expansions predicates constructions claims verifier dsl cli"
    code = ("import sys\nbefore = set(sys.modules)\nimport deltan\n"
            + "".join(f"import deltan.{layer}\n" for layer in layers.split())
            + "print(*sorted(set(sys.modules) - before))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    new = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout.split()
    assert "deltan.cli" in new
    assert not STARTUP_DENIED & set(new)


# the (module, function) pairs that import inside a function body: each one
# breaks an import cycle, which its comment names
LOCAL_IMPORTS = {("rings.py", "classify_element"), ("rings.py", "_finite_ring_class"),
                 ("constructions.py", "is_delta_gamma_homomorphism")}


def test_imports_inside_functions_only_break_cycles():
    found = set()
    for path in MODULES:
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for fn in ast.walk(ast.parse(source)):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        found.add((path.name, fn.name))
                        assert "# " in lines[node.lineno - 1], (path.name, node.lineno)
    assert found == LOCAL_IMPORTS


def test_every_operand_guard_names_a_kind_of_the_package():
    """Each ``_same_ring(ring, operand, kind, what[, attr])`` call names its kind,
    a class of the package or a tuple of them, and passes the operand as it is,
    so no call site checks the kind itself (``x if isinstance(x, K) else None``)."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in MODULES]
    classes = {node.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    guards = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name) and node.func.id == "_same_ring"]
    assert len(guards) > 30
    for call in guards:
        where = ast.unparse(call)
        assert 4 <= len(call.args) <= 5 and not call.keywords, where
        kind = call.args[2]
        names = kind.elts if isinstance(kind, ast.Tuple) else [kind]
        assert all(isinstance(n, ast.Name) and n.id in classes for n in names), where
        assert not any(isinstance(n, ast.Name) and n.id == "isinstance"
                       for n in ast.walk(call)), where


# the only functions that may call each class; identity equality of rings,
# modules, ideals, submodules and expansions rests on it
CONSTRUCTORS = {"Ring": {"_cached_ring", "_build_modular", "_build_poly_quotient",
                         "_product", "_coset_ring", "idealization"},
                "Module": {"_build_module"},
                "Ideal": {"_mk_ideal", "_int_ideal"}, "Submodule": {"_submodule"},
                "Expansion": {"_catalog_kind", "compose_expansions", "derive_quotient_expansion",
                              "derive_product_expansion", "derive_idealization_expansion",
                              "derive_localized_expansion"}}


def _memoised(fn):
    """Whether ``fn`` returns one object per argument tuple: it is ``@memo``, or
    ``_cached_ring``, which caches the rings of the base recipes by recipe."""
    return fn.name == "_cached_ring" or any(
        isinstance(d, ast.Name) and d.id == "memo" for d in fn.decorator_list)


def _calls(tree):
    """(innermost enclosing def or None, callee name) for each call of a plain name;
    ``_proved(cls, ...)``, which builds a cls on proved tables, counts as a call of cls."""
    out = []

    def visit(node, fn):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            out.append((fn, node.func.id))
            if node.func.id == "_proved":
                out.append((fn, node.args[0].id))
        for child in ast.iter_child_nodes(node):
            visit(child, child if isinstance(child, ast.FunctionDef) else fn)

    visit(tree, None)
    return out


def test_value_classes_are_built_only_by_their_memoised_constructors():
    """Each class is called only inside its named constructors, and a
    constructor is memoised or called only from memoised functions."""
    calls = [(path.name, fn, name) for path in MODULES
             for fn, name in _calls(ast.parse(path.read_text(encoding="utf-8")))]
    stray = [(module, fn and fn.name, name) for module, fn, name in calls
             if name in CONSTRUCTORS and (fn is None or fn.name not in CONSTRUCTORS[name])]
    assert not stray, f"value objects built outside their constructors: {stray}"
    defs = {fn.name: fn for _, fn, name in calls if fn is not None and name in CONSTRUCTORS}
    assert set(defs) == set().union(*CONSTRUCTORS.values())
    for name, fn in defs.items():
        callers = [(module, c and c.name) for module, c, callee in calls
                   if callee == name and not (c is not None and _memoised(c))]
        assert _memoised(fn) or not callers, f"{name} is called unmemoised by {callers}"


# the .mask reads left in claims.py, (function, object read) -> count, each of
# an object that the checkers do not take from the lattice: a homomorphism's
# kernel, and a submodule of an idealization's module
CLAIMS_MASK_READS = {("_check_hom_image", "f.kernel"): 1,
                     ("_check_hom_epi_pushforward", "f.kernel"): 1,
                     ("_homogeneous_pairs", "N"): 1}


def test_claims_read_no_mask_off_a_lattice_ideal():
    """The checkers iterate the ideal lattice as masks (``ideals._lattice``), and
    build an ``Ideal`` only for a witness or an API that takes one, so claims.py
    reads ``.mask`` only where ``CLAIMS_MASK_READS`` lists it."""
    tree = ast.parse((ROOT / "src" / "deltan" / "claims.py").read_text(encoding="utf-8"))
    reads = Counter()
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Attribute) and node.attr == "mask":
                    reads[fn.name, ast.unparse(node.value)] += 1
    everywhere = sum(isinstance(node, ast.Attribute) and node.attr == "mask"
                     for node in ast.walk(tree))
    assert everywhere == sum(reads.values()) and reads == CLAIMS_MASK_READS, reads


def _yields_tuples(node):
    """``yield a, b``, or ``yield from`` a display that holds a tuple."""
    if isinstance(node, ast.Yield):
        return isinstance(node.value, ast.Tuple)
    return any(isinstance(d, (ast.List, ast.Tuple, ast.Set))
               and any(isinstance(e, ast.Tuple) for e in d.elts) for d in ast.walk(node.value))


def test_a_verdict_is_one_value():
    """A checker yields ``HOLDS``, ``SKIP`` or a failure's ``Witness``, never a
    (status, witness) pair: no ``yield`` in ``_verdicts`` or in a function that
    ``@_claim`` registers yields a tuple, and claims.py defines no ``FAIL``.
    The instance generators (``_ideals``, ``_quotient_instances``, ...) yield
    tuples of instance fields and are not checkers."""
    tree = ast.parse((ROOT / "src" / "deltan" / "claims.py").read_text(encoding="utf-8"))
    checkers = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and (
        fn.name == "_verdicts" or any(isinstance(d, ast.Call) and d.func.id == "_claim"
                                      for d in fn.decorator_list))]
    yields = [(fn.name, node) for fn in checkers for node in ast.walk(fn)
              if isinstance(node, (ast.Yield, ast.YieldFrom))]
    assert len(checkers) > 40 and len(yields) > 90
    pairs = [(name, node.lineno) for name, node in yields if _yields_tuples(node)]
    assert not pairs, f"checkers that yield tuples: {pairs}"
    bound = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    bound |= {alias.asname or alias.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    bound |= {node.name for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert "FAIL" not in bound and {"HOLDS", "SKIP"} <= bound


def test_readme_library_tour_runs():
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(_readme_block("Library tour", "python"), "README.md", "exec"), {})
    assert "claims: 1, total failures: 0" in out.getvalue()


COMMANDS = [shlex.split(line.split("#", 1)[0])[1:]
            for line in _readme_block("Command line", "sh").splitlines()
            if line.startswith("deltan ")]


@pytest.mark.parametrize("argv", [a for a in COMMANDS
                                  if a[0] in ("ideals", "classify", "explain")], ids=" ".join)
def test_readme_command_line_examples_exit_0(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0
    assert out.getvalue()


def test_readme_code_names_resolve_in_the_package():
    """Every backticked private name (``_proved``, ``_mk_ideal(ring, mask)``) and
    name qualified by a package module (``rings.memo``) in the README exists."""
    modules = {p.stem: importlib.import_module(f"deltan.{p.stem}") for p in MODULES}
    checked, missing = 0, []
    for span in re.findall(r"`([^`\n]+)`", README):
        match = re.fullmatch(r"(?:(\w+)\.)?(\w+)(?:\(.*\))?", span)
        if not match:
            continue
        head, name = match.groups()
        if head is None and name.startswith("_"):
            found = any(hasattr(m, name) for m in modules.values())
        elif head in modules:
            found = hasattr(modules[head], name)
        elif head == "deltan":
            found = name in modules
        else:
            continue
        checked += 1
        if not found:
            missing.append(span)
    assert not missing, f"README names code that does not exist: {missing}"
    assert checked >= 18
