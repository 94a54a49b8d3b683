"""Package hygiene: clean compilation and a consistent version string."""

import ast
import os
import pathlib
import re
import subprocess
import sys
import warnings

import kchern

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "kchern").glob("*.py"))


def test_sources_compile_without_warnings():
    assert SOURCES
    for path in SOURCES:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(), str(path), "exec")


def test_no_optimize_dependent_code():
    # `python -O` strips assert statements and makes __debug__ False, so
    # no check in the library may be written with either
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Assert)
                    or isinstance(node, ast.Name) and node.id == "__debug__"):
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found


def test_true_division_only_in_exactmath():
    # int / int is a float; exact division lives in exactmath, which
    # divides Fractions only
    found = []
    for path in SOURCES:
        if path.name == "exactmath.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, (ast.BinOp, ast.AugAssign))
                    and isinstance(node.op, ast.Div)):
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found


def test_imports_are_public_and_at_module_level():
    # a module reaches another only through its public names, and every
    # dependency shows in the import block at the top
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += ["%s:%d" % (path.name, sub.lineno)
                          for sub in ast.walk(node)
                          if isinstance(sub, (ast.Import, ast.ImportFrom))]
            if (isinstance(node, ast.ImportFrom)
                    and (node.level or node.module.startswith("kchern"))
                    and any(a.name.startswith("_") for a in node.names)):
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found


def test_no_unused_imports():
    # every imported name is referenced in its module or listed in its
    # __all__; package __init__ files import to re-export, so they are left
    # out
    found = []
    paths = SOURCES + sorted((ROOT / "tests").glob("*.py"))
    for path in paths:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)):
                used |= set(ast.literal_eval(node.value))
        found += ["%s:%d %s" % (path.name, line, name)
                  for name, line in imported.items() if name not in used]
    assert not found


def test_khat_imports_no_seeded_draw():
    # seeded checks belong to `suites`; the K-hat layer only verifies the
    # data it is given, so it imports neither `random` nor a generator
    # named random_*
    path = ROOT / "src" / "kchern" / "khat.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""]
            found += ["khat.py:%d %s" % (node.lineno, name)
                      for name in names + [a.name for a in node.names]
                      if name.startswith("random")]
    assert not found


def _private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def test_no_dead_private_helpers():
    # every private module-level function or class, and every private
    # method, is named somewhere in the package outside its own definition:
    # a helper that only tests or the benchmark still call is dead code
    trees = [ast.parse(path.read_text(), str(path)) for path in SOURCES]
    defs = []
    for path, tree in zip(SOURCES, trees):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((path.name, node))
            if isinstance(node, ast.ClassDef):
                defs += [(path.name, sub) for sub in node.body
                         if isinstance(sub, ast.FunctionDef)]
    defs = [(module, node) for module, node in defs if _private(node.name)]
    named = {}
    for tree in trees:
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            named.setdefault(name, []).append(node)
    found = []
    for module, node in defs:
        inside = {id(sub) for sub in ast.walk(node)}
        if all(id(ref) in inside for ref in named.get(node.name, ())):
            found.append("%s:%d %s" % (module, node.lineno, node.name))
    assert not found


# names the package exports with no caller inside it, each with its reason
EXPORTS_WITHOUT_CALLER = {
    "chain_witnesses": "the paper's transitivity map of K-hat witnesses "
                       "(L5), public API that no suite composes",
    "Poly2": "the scalars of a bigon, which family_scalars(2) finds in "
             "Poly.TYPES by their number of variables, not by name",
}


def test_every_export_has_a_caller():
    # the public twin of test_no_dead_private_helpers: every name that
    # kchern/__init__.py imports is named somewhere in the other modules
    # outside its own definition (an import counts: test_no_unused_imports
    # makes it a use or a re-export in __all__), or is listed above with
    # its reason; a listed name that gains a caller is listed no longer
    init = ROOT / "src" / "kchern" / "__init__.py"
    exports = {alias.asname or alias.name
               for node in ast.parse(init.read_text(), str(init)).body
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    trees = [ast.parse(path.read_text(), str(path))
             for path in SOURCES if path != init]
    inside = {}         # name -> the nodes of its own definition
    for tree in trees:
        for node in tree.body:
            names = [getattr(t, "id", None)
                     for t in getattr(node, "targets", ())]
            for name in names + [getattr(node, "name", None)]:
                if name in exports:
                    inside.setdefault(name, set()).update(
                        id(sub) for sub in ast.walk(node))
    named = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if id(node) not in inside.get(name, ()):
                named.add(name)
    assert sorted(exports - named) == sorted(EXPORTS_WITHOUT_CALLER)


def test_mat_names_no_entry_type():
    # Mat reads its entries only through the Terms protocol (terms, _new,
    # _key_product, _key_d, RingError), so the body of class Mat names no
    # entry type: a branch on one would have to name it
    entry_types = {"AlgElement", "UForm", "CylForm", "TForm", "BiForm"}
    path = ROOT / "src" / "kchern" / "connections.py"
    tree = ast.parse(path.read_text(), str(path))
    mat = [node for node in tree.body
           if isinstance(node, ast.ClassDef) and node.name == "Mat"]
    assert len(mat) == 1
    found = ["connections.py:%d %s" % (node.lineno, name)
             for node in ast.walk(mat[0])
             for name in (getattr(node, "id", None),
                          getattr(node, "attr", None))
             if name in entry_types]
    assert not found


def _is_fresh_product(node):
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            or isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "multiply")


def test_products_add_into_their_target():
    # a product adds into its target dict inside the one matrix-product
    # loop, `Mat._product`; building the product first and then adding its
    # terms with `accumulate` adds each term twice
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "accumulate"):
                found += ["%s:%d" % (path.name, sub.lineno)
                          for arg in node.args for sub in ast.walk(arg)
                          if isinstance(sub, ast.Attribute)
                          and sub.attr == "terms"
                          and _is_fresh_product(sub.value)]
    assert not found


def test_version_matches_pyproject():
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match
    assert kchern.__version__ == match.group(1)


def test_readme_quick_start_runs():
    # the README's library example is the first public API a reader tries;
    # run it as written against the sources in src/
    text = (ROOT / "README.md").read_text()
    match = re.search(r"## Library quick start\n\n```python\n(.*?)```", text,
                      re.DOTALL)
    assert match
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", match.group(1)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert len(proc.stdout.splitlines()) == 2, proc.stdout


def test_benchmark_trace_targets_resolve():
    # The traced benchmark pass rebinds each WRAPPED name as a module
    # attribute, or as an entry of the class's own __dict__; a rename in
    # src/kchern must not silently break it.
    import importlib
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAPPED
    for module, qual in spans.WRAPPED:
        mod = importlib.import_module("kchern." + module)
        if "." in qual:
            cls_name, attr = qual.split(".")
            assert attr in vars(getattr(mod, cls_name)), (module, qual)
        else:
            assert callable(getattr(mod, qual, None)), (module, qual)


def test_benchmark_self_test():
    # the benchmark's self-test imports kchern from src, checks its oracles
    # against planted wrong results and pins its seeded input digests, so a
    # change in src that breaks the benchmark fails here too
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "test_perfbench.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
