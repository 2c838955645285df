"""Structure guards: the library holds no recursive search, defines no
exception class it never raises, decides the omega branch only in
quadfield, keeps congruence conditions out of the search kernel, keeps no
public name that only tests use, the test oracle stays independent of the
code it checks, importing the CLI loads no process-pool module, no
fractions, no dataclasses or inspect module, no threading and no typing,
and verify's pool loads no process-pool module either."""

import ast
import builtins
import subprocess
import sys
from pathlib import Path

import normsums

SRC = Path(normsums.__file__).resolve().parent
REPO = Path(__file__).resolve().parents[1]
ORACLE = REPO / "tests" / "_oracle.py"
KERNEL_MODULES = {"normsums.repsearch", "normsums.universality"}
# outside quadfield, the functions that may read the omega branch: one
# display, and the recheck, independent of the norm form by design
BRANCH_READERS = {"cli.py:_omega_text", "verify.py:recheck_certificate"}
# the congruence edge: display, certificate coordinates and recheck use it,
# the kernel reads only the class form
CONGRUENCE_NAMES = {"congruence_for", "condition_display", "CongruenceCondition"}
# public names that no caller in src/, cli, a demo or the bench reads, kept
# on purpose
UNREAD_PUBLIC_NAMES = {"min_count_table"}  # the README's library API; a bench/layertrace.py layer


def self_calls(tree: ast.AST, filename: str) -> list[str]:
    """filename:name:line of every function, nested ones included, that
    calls itself by name anywhere in its body."""
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == fn.name:
                    found.append(f"{filename}:{fn.name}:{node.lineno}")
    return found


def unraised_exceptions(trees: list[ast.AST]) -> list[str]:
    """Names of the exception classes defined in the trees, those derived
    from a builtin exception directly or through one another, that no
    raise statement in the trees names, sorted."""
    bases = {node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
             for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    builtin = {name for name, obj in vars(builtins).items() if isinstance(obj, type) and issubclass(obj, BaseException)}
    defined: set[str] = set()
    while True:
        grown = {name for name, bs in bases.items() if bs & (builtin | defined)}
        if grown == defined:
            break
        defined = grown
    raised = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    return sorted(defined - raised)


def branch_reads(tree: ast.Module, filename: str) -> list[str]:
    """filename:name:line of every read of is_half_branch and every
    remainder of d mod 4 (d a name or an attribute), name being the
    top-level def or class around it ("" at module level), sorted."""
    found = []
    for top in tree.body:
        name = getattr(top, "name", "")
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr == "is_half_branch") or (
                isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                and isinstance(node.right, ast.Constant) and node.right.value == 4
                and getattr(node.left, "id", getattr(node.left, "attr", None)) == "d"
            ):
                found.append(f"{filename}:{name}:{node.lineno}")
    return sorted(found)


def congruence_names(tree: ast.AST) -> list[str]:
    """name:line of every name, attribute or imported name in the tree
    that is one of CONGRUENCE_NAMES, sorted."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
        else:
            continue
        found += [f"{name}:{node.lineno}" for name in names if name in CONGRUENCE_NAMES]
    return sorted(found)


def referenced_names(tree: ast.AST) -> set[str]:
    """Every name, attribute or imported name the tree mentions."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return found


def defined_names(top: ast.stmt) -> list[str]:
    """The names a top-level def, class or assignment binds."""
    if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [top.name]
    targets = top.targets if isinstance(top, ast.Assign) else [top.target] if isinstance(top, ast.AnnAssign) else []
    return [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]


def unread_public_names(modules: dict[str, ast.Module], readers: list[ast.Module]) -> list[str]:
    """module:name of every public top-level name of the modules that no
    other module, no reader and no other top-level statement of its own
    module mentions, sorted."""
    found = []
    for filename, tree in modules.items():
        outside = set().union(*(referenced_names(t) for other, t in modules.items() if other != filename),
                              *(referenced_names(t) for t in readers))
        for top in tree.body:
            inside = set().union(*(referenced_names(t) for t in tree.body if t is not top))
            found += [f"{filename}:{name}" for name in defined_names(top)
                      if not name.startswith("_") and name not in outside | inside]
    return sorted(found)


def kernel_imports(tree: ast.AST) -> list[str]:
    """Every import of normsums.repsearch or normsums.universality."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name in KERNEL_MODULES]
        elif isinstance(node, ast.ImportFrom):
            if node.module in KERNEL_MODULES:
                found.append(node.module)
            elif node.module == "normsums":
                found += [f"normsums.{a.name}" for a in node.names if f"normsums.{a.name}" in KERNEL_MODULES]
    return found


def test_library_has_no_self_calling_function():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += self_calls(ast.parse(path.read_text()), path.name)
    assert found == []


def test_guard_sees_nested_recursion():
    tree = ast.parse("def outer():\n    def search(i):\n        return search(i + 1)\n    return search(0)\n")
    assert self_calls(tree, "m.py") == ["m.py:search:3"]


def test_library_raises_every_exception_class_it_defines():
    assert unraised_exceptions([ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]) == []


def test_guard_sees_unraised_exception_classes():
    tree = ast.parse(
        "class Dead(ValueError): pass\n"
        "class Used(RuntimeError): pass\n"
        "class Sub(Used): pass\n"
        "class DeadSub(Used): pass\n"
        "class Plain: pass\n"
        "def f():\n    raise Used('x')\n"
    )
    other = ast.parse("import m\ndef g():\n    raise m.Sub\n")
    assert unraised_exceptions([tree, other]) == ["Dead", "DeadSub"]


def test_only_quadfield_reads_the_omega_branch():
    # the branch is decided by FieldParams.form_coefficients; everything
    # else reads (1, q, c) from it
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "quadfield.py":
            found += [r for r in branch_reads(ast.parse(path.read_text()), path.name)
                      if r.rsplit(":", 1)[0] not in BRANCH_READERS]
    assert found == []


def test_guard_sees_omega_branch_reads():
    tree = ast.parse(
        "def f(field, d, n):\n"
        "    if field.is_half_branch:\n"
        "        return n % 4\n"
        "    return field.d % 4 == 3 or d % 8\n"
        "class C:\n"
        "    def g(self, d):\n"
        "        return d % 4\n"
        "X = make_field(7).is_half_branch\n"
    )
    assert branch_reads(tree, "m.py") == ["m.py::8", "m.py:C:7", "m.py:f:2", "m.py:f:4"]


def test_kernel_names_no_congruence():
    # congruence conditions live only at the edges; the kernel reads class_form
    found = []
    for module in sorted(KERNEL_MODULES):
        path = SRC / f"{module.rsplit('.', 1)[-1]}.py"
        found += [f"{path.name}:{name}" for name in congruence_names(ast.parse(path.read_text()))]
    assert found == []


def test_guard_sees_congruence_names():
    tree = ast.parse(
        "from normsums.classdata import class_form, congruence_for\n"
        "from normsums import classdata\n"
        "def f(field, rep, a, b):\n"
        "    c = classdata.congruence_for(field, rep)\n"
        "    return classdata.class_form(field, rep) or condition_display(c)\n"
        "X: CongruenceCondition = None\n"
    )
    assert congruence_names(tree) == [
        "CongruenceCondition:6", "condition_display:5", "congruence_for:1", "congruence_for:4",
    ]


def _parsed(paths) -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text()) for path in paths}


def test_every_public_name_has_a_caller_outside_the_tests():
    # a public name of a library module is read by another library module,
    # by its own module, by the CLI, a demo or the bench; __init__ only
    # re-exports, so it reads nothing
    modules = _parsed(p for p in sorted(SRC.glob("*.py")) if p.name not in ("cli.py", "__init__.py"))
    readers = _parsed([SRC / "cli.py", *sorted((REPO / "demos").glob("*.py")), *sorted((REPO / "bench").glob("*.py"))])
    unread = [entry for entry in unread_public_names(modules, list(readers.values()))
              if entry.split(":")[1] not in UNREAD_PUBLIC_NAMES]
    assert unread == []


def test_guard_sees_unread_public_names():
    lib = ast.parse(
        "LIMIT = 3\n"
        "TABLE: dict = {}\n"
        "A, (B, _C) = 1, (2, 3)\n"
        "def helper(): return LIMIT\n"
        "def orphan(): return orphan()\n"
        "def _private(): pass\n"
        "class Record: pass\n"
    )
    other = ast.parse("from lib import helper\ndef run(): return helper()\n")
    reader = ast.parse("import lib\nprint(lib.Record, B)\n")
    assert unread_public_names({"lib.py": lib, "other.py": other}, [reader]) == [
        "lib.py:A", "lib.py:TABLE", "lib.py:orphan", "other.py:run",
    ]


def test_oracle_imports_neither_kernel_module():
    assert kernel_imports(ast.parse(ORACLE.read_text())) == []
    tree = ast.parse("from normsums.repsearch import min_terms\nfrom normsums import universality\n")
    assert kernel_imports(tree) == ["normsums.repsearch", "normsums.universality"]


def test_cli_import_loads_no_process_pool_fractions_dataclasses_inspect_or_threading():
    # the pool's modules load only when verify_all fans out, no exact
    # rational arithmetic is needed anywhere, the records are
    # collections.namedtuples, so nothing pulls in dataclasses or, through
    # it, inspect, nor typing, and the pool's lock comes from _thread.  -S
    # keeps site's .pth files, which may import threading or typing, out
    # of the count
    modules = ("multiprocessing", "concurrent.futures", "fractions", "dataclasses", "inspect", "threading", "typing")
    code = f"import sys, normsums, normsums.cli; print(sorted(m for m in {modules!r} if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_verify_pool_loads_no_multiprocessing_concurrent_futures_or_logging():
    # the pool forks its own workers and talks to them over pipes, so a
    # call that forks a worker loads none of the standard pool machinery
    modules = ("multiprocessing", "concurrent.futures", "logging")
    code = (
        "import sys\n"
        "from normsums import verify\n"
        "verify._usable_cpus = lambda: 2\n"
        "assert verify.verify_all(3, 300).all_match and len(verify._POOL) == 1\n"
        f"print(sorted(m for m in {modules!r} if m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
