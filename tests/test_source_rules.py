"""Rules on the source of src/negarr (and, for the last one, tests/), checked
on one parse of each file.

- No assert statement: python -O strips them, so every check in the package
  must raise instead; this keeps the tier-1 run under -O meaningful.
- No raise of AssertionError: the command line maps only input errors and
  InternalInconsistency to exit codes, so it would escape as a traceback;
  a broken invariant raises InternalInconsistency.
- No environment read: reports are byte-deterministic for identical inputs
  and flags, so no setting may come from the caller's environment.
- The standard library only: every absolute import names a standard-library
  module (relative imports stay inside the package).
- No field constant rebuilt: no call passes a literal 0 or 1 to
  _coerce_rep or element, since every field keeps its zero and one reps
  (_zero and _one, each built once) and every body that needs one reads it.
- No shadowed definition, in src/negarr or in tests/: a module, class or
  function body defines each function or class name once, since Python keeps
  only the last definition (a shadowed test never runs).
"""

import ast
import sys
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_ENV_READS = {"environ", "environb", "getenv", "getenvb"}


@cache
def _nodes(*dirs):
    """(file, node) for every syntax node of every file under the given
    directories of the repository, src/negarr when none is given."""
    return [(path.relative_to(ROOT).as_posix(), node)
            for d in dirs or ("src/negarr",)
            for path in sorted((ROOT / d).rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))]


def _reads_env(node):
    if isinstance(node, ast.Attribute):
        return (node.attr in _ENV_READS and isinstance(node.value, ast.Name)
                and node.value.id == "os")
    if isinstance(node, ast.ImportFrom):
        return node.module == "os" and any(a.name in _ENV_READS for a in node.names)
    return False


def _outside_stdlib(node):
    """The names of the non-standard-library modules that node imports."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [node.module]
    else:
        return []
    return [n for n in names if n.split(".")[0] not in sys.stdlib_module_names]


def test_the_rules_read_the_package():
    assert {"src/negarr/__init__.py", "src/negarr/cli.py", "src/negarr/fields.py"} <= \
        {path for path, _ in _nodes()}
    assert {"src/negarr/fields.py", "tests/test_cli.py"} <= \
        {path for path, _ in _nodes("src/negarr", "tests")}


def test_no_assert_statements():
    assert [f"{path}:{node.lineno}" for path, node in _nodes()
            if isinstance(node, ast.Assert)] == []


def _raises_assertion_error(node):
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assertion_error_raised():
    assert [f"{path}:{node.lineno}" for path, node in _nodes()
            if _raises_assertion_error(node)] == []


def test_no_environment_reads():
    assert [f"{path}:{node.lineno}" for path, node in _nodes() if _reads_env(node)] == []


def test_standard_library_imports_only():
    assert [f"{path}:{node.lineno}: {name}" for path, node in _nodes()
            for name in _outside_stdlib(node)] == []


def _rebuilds_a_constant(node):
    """Whether node is a call of _coerce_rep or element on a literal 0 or 1."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name in ("_coerce_rep", "element") and any(
        isinstance(a, ast.Constant) and type(a.value) is int and a.value in (0, 1)
        for a in node.args)


def test_no_field_constant_rebuilt():
    assert [f"{path}:{node.lineno}" for path, node in _nodes()
            if _rebuilds_a_constant(node)] == []


_DEFINITIONS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = (ast.Module, *_DEFINITIONS)


def _redefinitions(node):
    """The definitions in a module, class or function body whose name an
    earlier definition in that same body already took."""
    if not isinstance(node, _SCOPES):
        return []
    seen, again = set(), []
    for stmt in node.body:
        if isinstance(stmt, _DEFINITIONS):
            if stmt.name in seen:
                again.append(stmt)
            seen.add(stmt.name)
    return again


def test_no_shadowed_definitions():
    assert [f"{path}:{stmt.lineno}: {stmt.name}" for path, node in _nodes("src/negarr", "tests")
            for stmt in _redefinitions(node)] == []
