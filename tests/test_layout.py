"""Source-layout rules that keep module boundaries honest."""
from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# `from bwlist.x import a, _b` or the parenthesised form spread over lines
_IMPORT_RE = re.compile(r"from bwlist\.[a-z]+ import (\([^)]*\)|.*)")
_PRIVATE_RE = re.compile(r"\b_[A-Za-z]")

_ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def test_no_private_names_imported_across_modules() -> None:
    # the benchmark too imports only public names, so refactoring the
    # package's internals cannot break it
    offenders = []
    paths = [*ROOT.glob("src/bwlist/*.py"), *ROOT.glob("perfbench/*.py")]
    for path in sorted(paths):
        for match in _IMPORT_RE.finditer(path.read_text(encoding="utf-8")):
            if _PRIVATE_RE.search(match.group(1)):
                offenders.append(f"{path.name}: {match.group(0)}")
    assert not offenders, offenders


def _is_sys_executable(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "executable"
            and isinstance(node.value, ast.Name) and node.value.id == "sys")


def test_child_interpreters_get_the_src_environment() -> None:
    # pyproject.toml's pythonpath reaches only the pytest process, so a
    # `sys.executable` child imports this checkout's bwlist only through
    # tests/srcenv.py's SRC_ENV: every use of sys.executable must sit in the
    # arguments of a call whose env= reads SRC_ENV
    offenders = []
    for path in sorted(ROOT.glob("tests/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        uses = {id(node): node for node in ast.walk(tree)
                if _is_sys_executable(node)}
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            env = [kw.value for kw in call.keywords if kw.arg == "env"]
            if not any(isinstance(node, ast.Name) and node.id == "SRC_ENV"
                       for value in env for node in ast.walk(value)):
                continue
            for arg in call.args:
                for node in ast.walk(arg):
                    uses.pop(id(node), None)
        offenders += [f"{path.name}:{node.lineno}" for node in uses.values()]
    assert not offenders, offenders


def _package_trees():
    for path in sorted(ROOT.glob("src/bwlist/*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def test_no_module_reads_the_environment() -> None:
    # a decode depends on its call's arguments alone: nothing reads
    # os.environ or os.getenv, whether through `os.` or a `from os` import
    offenders = [
        f"{path.name}:{node.lineno}"
        for path, tree in _package_trees() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in _ENV_NAMES
        or isinstance(node, ast.alias) and node.name in _ENV_NAMES
    ]
    assert not offenders, offenders


def test_every_import_is_stdlib_or_declared() -> None:
    # the package needs only the standard library and what pyproject.toml
    # declares as a runtime dependency
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower()
                .replace("-", "_") for dep in project.get("dependencies", ())}
    allowed = sys.stdlib_module_names | {"bwlist"} | declared
    offenders = []
    for path, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}: {name}"
                          for name in names
                          if name.partition(".")[0] not in allowed]
    assert not offenders, offenders


def test_every_public_name_has_a_reader() -> None:
    # a public top-level definition is read somewhere in the package or the
    # benchmark, or exported: code only the tests call lives under tests/
    import bwlist

    readers = set()
    paths = [*ROOT.glob("src/bwlist/*.py"), *ROOT.glob("perfbench/*.py")]
    for path in paths:
        if path.name == "__init__.py":
            continue  # its imports are the re-exports, not readers
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                readers.add(node.id)
            elif isinstance(node, ast.Attribute):
                readers.add(node.attr)
            elif isinstance(node, ast.alias):
                readers.add(node.name)
    unread = []
    for path, tree in _package_trees():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                names = [node.target.id]
            else:
                continue
            unread += [f"{path.name}: {name}" for name in names
                       if not name.startswith("_") and name not in readers
                       and name not in bwlist.__all__]
    assert not unread, unread


def test_only_decode_reads_the_benchmark_alias() -> None:
    # list_decode_parallel stays only as the benchmark's import of
    # list_decode; the package itself calls list_decode
    name = "list_decode_parallel"
    offenders = [
        f"{path.name}:{node.lineno}"
        for path, tree in _package_trees() if path.name != "decode.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == name
        or isinstance(node, ast.Attribute) and node.attr == name
        or isinstance(node, ast.alias) and node.name == name
    ]
    assert not offenders, offenders


def test_the_package_never_forks() -> None:
    # every decode runs in one process: a `.fork(` call, or an import of
    # os.fork, pickle, multiprocessing or concurrent.futures, fails
    banned = ("os.fork", "pickle", "multiprocessing", "concurrent.futures")

    def imported(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom) and node.module:
            return [f"{node.module}.{alias.name}" for alias in node.names]
        return []

    sites = [
        f"{path.name}:{node.lineno}"
        for path, tree in _package_trees() for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "fork"
        or any(f"{name}.".startswith(f"{module}.")
               for name in imported(node) for module in banned)
    ]
    assert not sites, sites


def test_the_pair_scan_defines_no_function() -> None:
    # a decode runs `_scan_blocks` once per combine, over a hundred times on
    # a sparse word, so a function or lambda defined in its body would be
    # built again on every call
    tree = ast.parse((ROOT / "src" / "bwlist" / "decode.py").read_text(
        encoding="utf-8"))
    scan = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name == "_scan_blocks")
    nested = [node.lineno for node in ast.walk(scan) if node is not scan
              and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.Lambda))]
    assert not nested, nested
