import ast
import os
import re
import subprocess
import sys

import pytest

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(PKG_ROOT, "src", "offlm")


def imported_top_level_modules(directory):
    """Top-level names of every absolute import in the .py files under
    `directory`, including imports inside functions."""
    names = set()
    for root, _, files in os.walk(directory):
        for name in files:
            if not name.endswith(".py"):
                continue
            with open(os.path.join(root, name), encoding="utf-8") as f:
                tree = ast.parse(f.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names.update(a.name.split(".")[0] for a in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_are_the_declared_dependencies():
    """A module the package imports that is neither standard library nor in
    pyproject.toml's dependencies, or a dependency it never imports, fails."""
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(PKG_ROOT, "pyproject.toml"), "rb") as f:
        declared = tomllib.load(f)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_")
                for d in declared}
    third_party = (imported_top_level_modules(PACKAGE)
                   - set(sys.stdlib_module_names) - {"offlm"})
    assert third_party == declared


def unused_imports(path):
    """Names a module imports and never reads, as (line, name) pairs.
    `from __future__ import ...` is exempt."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("module", sorted(
    name for name in os.listdir(PACKAGE) if name.endswith(".py")))
def test_every_imported_name_is_used(module):
    assert unused_imports(os.path.join(PACKAGE, module)) == []


def test_unused_import_check_flags_an_unread_name(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("from __future__ import annotations\n"
                      "import os.path\nfrom dataclasses import dataclass, field\n"
                      "import numpy as np\n\n@dataclass\nclass A:\n    x: np.ndarray\n"
                      "os.path.join('a')\n")
    assert unused_imports(source) == [(3, "field")]


def environment_reads(path):
    """(enclosing top-level name, line) of each `os.environ` or `os.getenv`
    in the module at `path`, and of each `from os import` of either; the
    name is None at module level."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    found = []
    for top in tree.body:
        scope = getattr(top, "name", None)
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("environ", "getenv")
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "os"
                    or isinstance(node, ast.ImportFrom) and node.module == "os"
                    and {a.name for a in node.names} & {"environ", "getenv"}):
                found.append((scope, node.lineno))
    return found


def test_only_the_sweep_blas_settings_touch_the_environment():
    """No command reads a setting from a hidden environment variable: in
    src/, only the sweep's BLAS-thread code (runs._blas_threads, which reads
    the caller's thread counts, and runs._environ, which sets them for the
    workers) uses os.environ or os.getenv."""
    allowed = {("offlm/runs.py", "_blas_threads"), ("offlm/runs.py", "_environ")}
    src = os.path.join(PKG_ROOT, "src")
    uses = [(os.path.relpath(os.path.join(root, name), src).replace(os.sep, "/"),
             scope, line)
            for root, _, files in os.walk(src) for name in files
            if name.endswith(".py")
            for scope, line in environment_reads(os.path.join(root, name))]
    assert [use for use in uses if use[:2] not in allowed] == []


def test_environment_check_flags_a_read_outside_a_function(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("import os\nfrom os import getenv\n"
                      "PATH = os.environ.get('X')\n\n"
                      "def f():\n    return os.getenv('Y')\n")
    assert environment_reads(source) == [(None, 2), (None, 3), ("f", 6)]


def test_importing_cli_loads_no_process_pool():
    """Only a sweep with more than one worker pays for importing the
    process pool, so `import offlm.cli` loads neither of its modules."""
    code = ("import sys, offlm.cli; print(sorted({'multiprocessing', "
            "'concurrent.futures'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (os.path.join(PKG_ROOT, "src"), os.environ.get("PYTHONPATH"))
        if p)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, cwd=PKG_ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_runs_imports_nothing_from_cli():
    """The layers run cli -> runs -> the library: runs, which spawned sweep
    workers import, needs no lazy import to dodge a cycle."""
    with open(os.path.join(PACKAGE, "runs.py"), encoding="utf-8") as f:
        tree = ast.parse(f.read())
    names = [name for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for name in [getattr(node, "module", None) or "",
                          *(a.name for a in node.names)]]
    assert "cli" not in {part for name in names for part in name.split(".")}
