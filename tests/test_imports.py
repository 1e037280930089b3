"""What the package imports: every name a module of the package imports is
used in that module, numpy is not needed at all, and the command line's
import graph stays free of the standard library's slowest imports.

Parsed with the standard `ast` module, so no linter is needed.  A name
counts as used when it is loaded anywhere in the module (attribute access
included, through its root name) or listed in the module's `__all__`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
SRC = sorted((SRC_DIR / "civar").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = "from .groebner import normal_form, syzygies\n\n__all__ = ['syzygies']\n"
    assert unused_imports(source) == ["normal_form (line 1)"]


NUMPY_BLOCKED = """
import sys

sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import civar
from civar import cli

ring, module = sys.argv[1:]
for cmd in ("resolve", "variety", "decompose"):
    code = cli.main([cmd, ring, module, "--format", "structured"])
    if code:
        sys.exit(f"{cmd} exited {code}")
"""


def test_the_package_runs_without_numpy(tmp_path):
    """numpy is a test dependency only: with its import blocked, a fresh
    interpreter imports the package and runs `resolve`, `variety` and
    `decompose` on k over F_101[x,y]/(x^2, y^2)."""
    ring = tmp_path / "ring.json"
    ring.write_text('{"p": 101, "vars": ["x", "y"], "ci": ["x^2", "y^2"]}')
    module = tmp_path / "k.txt"
    module.write_text('gens: [0]\nrelations: [["x", "y"]]\n')
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_BLOCKED, str(ring), str(module)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr


# dataclasses pulls in inspect, and with it ast, dis and tokenize; typing
# is preloaded by nothing when `site` is off.  With cached bytecode they
# would cost about as much as the rest of a fresh `import civar.cli`,
# which every command-line call pays.
SLOW_IMPORTS = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"}

IMPORT_GRAPH = """
import sys

before = set(sys.modules)
import civar
package = set(sys.modules) - before
import civar.cli
command_line = set(sys.modules) - before
print(" ".join(sorted(package)))
print(" ".join(sorted(command_line)))
"""


def test_the_command_line_imports_no_slow_stdlib_module():
    """A fresh interpreter without `site` (so nothing is preloaded):
    neither `import civar` nor `import civar.cli` loads dataclasses,
    inspect, ast, dis, tokenize or typing."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    done = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_GRAPH],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    package, command_line = (set(line.split()) for line in done.stdout.splitlines())
    assert "civar.groebner" in package and "civar.cli" in command_line
    assert package & SLOW_IMPORTS == set()
    assert command_line & SLOW_IMPORTS == set()
