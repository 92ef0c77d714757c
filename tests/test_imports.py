import ast
import os
import subprocess
import sys
from pathlib import Path

import dnacyclic

PACKAGE = Path(dnacyclic.__file__).parent
TESTS = Path(__file__).parent


def private_package_imports(path):
    """module.name for each _-prefixed name the file imports from the
    package, absolutely or relatively."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("dnacyclic"):
            continue
        names += [f"{node.module}.{alias.name}"
                  for alias in node.names if alias.name.startswith("_")]
    return names


def test_no_private_names_imported_across_modules():
    offenders = [f"{path.name}: {name}"
                 for path in sorted(PACKAGE.glob("*.py"))
                 for name in private_package_imports(path)]
    assert offenders == []


def test_oracles_use_only_public_names():
    # A reference that calls the package's private helpers checks the
    # package against itself.  Test files that unit-test one private
    # helper may still import it.
    path = TESTS / "oracles.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private_reads = [node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)
                     and node.attr.startswith("_")
                     and not node.attr.startswith("__")]
    assert private_package_imports(path) + private_reads == []


def test_cli_import_graph_is_light():
    # -S keeps site (and any .pth file) from preloading modules, so the
    # difference is what importing the CLI itself loads.
    probe = ("import sys; before = set(sys.modules); import dnacyclic.cli; "
             "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run([sys.executable, "-S", "-c", probe], check=True,
                            capture_output=True, text=True, env=env)
    new = set(result.stdout.split())
    assert "dnacyclic.cli" in new
    assert new & {"dataclasses", "inspect", "pathlib"} == set()


def test_each_test_helper_is_defined_in_one_file():
    # A helper two test files need lives in oracles.py; a second copy
    # elsewhere (leading underscores aside) could drift from it.
    homes = {}
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("test_")):
                homes.setdefault(node.name.lstrip("_"), []).append(path.name)
    assert {k: v for k, v in homes.items() if len(v) > 1} == {}
