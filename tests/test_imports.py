import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import dnacyclic
from cli_pins import CI_ONLY, PINS
from dnacyclic import cli

PACKAGE = Path(dnacyclic.__file__).parent
TESTS = Path(__file__).parent


def package_imports(tree):
    """{local name: module.name} for each name the tree imports from the
    package, absolutely or relatively."""
    names = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("dnacyclic"):
            continue
        for alias in node.names:
            names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return names


def private_package_imports(path):
    """module.name for each _-prefixed name the file imports from the
    package, absolutely or relatively."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [name for name in package_imports(tree).values()
            if name.rpartition(".")[2].startswith("_")]


def private_reads_through_imports(source):
    """name._attr for each private attribute the source reads through a
    name it imports from the package, such as CyclicCode._rows."""
    tree = ast.parse(source)
    imported = package_imports(tree)
    return [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in imported
            and node.attr.startswith("_")
            and not node.attr.startswith("__")]


def test_no_private_names_imported_across_modules():
    offenders = [f"{path.name}: {name}"
                 for path in sorted(PACKAGE.glob("*.py"))
                 for name in private_package_imports(path)
                 + private_reads_through_imports(
                     path.read_text(encoding="utf-8"))]
    assert offenders == []


def test_private_reads_through_imports_are_found():
    source = ("from .code import CyclicCode\n"
              "from . import polyf2 as pf\n"
              "c = CyclicCode._of_lows(4, (0, 0, 1))\n"
              "d = pf._private(c.lows, c._rows, CyclicCode.__name__)\n")
    assert private_reads_through_imports(source) == [
        "CyclicCode._of_lows", "pf._private"]


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
    # argparse is imported by the first call that needs the full parser.
    assert new & {"argparse", "dataclasses", "inspect", "pathlib"} == set()


def test_cli_import_builds_no_parser():
    # The full parser is built by the first main() call that needs it,
    # not at import, where it would add to every process's start.
    probe = ("import dnacyclic.cli as cli; "
             "print(cli._build_parser.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run([sys.executable, "-c", probe], check=True,
                            capture_output=True, text=True, env=env)
    assert result.stdout.strip() == "0"


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


def test_cli_pins_live_in_one_table():
    # Each pinned (argv, exit code, sha1) is one row of cli_pins.PINS,
    # read by one tier-1 test per group and, every row, by CI.
    sha1 = re.compile(r"[0-9a-f]{40}")
    holders = [path for path in [*sorted(TESTS.glob("*.py")),
                                 TESTS.parent / ".github/workflows/tests.yml"]
               if path.name != "cli_pins.py"
               and sha1.search(path.read_text(encoding="utf-8"))]
    assert holders == []
    read = re.findall(r'\bpins\("(\w+)"\)', "".join(
        path.read_text(encoding="utf-8") for path in TESTS.glob("test_*.py")))
    assert len(read) == len(set(read))
    groups = {group for group, _, _, _ in PINS}
    assert set(read) | set(CI_ONLY) == groups
    assert set(read) & set(CI_ONLY) == set()
    assert {argv[0] for _, argv, _, _ in PINS} <= set(cli._COMMANDS)
    argvs = [tuple(argv) for _, argv, _, _ in PINS]
    assert len(argvs) == len(set(argvs))
