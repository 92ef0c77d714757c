import ast
import os
import subprocess
import sys
from pathlib import Path

import dnacyclic

PACKAGE = Path(dnacyclic.__file__).parent


def test_no_private_names_imported_across_modules():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("dnacyclic"):
                continue
            offenders += [f"{path.name}: {node.module}.{alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert offenders == []


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
