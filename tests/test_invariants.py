"""Internal invariants are checked by explicit raises, which ``python -O``
keeps, never by ``assert`` statements, which it strips."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import rootatlas

_BROKEN_WEYL_DIM = """
import dataclasses
from rootatlas.repring import weyl_dim
from rootatlas.rootsys import build_root_system, parse_cartan_type

rs = build_root_system(parse_cartan_type("A2"))
# without its first positive root the Weyl product is no longer an integer
broken = dataclasses.replace(rs, positive_root_data=rs.positive_root_data[1:])
try:
    dim = weyl_dim(broken, (0, 1))
except AssertionError:
    raise SystemExit(0)
raise SystemExit(f"weyl_dim returned {dim}")
"""


def test_invariant_survives_optimized_mode():
    # the child imports the same rootatlas that this test sees
    env = {**os.environ, "PYTHONPATH": str(Path(rootatlas.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_WEYL_DIM],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr


def test_library_has_no_assert_statements():
    found = []
    for path in sorted(Path(rootatlas.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_library_memoizes_only_through_functools():
    # a module-level empty dict is a hand-rolled cache: memoize with
    # functools.cache, which counts hits and misses and clears in one call
    found = []
    for path in sorted(Path(rootatlas.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            if isinstance(node.value, ast.Dict) and not node.value.keys:
                found += [
                    f"{path.name}:{node.lineno} {t.id}"
                    for t in targets
                    if isinstance(t, ast.Name)
                ]
    assert found == []
