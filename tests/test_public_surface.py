"""The public surface: every exported name has a caller, and the README's
library quick start runs and prints what its comments say.

A name in ``phaselab.__all__`` is live when code under ``src/phaselab/``
other than its own definition and ``__init__.py`` uses it, or when
``perfbench/workloads.py`` names it. A name that only the tests call is a
wrapper to delete, not an API to keep.
"""

import ast
import re
from pathlib import Path
from types import ModuleType

import pytest

import phaselab
from test_benchmark_contract import referenced_names

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "phaselab"


def _defined_names(stmt) -> set[str]:
    """Names a top-level statement defines: a function, a class, or the
    targets of an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {node.id for t in targets for node in ast.walk(t) if isinstance(node, ast.Name)}
    return set()


def used_names() -> set[str]:
    """Names read anywhere in the package outside ``__init__.py``, as a bare
    name or an attribute, except inside the statement that defines them."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = _defined_names(stmt)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name not in own:
                    used.add(name)
    return used


EXPORTED = sorted(
    name for name in phaselab.__all__ if not isinstance(getattr(phaselab, name), ModuleType)
)


LIVE = used_names() | {ref.split(".")[1] for ref in referenced_names()}


@pytest.mark.parametrize("name", EXPORTED)
def test_exported_name_has_a_caller(name):
    assert name in LIVE, f"{name} is exported but nothing calls it"


def quick_start_values() -> list:
    """Run the README's library quick start; return the value of each of its
    bare expression lines, in order."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope, values = {}, []
    for stmt in ast.parse(code).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README", "eval"), scope))
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), scope)
    return values


def test_readme_quick_start_runs_as_commented():
    success, leakage, purified, total, own = quick_start_values()
    # the amplitudes are exact, the float sum is 0.4999999999999999
    assert success == pytest.approx(4 / 8, rel=0, abs=1e-15)
    assert leakage < 1e-10
    assert purified == pytest.approx(0.5, rel=0, abs=1e-15)
    assert abs(total - 1.0) <= 1e-12
    # one query on the user's own dense steps stays under (q+1)/n
    assert own <= 2 / 8 + 1e-12
