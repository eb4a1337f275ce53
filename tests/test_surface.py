"""Every member of `weylchar` has a caller outside the tests.

An AST name count over the package, the benchmark harness and the bench
scripts.  The members are each top-level function or class of
`src/weylchar`, each method of such a class that is not a dunder, and each
module-level UPPERCASE name (a constant) that a module assigns.  A
member counts as referenced when its name occurs outside its own definition
as a name, an attribute or an imported name in `src/weylchar`, `perfbench`
or `benchmarks`, or as a string in `perfbench/tracer.py` or
`perfbench/run.py`, which wrap and report functions by name.  Another
member or attribute of the same name masks a member, so the count can miss
a member that has no caller; a member it lists is named nowhere outside the
tests.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "weylchar"
SCANNED = (PACKAGE, ROOT / "perfbench", ROOT / "benchmarks")
BY_STRING = {ROOT / "perfbench" / "tracer.py", ROOT / "perfbench" / "run.py"}

# Members kept without a caller, each with the reason.
KEEP = {
    "afalgebra.eval_limit_character": "the paper's limit character; ROADMAP item 7 gives it its caller",
    "afalgebra.LimitCharacterSpec": "the argument of eval_limit_character (ROADMAP item 7)",
    "afalgebra.K0Hom.zero": "the untwisted K0 functional of a limit character (ROADMAP item 7)",
    "moments.WeightDistribution.convolve": "the multi-block character product of ROADMAP item 7",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _members() -> dict[str, tuple[Path, int, int]]:
    """module.qualname -> (file, first line, last line) of its definition."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) and target.id.isupper():
                        out[f"{module}.{target.id}"] = (path, node.lineno, node.end_lineno)
                continue
            if not isinstance(node, kinds):
                continue
            out[f"{module}.{node.name}"] = (path, node.lineno, node.end_lineno)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, kinds[:2]) and not _is_dunder(item.name):
                        out[f"{module}.{node.name}.{item.name}"] = (
                            path, item.lineno, item.end_lineno)
    return out


def _references() -> dict[str, list[tuple[Path, int]]]:
    """name -> every (file, line) where it is used."""
    out: dict[str, list[tuple[Path, int]]] = {}
    for top in SCANNED:
        for path in sorted(top.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                elif (path in BY_STRING and isinstance(node, ast.Constant)
                      and isinstance(node.value, str)):
                    names = node.value.split(".")
                else:
                    continue
                for name in names:
                    out.setdefault(name, []).append((path, node.lineno))
    return out


def _unreferenced() -> list[str]:
    refs = _references()
    return sorted(
        member for member, (path, first, last) in _members().items()
        if not any(p != path or not first <= line <= last
                   for p, line in refs.get(member.rsplit(".", 1)[1], ()))
    )


def test_every_member_has_a_caller_outside_the_tests():
    unused = [m for m in _unreferenced() if m not in KEEP]
    assert not unused, "members that only the tests call: " + ", ".join(unused)


def test_keep_list_names_existing_members():
    assert not set(KEEP) - set(_members())
