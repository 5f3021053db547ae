"""The model's memo caches are exactly the ones perfbench clears.

``perfbench/design_queries.py`` empties the memos named in
``perfbench/tracer.py:MEMOS`` before every pass.  A memo outside that
list would stay warm from one pass to the next, and its "speed-up" would
be an artifact of caching across passes.  So every ``lru_cache`` /
``functools.cache`` in the model layers must be one of those names; a
new memo has to be added to ``MEMOS`` first.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MODEL_PACKAGES = ("core", "accel", "link", "dnn", "thermal")
MEMO_DECORATORS = {"lru_cache", "cache"}


def _decorator_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _memos_in_source() -> set[str]:
    found = set()
    for package in MODEL_PACKAGES:
        for path in sorted((ROOT / "src" / "repro" / package).rglob("*.py")):
            module = ".".join(
                path.relative_to(ROOT / "src").with_suffix("").parts)
            if module.endswith(".__init__"):
                module = module[:-len(".__init__")]
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if not isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                if any(_decorator_name(d) in MEMO_DECORATORS
                       for d in node.decorator_list):
                    found.add(f"{module}:{node.name}")
    return found


def _memos_perfbench_clears() -> set[str]:
    tree = ast.parse((ROOT / "perfbench" / "tracer.py")
                     .read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "MEMOS"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value).values())
    raise AssertionError("perfbench/tracer.py defines no MEMOS")


def test_model_memos_are_the_ones_perfbench_clears():
    assert _memos_in_source() == _memos_perfbench_clears()

