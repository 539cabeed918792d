"""HOT001 — no allocating constructs in hot-path functions.

The per-event loops (the functional pass and timing replay of
:mod:`repro.core.split`, and everything they call on a hit) execute hundreds of thousands of times per trace; an allocation
per event dominates the profile (PR 4's optimization work exists
precisely because of this).  The repo marks that surface two ways —
the ``*_fast`` naming convention and the explicit
:func:`repro.core.hotpath.hot_path` decorator — and this rule keeps
both allocation-free.

Flagged inside a hot function:

* comprehensions and generator expressions;
* ``lambda``, nested ``def``/``class`` (closure cells + code objects);
* f-strings (``JoinedStr``);
* ``dict``/``set``/``list`` *displays* (``{}``, ``{x}``, ``[x]``) and
  calls to the ``dict``/``list``/``set`` builtins.

Exempt: everything inside a ``raise`` statement — error paths run at
most once per simulation and may format rich messages.  Tuple
displays are also allowed: CPython builds small constant tuples at
compile time and the repo's hot returns are tuple-shaped.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.analysis import astutil
from repro.analysis.findings import Finding
from repro.analysis.rules import Rule

__all__ = ["HotPath"]

_ALLOCATING_BUILTINS = frozenset({"dict", "list", "set"})

_BANNED_NODES = {
    ast.ListComp: "list comprehension",
    ast.SetComp: "set comprehension",
    ast.DictComp: "dict comprehension",
    ast.GeneratorExp: "generator expression",
    ast.Lambda: "lambda",
    ast.JoinedStr: "f-string",
    ast.Dict: "dict display",
    ast.Set: "set display",
    ast.List: "list display",
}

#: Subtrees whose contents are exempt (or already flagged as a unit).
_PRUNE = (ast.Raise, ast.Lambda) + astutil.FUNCTION_NODES + (ast.ClassDef,)


def _is_hot(name: str, node: ast.AST) -> bool:
    """Hot by naming convention or by ``@hot_path`` decoration."""
    if name.endswith("_fast"):
        return True
    for decorator in getattr(node, "decorator_list", []):
        if astutil.dotted_name(decorator) in ("hot_path",
                                              "hotpath.hot_path"):
            return True
    return False


class HotPath(Rule):
    id = "HOT001"
    title = "allocating construct in a hot-path function"
    severity = "error"
    hint = ("preallocate in __init__ and mutate in place, return tuples, "
            "and hoist string formatting off the per-event path (raise "
            "statements are exempt)")

    def check_module(self, module, project) -> Iterable[Finding]:
        findings: List[Finding] = []
        for qualname, func in astutil.function_defs(module.tree):
            short = qualname.rsplit(".", 1)[-1]
            if not _is_hot(short, func):
                continue
            for node in astutil.walk_excluding(func, _PRUNE):
                label = None
                for banned, text in _BANNED_NODES.items():
                    if type(node) is banned:
                        label = text
                        break
                if label is None and isinstance(node, ast.Call):
                    name = astutil.dotted_name(node)
                    if name in _ALLOCATING_BUILTINS:
                        label = f"{name}() call"
                if label is None and isinstance(
                        node, astutil.FUNCTION_NODES + (ast.ClassDef,)):
                    label = f"nested {type(node).__name__}"
                if label is not None:
                    findings.append(self.finding(
                        module, node.lineno, node.col_offset, qualname,
                        f"{label} allocates on every call of hot "
                        f"function {short}()"))
        return findings
