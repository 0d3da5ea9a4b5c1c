"""AST pass: catch memory ops constructed but never yielded.

An encoding communicates with its core only by *yielding* op objects; a
bare ``StoreThrough(addr, 0)`` expression statement builds the op and
drops it on the floor — the simulated program silently skips the access.
That mistake type-checks, runs, and usually even passes tests whose
schedules never needed the dropped op, so it is caught syntactically:
any expression statement whose value is a call to a Table-1 op
constructor is an AST-E301 error.

The pass is purely name-based (no imports are executed), so it also
works on fixture files that are deliberately broken.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Sequence, Union

from repro.analyze.findings import Finding, Report
from repro.analyze.rules import RULES

#: Constructor names whose results must be yielded, not discarded.
OP_NAMES = frozenset({
    "Load", "Store", "LoadThrough", "LoadCB", "StoreThrough", "StoreCB1",
    "StoreCB0", "Atomic", "Fence", "SpinUntil", "SpinThrough", "BackoffWait",
    "Compute", "DataBurst",
})

#: The default lint surface: every encoding and workload module.
DEFAULT_ROOTS = ("src/repro/sync", "src/repro/workloads")


def _call_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def check_source(source: str, filename: str) -> List[Finding]:
    """Findings for one module's source text."""
    rule = RULES["AST-E301"]
    findings: List[Finding] = []
    tree = ast.parse(source, filename=filename)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Expr):
            continue
        value = node.value
        if isinstance(value, ast.Call) and _call_name(value) in OP_NAMES:
            name = _call_name(value)
            findings.append(Finding(
                rule=rule.id, severity=rule.severity,
                message=f"{name}: {rule.title}",
                file=filename, line=value.lineno,
            ))
    return findings


def check_file(path: Union[str, Path]) -> List[Finding]:
    path = Path(path)
    return check_source(path.read_text(), str(path))


def lint_paths(paths: Iterable[Union[str, Path]]) -> Report:
    """AST-lint ``paths`` (files, or directories walked for ``*.py``)."""
    report = Report()
    for entry in paths:
        entry = Path(entry)
        files = sorted(entry.rglob("*.py")) if entry.is_dir() else [entry]
        for file in files:
            report.extend(check_file(file))
    return report


def lint_default(repo_root: Union[str, Path, None] = None) -> Report:
    """AST-lint the repo's encoding and workload modules.

    Without ``repo_root`` the modules are located through the installed
    packages themselves, so this works from any working directory.
    """
    if repo_root is not None:
        roots: Sequence[Path] = [Path(repo_root) / rel
                                 for rel in DEFAULT_ROOTS]
    else:
        import repro.sync
        import repro.workloads
        roots = [Path(repro.sync.__file__).parent,
                 Path(repro.workloads.__file__).parent]
    return lint_paths([p for p in roots if p.exists()])
