"""RPR004: every ``REPRO_*`` environment read goes through the registry.

:mod:`repro.knobs` is the single source of truth for deployment knobs:
name, type, default, and the one module allowed to resolve it from the
environment (through a validating helper such as
``positive_int_from_env`` / ``positive_float_from_env``).  This rule flags:

* a ``REPRO_*`` read (``os.environ[...]``, ``os.environ.get``,
  ``os.getenv``, or a validating-helper call) whose key is not
  registered in :data:`repro.knobs.KNOBS`;
* a registered knob read outside its declared reader module;
* a harness-only knob (``reader=None``) read by library code at all.

Keys are matched when written as string literals or as module-level
string constants (``QUEUE_ENV = "REPRO_NET_QUEUE_DEPTH"``); a key the
rule cannot resolve statically is skipped — that is how the validating
helpers themselves, which receive the name as a parameter, stay clean.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional

from repro.analysis.findings import Finding, RuleInfo
from repro.analysis.resolve import ProjectIndex, dotted
from repro.analysis.source import SourceFile
from repro.knobs import knob

RULE = RuleInfo(
    rule_id="RPR004",
    name="env-knobs",
    severity="error",
    rationale="REPRO_* environment reads must use the validated "
              "helpers and appear in the repro.knobs registry the "
              "README table is generated from.",
)

_KNOB_NAME_RE = re.compile(r"^REPRO_[A-Z0-9_]+$")

#: Validating helper functions whose first argument is the knob name;
#: each is a function of :mod:`repro.net.config`.  A bare environment
#: read is allowed only inside a function of one of these names.
VALIDATING_HELPERS = frozenset({
    "positive_int_from_env", "positive_float_from_env",
})


def check(project: ProjectIndex) -> List[Finding]:
    findings: List[Finding] = []
    for source in project.sources:
        constants = _module_string_constants(source)
        for node in ast.walk(source.tree):
            _check_node(source, node, constants, findings)
    return findings


def _module_string_constants(source: SourceFile) -> Dict[str, str]:
    constants: Dict[str, str] = {}
    for stmt in source.tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name) \
                and isinstance(stmt.value, ast.Constant) \
                and isinstance(stmt.value.value, str):
            constants[stmt.targets[0].id] = stmt.value.value
    return constants


def _literal_key(node: Optional[ast.AST],
                 constants: Dict[str, str]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name):
        return constants.get(node.id)
    return None


def _check_node(source: SourceFile, node: ast.AST,
                constants: Dict[str, str],
                findings: List[Finding]) -> None:
    key: Optional[str] = None
    raw_read = False
    if isinstance(node, ast.Subscript):
        base = dotted(node.value)
        if base in ("os.environ", "environ"):
            key = _literal_key(node.slice, constants)
            raw_read = True
    elif isinstance(node, ast.Call):
        name = dotted(node.func)
        if name in ("os.environ.get", "environ.get", "os.getenv",
                    "getenv", "os.environ.pop", "os.environ.setdefault"):
            key = _literal_key(node.args[0] if node.args else None,
                               constants)
            raw_read = True
        elif name and name.rsplit(".", 1)[-1] in VALIDATING_HELPERS:
            key = _literal_key(node.args[0] if node.args else None,
                               constants)
    if key is None or not _KNOB_NAME_RE.match(key):
        return

    entry = knob(key)
    if entry is None:
        findings.append(_finding(
            source, node,
            f"'{key}' is read from the environment but not registered "
            f"in repro.knobs.KNOBS"))
        return
    if entry.reader is None:
        findings.append(_finding(
            source, node,
            f"'{key}' is a test/benchmark-harness knob; library code "
            f"must not read it"))
        return
    if source.module != entry.reader:
        findings.append(_finding(
            source, node,
            f"'{key}' may only be resolved in its registered reader "
            f"module '{entry.reader}', not '{source.module}'"))
        return
    # In the reader module a *raw* read is still fine only for the
    # helper implementations themselves, which take the key as a
    # parameter and therefore never reach this point with a literal
    # key.  A literal raw read inside the reader module bypasses
    # validation just the same.
    if raw_read and not _inside_validating_helper(source, node):
        findings.append(_finding(
            source, node,
            f"'{key}' must be read through a validating helper "
            f"({', '.join(sorted(VALIDATING_HELPERS))}), not a bare "
            f"os.environ access"))


def _inside_validating_helper(source: SourceFile,
                              node: ast.AST) -> bool:
    target_line = getattr(node, "lineno", 0)
    for func in ast.walk(source.tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and func.name in VALIDATING_HELPERS:
            end = getattr(func, "end_lineno", func.lineno)
            if func.lineno <= target_line <= end:
                return True
    return False


def _finding(source: SourceFile, node: ast.AST,
             message: str) -> Finding:
    return Finding(
        rule=RULE.rule_id, severity=RULE.severity,
        path=source.display_path,
        line=getattr(node, "lineno", 0),
        column=getattr(node, "col_offset", 0),
        message=message,
    )
