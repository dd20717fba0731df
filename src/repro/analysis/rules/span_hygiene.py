"""RPR005: tracing span sites keep the disabled path allocation-free.

The tracing layer's whole performance story is one boolean:
``span(...)`` checks ``_STATE.enabled`` and returns a shared no-op
singleton when tracing is off, so a span site in a hot path costs a
function call and a flag test — *provided the call site itself does not
allocate*.  Two ways to break that, both flagged here:

* building containers (dicts, lists, comprehensions, ``**kwargs``
  unpacking) or calling arbitrary functions inside the ``span(...)``
  argument list — those run even when tracing is disabled;
* instantiating :class:`repro.obs.tracing.SpanRecord` directly outside
  :mod:`repro.obs`, which bypasses the enabled check entirely.

Cheap scalar expressions (constants, names, attribute chains, slices
like ``key[:12]``, arithmetic, and ``len``/``str``-style builtins over
those) are allowed — they are what span attributes are made of.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.findings import Finding, RuleInfo
from repro.analysis.resolve import ProjectIndex, dotted
from repro.analysis.source import SourceFile

RULE = RuleInfo(
    rule_id="RPR005",
    name="span-hygiene",
    severity="warning",
    rationale="span(...) sites must stay allocation-free on the "
              "disabled path (the PR-7 one-boolean idiom).",
)

#: Builtins cheap enough to evaluate on the disabled path.
_CHEAP_CALLS = frozenset({
    "len", "int", "float", "str", "bool", "min", "max", "abs", "round",
    "type", "id",
})


def check(project: ProjectIndex) -> List[Finding]:
    findings: List[Finding] = []
    for source in project.sources:
        in_obs = source.module.startswith("repro.obs")
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted(node.func)
            simple = name.rsplit(".", 1)[-1] if name else ""
            if simple == "SpanRecord" and not in_obs:
                findings.append(_finding(
                    source, node,
                    "SpanRecord(...) instantiated directly; use span(...) "
                    "so the disabled path stays a boolean check"))
            elif simple == "span":
                _check_span_call(source, node, findings)
    return findings


def _check_span_call(source: SourceFile, call: ast.Call,
                     findings: List[Finding]) -> None:
    for keyword in call.keywords:
        if keyword.arg is None:
            findings.append(_finding(
                source, keyword.value,
                "span(...) site unpacks **kwargs; the dict is built "
                "even when tracing is disabled"))
        elif not _is_cheap(keyword.value):
            findings.append(_finding(
                source, keyword.value,
                f"span(...) attribute '{keyword.arg}' allocates on "
                f"the disabled path; hoist it behind the enabled "
                f"branch or pass a scalar"))


def _is_cheap(node: ast.AST) -> bool:
    if isinstance(node, (ast.Constant, ast.Name)):
        return True
    if isinstance(node, ast.Attribute):
        return _is_cheap(node.value)
    if isinstance(node, ast.Subscript):
        return _is_cheap(node.value) and _is_cheap_slice(node.slice)
    if isinstance(node, ast.UnaryOp):
        return _is_cheap(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_cheap(node.left) and _is_cheap(node.right)
    if isinstance(node, ast.BoolOp):
        return all(_is_cheap(value) for value in node.values)
    if isinstance(node, ast.Compare):
        return _is_cheap(node.left) and \
            all(_is_cheap(cmp) for cmp in node.comparators)
    if isinstance(node, ast.IfExp):
        return (_is_cheap(node.test) and _is_cheap(node.body)
                and _is_cheap(node.orelse))
    if isinstance(node, ast.Call):
        name = dotted(node.func)
        return (name in _CHEAP_CALLS and not node.keywords
                and all(_is_cheap(arg) for arg in node.args))
    return False


def _is_cheap_slice(node: ast.AST) -> bool:
    if isinstance(node, ast.Slice):
        return all(part is None or _is_cheap(part)
                   for part in (node.lower, node.upper, node.step))
    return _is_cheap(node)


def _finding(source: SourceFile, node: ast.AST,
             message: str) -> Finding:
    return Finding(
        rule=RULE.rule_id, severity=RULE.severity,
        path=source.display_path,
        line=getattr(node, "lineno", 0),
        column=getattr(node, "col_offset", 0),
        message=message,
    )
