"""RPR005: span sites stay allocation-free on the disabled path."""

from __future__ import annotations


def test_dict_attribute_flagged(lint_tree):
    findings = lint_tree({"repro/service/ordering.py": '''
        from repro.obs.tracing import span

        def serve(key):
            with span("service.order", extras={"key": key}):
                pass
    '''}, select=["RPR005"])
    assert [f.rule for f in findings] == ["RPR005"]
    assert "extras" in findings[0].message
    assert findings[0].severity == "warning"


def test_kwargs_unpack_flagged(lint_tree):
    findings = lint_tree({"repro/service/ordering.py": '''
        from repro.obs.tracing import span

        def serve(key, attrs):
            with span("service.order", **attrs):
                pass
    '''}, select=["RPR005"])
    assert [f.rule for f in findings] == ["RPR005"]
    assert "kwargs" in findings[0].message


def test_scalar_attributes_clean(lint_tree):
    findings = lint_tree({"repro/service/ordering.py": '''
        from repro.obs.tracing import span

        def serve(key, request, n):
            with span("service.order", key=key[:12], n=len(key),
                      request=type(request).__name__,
                      big=n > 100):
                pass
    '''}, select=["RPR005"])
    assert findings == []


def test_direct_span_instantiation_flagged(lint_tree):
    findings = lint_tree({"repro/service/ordering.py": '''
        from repro.obs.tracing import SpanRecord

        def serve(key):
            with SpanRecord("t", "s", None, "service.order", 0.0, 0.0,
                            {"key": key}):
                pass
    '''}, select=["RPR005"])
    assert [f.rule for f in findings] == ["RPR005"]
    assert "SpanRecord(" in findings[0].message


def test_span_instantiation_allowed_inside_obs(lint_tree):
    findings = lint_tree({"repro/obs/tracing.py": '''
        class SpanRecord:
            def __init__(self, name, attributes):
                self.name = name

        def span(name, **attributes):
            return SpanRecord(name, attributes)
    '''}, select=["RPR005"])
    assert findings == []
