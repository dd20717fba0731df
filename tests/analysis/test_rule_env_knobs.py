"""RPR004: REPRO_* environment reads route through the knob registry."""

from __future__ import annotations

import re
from pathlib import Path

from repro.knobs import KNOBS, knob, knob_names, render_knob_table

REPO = Path(__file__).resolve().parents[2]


def test_unregistered_knob_flagged(lint_tree):
    findings = lint_tree({"repro/net/config.py": '''
        import os
        SECRET = os.environ.get("REPRO_UNREGISTERED_KNOB", "0")
    '''}, select=["RPR004"])
    assert [f.rule for f in findings] == ["RPR004"]
    assert "not registered" in findings[0].message
    assert findings[0].path == "repro/net/config.py"


def test_read_outside_reader_module_flagged(lint_tree):
    findings = lint_tree({"repro/service/ordering.py": '''
        import os
        TIMEOUT = os.environ.get("REPRO_NET_TIMEOUT", "30")
    '''}, select=["RPR004"])
    assert [f.rule for f in findings] == ["RPR004"]
    assert "repro.net.config" in findings[0].message


def test_harness_only_knob_flagged_in_library(lint_tree):
    findings = lint_tree({"repro/linalg/backends.py": '''
        import os
        NO_SCIPY = os.getenv("REPRO_NO_SCIPY")
    '''}, select=["RPR004"])
    assert [f.rule for f in findings] == ["RPR004"]
    assert "harness" in findings[0].message or \
        "library code" in findings[0].message


def test_helper_in_reader_module_clean(lint_tree):
    findings = lint_tree({"repro/net/config.py": '''
        import os

        def positive_float_from_env(name, default):
            raw = os.environ.get(name)
            return float(raw) if raw else default

        NET_TIMEOUT = positive_float_from_env("REPRO_NET_TIMEOUT", 30.0)
    '''}, select=["RPR004"])
    assert findings == []


def test_bare_read_inside_a_nonexistent_helper_name_flagged(lint_tree):
    # Only the helpers repro.net.config really defines may read the
    # environment bare; a function merely named like a helper may not.
    findings = lint_tree({"repro/net/config.py": '''
        import os

        def cutoff_from_env():
            return os.environ.get("REPRO_NET_TIMEOUT")
    '''}, select=["RPR004"])
    assert [f.rule for f in findings] == ["RPR004"]
    assert "validating helper" in findings[0].message
    assert "cutoff_from_env" not in findings[0].message


def test_every_validating_helper_is_a_net_config_function():
    import inspect

    from repro.analysis.rules.env_knobs import VALIDATING_HELPERS
    from repro.net import config

    for name in VALIDATING_HELPERS:
        assert inspect.isfunction(getattr(config, name, None)), name


def test_module_constant_key_resolved(lint_tree):
    findings = lint_tree({"repro/serve/worker.py": '''
        import os
        KEY = "REPRO_NET_QUEUE_DEPTH"
        DEPTH = os.environ.get(KEY)
    '''}, select=["RPR004"])
    assert [f.rule for f in findings] == ["RPR004"]
    assert "repro.net.config" in findings[0].message


def test_registry_covers_every_repro_name_in_src():
    """Every REPRO_* literal in the library appears in the registry."""
    pattern = re.compile(r"REPRO_[A-Z0-9_]+")
    names = set()
    for path in (REPO / "src").rglob("*.py"):
        if "__pycache__" in path.parts:
            continue
        names.update(pattern.findall(path.read_text(encoding="utf-8")))
    unknown = {name for name in names if knob(name) is None}
    assert not unknown, f"unregistered REPRO_* names: {sorted(unknown)}"


def test_registry_is_well_formed():
    assert len(set(knob_names())) == len(KNOBS)
    for entry in KNOBS:
        assert entry.name.startswith("REPRO_")
        assert entry.description
        assert entry.reader is None or entry.reader.startswith("repro.")


def test_readme_knob_table_in_sync():
    """The README's knob table is exactly the generated one."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    start = "<!-- knob-table:start -->"
    end = "<!-- knob-table:end -->"
    assert start in readme and end in readme
    committed = readme.split(start, 1)[1].split(end, 1)[0].strip("\n")
    assert committed == render_knob_table().strip("\n")
