"""The central registry of ``REPRO_*`` deployment knobs.

Every environment variable the library (or its test/CI harness) reads
is declared here, once, with its type, default, and the one module that
is allowed to read it from the environment — always through a
validating helper (:func:`repro.net.config.positive_int_from_env`,
:func:`repro.net.config.positive_float_from_env`), never a bare
``os.environ[...]`` that would silently swallow a typo.

The library itself reads only the socket server's two deployment
settings.  Nothing else that decides an order may come from the
environment: orders are cached under their configuration and domain
alone, so ``auto``'s backend cutoffs are constants in
:mod:`repro.linalg.backends`.

Two consumers keep this registry honest:

* the ``RPR004`` rule of :mod:`repro.analysis` (the ``repro-lint``
  static checker) flags any ``REPRO_*`` environment read outside the
  declared reader module, and any ``REPRO_*`` name that does not appear
  here;
* the README's knob table is generated from
  :func:`render_knob_table`, and a test asserts the committed table
  matches — documentation cannot drift from the code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = [
    "Knob",
    "KNOBS",
    "knob",
    "knob_names",
    "reader_modules",
    "render_knob_table",
]


@dataclass(frozen=True)
class Knob:
    """One ``REPRO_*`` environment variable.

    ``reader`` names the dotted module whose validating helper resolves
    the variable at import time; ``None`` marks a knob consumed only by
    the test/benchmark harness, which no library module may read.
    """

    name: str
    kind: str
    default: str
    reader: Optional[str]
    description: str


#: Every ``REPRO_*`` variable, in documentation order.
KNOBS: Tuple[Knob, ...] = (
    Knob(
        name="REPRO_NET_TIMEOUT",
        kind="float seconds > 0",
        default="30.0",
        reader="repro.net.config",
        description="Server-side per-request deadline; requests queued "
                    "longer are rejected with ``ServerBusy(\"deadline\")``.",
    ),
    Knob(
        name="REPRO_NET_QUEUE_DEPTH",
        kind="int >= 1",
        default="64",
        reader="repro.net.config",
        description="Capacity of the socket server's bounded admission "
                    "queue; arrivals beyond it get "
                    "``ServerBusy(\"queue_full\")``.",
    ),
    Knob(
        name="REPRO_NO_SCIPY",
        kind="flag (\"1\")",
        default="unset",
        reader=None,
        description="Test/CI harness only: marks the scipy-less leg so "
                    "scipy-specific tests skip themselves.",
    ),
    Knob(
        name="REPRO_BENCH_FULL",
        kind="flag (\"1\")",
        default="unset",
        reader=None,
        description="Benchmark harness only: enables the slow full-size "
                    "acceptance tiers (e.g. the 256^2 preconditioned-solver "
                    "bar).",
    ),
)


def knob(name: str) -> Optional[Knob]:
    """The registered knob called ``name``, or ``None``."""
    for entry in KNOBS:
        if entry.name == name:
            return entry
    return None


def knob_names() -> Tuple[str, ...]:
    """Every registered ``REPRO_*`` name, in documentation order."""
    return tuple(entry.name for entry in KNOBS)


def reader_modules() -> Tuple[str, ...]:
    """The modules allowed to read ``REPRO_*`` from the environment."""
    seen = []
    for entry in KNOBS:
        if entry.reader is not None and entry.reader not in seen:
            seen.append(entry.reader)
    return tuple(seen)


def render_knob_table() -> str:
    """The registry as a GitHub-flavored markdown table.

    This exact text lives in the README between the
    ``<!-- knob-table:start -->`` / ``<!-- knob-table:end -->`` markers;
    ``tests/analysis/test_rule_env_knobs.py`` asserts the two match.
    """
    lines = [
        "| Variable | Type | Default | Read by | Purpose |",
        "| --- | --- | --- | --- | --- |",
    ]
    for entry in KNOBS:
        reader = (f"`{entry.reader}`" if entry.reader is not None
                  else "tests/benchmarks only")
        lines.append(
            f"| `{entry.name}` | {entry.kind} | {entry.default} | "
            f"{reader} | {entry.description} |"
        )
    return "\n".join(lines) + "\n"
