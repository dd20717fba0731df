"""``python -m repro.calibrate``: measure backend cutoffs per machine.

The ``auto`` eigensolver policy switches backends at two thresholds —
:data:`~repro.linalg.backends.DENSE_CUTOFF` (dense ``eigh`` vs the
iterative solvers) and :data:`~repro.linalg.backends.MULTILEVEL_CUTOFF`
(exact vs coarsen-solve-refine).  Both are hardware policy, not
algorithmic constants: the crossover moves with BLAS quality, core
count, and whether scipy is installed.  This module *measures* them on
the current machine by timing a small bench grid and writes the result
as an env file::

    python -m repro.calibrate --out repro-cutoffs.env
    set -a; . repro-cutoffs.env; set +a        # apply to a shell

The file contains ``REPRO_DENSE_CUTOFF`` / ``REPRO_MULTILEVEL_CUTOFF``
assignments (the exact variables
:func:`~repro.linalg.backends.cutoff_from_env` validates at import)
plus a comment block recording the measurements behind them, so a value
can be audited later.  The comments name the leg the dense cutoff was
measured on (scipy or numpy-only: the two legs cross over at different
sizes, so a value does not carry from one to the other) and mark the
multilevel cutoff as approximate.  Moving the dense cutoff never
changes an order (every exact backend gives the same one); moving work
onto the multilevel approximation does, so that value is a quality
decision as well as a speed one.

Methodology: square grids of increasing side are ordered once per
backend (best of ``--repeats``); a cutoff is placed at the largest
measured size where the cheaper-small backend still won.  When the
expensive-small backend never wins inside the measured range, the
current default is kept rather than extrapolated — a calibration that
never observed a crossover has no business inventing one.
"""

from __future__ import annotations

import argparse
import platform
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.fiedler import fiedler_vector
from repro.geometry.grid import Grid
from repro.graph.builders import grid_graph
from repro.linalg.backends import (
    DENSE_CUTOFF,
    MULTILEVEL_CUTOFF,
    scipy_available,
)
from repro.obs import best_of

#: Grid sides timed for the dense-vs-iterative crossover: they bracket
#: both shipped defaults (n = 225..256 against scipy, 441..484 against
#: Lanczos).
DENSE_SIDES = (12, 15, 16, 18, 21, 22, 24, 32)
#: Grid sides timed for the exact-vs-multilevel crossover.
MULTILEVEL_SIDES = (32, 48, 64, 96)
#: Reduced ladders for ``--quick`` (CI smoke and tests).
QUICK_DENSE_SIDES = (8, 12, 16)
QUICK_MULTILEVEL_SIDES = (16, 24)


@dataclass(frozen=True)
class Measurement:
    """Best-of-N seconds for both backends at one problem size."""

    n: int
    cheap_s: float      # the backend preferred below the cutoff
    expensive_s: float  # the backend preferred above it


@dataclass(frozen=True)
class CalibrationResult:
    """The measured cutoffs plus everything behind them."""

    dense_cutoff: int
    multilevel_cutoff: int
    iterative_backend: str
    dense_measurements: Tuple[Measurement, ...]
    multilevel_measurements: Tuple[Measurement, ...]
    dense_crossed: bool
    multilevel_crossed: bool


def _time_backends(sides: Sequence[int], small_backend: str,
                   large_backend: str, repeats: int) -> List[Measurement]:
    repeats = max(1, repeats)
    measurements = []
    for side in sides:
        graph = grid_graph(Grid((side, side)))
        small = best_of(
            lambda: fiedler_vector(graph, backend=small_backend), repeats)
        large = best_of(
            lambda: fiedler_vector(graph, backend=large_backend), repeats)
        measurements.append(Measurement(n=graph.num_vertices,
                                        cheap_s=small, expensive_s=large))
    return measurements


def _largest_cheap_win(measurements: Sequence[Measurement],
                       fallback: int) -> Tuple[int, bool]:
    """The largest n where the cheap-small backend won, and whether the
    expensive backend ever took over inside the measured range."""
    wins = [m.n for m in measurements if m.cheap_s <= m.expensive_s]
    crossed = any(m.cheap_s > m.expensive_s for m in measurements)
    if not wins:
        return fallback, crossed
    return max(wins), crossed


def calibrate(quick: bool = False, repeats: int = 3) -> CalibrationResult:
    """Run the bench grid and derive both cutoffs.

    ``quick`` shrinks the grid ladder to a few-second run (used by the
    CI smoke test); production calibration should run the default
    ladder on an otherwise idle machine.
    """
    iterative = "scipy" if scipy_available() else "lanczos"
    dense_sides = QUICK_DENSE_SIDES if quick else DENSE_SIDES
    ml_sides = QUICK_MULTILEVEL_SIDES if quick else MULTILEVEL_SIDES

    dense_ms = _time_backends(dense_sides, "dense", iterative, repeats)
    # Dense wins while n is small; the cutoff is the last size it held.
    dense_cutoff, dense_crossed = _largest_cheap_win(
        dense_ms, fallback=min(m.n for m in dense_ms))
    if not dense_crossed:
        # Dense never lost in range: the crossover lies above the
        # measured ladder, so never *lower* the shipped default — only
        # raise it when the measurements prove dense holds further.
        dense_cutoff = max(DENSE_CUTOFF, max(m.n for m in dense_ms))

    exact = ("dense" if max(ml_sides) ** 2 <= DENSE_CUTOFF else iterative)
    ml_ms = _time_backends(ml_sides, exact, "multilevel", repeats)
    # Multilevel winning at every measured size puts the cutoff at the
    # smallest one, as for dense: a crossed result is always measured.
    ml_cutoff, ml_crossed = _largest_cheap_win(
        ml_ms, fallback=min(m.n for m in ml_ms))
    if not ml_crossed:
        # No observed size where the approximation paid off: keep the
        # conservative default instead of extrapolating.
        ml_cutoff = MULTILEVEL_CUTOFF

    return CalibrationResult(
        dense_cutoff=int(dense_cutoff),
        multilevel_cutoff=int(ml_cutoff),
        iterative_backend=iterative,
        dense_measurements=tuple(dense_ms),
        multilevel_measurements=tuple(ml_ms),
        dense_crossed=dense_crossed,
        multilevel_crossed=ml_crossed,
    )


def render_env_file(result: CalibrationResult) -> str:
    """The env-file text for a calibration result (with audit trail)."""
    leg = "scipy" if result.iterative_backend == "scipy" else "numpy-only"
    lines = [
        "# Eigensolver backend cutoffs measured by "
        "`python -m repro.calibrate`.",
        f"# host: {platform.node() or 'unknown'} "
        f"({platform.machine()}), python {platform.python_version()}, "
        f"iterative backend: {result.iterative_backend}",
        f"# leg: {leg} -- the dense cutoff below holds for {leg} "
        "installs only; recalibrate on the other leg.",
        "#",
        "# dense vs iterative (seconds, best-of-N):",
    ]
    for m in result.dense_measurements:
        lines.append(f"#   n={m.n:>7d}  dense={m.cheap_s:.4f}  "
                     f"{result.iterative_backend}={m.expensive_s:.4f}")
    if not result.dense_crossed:
        lines.append("#   (no crossover observed; keeping at least the "
                     "default dense cutoff)")
    lines.append("# exact vs multilevel:")
    for m in result.multilevel_measurements:
        lines.append(f"#   n={m.n:>7d}  exact={m.cheap_s:.4f}  "
                     f"multilevel={m.expensive_s:.4f}")
    if not result.multilevel_crossed:
        lines.append("#   (no crossover observed; keeping the default "
                     "multilevel cutoff)")
    lines.append(f"REPRO_DENSE_CUTOFF={result.dense_cutoff}")
    lines.append("# APPROXIMATE: graphs above this size get multilevel "
                 "orders, which differ from")
    lines.append("# the exact ones; a value below the default changes "
                 "orders, so check order")
    lines.append("# quality (edge stretch, nn recall, pages per range) "
                 "before applying it.")
    lines.append(f"REPRO_MULTILEVEL_CUTOFF={result.multilevel_cutoff}")
    return "\n".join(lines) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro.calibrate``."""
    parser = argparse.ArgumentParser(
        prog="repro-calibrate",
        description="Measure REPRO_DENSE_CUTOFF / "
                    "REPRO_MULTILEVEL_CUTOFF for this machine and write "
                    "them to an env file.",
    )
    parser.add_argument("--out", default="repro-cutoffs.env",
                        metavar="PATH",
                        help="env file to write (default: "
                             "repro-cutoffs.env)")
    parser.add_argument("--quick", action="store_true",
                        help="small grid ladder (seconds, less precise)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions per point (best-of)")
    args = parser.parse_args(argv)

    result = calibrate(quick=args.quick, repeats=args.repeats)
    text = render_env_file(result)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(text.rstrip())
    print(f"\nwrote {args.out}; apply with: set -a; . {args.out}; set +a")
    return 0


if __name__ == "__main__":
    sys.exit(main())
