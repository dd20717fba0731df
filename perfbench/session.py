"""One workload session in a fresh interpreter; started by ``run.py``.

The session builds its inputs from the seed with the standard library,
then starts the set-up clock and imports ``repro`` from the checkout's
``src/``.  Everything it measures comes back to the launcher as one
JSON line on standard output, prefixed with ``PERFBENCH``.

The module has no side effects at import: ``multiprocessing``'s spawn
start method re-imports it in every worker process the session starts.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import inputs

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    opts = parser.parse_args(argv)
    make_inputs = {"cold-order": inputs.cold_order,
                   "warm-query": inputs.warm_query}[opts.workload]
    data = make_inputs(opts.seed, opts.seconds)

    start = time.perf_counter()
    import repro

    source = Path(repro.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"perfbench: imported repro from {source}, not "
                         f"from {ROOT / 'src'}")
    if opts.workload == "cold-order":
        import cold_order as workload
    else:
        import warm_query as workload
    opts.work.mkdir(parents=True, exist_ok=True)
    result = workload.run(data, start, opts)
    print("PERFBENCH " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
