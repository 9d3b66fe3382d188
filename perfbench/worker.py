"""One benchmark pass in a fresh process, so the oracle's caches start cold.

The worker imports the program from src/ of its checkout, generates the
workload's units from the seed (together, the set-up), runs them once and
prints one JSON line.  perfbench/run.py starts it; run by hand it prints the
same line, whose "digest" is what perfbench/digests.json records:

    python3 perfbench/worker.py --workload oracle --seed 0

Modes: plain (untraced), spans (LayerTracer), counts (ExactnumCounter) and
setup (stop after set-up).
"""

from __future__ import annotations

import time

STARTED_AT = time.monotonic()

import argparse  # noqa: E402  (by hand, set-up is timed from STARTED_AT)
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MODES = ("plain", "spans", "counts", "setup")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark pass")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=MODES, default="plain")
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    parser.add_argument(
        "--spawned-at",
        type=float,
        default=STARTED_AT,
        help="time.monotonic() just before this process was started",
    )
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import chainbrackets
    from perfbench import units

    unit_list = units.make_units(args.workload, args.seed, args.tiny)
    setup_s = time.monotonic() - args.spawned_at
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from perfbench import tracing

    tracer = None
    if args.mode == "spans":
        tracer = tracing.LayerTracer()
    elif args.mode == "counts":
        tracer = tracing.ExactnumCounter()
    if tracer is not None:
        tracer.install()
    result = units.run_pass(unit_list)
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.uninstall()
    result.update(
        setup_s=setup_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        python=platform.python_version(),
        backend=chainbrackets.current_backend(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
