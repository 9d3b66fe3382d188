"""Run one chainbrackets benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {tables,oracle,transform} --seed N \
        --seconds S --trace {0,1}

Every pass runs in a fresh single-threaded worker process (perfbench/worker.py),
one at a time, so the oracle's caches start cold as they do for a `verify`
user.  With --trace 0 the run repeats untraced passes for --seconds (at least
MIN_PASSES) and reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it repeats rounds of an untraced, a span-traced and an
exactnum-counting pass and reports the per-layer metrics.  Every unit makes
an exact check, and each pass's sha256 over its sorted rendered outputs must
match perfbench/digests.json where a digest is recorded.

Human-readable lines come first; the last line of standard output is the
JSON result.  Exit codes: 0 all checks held, 1 a check, a digest or a worker
failed, 2 the program's source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tables", "oracle", "transform")
MIN_PASSES = 3
MIN_SETUP_SAMPLES = 11
# A run must end within 180 s; a worker still busy at this point is killed.
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The run could not produce a result."""


def _spawn(workload: str, seed: int, mode: str, tiny: bool, deadline: float) -> dict:
    """Run one worker to completion and return its JSON line."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--mode",
        mode,
    ]
    if tiny:
        cmd.append("--tiny")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass of {workload} ran past {RUN_LIMIT_S:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited with code {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _median(values: list):
    """Median; a count stays a whole number (counts repeat exactly for one seed)."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _percentile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, float]:
    """End-to-end metrics: medians over passes, percentiles over all units pooled."""
    pooled = [ms for p in passes for ms in p["latencies_ms"]]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "checks_per_s": statistics.median(p["checks"] / p["wall_s"] for p in passes),
        "unit_p50_ms": _percentile(pooled, 0.50),
        "unit_p95_ms": _percentile(pooled, 0.95),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(rounds: list[tuple[dict, dict, dict]]) -> dict[str, float]:
    """Per-layer metrics: medians over rounds of (plain, spans, counts) passes."""
    layers = [spans["layers"] | counts["layers"] for _, spans, counts in rounds]
    out = {name: _median([layer[name] for layer in layers]) for name in layers[0]}
    out["trace.overhead"] = statistics.median(
        spans["wall_s"] / plain["wall_s"] for plain, spans, _ in rounds
    )
    return out


def _digest_problems(workload: str, seed: int, tiny: bool, passes: list[dict]) -> list[str]:
    """Every pass of one seed must render the same bytes, and the recorded ones where known."""
    digests = {p["digest"] for p in passes}
    if len(digests) > 1:
        return [f"passes of one seed rendered different outputs: {sorted(digests)}"]
    if tiny:
        return []
    record = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))[workload]
    if record["seed"] is not None and record["seed"] != seed:
        return []
    (digest,) = digests
    if digest != record["sha256"]:
        return [f"output digest {digest} != recorded {record['sha256']}"]
    return []


def measure(args) -> tuple[dict, list[dict], str]:
    """Run the passes; returns (metric values, every pass, a summary line)."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S

    def spawn(mode: str) -> dict:
        return _spawn(args.workload, args.seed, mode, args.tiny, deadline)

    if args.trace:
        rounds = []
        while not rounds or time.monotonic() - start < args.seconds:
            rounds.append((spawn("plain"), spawn("spans"), spawn("counts")))
        passes = [p for r in rounds for p in r]
        values = per_layer(rounds)
        summary = f"rounds={len(rounds)} (untraced, spans, counts passes each)"
    else:
        passes = []
        while len(passes) < MIN_PASSES or time.monotonic() - start < args.seconds:
            passes.append(spawn("plain"))
        setups = [p["setup_s"] for p in passes]
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(spawn("setup")["setup_s"])
        values = end_to_end(passes, setups)
        samples = sum(len(p["latencies_ms"]) for p in passes)
        summary = (
            f"passes={len(passes)} unit_samples={samples} setup_samples={len(setups)} "
            "(timings: medians over passes, unit percentiles over pooled units)"
        )
    return values, passes, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="chainbrackets benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes, no digest")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "chainbrackets" / "__init__.py").is_file():
        print(f"error: program source {ROOT / 'src' / 'chainbrackets'} not found", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        values, passes, summary = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["checks"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [f for p in passes for f in p["failures"]]
    problems += _digest_problems(args.workload, args.seed, args.tiny, passes)
    correct = failed == 0 and not problems

    env = {
        "python": passes[0]["python"],
        "backend": passes[0]["backend"],
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
    }
    print(f"# env {json.dumps(env)}")
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} {summary}")
    metrics = {}
    for metric in wanted:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:<44} {value:>16.6g} {metric['unit']}")
    print(f"{'fail_frac':<44} {failed / attempted:>16.6g} ({failed} of {attempted} checks)")
    print(f"{'digest':<44} {passes[0]['digest']}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
