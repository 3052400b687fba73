"""Time to a verdict for qlinset: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload q2-enum --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; qlinset is imported from its `src`.  Each
round is a fresh single-threaded interpreter that pays the import and the
field construction, as every `qlinset verify` run does.  Rounds repeat
until --seconds have passed and the workload's `min_rounds` are done, and
set-up is sampled three to nine times.  The last line of standard output is one JSON object:

    --trace 0: setup_s, verdict_s and peak_rss_mb (medians over rounds)
    --trace 1: the per-layer metrics of spans.py, from traced rounds that
               alternate with untraced ones, and trace.overhead_s

Exits 2 without a result when the checkout holds no qlinset sources.
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

from spans import metric_names, metric_unit
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

# Set-up is sampled at least MIN_SETUPS times, and cheap set-ups more often,
# until the samples sum to SETUP_BUDGET_S or there are MAX_SETUPS of them.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 9, 1.0
DEADLINE_S = 170.0


class RoundFailed(RuntimeError):
    pass


def _round(req: dict, deadline: float) -> tuple[float, dict]:
    """Run one worker; returns its set-up time and its report."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps(req), capture_output=True, text=True, env=env,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"round of {req['workload']} ran past the deadline") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RoundFailed(f"worker exited with {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report["setup_end"] - start, report


def measure(workload: str, seed: int, seconds: int, trace: bool, src: Path) -> dict:
    began = time.monotonic()
    deadline = began + DEADLINE_S
    work = WORKLOADS[workload]
    req = {"workload": workload, "inputs": work.make_inputs(seed),
           "src": str(src), "trace": False, "setup_only": False}
    setups, plain, traced = [], [], []
    while True:
        # in a traced run, traced rounds alternate with untraced ones
        tracing = trace and len(traced) < len(plain)
        setup, report = _round(dict(req, trace=tracing), deadline)
        (traced if tracing else plain).append(report)
        setups.append(setup)
        if (time.monotonic() - began >= seconds and (not trace or traced)
                and len(plain) + len(traced) >= work.min_rounds):
            break
    if not trace:
        while len(setups) < MIN_SETUPS or (
            len(setups) < MAX_SETUPS and sum(setups) < SETUP_BUDGET_S
        ):
            setups.append(_round(dict(req, setup_only=True), deadline)[0])

    rounds = plain + traced
    result = {
        "correct": all(r["failed"] == 0 for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
    }
    med = statistics.median
    if trace:
        values = {name: med(r["layers"][name] for r in traced)
                  for name in metric_names() if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (med(r["verdict_s"] for r in traced)
                                      - med(r["verdict_s"] for r in plain))
        metrics = {name: {"value": values[name], "unit": metric_unit(name)}
                   for name in metric_names()}
    else:
        metrics = {
            "setup_s": {"value": med(setups), "unit": "s"},
            "verdict_s": {"value": med(r["verdict_s"] for r in plain), "unit": "s"},
            "peak_rss_mb": {"value": med(r["peak_rss_mb"] for r in plain), "unit": "MB"},
        }
    result["metrics"] = metrics
    print(f"{workload} seed={seed}: {len(plain)} rounds, {len(traced)} traced, "
          f"{len(setups)} set-ups, {time.monotonic() - began:.1f} s; verdict wall/cpu s "
          + ", ".join(f"{r['verdict_s']:.3f}/{r['verdict_cpu_s']:.3f}" for r in rounds),
          file=sys.stderr)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "qlinset" / "__init__.py").is_file():
        print(f"no qlinset sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), src)
    except RoundFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
