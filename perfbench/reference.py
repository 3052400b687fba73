"""Regenerate the reference figures in perfbench/README.md.

    python3 perfbench/reference.py --seeds 1-10
    python3 perfbench/reference.py --field24

Runs run.py once per workload and seed, one run at a time, from the root of
the checkout, and prints for each end-to-end metric its median over the
seeds and the spread (third minus first quartile, over the median).  Then
it makes one traced run per workload, with the first seed, and prints the
per-layer metrics that are not zero.  --field24 builds F_(2^24) once in a
fresh interpreter and prints its time and peak resident set size; no
workload pays for that build.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(BENCH["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _field24() -> None:
    code = (
        "import resource, sys, time\n"
        f"sys.path.insert(0, {str(Path.cwd() / 'src')!r})\n"
        "from qlinset import build_field\n"
        "t = time.perf_counter(); build_field(2, 1, 24)\n"
        "print(f'build_field(2,1,24): {time.perf_counter() - t:.1f} s, peak RSS '\n"
        "      f'{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MB')\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--field24", action="store_true")
    args = ap.parse_args()
    if args.field24:
        _field24()
        return 0

    print(f"nproc {os.cpu_count()}, Python {sys.version.split()[0]}")
    for w in WORKLOADS:
        runs = [_run(w, s, 0) for s in _seeds(args.seeds)]
        print(f"{w}: {len(runs)} runs, attempted {[r['attempted'] for r in runs]}, "
              f"failed {sum(r['failed'] for r in runs)}, "
              f"correct {all(r['correct'] for r in runs)}")
        for m in BENCH["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            spread = 0.0
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
            print(f"  {m['name']:12s} median {med:10.3f} {m['unit']:3s} "
                  f"spread {spread:.3f} (bound {m['bound']})  "
                  f"min {min(vals):.3f} max {max(vals):.3f}")
        layers = _run(w, _seeds(args.seeds)[0], 1)["metrics"]
        for name, v in layers.items():
            if v["value"]:
                print(f"    {name:40s} {v['value']:14.4f} {v['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
