"""One round of one workload in a fresh interpreter.

Reads a JSON request on stdin, imports qlinset from the checkout's `src`,
builds the workload's fields, runs its verdicts, then its checks, and
prints one JSON line.  Set-up ends when the last field is built; the parent
process measures it from before this interpreter started, on the shared
monotonic clock.  With "setup_only" the round stops there.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main() -> int:
    req = json.load(sys.stdin)
    src = os.path.realpath(req["src"])
    sys.path.insert(0, src)
    import qlinset as ql
    import qlinset.suites  # noqa: F401  (not imported by the package itself)

    if not os.path.realpath(ql.__file__).startswith(src + os.sep):
        print(f"qlinset was imported from {ql.__file__}, not from {src}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    work = WORKLOADS[req["workload"]]
    tracer = None
    if req["trace"]:
        import spans

        tracer = spans.install(ql)
    ctxs = [ql.gf.build_field(*spec) for spec in work.fields]
    setup_end = time.monotonic()
    if req["setup_only"]:
        print(json.dumps({"setup_end": setup_end}))
        return 0

    t0, c0 = time.perf_counter(), time.process_time()
    out = work.verdicts(ql, ctxs, req["inputs"])
    verdict_s = time.perf_counter() - t0
    verdict_cpu_s = time.process_time() - c0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = None
    if tracer is not None:
        layers = tracer.report()
        idle = [k for k in work.expected if not tracer.calls[k]]
        if idle:
            print(f"expected entry points recorded no calls: {idle}", file=sys.stderr)
            return 3
        for parent, child, t in tracer.top_edges():
            print(f"span {parent} -> {child}: {t:.4f} s", file=sys.stderr)

    tally = work.checks(ql, ctxs, req["inputs"], out)
    for note in tally.notes:
        print(f"check failed: {note}", file=sys.stderr)
    print(json.dumps({
        "setup_end": setup_end,
        "verdict_s": verdict_s,
        "verdict_cpu_s": verdict_cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
