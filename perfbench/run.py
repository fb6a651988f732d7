#!/usr/bin/env python3
"""turanmatch benchmark.

    python3 perfbench/run.py --workload oracle-dense --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
One client in one process sends requests in a closed loop, whole rounds of
the workload's request list until ``--seconds`` have passed; there is no
worker pool.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
replays the same requests through each module's public functions and prints
per-layer metrics.  Lines starting with '#' are for reference; the last line
is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from itertools import count
from math import inf
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("oracle-dense", "matching-laws", "cli-files")

SETUP_SAMPLES = 15  # fresh interpreters per run, after one discarded warm-up
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, 'src'); import turanmatch, turanmatch.cli; "
    "print(time.monotonic(), turanmatch.__file__)"
)
SPAN_BUDGET = 2_000_000  # the traced run stops before its spans pass ~50 MB

# Host speed.  On a shared machine the same work takes up to 1.5x longer from
# one minute to the next, in CPU time as much as in wall time.  A fixed
# pure-Python slice that does not touch turanmatch runs between requests, and
# each request's time is scaled by REFERENCE_SLICE_S over the median of the
# slices around it.  Reported times are thus "reference seconds": wall
# seconds on a host running the slice in REFERENCE_SLICE_S.
SLICE_LOOPS = 60_000
REFERENCE_SLICE_S = 0.0072  # median slice on the 2-core 2.1 GHz Xeon sandbox, Python 3.11
SLICE_EVERY_S = 0.1  # at most one slice per 0.1 s, so short requests share one


def slice_seconds() -> float:
    t0 = perf_counter()
    x = 0
    for i in range(SLICE_LOOPS):
        x = (x * 31 + i) & 0xFFFFFFFF
    return perf_counter() - t0


class HostSpeed:
    """Calibration slices between timed items and the factor per item."""

    def __init__(self, every: float = SLICE_EVERY_S) -> None:
        self.slices: list[float] = []
        self._marks: list[int] = []  # per timed item: the slice just before it
        self._every = every
        self._last = -inf

    def before_item(self) -> None:
        if perf_counter() - self._last >= self._every:
            self.slices.append(slice_seconds())
            self._last = perf_counter()
        self._marks.append(len(self.slices) - 1)

    def factors(self) -> list[float]:
        """Reference seconds per wall second, one per timed item: the
        reference over the median of the three slices before the item and
        the three after it, which damps the jitter of a single slice."""
        self.slices.append(slice_seconds())
        s = self.slices
        return [REFERENCE_SLICE_S / statistics.median(s[max(0, m - 2):m + 4]) for m in self._marks]

    def summary(self) -> dict:
        return {"calibration_slice_s_median": statistics.median(self.slices),
                "calibration_slice_s_min": min(self.slices),
                "calibration_slice_s_max": max(self.slices)}


def note(**fields) -> None:
    print("# " + json.dumps(fields), flush=True)


def setup_seconds() -> tuple[float, float]:
    """Median time, in reference and in wall seconds, for a fresh interpreter
    to import turanmatch and its CLI."""
    host = HostSpeed(every=0.0)  # a slice before every sample
    wall = []
    for _ in range(SETUP_SAMPLES + 1):
        host.before_item()
        t0 = monotonic()
        proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        stamp, module = proc.stdout.split()
        if not Path(module).resolve().is_relative_to(SRC):
            raise RuntimeError(f"fresh interpreter imported turanmatch from {module}")
        wall.append(float(stamp) - t0)
    ref = [w * f for w, f in zip(wall, host.factors())]
    return statistics.median(ref[1:]), statistics.median(wall[1:])


def tails(ms: list[float]) -> dict:
    """Percentiles with at least ten samples beyond them."""
    ordered = sorted(ms)
    out = {}
    for q in (90, 99, 99.9):
        if len(ordered) * (100 - q) / 100 >= 10:
            out[f"p{q}_ms"] = ordered[min(len(ordered) - 1, int(len(ordered) * q / 100))]
    return out


def serve(requests, call, seconds: float, outputs, stop_after=None):
    """Whole rounds of ``requests`` until ``seconds`` have passed.  Returns
    per-request wall seconds, their reference seconds, the round count, the
    failed count and the host-speed record."""
    host = HostSpeed()
    wall, failed, rounds = [], 0, 0
    start = perf_counter()
    while True:
        for i, req in enumerate(requests):
            host.before_item()
            t0 = perf_counter()
            try:
                raw = call(req)
            except Exception as exc:  # a request that raises is a failed operation
                wall.append(perf_counter() - t0)
                key, bad = ("error", type(exc).__name__, str(exc)), True
            else:
                wall.append(perf_counter() - t0)
                key = req.collect(raw)
                bad = req.expect_rc is not None and key[0] != req.expect_rc
            failed += bad
            seen = outputs[i]
            seen[key] = seen.get(key, 0) + 1
        rounds += 1
        if perf_counter() - start >= seconds or (stop_after and stop_after(rounds)):
            break
    ref = [w * f for w, f in zip(wall, host.factors())]
    return wall, ref, rounds, failed, host


def per_round(times: list[float], size: int) -> list[float]:
    return [sum(times[r:r + size]) for r in range(0, len(times), size)]


def check_outputs(requests, outputs) -> list[str]:
    import check  # networkx: only once memory has been read

    errors = []
    for req, seen in zip(requests, outputs):
        for key in seen:
            if key[0] == "error" or (req.expect_rc is not None and key[0] != req.expect_rc):
                continue  # failed operations are counted, not checked
            problem = check.check(req.spec, key)
            if problem:
                errors.append(f"{req.label}: {problem}")
    return errors


def timed_run(workload, requests, seconds):
    setup, setup_wall = setup_seconds()
    outputs = [{} for _ in requests]
    wall, ref, rounds, failed, host = serve(requests, lambda req: req.run(), seconds, outputs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    errors = check_outputs(requests, outputs)
    graphs = sum(req.graphs for req in requests)
    ref_rounds = per_round(ref, len(requests))
    wall_rounds = per_round(wall, len(requests))
    note(workload=workload, rounds=rounds, requests=len(wall), graphs_per_round=graphs,
         wall_graphs_per_s=statistics.median(graphs / r for r in wall_rounds),
         wall_request_p50_ms=statistics.median(wall) * 1e3, wall_setup_s=setup_wall,
         **tails([t * 1e3 for t in ref]), **host.summary(), errors=errors[:5])
    metrics = {
        "setup_s": {"value": setup, "unit": "s"},
        "graphs_per_s": {"value": statistics.median(graphs / r for r in ref_rounds), "unit": "1/s"},
        "request_p50_ms": {"value": statistics.median(ref) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    return not errors, len(wall), failed, metrics


def traced_run(workload, requests, seconds):
    import workloads
    from spans import REQUEST_PREFIX, Tracer, layer_metrics

    outputs = [{} for _ in requests]
    # Untraced rounds for a quarter of the run first: their median round time
    # is the base of the tracing overhead printed below.
    _, plain, _, _, _ = serve(requests, lambda req: req.run(), seconds / 4, outputs)
    tr = Tracer()
    ids = count()

    def call(req):
        tr.request = next(ids)
        return req.replay(tr)

    def over_budget(passes):
        return len(tr) * (passes + 1) / passes > SPAN_BUDGET

    with workloads.traced_cli(tr) if workload == "cli-files" else nullcontext():
        wall, ref, passes, failed, host = serve(requests, call, seconds * 3 / 4, outputs,
                                                stop_after=over_budget)
    # Span request ids number the traced requests in order, as ``wall`` does.
    stats = tr.self_times([r / w if w else 1.0 for r, w in zip(ref, wall)])
    errors = check_outputs(requests, outputs)
    metrics = layer_metrics(stats, tr.counts, passes)
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload}.spans"
    tr.write(trace_path)
    traced_pass = statistics.median(per_round(ref, len(requests)))
    plain_pass = statistics.median(per_round(plain, len(requests)))
    loop = sum(b for name, (_, b) in stats.items() if name.startswith(REQUEST_PREFIX)) / passes
    note(workload=workload, passes=passes, spans=len(tr), trace=str(trace_path.relative_to(ROOT)),
         untraced_pass_s=plain_pass, traced_pass_s=traced_pass,
         tracing_overhead=traced_pass / plain_pass - 1, replay_loop_s_per_pass=loop,
         **host.summary(), errors=errors[:5])
    return not errors, len(wall), failed, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "turanmatch" / "__init__.py").is_file():
        print(f"perfbench: no turanmatch package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if not Path(workloads.tm.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: turanmatch imported from {workloads.tm.__file__}", file=sys.stderr)
        return 2
    work = OUT / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    requests = workloads.build(args.workload, args.seed, work)
    run = traced_run if args.trace else timed_run
    correct, attempted, failed, metrics = run(args.workload, requests, args.seconds)
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
