"""Closed-loop benchmark of the dsmfuse command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. One client in one process and one thread
sends one request at a time: a request is one in-process
`dsmfuse.cli.main([...])` call with stdout and stderr captured, and the next
starts when it returns. The program is imported from the checkout's `src`.

Set-up (import, input generation, one warm-up pass over the request pool)
runs SETUPS times from a fresh import; setup_s is the median. The timed
loop then runs whole passes over the pool for about --seconds. Every
output is checked (see check.py). With --trace 1 the loop is split: the
first half untraced, the second half under the span tracer, and the
metrics are the per-layer ones (see tracing.py).

Times are scaled to a nominal machine speed. The machine this runs on is
shared, and its speed drifts by tens of percent over seconds. So between
requests, about every CALIBRATE_EVERY_S, the client times
calibration_loop, a fixed integer loop that does not touch the program.
A request's reported time is its wall time multiplied by
NOMINAL_CALIBRATION_S / (median of the CALIBRATION_NEIGHBOURS calibrations
nearest to it in time); set-up times use the median of the calibrations
taken during set-up. The wall-clock values are printed too.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Exit code 2 means the benchmark could not run at all.
"""

import argparse
import bisect
import contextlib
import functools
import gc
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import threading
import traceback
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import check
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
OUT = ROOT / ".bench_build" / "perfbench"

SETUPS = 3
CALIBRATE_EVERY_S = 0.1
CALIBRATION_NEIGHBOURS = 5
NOMINAL_CALIBRATION_S = 0.003
# Synthetic outputs on this seed are compared with reference.json.
REFERENCE_SEED = 1

E2E_UNITS = {"latency_p50_ms": "ms", "latency_p90_ms": "ms", "throughput_rps": "req/s",
             "peak_rss_mb": "MB", "setup_s": "s"}


class Unavailable(Exception):
    """The checkout lacks the program or its scenarios."""


def import_program():
    """Import dsmfuse afresh from the checkout, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "dsmfuse" or m.startswith("dsmfuse.")]:
        del sys.modules[name]
    if not (SRC / "dsmfuse" / "__init__.py").is_file():
        raise Unavailable(f"no dsmfuse package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    dsm = importlib.import_module("dsmfuse")
    importlib.import_module("dsmfuse.cli")
    if Path(dsm.__file__).resolve().parent != SRC / "dsmfuse":
        raise Unavailable(f"dsmfuse imported from {dsm.__file__}, not from {SRC}")
    return dsm


def load_goldens():
    golden_dir = SCENARIOS / "golden"
    if not golden_dir.is_dir():
        raise Unavailable(f"no goldens under {golden_dir}")
    return {p.name: p.read_bytes() for p in golden_dir.iterdir()}


def load_reference(workload, seed):
    if workload == "cli_golden" or seed != REFERENCE_SEED:
        return None
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)[workload]


def execute(main, argv):
    """One request: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse refused the command line
            rc = exc.code
        except Exception:  # a crash fails this request, not the benchmark
            rc = "crash"
            traceback.print_exc()
        dt = perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), dt


def calibration_loop():
    """Fixed interpreter-bound work; its duration tracks machine speed."""
    s = 0
    for i in range(40_000):
        s += i * i % 7
    return s


class Client:
    """The closed-loop client: runs passes over a pool, checks every
    output, keeps the tally of requests attempted and failed, and times
    calibration_loop between requests."""

    def __init__(self, checker):
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.reasons = Counter()
        self.calibrated_at = []
        self.calibrations = []

    def _fail(self, reason):
        self.failed += 1
        self.reasons[reason] += 1

    def calibrate(self, force=False):
        """Time calibration_loop if it is due."""
        t0 = perf_counter()
        if not force and self.calibrated_at and t0 - self.calibrated_at[-1] < CALIBRATE_EVERY_S:
            return
        calibration_loop()
        t1 = perf_counter()
        self.calibrated_at.append(t1)
        self.calibrations.append(t1 - t0)

    def scale(self, at=None):
        """Factor from wall time to nominal time: from the CALIBRATION_NEIGHBOURS
        calibrations nearest to time `at`, or from all of them."""
        if at is None:
            return NOMINAL_CALIBRATION_S / statistics.median(self.calibrations)
        i = bisect.bisect_left(self.calibrated_at, at)
        lo = max(0, min(i - CALIBRATION_NEIGHBOURS // 2, len(self.calibrations) - CALIBRATION_NEIGHBOURS))
        near = self.calibrations[lo:lo + CALIBRATION_NEIGHBOURS]
        return NOMINAL_CALIBRATION_S / statistics.median(near)

    def one_pass(self, main, pool, durations, finished, tracer=None):
        """Run every request once, appending its wall seconds to durations
        and the time it finished to finished; returns the bytes written to
        stdout."""
        out_bytes = 0
        for req in pool:
            fn = main if tracer is None else functools.partial(tracer.call, self.attempted, main)
            rc, out, err, dt = execute(fn, req.argv)
            durations.append(dt)
            finished.append(perf_counter())
            out_bytes += len(out)
            self.attempted += 1
            reason = self.checker.check(req, rc, out, err)
            if reason is not None:
                self._fail(f"{req.rid}: {reason}")
            self.calibrate()
        # a thread left running would slow calibration_loop and flatter the scaled times
        if threading.active_count() != 1:
            self._fail("threads still running after a pass")
        return out_bytes

    def loop(self, main, pool, seconds, tracer=None):
        """Whole passes for about `seconds`: stop when one more pass, as
        long as the last, would overrun. Returns the requests' wall seconds
        and finish times, as compact arrays so that the samples barely move
        peak RSS, and the bytes written to stdout."""
        durations, finished = array("d"), array("d")
        out_bytes = 0
        self.calibrate(force=True)
        start = perf_counter()
        while True:
            t = perf_counter()
            out_bytes += self.one_pass(main, pool, durations, finished, tracer)
            now = perf_counter()
            if now - start + (now - t) > seconds:
                return durations, finished, out_bytes

    def scaled(self, durations, finished):
        """Request times at nominal speed, each scaled by the calibrations
        nearest to the middle of the request."""
        return [dt * self.scale(done - dt / 2) for dt, done in zip(durations, finished)]


def setup(workload, seed, work_dir, client):
    """Fresh import, input generation and a warm-up pass; returns the
    program, the pool and the wall seconds spent outside output checks and
    calibration."""
    client.calibrate(force=True)
    t0 = perf_counter()
    dsm = import_program()
    pool = workloads.build(workload, seed, work_dir, SCENARIOS)
    spent = perf_counter() - t0
    durations = array("d")
    client.one_pass(dsm.cli.main, pool, durations, array("d"))
    return dsm, pool, spent + sum(durations)


def end_to_end(latencies, setup_s, peak_rss_mb):
    """The gated metrics, from request times and set-up time in seconds."""
    return {
        "latency_p50_ms": statistics.median(latencies) * 1000.0,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1000.0,
        "throughput_rps": len(latencies) / sum(latencies),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }


def layer_table(layer_ms, requests):
    total = sum(layer_ms.values()) or 1.0
    lines = [f"  {'layer':<9} {'self ms/req':>12} {'share':>7}"]
    for name in tracing.LAYERS:
        ms = layer_ms.get(name, 0.0)
        lines.append(f"  {name:<9} {ms / max(requests, 1):>12.4f} {ms / total:>7.1%}")
    return lines


def run(args):
    checker = check.Checker(load_goldens(), load_reference(args.workload, args.seed))
    client = Client(checker)
    work_dir = OUT / f"{args.workload}-{args.seed}"
    setups = []
    try:
        for _ in range(SETUPS):
            dsm, pool, spent = setup(args.workload, args.seed, work_dir, client)
            setups.append(spent)
        setup_s = statistics.median(setups) * client.scale()
        gc.collect()
        main = dsm.cli.main
        head = f"workload {args.workload} seed {args.seed}: {len(pool)} requests per pass"
        if not args.trace:
            durations, finished, _ = client.loop(main, pool, args.seconds)
            # read before the statistics below allocate their sorted copies
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            latencies = client.scaled(durations, finished)
            metrics = {k: (v, E2E_UNITS[k])
                       for k, v in end_to_end(latencies, setup_s, peak_rss_mb).items()}
            lines = [f"{head}, {len(latencies)} timed, calibration_loop median"
                     f" {NOMINAL_CALIBRATION_S / client.scale() * 1000:.4f} ms"
                     f" (nominal {NOMINAL_CALIBRATION_S * 1000:.4f} ms)"]
            lines += [f"  {name:<28} {value:.6g} {E2E_UNITS[name]} (wall clock)"
                      for name, value in end_to_end(durations, statistics.median(setups),
                                                    peak_rss_mb).items()
                      if name != "peak_rss_mb"]
        else:
            plain = client.scaled(*client.loop(main, pool, args.seconds / 2)[:2])
            tracer = tracing.Tracer()
            tracer.install(dsm)
            try:
                durations, finished, out_bytes = client.loop(main, pool, args.seconds / 2, tracer)
            finally:
                tracer.remove()
            traced = client.scaled(durations, finished)
            overhead = statistics.fmean(plain) / statistics.fmean(traced)
            metrics, layer_ms = tracer.metrics(len(traced), out_bytes, overhead)
            tracer.spans.dump(OUT / f"trace-{args.workload}.tsv")
            lines = [f"{head}, {len(traced)} traced, {len(tracer.spans)} spans"]
            lines += layer_table(layer_ms, len(traced))
            lines += [f"  not wrapped: {name}" for name in tracer.missing]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    failed_frac = client.failed / client.attempted
    lines += [f"  {name:<28} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"  {'failed_frac':<28} {failed_frac:.6g} ratio"
                 f" ({client.failed} of {client.attempted} requests)")
    for reason, count in client.reasons.most_common(5):
        print(f"failed x{count}: {reason}", file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        run(args)
    except (Unavailable, ImportError, OSError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
