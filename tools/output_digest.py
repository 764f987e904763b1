"""One SHA-256 over every output of the benchmark's request pools.

    python3 tools/output_digest.py [--workload NAME ...] [--seeds 1 2 3 7 11 13] [--runs]

Run from the root of a checkout. For each workload and seed it builds the
request pool of `perfbench/workloads.py` in a temporary directory and runs
every request in-process through `dsmfuse.cli.main`, imported from the
checkout's `src`. A `fuse` request also runs at `--precision 6` with
`--format json` and with `--format table`. Each run feeds (request id,
exit code, stdout, stderr) into one hash.

It prints the run count and the hex digest. Two trees that print the same
digest wrote the same bytes for every run, so a change meant to keep the
output can be checked by running this on the parent and on the change.
With --runs it then prints one line per run, "workload seed run-id sha256"
over that run alone, so a diff of two trees' listings names the runs whose
bytes moved.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PERFBENCH = ROOT / "perfbench"
SCENARIOS = ROOT / "scenarios"

DEFAULT_SEEDS = (1, 2, 3, 7, 11, 13)
PRECISION_VARIANTS = (("json6", ["--format", "json", "--precision", "6"]),
                      ("table6", ["--format", "table", "--precision", "6"]))


def _execute(main, argv):
    """(exit code, stdout, stderr) of one in-process command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse refused the command line
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _runs(pool):
    """(run id, argv) per request of the pool and per precision variant."""
    for req in pool:
        yield req.rid, req.argv
        if req.argv[0] == "fuse":
            for name, extra in PRECISION_VARIANTS:
                yield f"{req.rid}.{name}", req.argv + extra


def _import(module):
    """A module from perfbench/ or from the checkout's src."""
    for path in (PERFBENCH, SRC):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    return importlib.import_module(module)


def digest(names, seeds):
    """(run count, hex SHA-256 over every run of the named workloads, one
    "workload seed run-id sha256" line per run)."""
    workloads = _import("workloads")
    main = _import("dsmfuse.cli").main

    h = hashlib.sha256()
    lines = []
    for name in names:
        for seed in seeds:
            with tempfile.TemporaryDirectory() as tmp:
                pool = workloads.build(name, seed, Path(tmp), SCENARIOS)
                for rid, argv in _runs(pool):
                    rc, out, err = _execute(main, argv)
                    run = json.dumps([name, seed, rid, rc, out, err]).encode()
                    h.update(run)
                    lines.append(f"{name} {seed} {rid} {hashlib.sha256(run).hexdigest()}")
    return len(lines), h.hexdigest(), lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", dest="workloads",
                        help="workload to run (repeatable; default every workload)")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(DEFAULT_SEEDS))
    parser.add_argument("--runs", action="store_true",
                        help="also print one SHA-256 per run, after the total")
    args = parser.parse_args(argv)
    known = _import("workloads").WORKLOADS
    names = args.workloads or list(known)
    for name in names:
        if name not in known:
            parser.error(f"unknown workload {name!r}")
    count, hexdigest, lines = digest(names, args.seeds)
    print(f"runs {count}")
    print(f"sha256 {hexdigest}")
    if args.runs:
        for line in lines:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
